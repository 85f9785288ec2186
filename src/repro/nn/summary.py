"""Model introspection: parameter counts (Figure 1)."""

from __future__ import annotations

from repro.nn.module import Module

__all__ = ["count_parameters"]


def count_parameters(module: Module, trainable_only: bool = True) -> int:
    """Total number of scalar parameters in the module tree."""
    del trainable_only  # every Parameter is trainable in this library
    return sum(p.size for p in module.parameters())
