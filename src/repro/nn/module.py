"""The module system: parameter registration, train/eval mode, state dicts.

Mirrors the (small) subset of ``torch.nn.Module`` semantics the paper's
models require.  Attribute assignment auto-registers parameters, buffers
and submodules, so models read like their PyTorch equivalents.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["Parameter", "Module", "Sequential"]


class Parameter(Tensor):
    """A tensor that is registered as a trainable model parameter."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)

    def __repr__(self) -> str:
        return f"Parameter(shape={self.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses define parameters/buffers/submodules as attributes in
    ``__init__`` and implement :meth:`forward`.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    # -- registration -----------------------------------------------------------

    def __setattr__(self, name: str, value: Any) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._buffers.pop(name, None)
            self._modules.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array saved in the state dict
        (e.g. batch-norm running statistics)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # -- traversal -----------------------------------------------------------------

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` for this module and descendants."""
        yield prefix, self
        for name, child in self._modules.items():
            child_prefix = f"{prefix}.{name}" if prefix else name
            yield from child.named_modules(child_prefix)

    def modules(self) -> Iterator["Module"]:
        """All modules in the tree (depth-first, self first)."""
        for _, module in self.named_modules():
            yield module

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` over the whole tree."""
        for mod_name, module in self.named_modules(prefix):
            for par_name, par in module._parameters.items():
                full = f"{mod_name}.{par_name}" if mod_name else par_name
                yield full, par

    def parameters(self) -> list[Parameter]:
        """All trainable parameters in the tree."""
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, buffer)`` over the whole tree."""
        for mod_name, module in self.named_modules(prefix):
            for buf_name, buf in module._buffers.items():
                full = f"{mod_name}.{buf_name}" if mod_name else buf_name
                yield full, buf

    # -- train/eval ------------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        """Set train (default) or eval mode recursively."""
        for module in self.modules():
            object.__setattr__(module, "training", bool(mode))
        return self

    def eval(self) -> "Module":
        """Set eval mode recursively."""
        return self.train(False)

    # -- gradients ---------------------------------------------------------------------

    def zero_grad(self) -> None:
        """Clear the gradient of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    # -- state dict ---------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameters and buffers keyed by qualified name."""
        state: dict[str, np.ndarray] = {}
        for name, par in self.named_parameters():
            state[name] = par.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.array(buf, copy=True)
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameters and buffers in place; shapes must match exactly."""
        own_params = dict(self.named_parameters())
        own_buffers: dict[str, tuple[Module, str]] = {}
        for mod_name, module in self.named_modules():
            for buf_name in module._buffers:
                full = f"{mod_name}.{buf_name}" if mod_name else buf_name
                own_buffers[full] = (module, buf_name)
        expected = set(own_params) | set(own_buffers)
        if set(state) != expected:
            missing = sorted(expected - set(state))
            unexpected = sorted(set(state) - expected)
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")
        for name, par in own_params.items():
            value = np.asarray(state[name], dtype=np.float32)
            if value.shape != par.shape:
                raise ValueError(f"shape mismatch for {name}: {value.shape} != {par.shape}")
            par.data[...] = value
        for name, (module, buf_name) in own_buffers.items():
            value = np.asarray(state[name])
            buf = module._buffers[buf_name]
            if value.shape != buf.shape:
                raise ValueError(f"shape mismatch for buffer {name}: {value.shape} != {buf.shape}")
            buf[...] = value

    # -- call protocol ---------------------------------------------------------------------

    def forward(self, *args, **kwargs):
        """Compute the module's output; subclasses must override."""
        raise NotImplementedError(f"{type(self).__name__} does not implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        children = ", ".join(self._modules)
        return f"{type(self).__name__}({children})"


class Sequential(Module):
    """Run submodules in order; ``Sequential(a, b, c)(x) == c(b(a(x)))``."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for i, module in enumerate(modules):
            setattr(self, str(i), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def forward(self, x: Tensor) -> Tensor:
        for module in self:
            x = module(x)
        return x
