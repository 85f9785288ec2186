"""Neural-network modules built on :mod:`repro.tensor`.

Provides the layer/module system the paper's models need (Conv2d, Linear,
BatchNorm2d, pooling, ReLU, Sequential), weight initialization, losses,
optimizers, parameter counts — and the paper's model family:
:class:`~repro.nn.resnet.SearchableResNet18`, a ResNet-18 parameterized by
the Figure-2 search space.
"""

from repro.nn.module import Module, Parameter, Sequential
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.loss import CrossEntropyLoss
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.resnet import BasicBlock, SearchableResNet18, build_baseline_resnet18, build_model
from repro.nn.summary import count_parameters

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Conv2d",
    "Linear",
    "BatchNorm2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "ReLU",
    "Dropout",
    "Identity",
    "Flatten",
    "CrossEntropyLoss",
    "Optimizer",
    "SGD",
    "Adam",
    "BasicBlock",
    "SearchableResNet18",
    "build_baseline_resnet18",
    "build_model",
    "count_parameters",
]
