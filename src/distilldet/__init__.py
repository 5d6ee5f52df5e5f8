"""Desk-scale teacher/student pedestrian detector with hierarchical feature
matching: a from-scratch autodiff tensor core, an FPN two-stage detector,
all-level region cropping, three feature-matching losses, and miss-rate/FPPI
scoring."""

from .autodiff import ShapeError, Tape, TapeError, Tensor, backward
from .train import SGD

__version__ = "0.1.0"
