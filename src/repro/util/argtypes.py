"""argparse value types shared by the ``repro`` command parsers.

Each converter turns one option string into a number or raises
:class:`argparse.ArgumentTypeError`, which argparse reports as a one-line
usage error with exit status 2 — before any command does work.  The
top-level CLI and the queue worker's parser (``repro work``) both declare
their numeric options with these, so one rule holds for every spelling
of a lease, a timeout or a retry bound.
"""

from __future__ import annotations

import argparse
import math
from collections.abc import Callable


def positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {number}")
    return number


def non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {number}")
    return number


def finite_positive_float(value: str) -> float:
    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {value}")
    return number


def finite_non_negative_float(value: str) -> float:
    number = float(value)
    if not (math.isfinite(number) and number >= 0):
        raise argparse.ArgumentTypeError(
            f"must be zero or a finite positive number, got {value}"
        )
    return number


def finite_positive_float_at_most(cap: float) -> Callable[[str], float]:
    """A :func:`finite_positive_float` that also refuses values above ``cap``."""

    def convert(value: str) -> float:
        number = finite_positive_float(value)
        if number > cap:
            raise argparse.ArgumentTypeError(
                f"must be a finite positive number no larger than {cap:g}, got {value}"
            )
        return number

    convert.__name__ = f"finite_positive_float_at_most_{cap:g}"
    return convert
