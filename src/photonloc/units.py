"""Physical constants used throughout the package.

All numerical work defaults to natural units (hbar = c = eps0 = 1).  The
dataclass exists so that every formula carries its dimensional factors
explicitly and results can be rescaled to any consistent unit system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class UnitsConfig:
    """Fundamental constants for a consistent unit system."""

    hbar: float = 1.0
    c: float = 1.0
    eps0: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "c", "eps0"):
            value = getattr(self, name)
            if not (0.0 < value < math.inf):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


NATURAL = UnitsConfig()
