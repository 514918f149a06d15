"""Piecewise-constant 1D potential profiles on [0, L], zero outside.

Unit system: energies in eV, lengths in angstrom, times in fs.  This keeps
every quantity in the problem O(1)-O(1e4): wavevectors are a few 1e-2 1/A,
resonance widths fractions of a meV, lifetimes a few thousand fs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

HBAR_EV_FS = 0.6582119569
"""Reduced Planck constant in eV fs (CODATA)."""

HBAR2_OVER_2ME_EV_A2 = 3.80998
"""hbar^2 / (2 m_e) in eV A^2, for the free electron mass."""


class ProfileError(ValueError):
    """Invalid potential profile definition."""


@dataclass(frozen=True)
class PotentialProfile:
    """Ordered (width_angstrom, height_ev) segments starting at x = 0.

    The potential is identically zero for x < 0 and x > L (scattering
    boundary condition); the carrier has effective mass ``mass_factor * m_e``.
    Immutable after construction; besides the segments and the mass it keeps
    only the read-only arrays ``boundaries``, ``widths`` and ``heights``.
    """

    segments: tuple[tuple[float, float], ...]
    mass_factor: float
    boundaries: np.ndarray = field(init=False, repr=False, compare=False)
    widths: np.ndarray = field(init=False, repr=False, compare=False)
    heights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.mass_factor < math.inf:  # an infinite mass gives hbar^2/2m = 0
            raise ProfileError(f"mass_factor must be positive and finite, got {self.mass_factor}")
        if not self.segments:
            raise ProfileError("profile needs at least one segment")
        for i, (width, height) in enumerate(self.segments):
            if not 0.0 < width < math.inf:
                raise ProfileError(f"segment {i}: width must be positive and finite, got {width}")
            if not math.isfinite(height):
                raise ProfileError(f"segment {i}: height must be finite, got {height}")
        widths, heights = np.array(self.segments).T.copy()
        edges = np.concatenate(([0.0], np.cumsum(widths)))
        for name, value in (("boundaries", edges), ("widths", widths), ("heights", heights)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def total_length(self) -> float:
        """L in angstrom."""
        return float(self.boundaries[-1])

    @property
    def hbar2_over_2m(self) -> float:
        """hbar^2 / (2 m*) in eV A^2."""
        return HBAR2_OVER_2ME_EV_A2 / self.mass_factor

    def wavevector(self, energy_ev: float) -> float:
        """k in 1/A with E = hbar^2 k^2 / 2m*, for real 0 < E < inf."""
        if not 0.0 < energy_ev < math.inf:
            raise ValueError(f"energy must be positive and finite, got {energy_ev}")
        return math.sqrt(energy_ev / self.hbar2_over_2m)

    def energy_ev(self, k: complex) -> complex:
        """E = hbar^2 k^2 / 2m* for real or complex momentum."""
        return self.hbar2_over_2m * k * k


def build_profile(
    segments: Iterable[Sequence[float]],
    mass_factor: float = 0.067,
) -> PotentialProfile:
    """Validated profile from (width_angstrom, height_ev) pairs."""
    segs = tuple((float(w), float(h)) for w, h in segments)
    return PotentialProfile(segs, mass_factor)
