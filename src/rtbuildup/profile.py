"""Piecewise-constant 1D potential profiles on [0, L], zero outside."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .units import PhysicalConstants


class ProfileError(ValueError):
    """Invalid potential profile definition."""


@dataclass(frozen=True)
class PotentialProfile:
    """Ordered (width_angstrom, height_ev) segments starting at x = 0.

    The potential is identically zero for x < 0 and x > L (scattering
    boundary condition).  Immutable after construction.
    """

    segments: tuple[tuple[float, float], ...]
    constants: PhysicalConstants
    boundaries: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ProfileError("profile needs at least one segment")
        for i, (width, height) in enumerate(self.segments):
            if not 0.0 < width < math.inf:
                raise ProfileError(f"segment {i}: width must be positive and finite, got {width}")
            if not math.isfinite(height):
                raise ProfileError(f"segment {i}: height must be finite, got {height}")
        edges = np.concatenate(([0.0], np.cumsum([w for w, _ in self.segments])))
        object.__setattr__(self, "boundaries", edges)

    @property
    def total_length(self) -> float:
        """L in angstrom."""
        return float(self.boundaries[-1])

    @property
    def widths(self) -> np.ndarray:
        return np.asarray([w for w, _ in self.segments])

    @property
    def heights(self) -> np.ndarray:
        return np.asarray([h for _, h in self.segments])


def build_profile(
    segments: Iterable[Sequence[float]],
    mass_factor: float = 0.067,
) -> PotentialProfile:
    """Validated profile from (width_angstrom, height_ev) pairs."""
    if not 0.0 < mass_factor < math.inf:
        raise ProfileError(f"mass_factor must be positive and finite, got {mass_factor}")
    segs = tuple((float(w), float(h)) for w, h in segments)
    return PotentialProfile(segs, PhysicalConstants(electron_mass_factor=mass_factor))


def potential_at(profile: PotentialProfile, x: float) -> float:
    """Height of the segment containing x; 0 outside [0, L].

    At an interior boundary the height of the segment to the right is
    returned (arbitrary convention, documented for determinism).
    """
    idx = int(np.searchsorted(profile.boundaries, x, side="right")) - 1
    if idx < 0 or idx >= len(profile.segments):
        return 0.0
    return profile.segments[idx][1]
