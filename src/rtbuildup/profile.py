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
    widths: np.ndarray = field(init=False, repr=False, compare=False)
    heights: np.ndarray = field(init=False, repr=False, compare=False)
    # what ``scattering._march`` reads of the profile: the rows of the segments with a height,
    # their heights over hbar^2/2m (the k^2 each takes off) and i w of every segment
    _lifted: np.ndarray = field(init=False, repr=False, compare=False)
    _lifted_k2: np.ndarray = field(init=False, repr=False, compare=False)
    _iw: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.segments:
            raise ProfileError("profile needs at least one segment")
        for i, (width, height) in enumerate(self.segments):
            if not 0.0 < width < math.inf:
                raise ProfileError(f"segment {i}: width must be positive and finite, got {width}")
            if not math.isfinite(height):
                raise ProfileError(f"segment {i}: height must be finite, got {height}")
        widths, heights = np.array(self.segments).T.copy()
        edges = np.concatenate(([0.0], np.cumsum(widths)))
        lifted = np.flatnonzero(heights)
        lifted_k2 = heights[lifted] / self.constants.hbar2_over_2m
        for name, value in (
            ("boundaries", edges), ("widths", widths), ("heights", heights),
            ("_lifted", lifted), ("_lifted_k2", lifted_k2), ("_iw", 1j * widths),
        ):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def total_length(self) -> float:
        """L in angstrom."""
        return float(self.boundaries[-1])


def build_profile(
    segments: Iterable[Sequence[float]],
    mass_factor: float = 0.067,
) -> PotentialProfile:
    """Validated profile from (width_angstrom, height_ev) pairs."""
    if not 0.0 < mass_factor < math.inf:
        raise ProfileError(f"mass_factor must be positive and finite, got {mass_factor}")
    segs = tuple((float(w), float(h)) for w, h in segments)
    return PotentialProfile(segs, PhysicalConstants(electron_mass_factor=mass_factor))

