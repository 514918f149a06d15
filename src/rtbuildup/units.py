"""Unit system: energies in eV, lengths in angstrom, times in fs.

This keeps every quantity in the problem O(1)-O(1e4): wavevectors are a few
1e-2 1/A, resonance widths fractions of a meV, lifetimes a few thousand fs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HBAR_EV_FS = 0.6582119569
"""Reduced Planck constant in eV fs (CODATA)."""

HBAR2_OVER_2ME_EV_A2 = 3.80998
"""hbar^2 / (2 m_e) in eV A^2, for the free electron mass."""


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants for a carrier of effective mass ``electron_mass_factor * m_e``."""

    electron_mass_factor: float = 0.067

    def __post_init__(self) -> None:
        if not self.electron_mass_factor > 0.0:
            raise ValueError(
                f"electron_mass_factor must be positive, got {self.electron_mass_factor}"
            )

    @property
    def hbar(self) -> float:
        """hbar in eV fs."""
        return HBAR_EV_FS

    @property
    def hbar2_over_2m(self) -> float:
        """hbar^2 / (2 m*) in eV A^2."""
        return HBAR2_OVER_2ME_EV_A2 / self.electron_mass_factor

    def wavevector(self, energy_ev: float) -> float:
        """k in 1/A with E = hbar^2 k^2 / 2m*, for real E > 0."""
        if energy_ev <= 0.0:
            raise ValueError(f"energy must be positive, got {energy_ev}")
        return math.sqrt(energy_ev / self.hbar2_over_2m)

    def complex_wavevector(self, energy_ev: complex) -> complex:
        """Principal-branch k for complex energy."""
        return complex(energy_ev / self.hbar2_over_2m) ** 0.5

    def energy_ev(self, k: complex) -> complex:
        """E = hbar^2 k^2 / 2m* for real or complex momentum."""
        return self.hbar2_over_2m * k * k
