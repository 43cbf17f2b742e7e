"""Spectral measures on (-pi, pi] and their covariances.

A :class:`SpectralMeasure` is a probability measure ``F`` split into an
absolutely continuous part (a nonnegative :class:`~gafzeros.periodic.PeriodicFunction`
density, in mass per radian) and a finite list of atoms.  Its Fourier
coefficients are the covariances gamma(k) of the stationary coefficient
process; gamma(0) = 1 is enforced wherever normalization matters.  Operations
on a density slice (``t_operator``, ``derivative_at_zero``) live in ``periodic``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NormalizationError
from .periodic import PI, TWOPI, PeriodicFunction, mean, wrap_angle

__all__ = ["SpectralMeasure", "covariance", "shift"]

_MASS_TOL = 1e-10
_COVARIANCE_CAP = 8192


@dataclass(frozen=True)
class SpectralMeasure:
    """Probability measure on (-pi, pi]: density part plus point masses."""

    density: PeriodicFunction | None = None
    atoms: tuple[tuple[float, float], ...] = ()
    label: str = ""

    def __post_init__(self):
        atoms = tuple((float(t), float(m)) for t, m in self.atoms)
        parts = [np.array(atoms, dtype=float)]
        if self.density is not None:
            parts += [self.density.breakpoints, *(p.c for p, _ in self.density.pieces)]
        if not all(np.isfinite(a).all() for a in parts):
            raise DomainError("an atom or a density coefficient is not finite")
        if any(m <= 0 for _, m in atoms):
            raise DomainError("atom masses must be positive")
        if self.density is not None:
            self.density.support()  # DomainError where the density is negative
        object.__setattr__(self, "atoms", tuple((float(wrap_angle(t)), m) for t, m in atoms))

    @property
    def atom_mass(self) -> float:
        return math.fsum(m for _, m in self.atoms)

    @property
    def density_mass(self) -> float:
        return TWOPI * mean(self.density) if self.density is not None else 0.0

    def total_mass(self) -> float:
        return self.density_mass + self.atom_mass

    def validate_normalized(self):
        mass = self.total_mass()
        if abs(mass - 1.0) > _MASS_TOL:
            raise NormalizationError(
                f"total mass {mass!r} differs from 1 by more than {_MASS_TOL}")

    def relative_density(self, phi: float = 0.0) -> PeriodicFunction:
        """Density against the uniform measure, re-centered at angle ``phi``.

        Returns 2*pi*density(s + phi); the uniform measure maps to the
        constant 1.  Intensity ratios are invariant under the overall scale,
        so this is the convenient slice for boundary work.
        """
        if self.density is None:
            raise DomainError("measure has no density part")
        return (TWOPI * self.density).shifted(float(phi))


def covariance(F: SpectralMeasure, k: int) -> complex:
    """Fourier coefficient of the measure: integral of exp(-i k t) dF(t)."""
    k = int(k)
    if abs(k) > _COVARIANCE_CAP:
        raise DomainError(f"|k| capped at {_COVARIANCE_CAP}")
    F.validate_normalized()
    out = 0.0 + 0.0j
    if F.density is not None:
        out += complex(F.density.integrals([-PI, PI], k)[0])
    for t, m in F.atoms:
        out += m * np.exp(-1j * k * t)
    return complex(out)


def shift(F: SpectralMeasure, phi: float) -> SpectralMeasure:
    """Rotated measure: the shifted measure assigns to A the mass F(A + phi)."""
    phi = float(phi)
    dens = F.density.shifted(phi) if F.density is not None else None
    atoms = tuple((float(wrap_angle(t - phi)), m) for t, m in F.atoms)
    lab = f"{F.label}@{phi:+.4g}" if F.label else ""
    return SpectralMeasure(density=dens, atoms=atoms, label=lab)
