"""Poisson kernel, its averaged operators, and the covariance kernel K(z, w).

All circle integrals here face the same difficulty: the kernel concentrates
in a window of width ~(1-r) around its center, so a uniform grid dies as
r -> 1.  Every operator therefore integrates on one rule, ``_kernel_nodes``:
32-point Gauss-Legendre on panels with edges -pi, pi, the integrand's
breakpoints, each kernel center c and c +- delta 2^j for every delta 2^j < 2 pi,
delta = max((1-r)/floor, 1e-12) with floor 16 unless a caller grades deeper;
all wrapped to (-pi, pi] and merged within 1e-13.  Direct quadrature is
refused above r = 1 - 1e-6; past that only the boundary expansions are
meaningful.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PrecisionError
from .periodic import PI, TWOPI, PeriodicFunction, one_minus_cos, panel_nodes, wrap_angle
from .spectral import SpectralMeasure

__all__ = [
    "KernelPoint", "poisson_kernel", "P_op", "Q_op", "AuxValues", "aux_ops",
    "harmonic_extension", "K_diag", "K_offdiag", "R_CEILING",
]

#: radii above this are refused by direct quadrature
R_CEILING = 1.0 - 1e-6

#: the graded subgrid descends to (1-r) divided by this factor
GRADING_FLOOR = 16.0


@dataclass(frozen=True)
class KernelPoint:
    """Point of the open unit disk in the (r, phi, y=1-r^2) coordinates."""

    z: complex
    r: float
    phi: float
    y: float

    @classmethod
    def from_z(cls, z: complex) -> "KernelPoint":
        z = complex(z)
        r = abs(z)
        if r >= 1.0:
            raise DomainError(f"|z| = {r} is not inside the unit disk")
        return cls(z=z, r=r, phi=cmath.phase(z) if r > 0 else 0.0, y=1.0 - r * r)

    @classmethod
    def from_polar(cls, r: float, phi: float) -> "KernelPoint":
        r, phi = float(r), float(phi)
        if not 0.0 <= r < 1.0:
            raise DomainError(f"radius {r} is not in [0, 1)")
        return cls(z=r * cmath.exp(1j * phi), r=r, phi=float(wrap_angle(phi)), y=1.0 - r * r)


def poisson_kernel(r: float, s) -> float | np.ndarray:
    """(1 - r^2) / (1 - 2r cos s + r^2), stable for all s.

    The denominator is assembled as (1-r)^2 + 2r(1-cos s) with
    1 - cos s = 2 sin(s/2)^2, which keeps full precision near s = 0.
    """
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius {r} must lie in [0, 1)")
    x = one_minus_cos(s)
    out = (1.0 - r * r) / ((1.0 - r) ** 2 + 2.0 * r * x)
    if np.isscalar(s) or (isinstance(s, np.ndarray) and s.ndim == 0):
        return float(out)
    return out


def _check_radius(r: float) -> float:
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius {r} must lie in [0, 1)")
    if r > R_CEILING:
        achievable = np.finfo(float).eps / (1.0 - r) ** 2
        raise PrecisionError(
            f"r = {r} exceeds the quadrature ceiling {R_CEILING}; "
            f"achievable relative tolerance is only about {achievable:.1e}",
            achievable=achievable)
    return r


def graded_edges(r: float, breakpoints=(), centers=(0.0,), floor_scale=GRADING_FLOOR):
    """Panel edges on [-pi, pi], geometrically refined toward each center.

    Edges: -pi, pi, the breakpoints, each center c and c +- delta 2^j for all
    j >= 0 with delta 2^j < 2 pi, delta = max((1-r)/floor_scale, 1e-12), all
    wrapped to (-pi, pi]; sorted, an edge within 1e-13 of the last kept edge
    is merged into it.
    """
    delta = max((1.0 - r) / floor_scale, 1e-12)
    steps = np.ldexp(delta, np.arange(64))  # delta >= 1e-12 passes 2 pi within 43 doublings
    steps = steps[steps < TWOPI]
    c = np.atleast_1d(wrap_angle(centers))
    offsets = wrap_angle(np.concatenate([c[:, None] - steps, c[:, None] + steps]).ravel())
    edges = np.sort(np.concatenate(
        [[-PI, PI], np.atleast_1d(wrap_angle(breakpoints)), c, offsets]))
    gaps = np.diff(edges)
    if np.any((gaps > 0.0) & (gaps <= 1e-13)):
        # rare: a merge chain, decided against the last kept edge
        merged = [edges[0]]
        for p in edges[1:]:
            if p - merged[-1] > 1e-13:
                merged.append(p)
        edges = np.array(merged)
    else:
        edges = edges[np.concatenate(([True], gaps != 0.0))]
    # -pi is the least edge and pi lies within 1e-13 of the greatest kept one
    edges[0], edges[-1] = -PI, PI
    return edges


def _kernel_nodes(r, breakpoints=(), centers=(0.0,), floor_scale=GRADING_FLOOR):
    """The kernel rule: Gauss-Legendre nodes and weights on graded_edges."""
    return panel_nodes(graded_edges(r, breakpoints, centers, floor_scale))


def P_op(h: PeriodicFunction, r: float) -> float:
    """Average of h against the Poisson kernel: (1/2pi) int h P_r."""
    r = _check_radius(r)
    pts, wts = _kernel_nodes(r, h.breakpoints)
    return float(np.sum(h(pts) * poisson_kernel(r, pts) * wts)) / TWOPI


def Q_op(h: PeriodicFunction, r: float) -> float:
    """Average of h against the squared Poisson kernel: (1/2pi) int h P_r^2."""
    r = _check_radius(r)
    pts, wts = _kernel_nodes(r, h.breakpoints)
    return float(np.sum(h(pts) * poisson_kernel(r, pts) ** 2 * wts)) / TWOPI


class AuxValues(NamedTuple):
    U: float
    V: float
    K: float


def aux_ops(h: PeriodicFunction, r: float) -> AuxValues:
    """The three auxiliary kernel averages used by the boundary recursions.

    With x = 1 - cos s and D = (1-r)^2 + 2 r x:

    * U: (1/2pi) int h * 2x / D
    * V: (1/2pi) int h * (2x / D)^2
    * K: (1/2pi) int h * (2x - (1-r)) ((1-r)^2 + 2(1+r) x) / D^2

    They satisfy V(h) = I(h) + (1-r) K(h) identically.
    """
    r = _check_radius(r)
    pts, wts = _kernel_nodes(r, h.breakpoints)
    hv = h(pts)
    x = one_minus_cos(pts)
    e = 1.0 - r
    d = e * e + 2.0 * r * x
    u_int = np.sum(hv * (2.0 * x / d) * wts)
    v_int = np.sum(hv * (2.0 * x / d) ** 2 * wts)
    k_int = np.sum(hv * (2.0 * x - e) * (e * e + 2.0 * (1.0 + r) * x) / d**2 * wts)
    return AuxValues(U=float(u_int) / TWOPI, V=float(v_int) / TWOPI,
                     K=float(k_int) / TWOPI)


# ---------------------------------------------------------------------------
# covariance kernel of the random series
# ---------------------------------------------------------------------------


def harmonic_extension(F: SpectralMeasure, z: complex) -> float:
    """Poisson integral of the measure at z: int P_r(phi - t) dF(t)."""
    pt = KernelPoint.from_z(z)
    _check_radius(pt.r)
    total = 0.0
    if F.density is not None:
        breaks = F.density.breakpoints
        pts, wts = _kernel_nodes(pt.r, breaks, centers=(pt.phi,))
        total += float(np.sum(F.density(pts) * poisson_kernel(pt.r, wrap_angle(pt.phi - pts)) * wts))
    for t, m in F.atoms:
        total += m * poisson_kernel(pt.r, wrap_angle(pt.phi - t))
    return total


def K_diag(F: SpectralMeasure, z: complex) -> float:
    """Variance of the series at z: harmonic extension over (1 - |z|^2)."""
    pt = KernelPoint.from_z(z)
    return harmonic_extension(F, z) / pt.y


def K_offdiag(F: SpectralMeasure, z: complex, w: complex) -> complex:
    """Covariance kernel: int (1 - z e^{-it})^{-1} conj(1 - w e^{-it})^{-1} dF(t)."""
    zp = KernelPoint.from_z(z)
    wp = KernelPoint.from_z(w)
    _check_radius(max(zp.r, wp.r))

    def integrand(t):
        return 1.0 / ((1.0 - z * np.exp(-1j * t)) * np.conj(1.0 - w * np.exp(-1j * t)))

    total = 0.0 + 0.0j
    if F.density is not None:
        pts, wts = _kernel_nodes(max(zp.r, wp.r), F.density.breakpoints,
                                 centers=(zp.phi, wp.phi))
        total += complex(np.sum(F.density(pts) * integrand(pts) * wts))
    for t, m in F.atoms:
        total += m * integrand(np.array(t))
    return complex(total)
