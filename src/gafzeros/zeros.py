"""Roots of truncated random series and region counting.

The workhorse is a vectorized Aberth-Ehrlich simultaneous iteration with
Newton polishing: O(N^2) work per sweep and O(N) memory, which covers the
degree-400 Monte Carlo reproductions comfortably.  A companion-matrix route
is kept alongside as an independent oracle for moderate degrees.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryTieWarning, DomainError, SolverError
from .periodic import power_table

__all__ = [
    "ZeroSet", "find_roots", "companion_roots", "count_region",
    "disk", "annulus", "sector",
]

MAX_DEGREE = 2048
_TIE_TOL = 1e-12
_BLOCK = 128  # coefficients per block of ``_power_sums``


@dataclass(frozen=True)
class ZeroSet:
    """All roots of one polynomial plus a residual quality measure.

    ``residual`` is the largest relative backward error
    max_i |p(z_i)| / sum_k |c_k| |z_i|^k, which is meaningful on both sides
    of the unit circle (an absolute |p| bound is unattainable outside, where
    |p| scales like |z|^N).
    """

    roots: np.ndarray
    degree: int
    residual: float

    def __len__(self):
        return self.roots.size


def _power_sums(rows, z):
    """sum_k rows[g, k] z^k for each row g, shape (rows, z.size).  Blocks of _BLOCK
    coefficients are summed against one ``power_table`` of z^0 .. z^(_BLOCK - 1) by a real
    einsum over the table's (re, im) pairs, whose inner loop is a vectorised axpy that holds
    neither the GIL nor a BLAS pool; the block sums are joined by Horner in z^_BLOCK."""
    g, n = rows.shape
    m = min(_BLOCK, n)
    table = power_table(z.astype(complex, copy=False), m)
    blocks = np.pad(rows, ((0, 0), (0, -n % m))).reshape(g, -1, m)
    sums = np.einsum("xjb,bk->jxk", np.concatenate([blocks.real, blocks.imag]), table.view(float))
    rc, ic = sums[:, :g], sums[:, g:]  # Re and Im of the rows times z^b's (re, im) pairs
    sums = (rc[..., 0::2] - ic[..., 1::2]) + 1j * (rc[..., 1::2] + ic[..., 0::2])
    zm, out = table[-1] * z, sums[-1]
    for s in sums[-2::-1]:
        out = out * zm + s
    return out


def _newton_ratio(c, z):
    """w = p(z)/p'(z), overflow-safe on both sides of the unit circle: p and p' summed at z
    inside |z| <= 1, outside through the reversed polynomial at u = 1/z (p(z) = z^N rev(u)),
    which keeps every power bounded:  w = z rev(u) / (N rev(u) - u rev'(u))."""
    k = np.arange(c.size)
    w = np.empty_like(z)
    inside = np.abs(z) <= 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for side, rev in ((inside, False), (~inside, True)):
            if np.any(side):
                zs = z[side]
                pts, cs = (1.0 / zs, c[::-1]) if rev else (zs, c)
                p, dp = _power_sums(np.stack([cs, np.roll(cs * k, -1)]), pts)
                num, den = (zs * p, k[-1] * p - pts * dp) if rev else (p, dp)
                w[side] = num / np.where(den == 0, np.finfo(float).tiny, den)
    return np.nan_to_num(w, nan=0.0, posinf=0.0, neginf=0.0)


def _backward_residual(coeffs, roots) -> float:
    """max |p(z)| / sum_k |c_k| |z|^k, via the reversed form outside the circle."""
    inside = np.abs(roots) <= 1.0
    out = [0.0]
    for cs, pts in ((coeffs, roots[inside]), (coeffs[::-1], 1.0 / roots[~inside])):
        if pts.size:
            p = _power_sums(cs[None, :], pts)[0]
            scale = _power_sums(np.abs(cs)[None, :], np.abs(pts))[0].real
            out.append(np.max(np.abs(p) / np.maximum(scale, 1e-300)))
    return float(max(out))


def find_roots(coeffs) -> ZeroSet:
    """All complex roots of sum_k coeffs[k] z^k by simultaneous iteration.

    Leading zero coefficients are trimmed (lowering the degree); trailing
    zeros are deflated into exact roots at the origin.  Initial points sit on
    the circle whose radius is the geometric mean of the root moduli,
    |c_0 / c_N|^(1/N), with a small angular offset to break symmetry.

    Raises SolverError (with the partial result attached) if the relative
    step is still above 1e-13 after 120 sweeps and the residual above 1e-8.
    """
    c = np.asarray(coeffs, dtype=complex).ravel()
    if c.size < 2:
        raise DomainError("need a polynomial of degree at least 1")
    nz = np.nonzero(c)[0]
    if nz.size == 0:
        raise DomainError("zero polynomial has no well-defined roots")
    c, n_origin = c[nz[0]: nz[-1] + 1], int(nz[0])
    degree_total = c.size - 1 + n_origin
    if degree_total > MAX_DEGREE:
        raise DomainError(f"degree {degree_total} exceeds cap {MAX_DEGREE}")
    origin_roots = np.zeros(n_origin, dtype=complex)
    if c.size < 2:
        return ZeroSet(roots=origin_roots, degree=degree_total, residual=0.0)

    c = c / np.abs(c).max()
    n = c.size - 1
    radius = min(max(abs(c[0] / c[-1]) ** (1.0 / n), 1e-6), 1e6)
    angles = 2.0 * np.pi * (np.arange(n) + 0.5) / n + 0.4 / n
    z = radius * np.exp(1j * angles)

    converged = False
    for _ in range(120):
        w = _newton_ratio(c, z)
        with np.errstate(divide="ignore", invalid="ignore"):
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            inv = 1.0 / diff
            np.fill_diagonal(inv, 0.0)
            denom = 1.0 - w * inv.sum(axis=1)
            step = np.where(np.abs(denom) > 1e-12, w / np.where(denom != 0, denom, 1.0), w)
        step = np.nan_to_num(step, nan=0.0, posinf=0.0, neginf=0.0)
        z = z - step
        if np.max(np.abs(step) / (1.0 + np.abs(z))) < 1e-13:
            converged = True
            break
    for _ in range(3):  # Newton polish
        z = z - _newton_ratio(c, z)
    roots = np.concatenate([origin_roots, z])
    residual = _backward_residual(c, z)
    zs = ZeroSet(roots=roots, degree=degree_total, residual=residual)
    if not converged and residual > 1e-8:
        raise SolverError(
            f"simultaneous iteration stalled at residual {residual:.2e} "
            "after 120 sweeps", partial=zs)
    return zs


def companion_roots(coeffs) -> np.ndarray:
    """Eigenvalues of the companion matrix; the independent cross-check."""
    c = np.asarray(coeffs, dtype=complex).ravel()
    return np.roots(c[::-1])


# ---------------------------------------------------------------------------
# counting regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class disk:
    radius: float


@dataclass(frozen=True)
class annulus:
    r_lo: float
    r_hi: float


@dataclass(frozen=True)
class sector:
    r_lo: float
    r_hi: float
    phi_lo: float
    phi_hi: float


def _angle_inside(phi, lo, hi, tol):
    width = (hi - lo) % (2.0 * np.pi)
    if width == 0.0:
        width = 2.0 * np.pi
    rel = (phi - lo) % (2.0 * np.pi)
    strict = (rel > tol) & (rel < width - tol)
    tie = (np.abs(rel) <= tol) | (np.abs(rel - width) <= tol) | \
        (np.abs(rel - 2.0 * np.pi) <= tol)
    return strict, tie


def count_region(zs: ZeroSet, region) -> int:
    """Roots strictly inside the region; ties within 1e-12 of a boundary are
    counted as inside and flagged with a BoundaryTieWarning."""
    r = np.abs(zs.roots)
    if isinstance(region, disk):
        if region.radius < 0:
            raise DomainError("disk radius must be nonnegative")
        strict = r < region.radius - _TIE_TOL
        tie = np.abs(r - region.radius) <= _TIE_TOL
    elif isinstance(region, annulus):
        if not 0 <= region.r_lo <= region.r_hi:
            raise DomainError("annulus needs 0 <= r_lo <= r_hi")
        strict = (r > region.r_lo + _TIE_TOL) & (r < region.r_hi - _TIE_TOL)
        tie = ((np.abs(r - region.r_lo) <= _TIE_TOL) |
               (np.abs(r - region.r_hi) <= _TIE_TOL)) & \
            (r <= region.r_hi + _TIE_TOL) & (r >= region.r_lo - _TIE_TOL)
    elif isinstance(region, sector):
        if not 0 <= region.r_lo <= region.r_hi:
            raise DomainError("sector needs 0 <= r_lo <= r_hi")
        rad_strict = (r > region.r_lo + _TIE_TOL) & (r < region.r_hi - _TIE_TOL)
        rad_tie = ((np.abs(r - region.r_lo) <= _TIE_TOL) |
                   (np.abs(r - region.r_hi) <= _TIE_TOL))
        ang_strict, ang_tie = _angle_inside(np.angle(zs.roots), region.phi_lo,
                                            region.phi_hi, _TIE_TOL)
        strict = rad_strict & ang_strict
        tie = ((rad_tie & (ang_strict | ang_tie)) | (rad_strict & ang_tie))
    else:
        raise DomainError(f"unsupported region {region!r}")
    n_tie = int(np.count_nonzero(tie & ~strict))
    if n_tie:
        warnings.warn(f"{n_tie} root(s) on the region boundary within "
                      f"{_TIE_TOL}; counted as inside", BoundaryTieWarning,
                      stacklevel=2)
    return int(np.count_nonzero(strict)) + n_tie