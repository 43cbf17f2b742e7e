"""First intensity of the zero process, by three independent routes.

* ``rho1_spectral``: the double integral against the rotated measure,
  collapsed to three single integrals through
  1 - cos(t - s) = 1 - cos t cos s - sin t sin s.  Works for any measure,
  atoms included (atom terms are summed in closed form).
* ``rho1_qform``: the same ratio written through the kernel averages of the
  symmetrized density slice; absolutely continuous measures only.
* ``rho1_ek_numeric``: a five-point discrete Laplacian of log K(z, z),
  kept deliberately independent of the other two as a cross-check oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (CaseMismatch, DegenerateDenominator, DomainError,
                     MethodUnavailable)
from .periodic import PI, TWOPI, PeriodicFunction, one_minus_cos, panel_nodes, wrap_angle
from .poisson import K_diag, KernelPoint, _check_radius, _kernel_nodes, poisson_kernel
from .spectral import SpectralMeasure

__all__ = [
    "rho1", "rho1_spectral", "rho1_qform", "rho1_ek_numeric",
    "sr_value", "sr_positive_form",
]

_DENOM_FLOOR = 1e-150


def rho1(F: SpectralMeasure, z: complex, method: str = "auto") -> float:
    """Dispatch a zero-density query to the chosen route.

    ``auto`` picks the quadratic-form route when the measure is absolutely
    continuous (cheaper and better conditioned) and the general double
    integral otherwise.
    """
    if method == "auto":
        method = "q_form" if (F.density is not None and not F.atoms) else "spectral_double"
    if method in ("spectral_double", "spectral"):
        return rho1_spectral(F, z)
    if method in ("q_form", "qform"):
        return rho1_qform(F, z)
    if method in ("ek_numeric", "ek"):
        return rho1_ek_numeric(F, z)
    raise DomainError(f"unknown intensity method {method!r}")


def _rotated_atoms(F: SpectralMeasure, phi: float):
    return [(wrap_angle(t - phi), m) for t, m in F.atoms]


def _moment_integrals(F: SpectralMeasure, pt: KernelPoint):
    """Squared-kernel moments of the rotated measure against (1 - cos s),
    (1 + cos s) and sin s, plus the plain Poisson integral.

    The numerator A^2 - C^2 - S^2 (plain/cosine/sine moments) is assembled as
    the product form (A - C)(A + C) - S^2 with A -+ C integrated directly:
    A and C separately diverge like 1/y and their squares cancel
    catastrophically, while A - C stays O(1).
    """
    minus = plus = s_ = b = 0.0
    if F.density is not None:
        dens_phi = F.density.shifted(pt.phi)
        pts, wts = _kernel_nodes(pt.r, dens_phi.breakpoints)
        fv = dens_phi(pts) * wts
        pk = poisson_kernel(pt.r, pts)
        pk2 = pk * pk
        x = one_minus_cos(pts)
        minus += float(np.sum(fv * x * pk2))
        plus += float(np.sum(fv * (2.0 - x) * pk2))
        s_ += float(np.sum(fv * np.sin(pts) * pk2))
        b += float(np.sum(fv * pk))
    for u, m in _rotated_atoms(F, pt.phi):
        pk2 = poisson_kernel(pt.r, u) ** 2
        x = float(one_minus_cos(u))
        minus += m * x * pk2
        plus += m * (2.0 - x) * pk2
        s_ += m * math.sin(u) * pk2
        b += m * poisson_kernel(pt.r, u)
    return minus, plus, s_, b


def rho1_spectral(F: SpectralMeasure, z: complex) -> float:
    """Zero density at z from the double-integral representation.

    The double integral of {1 - cos(t-s)} against the squared kernels
    factorizes into single moments, reducing O(M^2) to O(M) and keeping atom
    contributions exact.
    """
    F.validate_normalized()
    pt = KernelPoint.from_z(z)
    _check_radius(pt.r)
    minus, plus, s_, b = _moment_integrals(F, pt)
    if not np.isfinite(b) or b <= _DENOM_FLOOR:
        raise DegenerateDenominator(
            f"harmonic extension underflowed at z = {z!r} "
            f"(value {b!r}); the measure carries no mass near this direction")
    num = minus * plus - s_ * s_
    return num / (PI * pt.y**2 * b * b)


def _qform_parts(f_phi: PeriodicFunction, r: float):
    """P(fhat) and the numerator functional, on one kernel rule shared by
    both, the numerator in its cancellation-free product form:

        Q(fhat)^2 - Q(fhat cos)^2 - Q(fcheck sin)^2
          = Q(fhat (1-cos)) Q(fhat (1+cos)) - Q(fcheck sin)^2.

    The grouped factors stay O(1) and O(1/y) respectively, while the squares
    on the left lose all digits to cancellation as r -> 1.  The weights
    1 -+ cos s are formed from 2 sin(s/2)^2, not from trig coefficients whose
    near-zero evaluation would cancel.
    """
    f_hat = f_phi.hat()
    pts, wts = _kernel_nodes(r, f_hat.breakpoints)
    hv = f_hat(pts)
    pk = poisson_kernel(r, pts)
    p_hat = float(np.sum(hv * pk * wts)) / TWOPI
    pk2 = pk**2
    x = one_minus_cos(pts)
    fh = hv * pk2 * wts
    q_minus = float(np.sum(fh * x)) / TWOPI
    q_plus = float(np.sum(fh * (2.0 - x))) / TWOPI
    q_sin = float(np.sum(f_phi.check()(pts) * np.sin(pts) * pk2 * wts)) / TWOPI
    return p_hat, q_minus * q_plus - q_sin * q_sin


def rho1_qform(F: SpectralMeasure, z: complex) -> float:
    """Zero density at z via kernel averages of the symmetrized density slice."""
    if F.atoms:
        raise MethodUnavailable("q_form requires an absolutely continuous measure")
    if F.density is None:
        raise MethodUnavailable("q_form requires a density")
    pt = KernelPoint.from_z(z)
    _check_radius(pt.r)
    p_hat, s_r = _qform_parts(F.relative_density(pt.phi), pt.r)
    if not np.isfinite(p_hat) or p_hat <= _DENOM_FLOOR:
        raise DegenerateDenominator(f"Poisson average underflowed at z = {z!r}")
    return s_r / (PI * pt.y**2 * p_hat * p_hat)


def rho1_ek_numeric(F: SpectralMeasure, z: complex, step: float | None = None) -> float:
    """Zero density as (1/4pi) times a discrete Laplacian of log K(z, z).

    Five-point stencil with default step 1e-3 (1 - |z|); this route shares no
    code with the spectral/quadratic-form evaluators beyond K itself.
    """
    pt = KernelPoint.from_z(z)
    h = 1e-3 * (1.0 - pt.r) if step is None else float(step)
    if h <= 0:
        raise DomainError("step must be positive")
    if pt.r + 2.0 * h >= 1.0:
        raise DomainError(f"stencil of step {h} leaves the unit disk at |z| = {pt.r}")
    zc = pt.z

    def logk(p):
        return math.log(K_diag(F, p))

    lap = (logk(zc + h) + logk(zc - h) + logk(zc + 1j * h) + logk(zc - 1j * h)
           - 4.0 * logk(zc)) / (h * h)
    return lap / (4.0 * PI)


# ---------------------------------------------------------------------------
# the numerator functional of the intensity ratio
# ---------------------------------------------------------------------------


def sr_value(F: SpectralMeasure, phi: float, r: float) -> float:
    """Numerator of the intensity ratio at radius r, direction phi.

    Computes Q(fhat)^2 - Q(fhat cos)^2 - Q(fcheck sin)^2 for the rotated
    density slice; nonnegative up to quadrature noise.
    """
    if F.atoms or F.density is None:
        raise MethodUnavailable("numerator functional requires a pure density")
    r = _check_radius(r)
    return _qform_parts(F.relative_density(phi), r)[1]


def sr_positive_form(F: SpectralMeasure, phi: float) -> float:
    """Boundary limit of the doubly-degenerate numerator, in manifestly
    nonnegative form.

    Requires the rotated slice to vanish to second order at 0 (the doubly
    degenerate case).  Evaluates

        (1/4) avg_{s,t} [G(s,t) + G(s,-t)] / ((1-cos s)^2 (1-cos t)^2),

    G(s,t) = {f(s)f(t) + f(-s)f(-t)} {1 - cos(s-t)},

    where avg is the mean over both angles (each integral carries 1/2pi).
    The integrand is pointwise nonnegative, so the value is nonnegative by
    construction; it equals the squared-functional combination
    I(T2 fhat)^2 - I(T2 fhat cos)^2 - I(T2 fcheck sin)^2.
    """
    if F.atoms or F.density is None:
        raise MethodUnavailable("positive form requires a pure density")
    f_phi = F.relative_density(phi)
    if not f_phi.smooth_at_zero:
        raise DomainError("density slice has a breakpoint at the boundary direction")
    f0 = f_phi.derivative_at_zero(0)
    d2 = f_phi.derivative_at_zero(2)
    if abs(f0) > 1e-10 or abs(d2) > 1e-8:
        raise CaseMismatch(
            f"positive form needs f(0) = f''(0) = 0; got f(0) = {f0:.3e}, "
            f"f''(0) = {d2:.3e}")
    edges = _positive_form_edges(f_phi)
    pts, wts = panel_nodes(edges)
    fv = f_phi(pts)
    fneg = f_phi(-pts)
    x2 = one_minus_cos(pts) ** 2
    # weight each axis by 1/x^2, masking the vanishing corner so 0/0 never
    # forms; the integrand extends continuously by 0 there
    tiny = 1e-140
    inv = np.where(x2 > tiny, 1.0 / np.where(x2 > tiny, x2, 1.0), 0.0)
    gs = fv * inv
    gns = fneg * inv
    cs, sn = np.cos(pts), np.sin(pts)
    # the kernels 1 - cos(s -+ t) are nonnegative; clamp the rounding noise
    # near the diagonal so the quadrature is a sum of nonnegative terms
    one_minus_cos_diff = np.maximum(1.0 - np.outer(cs, cs) - np.outer(sn, sn), 0.0)
    one_minus_cos_sum = np.maximum(1.0 - np.outer(cs, cs) + np.outer(sn, sn), 0.0)
    g_same = (np.outer(gs, gs) + np.outer(gns, gns)) * one_minus_cos_diff
    g_cross = (np.outer(gs, gns) + np.outer(gns, gs)) * one_minus_cos_sum
    total = float(wts @ (g_same + g_cross) @ wts)
    return total / (4.0 * TWOPI * TWOPI)


def _positive_form_edges(f_phi: PeriodicFunction):
    base = [-PI, PI]
    for b in f_phi.breakpoints:
        base.append(float(b))
        base.append(float(-b))
    edges = sorted(set(base))
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi - lo < 1e-13:
            continue
        n = max(1, int(math.ceil((hi - lo) / 0.2)))
        out.extend(np.linspace(lo, hi, n + 1)[:-1])
    out.append(PI)
    return np.array(out)
