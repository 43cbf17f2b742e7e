"""First intensity of the zero process, by four independent routes.

* ``rho1_closed_form``: the kernel moments in closed form, as Fourier sums
  for a trig density and arc integrals for a step (and their sum), in plain
  floats from a plan cached per density; the ``auto`` route where it applies.
* ``rho1_spectral``: the double integral against the rotated measure,
  collapsed to three single integrals through
  1 - cos(t - s) = 1 - cos t cos s - sin t sin s.  Works for any measure:
  each atom is a node of the frame of z (``poisson._frame_nodes``).
* ``rho1_qform``: the same ratio written through the kernel averages of the
  symmetrized density slice; absolutely continuous measures only.
* ``rho1_ek_numeric``: the Laplacian of log K(z, z) in closed form through
  the Herglotz transform, the first-order kernel only: an independent oracle.

All but ``rho1_qform`` take y = (1 - r)(1 + r), exact to rounding; it keeps the
1 - r*r that its kernel averages carry, which the ratio then cancels exactly.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (CaseMismatch, DegenerateDenominator, DomainError,
                     MethodUnavailable, PrecisionError)
from .periodic import PI, TWOPI, PeriodicFunction, one_minus_cos, panel_nodes, wrap_scalar
from .poisson import (_check_radius, _frame_angle, _frame_nodes, _half_width, _kernel_nodes,
                      herglotz, poisson_kernel)
from .spectral import SpectralMeasure

__all__ = [
    "ROUTES", "rho1", "rho1_closed_form", "rho1_spectral", "rho1_qform", "rho1_ek_numeric",
    "sr_value", "sr_positive_form",
]

_DENOM_FLOOR = 1e-150
#: a Gram numerator minus plus - s^2 negative within this fraction of ((minus + plus)/2)^2 reads 0
_GRAM_ROUNDING = 1e-13
#: relative accuracy of |Phi'| / Re Phi taken by the Edelman-Kostlan route
_EK_EPS = 1e-10


def _with_atoms(moments, atoms, r: float, phi: float, y: float):
    """Add the exact atom terms to the density moments (minus, plus, s, b), the Poisson kernel
    y / (1 - 2r cos u + r^2) at u = t - phi, 1 -+ cos u = 2 sin^2(u/2), 2 cos^2(u/2)."""
    minus, plus, s_, b = moments
    for t, m in atoms:
        u = wrap_scalar(t - phi)
        sn, cs = math.sin(0.5 * u), math.cos(0.5 * u)
        x = 2.0 * sn * sn
        pk = y / ((1.0 - r) ** 2 + 2.0 * r * x)
        minus += m * x * pk**2
        plus += m * (2.0 * cs * cs) * pk**2
        s_ += m * math.sin(u) * pk**2
        b += m * pk
    return minus, plus, s_, b


def _ratio(moments, z: complex, y: float) -> float:
    """Zero density (minus plus - s^2) / (pi y^2 b^2); a numerator negative by rounding reads 0."""
    minus, plus, s_, b = moments
    if not math.isfinite(b) or b <= _DENOM_FLOOR:
        raise DegenerateDenominator(
            f"harmonic extension underflowed at z = {z!r} "
            f"(value {b!r}); the measure carries no mass near this direction")
    num = minus * plus - s_ * s_
    if num < -_GRAM_ROUNDING * 0.25 * (minus + plus) ** 2:
        raise PrecisionError(f"zero density at z = {z!r} computed negative past rounding "
                             f"(numerator {num!r}): no digit is right", achievable=1.0)
    return max(num, 0.0) / (PI * y**2 * b * b)


def _trig_moments(c, phi: float, r: float):
    """Moments of the spectrum c_(-d..d) rotated by phi (c_k -> c_k e^(ik phi)) as finite sums
    2 pi sum_k c_k g_(-k) over the kernel coefficients g_k: r^|k| for P,
    a_k = |k| r^|k| + (1 + r^2) r^|k|/y for P^2, (1 - r)/(1 + r) at k = 0 and
    (1 - r) r^(|k|-1) (r/(1 + r) - |k| (1 - r)/2) beyond for (1 - cos) P^2,
    2 a_k minus those for (1 + cos) P^2, and y k r^(|k|-1)/2i for sin P^2.
    The O(1/y) part of a_k multiplies h(0) + sum_k c_k expm1(|k| log r), so
    a density vanishing at the kernel center does not cancel it away."""
    d = len(c) // 2
    A, B = 1.0 - r, 1.0 + r
    log_r = math.log(r) if r > 0.0 else -math.inf
    h0 = c[d].real
    minus, plus, tail, odd, r_below = h0 * A / B, -h0 * A / B, 0.0, 0.0, 1.0
    for k in range(1, d + 1):
        rot = cmath.exp(1j * k * phi)
        up, down = c[d + k] * rot, c[d - k] * rot.conjugate()
        even = (up + down).real
        m_k = A * r_below * (r / B - 0.5 * A * k)
        h0 += even
        tail += even * math.expm1(k * log_r)
        minus += even * m_k
        plus += even * (2.0 * k * r_below * r - m_k)
        odd += k * r_below * (up - down).imag
        r_below *= r
    plus += 2.0 * (1.0 + r * r) / (A * B) * (h0 + tail)
    return TWOPI * minus, TWOPI * plus, -PI * A * B * odd, TWOPI * (h0 + tail)


def _arc_moments(lo: float, hi: float, r: float, phi: float):
    """(minus, plus, s, b) of a unit level on the arc from lo to hi (all the circle when they
    meet) at z = r e^(i phi) less k whole circles, and k.  It runs in theta (``poisson``) from
    m - dth/2 to m + dth/2: with A, B = 1 -+ r and e = dth - sin dth (a series below 1), minus,
    plus = (2A/B, 2B/A)(e + 2 (sin^2, cos^2) m sin dth), s = 2 sin 2m sin dth, b = 2 dth; cos m
    is the sine of its complement.  Past half the theta circle (x < 0) it is minus the arc's
    complement, k = 1, so that the caller sums the level into the wave's constant first."""
    A, B = 1.0 - r, 1.0 + r
    u_a, u_b = _frame_angle(lo, phi), _frame_angle(hi, phi)
    sa, ca, sb, cb = (math.sin(0.5 * u_a), math.cos(0.5 * u_a),
                      math.sin(0.5 * u_b), math.cos(0.5 * u_b))
    x = (-1.0 if u_b <= u_a else 1.0) * (B * B * sa * sb + A * A * ca * cb)
    sa, ca = (sb, cb) if x < 0.0 else (sa, ca)  # the complement runs from hi to lo
    dth = math.atan2(A * B * _half_width(lo, hi)[1], abs(x))
    x2, e, half, sin_d = dth * dth, 1.0, 0.5 * dth, math.sin(dth)
    for d in (342.0, 272.0, 210.0, 156.0, 110.0, 72.0, 42.0, 20.0):
        e = 1.0 - x2 / d * e
    e = dth * x2 / 6.0 * e if dth < 1.0 else dth - sin_d
    sin_m = math.sin(math.atan2(B * sa, A * ca) + half)
    cos_m = math.sin(math.atan2(A * ca, B * abs(sa)) + (half if sa < 0.0 else -half))
    f, q = (-2.0 if x < 0.0 else 2.0), 2.0 * sin_d
    return (f * A / B * (e + q * sin_m * sin_m), f * B / A * (e + q * cos_m * cos_m),
            f * q * sin_m * cos_m, f * dth, x < 0.0)


def rho1_closed_form(F: SpectralMeasure, z: complex) -> float:
    """Zero density at z from the moments of ``rho1_spectral`` in closed form, exact in r, with
    y = (1 - r)(1 + r): the density split once into a trig wave plus a level per piece
    (``wave_and_arcs``), summed in floats, no numpy call, normalization not checked.  A level
    read as its arc's complement joins the wave's constant, where a zero of the density facing
    z cancels before the O(1/y) factor of plus.  On an isolated arc of width w the Gram
    numerator of a nearly atomic measure cancels eps/w^2, as ``rho1_spectral``'s does: 3.0e-11
    / 5.5e-9 / 2.6e-7 / 3.9e-5 at w = 1e-2 / 1e-3 / 1e-4 / 1e-5 (spectral: 2.9e-11 / 2.0e-9 /
    3.3e-7 / 3.0e-5; worst of 12 points, |z| < 0.99)."""
    r = _check_radius(abs(z))
    phi = cmath.phase(z) if r > 0.0 else 0.0
    y = (1.0 - r) * (1.0 + r)
    moments = (0.0, 0.0, 0.0, 0.0)
    if F.density is not None:
        plan = F.density.wave_and_arcs()
        if plan is None:
            raise MethodUnavailable("closed_form needs pieces differing only in a constant")
        wave, arcs = plan
        if arcs:
            arcs = [(_arc_moments(lo, hi, r, phi), level) for lo, hi, level in arcs]
            whole, d = sum(level for arc, level in arcs if arc[4]), len(wave) // 2
            wave = (*wave[:d], wave[d] + whole, *wave[d + 1:])
        moments = _trig_moments(wave, phi, r)
        for arc, level in arcs:
            moments = [m + level * a for m, a in zip(moments, arc)]
    return _ratio(_with_atoms(moments, F.atoms, r, phi, y), z, y)


def rho1_spectral(F: SpectralMeasure, z: complex) -> float:
    """Zero density at z from the double-integral representation.

    The double integral of {1 - cos(t-s)} against the squared kernels factorizes
    into single moments against 1 - cos s, 1 + cos s and sin s, plus the plain
    Poisson integral: O(M) instead of O(M^2), summed over the nodes of
    ``poisson._frame_nodes`` (an atom is one node), with one y in kernel and ratio.
    The numerator A^2 - C^2 - S^2 (plain/cosine/sine moments) is the product
    (A - C)(A + C) - S^2 with A -+ C integrated directly: A and C each diverge
    like 1/y, while A - C stays O(1).  Where the density vanishes to second order
    at the kernel center, sums of O(1/y) terms cancel to O(y): 5.8e-9 relative off
    at ``ma1:a=0.5``, phi = pi, r = 1 - 10^-4.5 (``rho1_closed_form``: 1.5e-12).
    """
    F.validate_normalized()
    r, _, s, mass = _frame_nodes(F, z)
    y, x = (1.0 - r) * (1.0 + r), one_minus_cos(s)
    pk = y / ((1.0 - r) ** 2 + 2.0 * r * x)
    fv = mass * pk * pk
    moments = (float(np.sum(fv * x)), float(np.sum(fv * (2.0 - x))),
               float(np.sum(fv * np.sin(s))), float(np.sum(mass * pk)))
    return _ratio(moments, z, y)


def _qform_parts(f_phi: PeriodicFunction, r: float):
    """Q(fhat (1-cos)), Q(fhat (1+cos)), Q(fcheck sin) and P(fhat) on one
    kernel rule, the numerator to be formed in its cancellation-free product
    form:

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
    return q_minus, q_plus, q_sin, p_hat


def rho1_qform(F: SpectralMeasure, z: complex) -> float:
    """Zero density at z via kernel averages of the symmetrized density slice.  Where
    the density vanishes to second order at the kernel center they cancel from O(1/y)
    to O(y): 8.0e-9 relative off at ``ma1:a=0.5``, phi = pi, r = 1 - 10^-4.5."""
    if F.atoms:
        raise MethodUnavailable("q_form requires an absolutely continuous measure")
    if F.density is None:
        raise MethodUnavailable("q_form requires a density")
    r = _check_radius(abs(z))
    phi = cmath.phase(z) if r > 0.0 else 0.0
    return _ratio(_qform_parts(F.relative_density(phi), r), z, 1.0 - r * r)


def rho1_ek_numeric(F: SpectralMeasure, z: complex) -> float:
    """Zero density by Edelman-Kostlan, Delta log K / 4 pi = 1/(pi y^2) -
    |Phi'|^2 / (4 pi (Re Phi)^2): the ratio of moments Re Phi -+ y |Phi'|/2,
    s = 0, b = Re Phi.  It cancels where rho1 << 1/(pi y^2); its error, about
    _EK_EPS/(pi y^2), raises PrecisionError past 1e-5 max(rho1, 1/pi)."""
    r = _check_radius(abs(z))
    phi_z, dphi_z = herglotz(F, z)
    y = (1.0 - r) * (1.0 + r)
    b, c = phi_z.real, 0.5 * y * abs(dphi_z)
    value = _ratio((b - c, b + c, 0.0, b), z, y)
    achievable = _EK_EPS / (PI * y * y * max(value, 1.0 / PI))
    if achievable > 1e-5:
        raise PrecisionError(f"Edelman-Kostlan difference cancels at z = {z!r}; achievable "
                             f"relative tolerance {achievable:.1e}", achievable=achievable)
    return value


#: every ``method`` name ``rho1`` accepts besides ``auto``, aliases included
ROUTES = {
    "closed_form": rho1_closed_form,
    "spectral": rho1_spectral, "spectral_double": rho1_spectral,
    "qform": rho1_qform, "q_form": rho1_qform,
    "ek": rho1_ek_numeric, "ek_numeric": rho1_ek_numeric,
}


def rho1(F: SpectralMeasure, z: complex, method: str = "auto") -> float:
    """Dispatch a zero-density query to the route named in :data:`ROUTES`.

    ``auto`` picks the closed form where it applies, else the quadratic form
    for an absolutely continuous measure and the double integral otherwise.
    """
    if method == "auto":
        closed = F.density is None or F.density.wave_and_arcs() is not None
        method = "closed_form" if closed else "spectral_double" if F.atoms else "q_form"
    route = ROUTES.get(method)
    if route is None:
        raise DomainError(f"unknown intensity method {method!r}")
    return route(F, z)


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
    q_minus, q_plus, q_sin, _ = _qform_parts(F.relative_density(phi), r)
    return q_minus * q_plus - q_sin * q_sin


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
