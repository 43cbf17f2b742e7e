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
from .poisson import _check_radius, _frame_nodes, _kernel_nodes, herglotz, poisson_kernel
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


def _half_point(s: float, A: float, B: float):
    """(tail, integrals of P, (1 - cos) P^2, (1 + cos) P^2) to s in [0, pi], as an upper limit.

    With v = B tan(s/2)/A they are 2 arctan v, (2A/B) G(v) and (2B/A) H(v)
    from 0 to s (a head, v <= 1), and minus 2 arctan w, (2A/B) H(w), (2B/A) G(w)
    from s to pi (a tail, w = 1/v <= 1), G, H = arctan -+ t/(1 + t^2): no
    large values then cancel off the support.  G(t) below 1/2 is summed as
    sum_(n>=1) (-1)^(n+1) 2n/(2n+1) t^(2n+1), to 1e-17 of its first term."""
    sn, cs = math.sin(0.5 * s), math.cos(0.5 * s)
    tail = B * sn > A * cs
    t = A * cs / (B * sn) if tail else B * sn / (A * cs)
    at = math.atan(t)
    g, power, n = (at - t / (1.0 + t * t) if t > 0.5 else 0.0), t**3, 1
    stop = 1e-17 * power
    while t <= 0.5 and power > stop:
        g += (1 if n % 2 else -1) * 2.0 * n / (2 * n + 1) * power
        power, n = power * t * t, n + 1
    g, h, two = (2.0 * at - g, g, -2.0) if tail else (g, 2.0 * at - g, 2.0)
    return tail, (two * at, two * A / B * g, two * B / A * h)


def _arc_moments(lo: float, hi: float, r: float):
    """Moments of a unit level on the arc from lo to hi (the whole circle when
    they meet mod 2 pi): the even ones over the arc cut at 0 and +-pi, folded
    onto [0, pi]; the sine one as y^2 (cos a - cos b) / (D(a) D(b)),
    D = 1 - 2r cos + r^2, cos a - cos b = 2 sin((a + b)/2) sin((b - a)/2)."""
    A, B = 1.0 - r, 1.0 + r
    a, b = math.remainder(lo, TWOPI), math.remainder(hi, TWOPI)
    e0 = e1 = e2 = 0.0
    for s1, s2 in ((a, b),) if a < b else ((a, PI), (-PI, b)):
        for h1, h2 in (((-s2, -s1),) if s2 <= 0.0 else ((s1, s2),) if s1 >= 0.0
                       else ((0.0, -s1), (0.0, s2))):
            tail1, (p1, m1, q1) = _half_point(h1, A, B) if h1 else (False, (0.0, 0.0, 0.0))
            tail2, (p2, m2, q2) = _half_point(h2, A, B)
            f0, f1, f2 = (PI, PI * A / B, PI * B / A) if tail2 and not tail1 else (0.0, 0.0, 0.0)
            e0, e1, e2 = e0 + f0 - p1 + p2, e1 + f1 - m1 + m2, e2 + f2 - q1 + q2
    d_ab = (A * A + 4.0 * r * math.sin(0.5 * a) ** 2) * (A * A + 4.0 * r * math.sin(0.5 * b) ** 2)
    s_ = 2.0 * (A * B) ** 2 * math.sin(0.5 * (a + b)) * math.sin(0.5 * (b - a)) / d_ab
    return e1, e2, s_, e0


def rho1_closed_form(F: SpectralMeasure, z: complex) -> float:
    """Zero density at z from the moments of ``rho1_spectral`` in closed form, exact in r,
    so the ratio takes y = (1 - r)(1 + r): the density split once into a trig wave plus a
    level per piece (``wave_and_arcs``) and summed in floats, no numpy call.  The ratio
    is scale invariant, so normalization is not checked.  On an isolated arc of width w
    it loses about eps/w^3 relative: ``_arc_moments`` subtracts antiderivatives at ends
    already rotated by phi (each moment ~4e-16/w off), and the Gram numerator of a
    nearly atomic measure cancels 1/w^2 more (3.6e-3 at w = 1e-4, against 50 digits)."""
    r = _check_radius(abs(z))
    phi = cmath.phase(z) if r > 0.0 else 0.0
    y = (1.0 - r) * (1.0 + r)
    moments = (0.0, 0.0, 0.0, 0.0)
    if F.density is not None:
        plan = F.density.wave_and_arcs()
        if plan is None:
            raise MethodUnavailable("closed_form needs pieces differing only in a constant")
        moments = _trig_moments(plan[0], phi, r)
        for lo, hi, level in plan[1]:
            arc = _arc_moments(lo - phi, hi - phi, r)
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
