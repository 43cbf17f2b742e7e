"""Boundary expansions of the kernel averages and of the zero density.

Everything here is organized around six scalar functionals of an even
function h: h(0), h''(0), h''''(0), and the period averages of Th, T^2 h,
T^3 h, where T is the difference quotient (h - h(0))/(1 - cos s).  The
expansions are polynomials in y = 1 - r^2 whose coefficients are fixed
rational combinations of those functionals.

A density slice g enters through its even and odd parts ghat and gcheck.
T(ghat cos) = T ghat - ghat exactly, so I(T^2(ghat cos)) = I(T^2 ghat) - I(T ghat).

For a density that is one trig polynomial, ``rho1_boundary`` reads the same
functionals off the boundary jet of the Herglotz transform Phi at e^(i phi)
instead (``_jet_functionals``), since Re Phi(e^(i(phi + s))) = g(s).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DegenerateDenominator, DomainError
from .periodic import COS, PI, SIN, PeriodicFunction, mean, t_operator, wrap_angle
from .poisson import P_op, _wave_jet, aux_ops
from .spectral import SpectralMeasure

__all__ = [
    "ExpansionReport", "expand_P", "expand_Q", "expand_K", "expand_S",
    "expand_S_via_products", "rho1_boundary", "verify_recursions",
    "RecursionReport", "fitted_order",
]


@dataclass(frozen=True)
class ExpansionReport:
    """Truncated expansion in powers of y = 1 - r^2.

    ``coefficients`` maps the integer power k to its coefficient; only powers
    the source formula controls are present.  ``valid_order`` is the largest
    k with a controlled remainder; ``inputs`` records the scalar functionals
    the coefficients were assembled from.
    """

    coefficients: dict[int, float]
    valid_order: int
    source: str
    inputs: dict[str, float] = field(default_factory=dict)

    def __call__(self, y: float) -> float:
        return float(sum(c * float(y) ** k for k, c in self.coefficients.items()))

    def coefficient(self, k: int) -> float:
        return self.coefficients.get(k, 0.0)


def scalar_functionals(h: PeriodicFunction, depth: int = 3) -> dict[str, float]:
    """The derivative and averaged-quotient functionals of an even h smooth at 0."""
    out = {
        "h0": h.derivative_at_zero(0),
        "d2": h.derivative_at_zero(2),
        "d4": h.derivative_at_zero(4),
    }
    t = h
    for m in range(1, depth + 1):
        t = t_operator(t)
        out[f"I_T{m}h"] = mean(t)
    return out


def expand_P(h: PeriodicFunction) -> ExpansionReport:
    """Poisson average to third order: the sharpened boundary-limit statement."""
    f = scalar_functionals(h, depth=2)
    h0, d2, i1, i2 = f["h0"], f["d2"], f["I_T1h"], f["I_T2h"]
    coeffs = {
        0: h0,
        1: i1 / 2.0,
        2: (i1 - d2 / 2.0) / 4.0,
        3: (1.5 * i1 - d2 - i2 / 2.0) / 8.0,
    }
    return ExpansionReport(coefficients=coeffs, valid_order=3, source="poisson_average",
                           inputs=f)


def expand_Q(h: PeriodicFunction) -> ExpansionReport:
    """Squared-kernel average from its diverging 1/y term down to y^4."""
    f = scalar_functionals(h, depth=3)
    h0, d2, d4 = f["h0"], f["d2"], f["d4"]
    i2, i3 = f["I_T2h"], f["I_T3h"]
    coeffs = {
        -1: 2.0 * h0,
        0: -h0,
        1: d2 / 4.0,
        2: i2 / 4.0 + d2 / 8.0,
        3: i2 / 4.0 + d2 / 16.0 - d4 / 64.0,
        4: i2 / 4.0 - i3 / 16.0 + d2 / 32.0 - 3.0 * d4 / 128.0,
    }
    return ExpansionReport(coefficients=coeffs, valid_order=4,
                           source="squared_kernel_average", inputs=f)


def expand_K(h: PeriodicFunction) -> ExpansionReport:
    """First-order expansion of the auxiliary kernel average K_r."""
    f = {**scalar_functionals(h, depth=1), "I_h": mean(h)}
    h0, ih, i1 = f["h0"], f["I_h"], f["I_T1h"]
    coeffs = {
        0: 2.0 * ih - 0.75 * h0,
        1: -15.0 / 16.0 * h0 + 1.5 * ih - i1 / 2.0,
    }
    return ExpansionReport(coefficients=coeffs, valid_order=1,
                           source="aux_kernel_average", inputs=f)


def _slice_functionals(g: PeriodicFunction) -> dict[str, float]:
    """Functionals of a general (not necessarily even) density slice; the
    ghat cos term comes from the ghat chain by the module docstring's identity."""
    f = scalar_functionals(g.hat(), depth=2)
    return {
        "g0": f["h0"],
        "g2": f["d2"],
        "gc1": g.derivative_at_zero(1),
        "I_Tgh": f["I_T1h"],
        "I_T2gh": f["I_T2h"],
        "I_T2ghcos": f["I_T2h"] - f["I_T1h"],
        "I_T2gcsin": mean(t_operator(g.check() * SIN, 2)),
    }


def _jet_functionals(wave, phi: float) -> dict[str, float]:
    """``_slice_functionals`` of the slice at phi of the trig wave with spectrum
    ``wave``, from the jet of its Phi at w = e^(i phi), a_k = w^k Phi^(k)(w):
    g0 = Re Phi, I(T ghat) = -Re a1, g'(0) = -Im a1, g''(0) = -Re(a1 + a2),
    I(T^2 ghat) = Re a2 + Re a3 / 3 and I(T^2(gcheck sin)) = Im a2 + Im a1."""
    w = cmath.exp(1j * phi)
    p0, p1, p2, p3 = _wave_jet(wave, w, 3)
    a1, a2, a3 = w * p1, w * w * p2, w * w * w * p3
    i1, i2 = -a1.real, a2.real + a3.real / 3.0
    f = {"g0": p0.real, "g2": -(a1 + a2).real, "gc1": -a1.imag, "I_Tgh": i1,
         "I_T2gh": i2, "I_T2ghcos": i2 - i1, "I_T2gcsin": a2.imag + a1.imag}
    # + 0.0 turns a -0.0 into the 0.0 that the T chain gives
    return {name: v + 0.0 for name, v in f.items()}


def expand_S(g: PeriodicFunction) -> ExpansionReport:
    """Expansion of the intensity numerator for a density slice g.

    The two leading powers vanish identically; the surviving coefficients are
    quadratic forms in the slice functionals.
    """
    f = _slice_functionals(g)
    g0, g2, gc1 = f["g0"], f["g2"], f["gc1"]
    i1, i2 = f["I_Tgh"], f["I_T2gh"]
    i2cos, i2sin = f["I_T2ghcos"], f["I_T2gcsin"]
    s2 = 0.5 * g0 * i1 - 0.25 * (g0 * g2 + gc1 * gc1)
    coeffs = {
        -2: 0.0,
        -1: 0.0,
        0: g0 * g0,
        1: g0 * i1,
        2: s2,
        3: s2 + (g2 * i1 + g0 * i2cos - 2.0 * gc1 * i2sin) / 8.0 - 0.25 * g0 * i2,
    }
    return ExpansionReport(coefficients=coeffs, valid_order=3,
                           source="intensity_numerator", inputs=f)


def expand_S_via_products(g: PeriodicFunction) -> ExpansionReport:
    """Re-derive the numerator expansion as a difference of squared series.

    Squares the squared-kernel expansions of the even part, of (even part)
    cos s, and of (odd part) sin s, convolving coefficient series in exact
    rational arithmetic so the vanishing of the leading two powers is exact,
    then subtracts.  Floating point enters only through the functionals.
    """
    g_hat = g.hat()
    parts = [g_hat, g_hat * COS, g.check() * SIN]
    signs = [1, -1, -1]
    total: dict[int, Fraction] = {}
    for part, sign in zip(parts, signs):
        q = expand_Q(part)
        series = {k: Fraction(v) for k, v in q.coefficients.items()}
        for k1, c1 in series.items():
            for k2, c2 in series.items():
                p = k1 + k2
                if p > 3:
                    continue
                total[p] = total.get(p, Fraction(0)) + sign * c1 * c2
    coeffs = {k: float(v) for k, v in sorted(total.items())}
    return ExpansionReport(coefficients=coeffs, valid_order=3,
                           source="squared_series_product")


# ---------------------------------------------------------------------------
# boundary behavior of the zero density
# ---------------------------------------------------------------------------

_F0_TOL = 1e-10
_D2_TOL = 1e-8


def rho1_boundary(F: SpectralMeasure, phi: float):
    """Boundary expansion of the zero density in the direction phi.

    Returns ``(case, report)`` where case is "i", "ii" or "iii" according to
    the degeneracy of the density slice at the boundary point, and the report
    carries the controlled powers of y = 1 - r^2:

    * case i  (slice positive):   1/(pi y^2) plus a constant deficit
      -(f'(0)^2 + I(T fhat)^2) / (4 pi f(0)^2); dependence can only push the
      density below the independent-coefficient profile.
    * case ii (simple zero):      [f''(0) / (2 I(T fhat))] / (pi y).
    * case iii (double zero):     a flat profile whose height is a ratio of
      averaged double quotients.

    A density without breakpoints (``uniform``, ``ma1``, ``random_trig_density``,
    a callable's trig fit) gives its functionals from the boundary jet of its
    Herglotz transform (``_jet_functionals``), without building the slice and
    its T chain.  A density with breakpoints keeps the T chain, which holds
    case iii to 1.2e-10 at 1e-6 rad from a jump; the jet of a level's
    logarithms has not been checked that close to its ends.

    Atoms enter the averaged quotients, and so the deficit, in closed form:
    an atom m at angle u from phi, x = 1 - cos u, adds m/x to I(T ghat),
    m/x^2 to I(T^2 ghat), m cos u/x^2 to I(T^2(ghat cos)) and m sin u/x^2 to
    I(T^2(gcheck sin)).  An atom within 1e-9 of phi raises DomainError, as a
    jump does, and so does a non-finite phi.
    """
    if F.density is None:
        raise DomainError("boundary expansion requires a density")
    phi = float(phi)
    if not math.isfinite(phi):
        raise DomainError(f"boundary direction {phi!r} is not finite")
    plan = None if F.density.breakpoints.size else F.density.wave_and_arcs()
    if plan is not None:
        f = _jet_functionals(plan[0], phi)
    else:
        g = F.relative_density(phi)
        if not g.smooth_at_zero:
            raise DomainError("density slice has a breakpoint at the boundary direction")
        f = _slice_functionals(g)
    for t, m in F.atoms:
        u = float(wrap_angle(t - phi))
        if abs(u) < 1e-9:
            raise DomainError("an atom sits at the boundary direction")
        x = 2.0 * math.sin(0.5 * u) ** 2
        f["I_Tgh"] += m / x
        f["I_T2gh"] += m / x**2
        f["I_T2ghcos"] += m * math.cos(u) / x**2
        f["I_T2gcsin"] += m * math.sin(u) / x**2
    f0, d2 = f["g0"], f["g2"]
    i1 = f["I_Tgh"]
    if abs(f0) > _F0_TOL:
        fp = f["gc1"]
        deficit = (fp * fp + i1 * i1) / (4.0 * f0 * f0)
        coeffs = {-2: 1.0 / PI, 0: -deficit / PI}
        inputs = dict(f, f1=fp, deficit=deficit)
        report = ExpansionReport(coefficients=coeffs, valid_order=0,
                                 source="boundary_case_i", inputs=inputs)
        return "i", report
    if abs(i1) < 1e-12:
        raise DegenerateDenominator(
            "I(T fhat) vanishes; the expansion denominators are degenerate")
    if abs(d2) > _D2_TOL:
        coeffs = {-1: d2 / (2.0 * i1) / PI}
        report = ExpansionReport(coefficients=coeffs, valid_order=-1,
                                 source="boundary_case_ii", inputs=f)
        return "ii", report
    # I(T^2 ghat)^2 - I(T^2 ghat cos)^2 - I(T^2 gcheck sin)^2 with the first two
    # factored by I(T^2 ghat (1 - cos)) = I(T ghat): near a jump they cancel
    num = i1 * (2.0 * f["I_T2gh"] - i1) - f["I_T2gcsin"] ** 2
    coeffs = {0: num / (4.0 * i1 * i1) / PI}
    report = ExpansionReport(coefficients=coeffs, valid_order=0,
                             source="boundary_case_iii", inputs=f)
    return "iii", report


# ---------------------------------------------------------------------------
# recursion identities as numerical checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecursionReport:
    poisson_discrepancy: dict[float, float]
    aux_kernel_discrepancy: dict[float, float]

    @property
    def max_discrepancy(self) -> float:
        vals = list(self.poisson_discrepancy.values()) + \
            list(self.aux_kernel_discrepancy.values())
        return max(abs(v) for v in vals)


def verify_recursions(h: PeriodicFunction, r_list) -> RecursionReport:
    """Evaluate both sides of the two lowering recursions by quadrature.

    First: P_r(h) = h(0) + (y/2r) I(Th) - (y^2 / (2r(1+r)^2)) P_r(Th).
    Second: the self-referential recursion for the auxiliary average K_r,
    whose right side mixes K_r(h), P_r(Th) and K_r(Th).
    """
    th = t_operator(h)
    h0 = h.derivative_at_zero(0)
    i_h = mean(h)
    i_th = mean(th)
    p_disc: dict[float, float] = {}
    k_disc: dict[float, float] = {}
    for r in r_list:
        r = float(r)
        y = 1.0 - r * r
        lhs = P_op(h, r)
        p_th = P_op(th, r)
        rhs = h0 + y / (2.0 * r) * i_th - y**2 / (2.0 * r * (1.0 + r) ** 2) * p_th
        p_disc[r] = lhs - rhs

        k_h = aux_ops(h, r).K
        k_th = aux_ops(th, r).K
        rhs_k = (2.0 * i_h
                 + (2.0 * r - 3.0) * (1.0 + 4.0 * r + r * r) / (1.0 + r) ** 3 * h0
                 + ((1.0 + 2.0 * r) / (1.0 + r) * i_h
                    + (2.0 * r - 3.0) * (1.0 + r * r) / (2.0 * r * (1.0 + r)) * i_th) * y
                 + ((1.0 + 2.0 * r) / (1.0 + r) ** 2 * k_h
                    - (2.0 * r - 3.0) / (2.0 * r * (1.0 + r) ** 3) * p_th
                    + r * (2.0 * r - 3.0) / (2.0 * (1.0 + r) ** 2) * k_th) * y**2)
        k_disc[r] = k_h - rhs_k
    return RecursionReport(poisson_discrepancy=p_disc, aux_kernel_discrepancy=k_disc)


def fitted_order(y_values, residuals) -> float:
    """Least-squares slope of log |residual| against log y (decay order)."""
    y = np.asarray(y_values, dtype=float)
    res = np.abs(np.asarray(residuals, dtype=float))
    res = np.where(res > 0, res, 1e-300)
    slope = np.polyfit(np.log(y), np.log(res), 1)[0]
    return float(slope)
