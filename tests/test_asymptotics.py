import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gafzeros import asymptotics, presets
from gafzeros.asymptotics import (ExpansionReport, _jet_functionals, _slice_functionals,
                                  expand_K, expand_P, expand_Q, expand_S,
                                  expand_S_via_products, fitted_order, rho1_boundary,
                                  verify_recursions)
from gafzeros.errors import DegenerateDenominator, DomainError
from gafzeros.intensity import rho1, rho1_qform, sr_value
from gafzeros.periodic import COS, PeriodicFunction, TrigPoly, mean, t_operator
from gafzeros.poisson import P_op, Q_op, aux_ops
from gafzeros.spectral import SpectralMeasure

ONE = PeriodicFunction.constant(1.0)
X = PeriodicFunction.from_trig([1.0, -1.0])

# Residual-order fixtures.  The squared-kernel average of a trig polynomial is
# a_0 (2/y - 1) + sum_k a_k r^k (k - 1 + 2/y), so the y^5 remainder comes from
# the binomial tail of (1 - y)^(k/2): even k terminates (no signal at all) and
# small odd k leaves a remainder below the double-precision floor of the
# subtraction (the value itself is ~2/y).  High odd frequencies push the
# remainder far above that floor while (1-y)^(k/2) stays analytic on the whole
# fit window, so the measured slope is the genuine expansion order.
SMOOTH_FIXTURES = {
    "hf21": {0: 1.0, 21: 1.0},
    "hf23": {0: 1.0, 23: 1.0},
    "hf25": {0: 1.5, 25: 1.0},
    "hf19_23": {0: 2.0, 19: 0.7, 23: 0.7},
    "hf21_25": {0: 1.2, 21: 0.5, 25: 0.6},
}


def fixture_fn(spec):
    a = np.zeros(max(spec) + 1)
    for k, c in spec.items():
        a[k] = c
    return PeriodicFunction.from_trig(a)


# ------------------------------------------------------------- golden coefficients

def test_expand_P_constant():
    rep = expand_P(ONE)
    assert rep.coefficients == {0: 1.0, 1: 0.0, 2: 0.0, 3: 0.0}
    assert rep.valid_order == 3


def test_expand_P_ma1_linear_term():
    a, phi = 0.3, 0.0
    h = PeriodicFunction.from_trig([1.0, 2 * a * math.cos(phi)])
    rep = expand_P(h)
    assert rep.coefficients[1] == pytest.approx(-a * math.cos(phi), abs=1e-12)
    assert rep.inputs["I_T1h"] == pytest.approx(-2 * a, abs=1e-12)


def test_expand_Q_constant_matches_closed_form():
    rep = expand_Q(ONE)
    assert rep.coefficients[-1] == 2.0
    assert rep.coefficients[0] == -1.0
    for k in (1, 2, 3, 4):
        assert rep.coefficients[k] == pytest.approx(0.0, abs=1e-14)
    # 2/y - 1 is exactly the squared-kernel average of 1
    for r in (0.5, 0.9):
        y = 1 - r * r
        assert rep(y) == pytest.approx((1 + r * r) / (1 - r * r), rel=1e-12)


def test_expand_Q_one_minus_cos():
    rep = expand_Q(X)
    want = {-1: 0.0, 0: 0.0, 1: 0.25, 2: 0.125, 3: 5 / 64, 4: 7 / 128}
    for k, v in want.items():
        assert rep.coefficients[k] == pytest.approx(v, abs=1e-12), k


def test_expand_K_constant():
    rep = expand_K(ONE)
    assert rep.coefficients[0] == pytest.approx(1.25, abs=1e-14)
    assert rep.coefficients[1] == pytest.approx(9 / 16, abs=1e-14)


def test_expand_K_one_minus_cos():
    rep = expand_K(X)
    assert rep.coefficients[0] == pytest.approx(2.0, abs=1e-12)
    assert rep.inputs["I_h"] == 1.0


def test_expand_rejects_odd_or_rough():
    odd = PeriodicFunction.from_trig([0.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        expand_P(odd)
    rough = PeriodicFunction.step([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        expand_Q(rough)


# ------------------------------------------------------------- residual orders

@pytest.mark.parametrize("name", sorted(SMOOTH_FIXTURES))
def test_residual_orders(name):
    h = fixture_fn(SMOOTH_FIXTURES[name])
    ys = np.logspace(-3, -1, 8)
    rep_p, rep_q, rep_k = expand_P(h), expand_Q(h), expand_K(h)
    res_p, res_q, res_k = [], [], []
    for y in ys:
        r = math.sqrt(1 - y)
        res_p.append(P_op(h, r) - rep_p(y))
        res_q.append(Q_op(h, r) - rep_q(y))
        res_k.append(aux_ops(h, r).K - rep_k(y))
    assert fitted_order(ys, res_p) >= 3.5
    assert fitted_order(ys, res_q) >= 4.5
    assert fitted_order(ys, res_k) >= 1.5


# ------------------------------------------------------------- numerator expansion

def test_expand_S_uniform():
    rep = expand_S(ONE)
    assert rep.coefficients[-2] == 0.0
    assert rep.coefficients[-1] == 0.0
    assert rep.coefficients[0] == 1.0
    assert rep.coefficients[1] == pytest.approx(0.0, abs=1e-14)
    assert rep.coefficients[2] == pytest.approx(0.0, abs=1e-14)
    # compare with the exact numerator at a high radius
    F = presets.uniform()
    r = 0.99
    assert sr_value(F, 0.0, r) == pytest.approx(rep(1 - r * r), abs=1e-4)


def test_expand_S_positive_slice_leading_terms():
    g = PeriodicFunction.from_trig([1.0, 0.6], [0.0, 0.3])
    rep = expand_S(g)
    g0 = g.hat()(0.0)
    i1 = mean(t_operator(g.hat()))
    assert rep.coefficients[0] == pytest.approx(g0 * g0, rel=1e-12)
    assert rep.coefficients[1] == pytest.approx(g0 * i1, rel=1e-12)


def test_expand_S_simple_zero_slice():
    # slice vanishing to second order at 0: leading surviving power is y^3
    g = X  # 1 - cos s: g(0) = g'(0) = 0, g''(0) = 1
    rep = expand_S(g)
    for k in (-2, -1, 0, 1, 2):
        assert rep.coefficients[k] == pytest.approx(0.0, abs=1e-14), k
    i1 = mean(t_operator(g))  # = 1
    assert rep.coefficients[3] == pytest.approx(g.derivative_at_zero(2) * i1 / 8,
                                                abs=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_expand_S_matches_squared_series_products(seed):
    F = presets.random_trig_density(seed)
    g = F.relative_density(0.9 + 0.1 * seed)
    direct = expand_S(g)
    products = expand_S_via_products(g)
    assert products.coefficients[-2] == 0.0
    assert products.coefficients[-1] == 0.0
    for k in range(-2, 4):
        assert direct.coefficient(k) == pytest.approx(
            products.coefficient(k), abs=1e-10, rel=1e-10), k


@st.composite
def smooth_slices(draw):
    """A random trig polynomial plus or times a random step whose jumps stay
    0.2 from 0: a slice smooth at 0 that is neither even nor odd."""
    coeff = st.floats(-1, 1, allow_nan=False)
    degree = draw(st.integers(0, 4))
    trig = PeriodicFunction.from_trig(
        draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1)),
        [0.0] + draw(st.lists(coeff, min_size=degree, max_size=degree)))
    slots = draw(st.lists(st.integers(-31, 31).filter(lambda j: abs(j) >= 2),
                          min_size=1, max_size=3, unique=True))
    step = PeriodicFunction.step([0.1 * j for j in slots],
                                 draw(st.lists(coeff, min_size=len(slots),
                                               max_size=len(slots))))
    return trig + step if draw(st.booleans()) else trig * step


@settings(max_examples=60, deadline=None)
@given(smooth_slices())
def test_slice_cos_functional_matches_its_own_t_chain(g):
    # I(T^2(ghat cos)) = I(T^2 ghat) - I(T ghat); the oracle runs the T chain
    # on the degree-raised product ghat cos
    want = mean(t_operator(g.hat() * COS, 2))
    got = _slice_functionals(g)["I_T2ghcos"]
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


# ------------------------------------------------------------- the boundary jet

JET_PRESETS = [
    *map(presets.parse_preset, ["uniform", *(f"ma1:a={a}" for a in (0.1, 0.3, 0.5, -0.4)),
                                "mix:0.5*uniform+0.5*atoms:[(0,1)]",
                                "mix:0.5*ma1:a=0.5+0.5*atoms:[(1,1)]"]),
    *map(presets.random_trig_density, range(4)), presets.random_trig_density(7, 16)]


def _both_paths(monkeypatch, F, phi):
    """rho1_boundary as it runs (the jet), then with the T chain's functionals in
    place of the jet's: (case, report) or the DomainError, per path."""
    assert F.density.wave_and_arcs() is not None and not F.density.breakpoints.size

    def run():
        try:
            return rho1_boundary(F, phi)
        except DomainError as exc:
            return exc

    jet = run()
    with monkeypatch.context() as m:
        m.setattr(asymptotics, "_jet_functionals",
                  lambda wave, phi: _slice_functionals(F.relative_density(phi)))
        return jet, run()


def _assert_same_boundary(jet, chain):
    if isinstance(chain, DomainError):
        assert isinstance(jet, DomainError) and str(jet) == str(chain)
        return
    (case, rep), (case_c, rep_c) = jet, chain
    assert case == case_c
    assert rep.inputs.keys() == rep_c.inputs.keys()
    assert rep.coefficients.keys() == rep_c.coefficients.keys()
    for name, v in [*rep_c.inputs.items(), *rep_c.coefficients.items()]:
        got = rep.inputs[name] if isinstance(name, str) else rep.coefficients[name]
        assert abs(got - v) <= 1e-12 * max(1.0, abs(v)), (name, got, v)


@pytest.mark.parametrize("F", JET_PRESETS, ids=lambda F: F.label)
def test_boundary_jet_matches_the_t_chain(monkeypatch, F):
    # the directions hold 0 and +-pi: an atom at 0 and the double zero of ma1:a=0.5
    for phi in np.linspace(-math.pi, math.pi, 39):
        _assert_same_boundary(*_both_paths(monkeypatch, F, float(phi)))


def test_boundary_jet_of_a_callable_fit(monkeypatch):
    dens = PeriodicFunction.from_callable(lambda s: np.exp(np.cos(s)))
    F = SpectralMeasure(density=dens * (1.0 / dens.integrals([-math.pi, math.pi])[0].real))
    for phi in np.linspace(-math.pi, math.pi, 39):
        _assert_same_boundary(*_both_paths(monkeypatch, F, float(phi)))


@st.composite
def hermitian_waves(draw):
    """The spectrum c_-d..c_d of a real trig wave of degree d <= 16."""
    d = draw(st.integers(0, 16))
    # subnormals would round the bound 1e-14 * scale below the last bit
    part = st.floats(-1, 1, allow_nan=False, allow_subnormal=False)
    pos = [complex(draw(part), draw(part)) for _ in range(d)]
    return TrigPoly([*(c.conjugate() for c in reversed(pos)), draw(part), *pos])


@settings(max_examples=80, deadline=None)
@given(hermitian_waves(), st.floats(-math.pi, math.pi))
def test_jet_functionals_match_the_slice_functionals(wave, phi):
    # where a functional cancels, the T chain errs up to 2.7e-15 of the wave's
    # scale (2.2e-11 relative), the jet up to 2.2e-16 (40-digit values, 1500 waves)
    got = _jet_functionals(tuple(wave.c.tolist()), phi)
    dens = PeriodicFunction.from_trigpoly(wave)
    # the signed wave is no measure: its slice is relative_density's, built directly
    want = _slice_functionals((2 * math.pi * dens).shifted(phi))
    ks = np.arange(-wave.degree, wave.degree + 1)
    scale = 2 * math.pi * np.sum((1 + np.abs(ks)) ** 3 * np.abs(wave.c))
    assert got.keys() == want.keys()
    for name, v in want.items():
        assert abs(got[name] - v) <= 1e-14 * scale, (name, got[name], v)


# ------------------------------------------------------------- boundary regimes

def test_boundary_case_i_ma1():
    for a in (0.2, 0.3):
        for phi in (0.0, math.pi / 3, 2 * math.pi / 3):
            case, rep = rho1_boundary(presets.ma1(a), phi)
            assert case == "i"
            want_deficit = a * a / (1 + 2 * a * math.cos(phi)) ** 2
            assert rep.inputs["deficit"] == pytest.approx(want_deficit, rel=1e-10)
            assert rep.coefficients[-2] == pytest.approx(1 / math.pi, rel=1e-14)
            assert rep.coefficients[0] == pytest.approx(-want_deficit / math.pi,
                                                        rel=1e-10)


def test_boundary_case_i_converges_to_quadrature():
    # the remaining error after the constant term decays linearly in y
    F = presets.ma1(0.3)
    case, rep = rho1_boundary(F, 0.0)
    assert case == "i"
    diffs = []
    for r in (0.9995, math.sqrt(1 - 0.5 * (1 - 0.9995**2))):
        y = 1 - r * r
        diffs.append(abs(rep(y) - rho1_qform(F, r)) / y)
    # halving y keeps diff/y bounded (no constant-term mismatch)
    assert diffs[1] < 4.0 * diffs[0] + 1e-6


def test_boundary_case_ii_degenerate_ma1():
    case, rep = rho1_boundary(presets.ma1(0.5), math.pi)
    assert case == "ii"
    assert rep.coefficients[-1] == pytest.approx(1 / (2 * math.pi), rel=1e-12)


def test_boundary_case_iii_half_interval():
    # the last fourteen lie within 0.05 of a jump, where the quotient pieces
    # have their pole at distance d from the jump; the d = 0.002 pair was
    # 7.4% off while the means used fixed 0.4-rad panels, and the
    # d = 1e-4..1e-6 pairs lost up to 3e-4 while the numerator was formed
    # from squares growing like 1/d^6
    for phi, rel in ((2.0, 1e-9), (3 * math.pi / 4, 1e-9), (2.8, 1e-9),
                     (math.pi / 2 + 0.0222, 1e-7), (-(math.pi / 2 + 0.0222), 1e-7),
                     (math.pi / 2 + 0.04, 1e-7), (-(math.pi / 2 + 0.04), 1e-7),
                     (math.pi / 2 + 0.005, 1e-6), (-(math.pi / 2 + 0.005), 1e-6),
                     (math.pi / 2 + 0.002, 1e-6), (-(math.pi / 2 + 0.002), 1e-6),
                     *((s * (math.pi / 2 + d), 1e-9)
                       for d in (1e-4, 1e-5, 1e-6) for s in (1, -1))):
        case, rep = rho1_boundary(presets.indicator(-math.pi / 2, math.pi / 2), phi)
        assert case == "iii"
        want = 1 / (12 * math.pi * math.cos(phi) ** 2)
        assert rep.coefficients[0] == pytest.approx(want, rel=rel)


@pytest.mark.parametrize("phi", [math.pi / 2 - 0.0222, -(math.pi / 2 - 0.0222)])
def test_boundary_case_i_half_interval_near_jump(phi):
    F = presets.indicator(-math.pi / 2, math.pi / 2)
    case, rep = rho1_boundary(F, phi)
    assert case == "i"
    y = 1e-5
    measured = rho1_qform(F, math.sqrt(1 - y) * cmath.exp(1j * phi)) - 1 / (math.pi * y * y)
    assert rep.coefficients[0] == pytest.approx(measured, rel=1e-2)


def test_boundary_case_i_deficit_never_positive():
    for F in (presets.uniform(), presets.ma1(0.3), presets.ma1(-0.4),
              *[presets.random_trig_density(s) for s in range(6)]):
        case, rep = rho1_boundary(F, 0.7)
        assert case == "i"
        assert rep.coefficients[0] <= 1e-15


HALF_CIRCLE = "indicator:lo=-1.5707963267948966,hi=1.5707963267948966"


def test_boundary_case_i_atom_deficit():
    # criterion 02's measured side: 1/y^2 - pi rho1 meets the reported
    # deficit to O(y); the deficit read 0 while atoms were ignored
    F = presets.parse_preset("mix:0.5*uniform+0.5*atoms:[(0,1)]")
    case, rep = rho1_boundary(F, 1.0)
    assert case == "i"
    assert rep.inputs["deficit"] == pytest.approx(1.183029, rel=1e-6)
    for r in (0.999, 0.9999):
        y = 1 - r * r
        measured = 1 / (y * y) - math.pi * rho1(F, r * cmath.exp(1j))
        assert abs(measured - rep.inputs["deficit"]) <= 2 * y


@pytest.mark.parametrize("text, phi, case", [
    ("mix:0.5*ma1:a=0.5+0.5*atoms:[(1,1)]", math.pi, "ii"),
    (f"mix:0.5*{HALF_CIRCLE}+0.5*atoms:[(0,1)]", 2.5, "iii"),
])
def test_boundary_atoms_enter_degenerate_cases(text, phi, case):
    # 65% and 49% off while atoms were ignored
    F = presets.parse_preset(text)
    got, rep = rho1_boundary(F, phi)
    assert got == case
    r = 0.9999
    y = 1 - r * r
    value = rho1(F, r * cmath.exp(1j * phi))
    assert abs(rep(y) - value) <= 2 * y * value


def test_boundary_refuses_atom_in_direction():
    F = presets.parse_preset("mix:0.5*uniform+0.5*atoms:[(1,1)]")
    with pytest.raises(DomainError):
        rho1_boundary(F, 1.0 + 1e-10)


def test_boundary_requires_density_and_smoothness():
    with pytest.raises(DomainError):
        rho1_boundary(presets.atoms([(0.0, 1.0)]), 0.0)
    # direction aimed at a jump of the density
    with pytest.raises(DomainError):
        rho1_boundary(presets.indicator(-1.0, 1.0), 1.0)


def test_boundary_degenerate_denominator():
    # crafted signed slice with f(0) = 0 and a vanishing averaged quotient: a signed
    # density is refused as a measure, so only a vanishing scale reaches the branch
    dens = PeriodicFunction.from_trig([0.0, 0.0, 0.0]) + \
        (PeriodicFunction.from_trig([1.0, -1.0]) -
         PeriodicFunction.from_trig([1.0, -1.0]) * PeriodicFunction.from_trig([1.0, -1.0]))
    with pytest.raises(DomainError, match="density is negative"):
        SpectralMeasure(density=(1 / (2 * math.pi)) * dens, label="crafted")
    F = SpectralMeasure(density=1e-14 * presets.ma1(0.5).density, label="faint")
    with pytest.raises(DegenerateDenominator):
        rho1_boundary(F, math.pi)


# ------------------------------------------------------------- recursions

@pytest.mark.parametrize("name", sorted(SMOOTH_FIXTURES))
def test_recursions_fixture(name):
    h = fixture_fn(SMOOTH_FIXTURES[name])
    report = verify_recursions(h, [0.5, 0.9, 0.99])
    assert report.max_discrepancy <= 1e-7


def test_recursions_golden_cases():
    assert verify_recursions(ONE, [0.9]).max_discrepancy <= 1e-9
    h1 = PeriodicFunction.from_trig([1.0, 0.4])
    assert verify_recursions(h1, [0.5, 0.9, 0.99]).max_discrepancy <= 1e-7
    h2 = PeriodicFunction.from_trig([1.0, 0.0, 1.0])
    assert verify_recursions(h2, [0.99]).max_discrepancy <= 1e-7


def test_expansion_report_interface():
    rep = ExpansionReport(coefficients={-1: 2.0, 0: -1.0}, valid_order=0,
                          source="test")
    assert rep(0.5) == pytest.approx(3.0)
    assert rep.coefficient(5) == 0.0
