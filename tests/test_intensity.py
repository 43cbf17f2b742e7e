import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gafzeros import presets
from gafzeros.errors import (CaseMismatch, DegenerateDenominator, DomainError,
                             MethodUnavailable, PrecisionError)
from gafzeros.intensity import (_GRAM_ROUNDING, ROUTES, _arc_moments, _ratio, rho1,
                                rho1_closed_form, rho1_ek_numeric, rho1_qform, rho1_spectral,
                                sr_positive_form, sr_value)
from gafzeros.periodic import PI, TWOPI, PeriodicFunction, TrigPoly, one_minus_cos, wrap_angle
from gafzeros.poisson import P_op, _check_radius, _herglotz_plan
from gafzeros.spectral import SpectralMeasure, shift

HALF = math.pi / 2


def hyperbolic_density(z):
    return 1.0 / (math.pi * (1 - abs(z) ** 2) ** 2)


def test_uniform_exact_all_radii():
    U = presets.uniform()
    for r in (0.0, 0.3, 0.6, 0.9, 0.99):
        z = r * cmath.exp(0.37j)
        want = hyperbolic_density(z)
        assert rho1_spectral(U, z) == pytest.approx(want, rel=1e-9)
        if r > 0:
            assert rho1_qform(U, z) == pytest.approx(want, rel=1e-9)


def test_uniform_value_at_half():
    assert rho1_spectral(presets.uniform(), 0.5) == pytest.approx(0.565884, rel=1e-5)


def test_single_atom_no_zeros():
    A = presets.atoms([(0.0, 1.0)])
    for z in (0.2, 0.5j, -0.7 + 0.1j):
        assert abs(rho1_spectral(A, z)) < 1e-12


def test_atoms_reject_qform():
    A = presets.atoms([(0.0, 1.0)])
    with pytest.raises(MethodUnavailable):
        rho1_qform(A, 0.5)
    with pytest.raises(MethodUnavailable):
        sr_value(A, 0.0, 0.5)


def test_route_equivalence_random_pairs():
    rng = np.random.default_rng(7)
    measures = [presets.uniform(), presets.ma1(0.3), presets.ma1(0.5),
                presets.ma1(-0.2)]
    measures += [presets.random_trig_density(seed) for seed in range(4)]
    count = 0
    for F in measures:
        for _ in range(8):
            r = rng.uniform(0.05, 0.999)
            phi = rng.uniform(-math.pi, math.pi)
            z = r * cmath.exp(1j * phi)
            a = rho1_spectral(F, z)
            b = rho1_qform(F, z)
            assert abs(a - b) <= 1e-7 * abs(a) + 1e-13, (F.label, z)
            count += 1
    assert count == 64


def test_ek_oracle_agreement():
    cases = [(presets.uniform(), 0.5), (presets.ma1(0.3), 0.9),
             (presets.ma1(0.5), 0.8j), (presets.random_trig_density(3), -0.6)]
    for F, z in cases:
        a = rho1_spectral(F, z)
        b = rho1_ek_numeric(F, z)
        assert abs(a - b) <= 1e-9 * abs(a) + 1e-10


def test_ek_uniform_golden():
    got = rho1_ek_numeric(presets.uniform(), 0.5)
    assert got == pytest.approx(1 / (math.pi * 0.75**2), rel=1e-5)


def test_ek_atom_flat():
    got = rho1_ek_numeric(presets.atoms([(0.0, 1.0)]), 0.4j)
    assert abs(got) < 1e-6


TWO_ATOMS = "atoms:[(0,0.5),(3.141592653589793,0.5)]"
HALF_CIRCLE = "indicator:lo=-1.5707963267948966,hi=1.5707963267948966"


@pytest.mark.parametrize("text, phi, r", [
    # the five-point stencil was 4.1e-3 and 2.0e-2 off at these points
    ("ma1:a=0.5", math.pi, 0.9999),
    (TWO_ATOMS, math.pi, 0.99),
])
def test_ek_matches_closed_form_at_named_points(text, phi, r):
    F, z = presets.parse_preset(text), r * cmath.exp(1j * phi)
    assert rho1_ek_numeric(F, z) == pytest.approx(rho1_closed_form(F, z), rel=1e-8)


@pytest.mark.parametrize("text, phi, r", [
    # the stencil returned values 2.6% and 1.8e5 relative off here
    (HALF_CIRCLE, 2.5, 0.9999),
    (TWO_ATOMS, math.pi, 0.99999),
])
def test_ek_refuses_cancelled_difference(text, phi, r):
    with pytest.raises(PrecisionError) as err:
        rho1_ek_numeric(presets.parse_preset(text), r * cmath.exp(1j * phi))
    assert err.value.achievable > 1e-5


def test_ek_massless_measure_is_degenerate():
    F = SpectralMeasure(density=PeriodicFunction.step([-1.0, 1.0], [0.0, 0.0]))
    with pytest.raises(DegenerateDenominator):
        rho1_ek_numeric(F, 0.5)


def test_ek_raises_or_agrees_with_closed_form_sweep():
    # presets, atom mixes and random trig densities, r up to 1 - 2e-6: the
    # route either meets 1e-5 max(rho1, 1/pi) or raises PrecisionError
    texts = ["uniform", "ma1:a=0.3", "ma1:a=0.5", "ma1:a=-0.2", HALF_CIRCLE, TWO_ATOMS,
             "indicator:lo=-1,hi=2", "mix:0.5*uniform+0.5*atoms:[(0,1)]",
             "mix:0.5*ma1:a=0.5+0.5*indicator:lo=-1,hi=1",
             "mix:0.5*ma1:a=0.5+0.5*atoms:[(1,1)]",
             f"mix:0.5*{HALF_CIRCLE}+0.5*atoms:[(0,1)]"]
    measures = [presets.parse_preset(t) for t in texts]
    measures += [presets.random_trig_density(seed) for seed in range(6)]
    rng = np.random.default_rng(2026)
    agreed = 0
    for F in measures:
        for _ in range(120):
            r = min(1.0 - 10.0 ** -rng.uniform(0.0, 5.7), 1.0 - 2e-6)
            z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            want = rho1_closed_form(F, z)
            try:
                got = rho1_ek_numeric(F, z)
            except PrecisionError:
                continue
            assert abs(got - want) <= 1e-5 * max(want, 1 / math.pi), (F.label, z)
            agreed += 1
    assert agreed >= 1800


def test_rotation_equivariance():
    rng = np.random.default_rng(3)
    for F in (presets.ma1(0.35), presets.indicator(-HALF, HALF)):
        for _ in range(5):
            z = rng.uniform(0.1, 0.95) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            phi0 = rng.uniform(-math.pi, math.pi)
            from gafzeros.spectral import shift
            lhs = rho1_spectral(shift(F, phi0), z)
            rhs = rho1_spectral(F, z * cmath.exp(1j * phi0))
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def test_nonnegativity_everywhere_sampled():
    rng = np.random.default_rng(17)
    for seed in range(6):
        F = presets.random_trig_density(seed)
        for _ in range(6):
            z = rng.uniform(0, 0.99) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            assert rho1_spectral(F, z) >= -1e-12


def test_half_interval_flat_left_density():
    F = presets.indicator(-HALF, HALF)
    z = 0.99 * cmath.exp(1j * 3 * math.pi / 4)
    want = 1 / (6 * math.pi)
    got = rho1_spectral(F, z)
    assert got == pytest.approx(want, rel=0.03)
    assert rho1_qform(F, z) == pytest.approx(got, rel=1e-9)


def _trig_on_arc():
    """ma1:a=0.3 restricted to (-1, 2): a degree-1 trig piece on an arc."""
    dens = PeriodicFunction.from_trig([1.0, 0.6]) * PeriodicFunction.step([-1.0, 2.0], [0.0, 1.0])
    return SpectralMeasure(density=dens * (1.0 / dens.integrals([-math.pi, math.pi])[0].real))


def test_rho1_dispatcher_routes():
    F = presets.ma1(0.2)
    z = 0.7
    # one table holds every method name, aliases included, in the CLI's order
    assert list(ROUTES) == ["closed_form", "spectral", "spectral_double",
                            "qform", "q_form", "ek", "ek_numeric"]
    for name, route in ROUTES.items():
        assert rho1(F, z, name) == route(F, z), name
    assert rho1(F, z, "auto") == pytest.approx(rho1_qform(F, z), rel=1e-12)
    A = presets.atoms([(0.0, 1.0)])
    assert rho1(A, 0.5, "auto") == pytest.approx(rho1_spectral(A, 0.5), abs=1e-12)
    assert rho1(F, z, "ek_numeric") == pytest.approx(rho1_ek_numeric(F, z), rel=1e-12)
    with pytest.raises(DomainError):
        rho1(F, z, "nope")
    # auto takes the closed form wherever it applies, else today's rule
    callable_ma1 = SpectralMeasure(density=PeriodicFunction.from_callable(
        lambda s: (1.0 + 0.6 * np.cos(s)) / (2 * math.pi)))
    for G, route in ((presets.ma1(0.3), rho1_closed_form),
                     (presets.indicator(-HALF, HALF), rho1_closed_form),
                     (presets.parse_preset("mix:0.5*uniform+0.5*atoms:[(0,1)]"), rho1_closed_form),
                     (presets.parse_preset("mix:0.5*ma1:a=0.3+0.5*indicator:lo=-1,hi=2"),
                      rho1_closed_form),
                     (presets.atoms([(0.0, 0.5), (2.0, 0.5)]), rho1_closed_form),
                     (callable_ma1, rho1_closed_form),
                     (_trig_on_arc(), rho1_qform)):
        for w in (0.5, 0.9 * cmath.exp(2.2j), 0.999 * cmath.exp(-0.4j)):
            assert rho1(G, w) == route(G, w), G.label
        if route is rho1_qform:
            with pytest.raises(MethodUnavailable):
                rho1_closed_form(G, 0.5)
    # a callable density is its trig fit: the ma1 closed form to rounding
    for w in (0.5, 0.9 * cmath.exp(2.2j), 0.999 * cmath.exp(-0.4j)):
        want = rho1_closed_form(presets.ma1(0.3), w)
        assert abs(rho1(callable_ma1, w) - want) <= 5.5e-16 * want


def test_closed_form_matches_qform_on_presets_up_the_ladder():
    rungs = [1.0 - 10.0 ** (-k / 2.0) for k in range(2, 10)]
    for F in (presets.uniform(), presets.ma1(0.3), presets.ma1(0.5),
              presets.indicator(-HALF, HALF), presets.random_trig_density(3),
              presets.parse_preset("mix:0.5*uniform+0.5*indicator:lo=-1,hi=1")):
        for phi in (0.0, 0.4, HALF + 0.02, HALF - 0.02, -2.5, math.pi):
            for r in rungs:
                z = r * cmath.exp(1j * phi)
                a, b = rho1_closed_form(F, z), rho1_qform(F, z)
                assert abs(a - b) <= 1e-7 * abs(b) + 1e-13, (F.label, phi, r)


def test_closed_form_off_support_step_regression():
    # the textbook arc antiderivatives cancel 1/(1-r)^3 terms off the
    # support and were 2.7% off here; reference from 40-digit quadrature
    z = (1.0 - 10**-4.5) * cmath.exp(2.5j)
    got = rho1_closed_form(presets.indicator(-HALF, HALF), z)
    assert got == pytest.approx(0.04133096983922590869, rel=1e-12)


def test_closed_form_density_vanishing_at_center_regression():
    # ma1:a=0.5 vanishes to second order at phi = pi; summing the O(1/y) part
    # of the P^2 coefficients directly left 1.9e-8 here (quadrature: 6e-9);
    # reference from the Fourier sums and from quadrature, both at 50 digits
    z = (1.0 - 10**-4.5) * cmath.exp(1j * math.pi)
    got = rho1_closed_form(presets.ma1(0.5), z)
    assert got == pytest.approx(2516.520289582088749907, rel=1e-10)


@pytest.mark.parametrize("method", ["spectral_double", "q_form"])
def test_quadrature_routes_near_second_order_zero(method):
    # the accuracy their docstrings state: the O(1/y) kernel sums cancel to
    # O(y) here, costing 5.8e-9 (spectral_double) and 8.0e-9 (q_form); the
    # bench's intensity.route_gap_max compares auto against spectral_double,
    # so it reads this oracle error
    z = (1.0 - 10**-4.5) * cmath.exp(1j * math.pi)
    got = rho1(presets.ma1(0.5), z, method)
    assert got == pytest.approx(2516.520289582088749907, rel=2e-8)


def test_closed_form_radius_ceiling():
    with pytest.raises(PrecisionError):
        rho1_closed_form(presets.uniform(), 1.0 - 1e-8)


# ---------------------------------------------------------------------------
# the numpy-scalar closed form that the plain-float kernel replaced, kept as
# a bit-identity oracle: r and phi read per call, the wave read as a TrigPoly,
# numpy angle arithmetic per atom and 1 + cos u formed as 2 - x
# ---------------------------------------------------------------------------


def _oracle_with_atoms(moments, F, r, phi, y):
    minus, plus, s_, b = moments
    for u, m in [(wrap_angle(t - phi), m) for t, m in F.atoms]:
        x = float(one_minus_cos(u))
        pk = y / ((1.0 - r) ** 2 + 2.0 * r * x)
        minus += m * x * pk**2
        plus += m * (2.0 - x) * pk**2
        s_ += m * math.sin(u) * pk**2
        b += m * pk
    return minus, plus, s_, b


def _oracle_ratio(moments, z, y):
    minus, plus, s_, b = moments
    if not np.isfinite(b) or b <= 1e-150:
        raise DegenerateDenominator(f"harmonic extension underflowed at z = {z!r}")
    return (minus * plus - s_ * s_) / (PI * y**2 * b * b)


def _oracle_trig_moments(tp, phi, r):
    d, c = tp.degree, tp.c.tolist()
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


def _oracle_half_point(s, A, B):
    sn, cs = math.sin(0.5 * s), math.cos(0.5 * s)
    tail = B * sn > A * cs
    t = A * cs / (B * sn) if tail else B * sn / (A * cs)
    at = math.atan(t)
    g, power, n = (at - t / (1.0 + t * t) if t > 0.5 else 0.0), t**3, 1
    while t <= 0.5 and power > 1e-17 * t**3:
        g += (1 if n % 2 else -1) * 2.0 * n / (2 * n + 1) * power
        power, n = power * t * t, n + 1
    g, h = (2.0 * at - g, g) if tail else (g, 2.0 * at - g)
    return tail, (2.0 * at, 2.0 * A / B * g, 2.0 * B / A * h)


def _oracle_arc_moments(lo, hi, r):
    A, B = 1.0 - r, 1.0 + r
    a, b = math.remainder(lo, TWOPI), math.remainder(hi, TWOPI)
    even = [0.0, 0.0, 0.0]
    for s1, s2 in ([(a, b)] if a < b else [(a, PI), (-PI, b)]):
        for h1, h2 in ([(-s2, -s1)] if s2 <= 0.0 else [(s1, s2)] if s1 >= 0.0
                       else [(0.0, -s1), (0.0, s2)]):
            (tail1, v1), (tail2, v2) = _oracle_half_point(h1, A, B), _oracle_half_point(h2, A, B)
            half = (PI, PI * A / B, PI * B / A) if tail2 and not tail1 else (0.0, 0.0, 0.0)
            even = [e + f + (v if tail1 else -v) + (-w if tail2 else w)
                    for e, f, v, w in zip(even, half, v1, v2)]
    d_ab = (A * A + 4.0 * r * math.sin(0.5 * a) ** 2) * (A * A + 4.0 * r * math.sin(0.5 * b) ** 2)
    s_ = 2.0 * (A * B) ** 2 * math.sin(0.5 * (a + b)) * math.sin(0.5 * (b - a)) / d_ab
    return even[1], even[2], s_, even[0]


def _oracle_closed_form(F, z):
    r = _check_radius(abs(z))
    phi = cmath.phase(z) if r > 0 else 0.0
    y = (1.0 - r) * (1.0 + r)
    moments = [0.0, 0.0, 0.0, 0.0]
    if F.density is not None:
        wave, arcs = F.density.wave_and_arcs()
        moments = list(_oracle_trig_moments(TrigPoly(wave), phi, r))
        for lo, hi, level in arcs:
            arc = _oracle_arc_moments(lo - phi, hi - phi, r)
            moments = [m + level * a for m, a in zip(moments, arc)]
    return _oracle_ratio(_oracle_with_atoms(moments, F, r, phi, y), z, y)


_LADDER = [1.0 - 10.0 ** (-k / 2.0) for k in range(2, 10)]
_ATOM_FREE = [presets.parse_preset(t) for t in (
    "uniform", "ma1:a=0.3", "ma1:a=0.5", HALF_CIRCLE, "indicator:lo=-1,hi=2",
    "mix:0.5*ma1:a=0.5+0.5*indicator:lo=-1,hi=1")] + [presets.random_trig_density(3)]


def _ladder_directions(F, seed):
    """Seeded directions, +-pi, 0, and directions on and within 1e-5 of every
    breakpoint."""
    phis = list(np.random.default_rng(seed).uniform(-math.pi, math.pi, 30))
    phis += [math.pi, -math.pi, 0.0]
    for b in F.density.breakpoints.tolist() if F.density is not None else ():
        phis += [b + e for e in (-1e-5, -1e-7, 0.0, 1e-7, 1e-5)]
    return phis


EPS = np.finfo(float).eps
DOUBLE_ZERO = "mix:0.5*ma1:a=0.5+0.5*indicator:lo=-1,hi=1"
#: rho1 of DOUBLE_ZERO at phi = +-pi (the same by symmetry) for each r of _LADDER + [0, 0.5],
#: from its plan's Phi and Phi' in closed form at 60 digits
_DOUBLE_ZERO_AT_PI = [
    0.5544196764606568105117, 1.665135652186716551772, 5.183429995701510990279,
    16.31098638022668851046, 51.49994489175159247654, 162.7773704185498184519,
    514.6675402934846077879, 1627.441980082984477085, 0.1751066926519057951048,
    0.1611644261638932267836]


@pytest.mark.parametrize("F", _ATOM_FREE, ids=[F.label for F in _ATOM_FREE])
def test_closed_form_is_bitwise_the_numpy_scalar_oracle(F):
    # the wave and its sums are the oracle's bit for bit.  A level's arc moments are
    # read in the half-angle variable now, within 1e-12 of the oracle's fold; where the
    # level and the wave make a double zero (DOUBLE_ZERO at phi = +-pi) the oracle loses
    # about eps/y^2, so that direction is held to its 60-digit values
    levels = bool(F.density.wave_and_arcs()[1])
    points = 0
    for phi in _ladder_directions(F, seed=len(F.label)):
        for r, pinned in zip(_LADDER + [0.0, 0.5], _DOUBLE_ZERO_AT_PI):
            z = r * cmath.exp(1j * phi)
            got, want = rho1(F, z), _oracle_closed_form(F, z)
            if F.label == DOUBLE_ZERO and abs(phi) == math.pi:
                y = (1.0 - r) * (1.0 + r)
                assert got == pytest.approx(pinned, rel=20 * EPS / y**2, abs=0.0), (phi, r)
            elif levels:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0), (phi, r)
            else:
                assert got == want, (phi, r)
                assert math.copysign(1.0, got) == math.copysign(1.0, want), (phi, r)
            points += 1
    assert points >= 330


def test_closed_form_keeps_its_digits_at_a_double_zero_of_a_level_and_the_wave():
    # the level (1, -1) faces z at phi = pi, where the wave cancels it: its O(1/y) plus
    # once cancelled the wave's, about eps/y^2 off (1.8e-7 at r = 1 - 10^-4.5).  Read as
    # the whole circle less the arc (-1, 1), its level sums into the wave's constant first
    F = presets.parse_preset(DOUBLE_ZERO)
    for r, pinned in zip(_LADDER + [0.0, 0.5], _DOUBLE_ZERO_AT_PI):
        for phi in (math.pi, -math.pi):
            got = rho1(F, r * cmath.exp(1j * phi))
            assert got == pytest.approx(pinned, rel=20 * EPS / (1.0 - r), abs=0.0), (phi, r)


#: points of the narrow-arc pins: at an end of the arc, off its side, in its gap and away
_NARROW_POINTS = [cmath.rect(0.5, 1.0), cmath.rect(0.9, 2.6), cmath.rect(0.98, -2.1),
                  cmath.rect(0.3, -0.5), 0.95j]


@pytest.mark.parametrize("w, values", [
    (1e-2, [0.000042434387331612706766, 7.7207834290545025518e-7, 1.7270331857044132503e-7,
            2.4034549815043891815e-6, 0.000029756127822581639964]),
    (1e-3, [4.2441248837135351497e-7, 7.6536472110258820326e-9, 1.7273279597632705663e-9,
            2.4158218797961745451e-8, 2.8855853382456195924e-7]),
    (1e-4, [4.2441317464621227825e-9, 7.6469930072226558815e-11, 1.7273600061345006806e-11,
            2.417064165997975578e-10, 2.8768117292508334114e-9]),
    (1e-5, [4.2441318151462761822e-11, 7.6463281764004740581e-13, 1.7273632364918847037e-13,
            2.4171884507512094919e-12, 2.8759366072558384342e-11]),
])
def test_closed_form_keeps_its_digits_on_a_narrow_arc(w, values):
    # arc moments once taken as differences of antiderivatives at ends rotated by phi
    # lost about eps/w^3 (1.1e-2 at w = 1e-4, PrecisionError at 1e-5).  The Gram
    # numerator's eps/w^2 is left, as in rho1_spectral.  References: 50 digits from the
    # closed-form Phi and Phi' of the plan
    F = presets.indicator(1.0, 1.0 + w)
    for z, want in zip(_NARROW_POINTS, values):
        assert rho1(F, z) == pytest.approx(want, rel=1e-14 / w**2, abs=0.0), z


def _whole_circle(r):
    return TWOPI * (1.0 - r) / (1.0 + r), TWOPI * (1.0 + r) / (1.0 - r), 0.0, TWOPI


def _arc(lo, hi, r, phi):
    """The arc's moments, the whole circles that _arc_moments takes off added back."""
    *moments, k = _arc_moments(lo, hi, r, phi)
    return [m + k * c for m, c in zip(moments, _whole_circle(r))]


def _assert_moments(got, want, tol=4e-15):
    # minus, plus and b relative; s against sqrt(minus plus), which bounds it
    for g, w in zip(got[:2] + got[3:], want[:2] + want[3:]):
        assert abs(g - w) <= tol * w, (got, want)
    assert abs(got[2] - want[2]) <= tol * math.sqrt(want[0] * want[1]), (got, want)


def test_arc_moments_rotate_by_whole_turns_exactly():
    # from phi = pi an arc near -pi sits at u = t - pi + 2 pi: t - pi rounds at the scale
    # of 2 pi, and TWOPI falls 2.4e-16 short of 2 pi; the two moved moments by up to 8e-13
    for r in (0.9, 0.999, 1.0 - 1e-6):
        got = _arc(-PI + 2.0**-10, -PI + 2.0**-9, r, PI)
        want = _arc(2.0**-10 + 2.4492935982947064e-16, 2.0**-9 + 2.4492935982947064e-16, r, 0.0)
        _assert_moments(got, want)


#: (minus, plus, s, b) of a unit level on (0.001246, 0.003412) seen from phi = -pi: mpmath
#: quadrature of (1 -+ cos u) P^2, sin u P^2 and P over u = t - phi at 50 digits
_ANTIPODE_ARC = {
    0.0: (4.331993702137896894905854e-3, 6.297862103452011085896651e-9,
          -5.044608453339528412054096e-6, 2.166000000000000173458470e-3),
    0.5: (4.813338775937775811214883e-4, 6.997647247117198334401808e-10,
          -5.605136938276621628562831e-7, 7.220009330181204903022048e-4),
    0.9: (1.200001734898132309530114e-5, 1.744566485083093993642629e-11,
          -1.397403060179715484231481e-8, 1.140001652744190394936713e-4),
}


def test_arc_moments_keep_their_digits_at_the_antipode():
    # both ends lie behind z: cos(u/2) off u = t - phi, rounded at pi's scale, once erred
    # 9.5e-14 relative on plus and 4.9e-14 on s.  Read from the antipode, all four meet
    # 1e-15 (measured at most 3.3e-16)
    for r, want in _ANTIPODE_ARC.items():
        _assert_moments(_arc(0.001246, 0.003412, r, -PI), list(want), tol=1e-15)


def _x_minus_sin(x):
    if x > 1.0:
        return x - math.sin(x)
    return math.fsum((-1) ** k * x ** (2 * k + 3) / math.factorial(2 * k + 3) for k in range(12))


@settings(max_examples=400, deadline=None)
@given(st.floats(-math.pi, math.pi), st.floats(-6.0, math.log10(math.pi)), st.booleans(),
       st.floats(0.0, 1.0 - 1e-6), st.integers(0, 3), st.floats(0.01, 0.99))
# a near-full arc whose end faces z: plus once read its sin h off the wrapped width
@example(1.0, -6.0, True, 1.0 - 1.1e-6, 0, 0.5)
# a narrow arc across pi, whose width is hi - lo + 2 pi, not + TWOPI
@example(3.14159, -5.0, False, 0.0, 2, 0.5)
def test_complementary_arcs_make_the_whole_circle(lo, log_width, gap, r, end, cut):
    width = 10.0**log_width
    width = TWOPI - width if gap else width
    hi = math.remainder(lo + width, TWOPI)
    phi = (lo, hi, math.pi, -math.pi)[end]
    whole = _whole_circle(r)
    one, other = _arc(lo, hi, r, phi), _arc(hi, lo, r, phi)
    _assert_moments([a + b for a, b in zip(one, other)], whole)
    # seen from a point inside it, the arc is the sum of its two sides, where it may pass
    # half the theta circle and be read through its complement, and they may not
    mid = math.remainder(lo + cut * width, TWOPI)
    parts = [a + b for a, b in zip(_arc(lo, mid, r, mid), _arc(mid, hi, r, mid))]
    _assert_moments(parts, _arc(lo, hi, r, mid))
    # at r = 0 the Poisson integral is the width (2 pi = TWOPI + 2.4492935982947064e-16)
    exact = math.fsum((hi, -lo) if hi > lo else (hi, -lo, TWOPI, 2.4492935982947064e-16))
    assert abs(_arc(lo, hi, 0.0, phi)[3] - exact) <= 4e-15 * exact
    # an arc centred opposite z = r: cos m = 0, so plus is (2B/A)(dth - sin dth) alone
    away = math.pi - 0.5 * 10.0**log_width
    plus, b = _arc(away, -away, r, 0.0)[1::2]
    want = 2.0 * (1.0 + r) / (1.0 - r) * _x_minus_sin(0.5 * b)
    assert abs(plus - want) <= 4e-15 * want
    # one breakpoint: a single level over the whole circle, without a derivative
    _assert_moments(_arc(lo, lo, r, phi), whole)
    F = SpectralMeasure(density=PeriodicFunction.step([lo], [1.0 / TWOPI]))
    z = np.array([0.0, cmath.rect(r, phi)])
    assert np.all(_herglotz_plan(F, z)[1] == 0.0)


@pytest.mark.parametrize("text", ["mix:0.5*uniform+0.5*atoms:[(0,1)]", TWO_ATOMS,
                                  "mix:0.5*ma1:a=0.5+0.5*atoms:[(1,1)]"])
def test_closed_form_with_atoms_moves_off_the_oracle_in_the_last_bits(text):
    # 1 + cos u is now 2 cos^2(u/2), not 2 - x; where the density is not
    # vanishingly small the values agree to rounding
    F = presets.parse_preset(text)
    for phi in _ladder_directions(F, seed=7) + [t for t, _ in F.atoms]:
        for r in _LADDER:
            z = r * cmath.exp(1j * phi)
            got, want = rho1(F, z), _oracle_closed_form(F, z)
            if want * math.pi * (1.0 - r * r) ** 2 >= 1e-6:
                assert got == pytest.approx(want, rel=1e-12), (phi, r)


def test_single_atom_at_pi_density_is_not_negative():
    # 1 + cos u formed as 2 - x cancelled here: -4.8e-33 at the origin
    F = presets.parse_preset("atoms:[(3.141592653589793,1)]")
    for z in (0.0, 0.5, -0.5, 0.9j):
        for route in (rho1_closed_form, rho1_spectral):
            assert route(F, z) >= 0.0, (route.__name__, z)


def test_ratio_reads_rounding_as_zero_and_raises_past_it():
    assert _ratio((1.0, 1.0, 1.0 + 1e-16, 1.0), 0.5, 0.75) == 0.0
    assert _ratio((1.0, 1.0, 1.0 - 1e-12, 1.0), 0.5, 0.75) > 0.0
    with pytest.raises(PrecisionError) as err:
        _ratio((1.0, 1.0, 1.0 + 1e-12, 1.0), 0.5, 0.75)
    assert err.value.achievable == 1.0


_EDGE_ANGLES = st.sampled_from([0.0, math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                                math.nextafter(-math.pi, 0.0)])


@st.composite
def atom_measures(draw):
    """One to three atoms, some of them at 0 or +-pi."""
    n = draw(st.integers(1, 3))
    locs = draw(st.lists(st.one_of(_EDGE_ANGLES, st.floats(-math.pi, math.pi)),
                         min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    return SpectralMeasure(atoms=tuple((t, w / sum(weights)) for t, w in zip(locs, weights)))


atom_disk_points = st.one_of(
    st.just(0j),
    st.tuples(st.floats(0.0, 1.0 - 2e-6), st.one_of(_EDGE_ANGLES, st.floats(-math.pi, math.pi)))
    .map(lambda p: p[0] * cmath.exp(1j * p[1])))


@settings(max_examples=150, deadline=None)
@given(atom_measures(), atom_disk_points)
@example(SpectralMeasure(atoms=((math.pi, 1.0),)), 0j)
def test_atom_density_lies_between_zero_and_the_hyperbolic_ceiling(F, z):
    y = 1.0 - abs(z) ** 2
    for route in (rho1_closed_form, rho1_spectral):
        scaled = route(F, z) * math.pi * y * y
        assert 0.0 <= scaled <= 1.0 + 1e-12, route.__name__
        if len(F.atoms) == 1:
            assert scaled <= _GRAM_ROUNDING, route.__name__


@st.composite
def trig_step_atom_measures(draw):
    """A random mixture of a trig density (degree <= 6), a step with 2-4
    breakpoints and nonnegative levels, and up to two atoms."""
    parts = []
    if draw(st.booleans()):
        trig = presets.random_trig_density(draw(st.integers(0, 10**6)),
                                           degree=draw(st.integers(1, 6)))
        parts.append(trig.density)
    nb = draw(st.integers(2, 4))
    breaks = draw(st.lists(st.floats(-math.pi, math.pi, allow_nan=False), min_size=nb,
                           max_size=nb, unique=True).filter(
        lambda b: min(np.diff(np.sort(b))) > 1e-3))
    levels = draw(st.lists(st.floats(0.0, 2.0), min_size=nb, max_size=nb).filter(
        lambda v: max(v) > 0.1))
    step = PeriodicFunction.step(breaks, levels)
    parts.append(step * (1.0 / step.integrals([-math.pi, math.pi])[0].real))
    n_atoms = draw(st.integers(0, 2))
    locs = draw(st.lists(st.floats(-math.pi, math.pi), min_size=n_atoms, max_size=n_atoms))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(parts) + n_atoms,
                            max_size=len(parts) + n_atoms))
    total = sum(weights)
    dens = weights[0] / total * parts[0]
    if len(parts) == 2:
        dens = dens + weights[1] / total * parts[1]
    atoms = tuple((t, w / total) for t, w in zip(locs, weights[len(parts):]))
    return SpectralMeasure(density=dens, atoms=atoms)


disk_points = st.tuples(st.floats(0.0, 0.9999), st.floats(-math.pi, math.pi))


@settings(max_examples=60, deadline=None)
@given(trig_step_atom_measures(), disk_points)
def test_closed_form_matches_spectral_double(F, point):
    z = point[0] * cmath.exp(1j * point[1])
    a, b = rho1_closed_form(F, z), rho1_spectral(F, z)
    assert abs(a - b) <= 1e-7 * abs(a) + 1e-13


@settings(max_examples=60, deadline=None)
@given(trig_step_atom_measures(), disk_points, st.floats(-math.pi, math.pi))
def test_closed_form_bound_and_rotation(F, point, phi0):
    r, phi = point
    z = r * cmath.exp(1j * phi)
    value = rho1_closed_form(F, z)
    y = 1.0 - r * r
    assert -1e-9 <= value * math.pi * y * y <= 1.0 + 1e-9
    rotated = rho1_closed_form(shift(F, phi0), z)
    assert rotated == pytest.approx(rho1_closed_form(F, z * cmath.exp(1j * phi0)),
                                    rel=1e-9, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(trig_step_atom_measures())
def test_closed_form_at_the_origin(F):
    assert rho1_closed_form(F, 0.0) == pytest.approx(rho1_spectral(F, 0.0),
                                                     rel=1e-9, abs=1e-13)


@pytest.mark.parametrize("F", [presets.ma1(0.3), presets.indicator(-HALF, HALF),
                               presets.random_trig_density(3)],
                         ids=["ma1", "indicator", "trig3"])
def test_qform_is_sr_over_squared_poisson_average_bitwise(F):
    # rho1_qform shares one kernel rule between P(fhat) and S_r; the public
    # pieces must still compose to the very same float
    for r in (0.3, 0.9, 0.999, 1 - 1e-4, 1 - 1e-5):
        for phi in (0.0, 0.4, HALF + 0.01, -2.5, math.pi):
            z = r * cmath.exp(1j * phi)
            r_z, phi_z = abs(z), cmath.phase(z)
            y = 1.0 - r_z * r_z
            p_hat = P_op(F.relative_density(phi_z).hat(), r_z)
            want = sr_value(F, phi_z, r_z) / (math.pi * y**2 * p_hat * p_hat)
            assert rho1_qform(F, z) == want, (r, phi)


def test_sr_value_uniform_reduction():
    # constant slice: S_r = Q(1)^2 - Q(cos)^2 reproduces the hyperbolic density
    F = presets.uniform()
    r = 0.99
    s = sr_value(F, 0.0, r)
    y = 1 - r * r
    p_sq = 1.0  # Poisson average of the constant slice is 1
    assert s / (math.pi * y * y * p_sq) == pytest.approx(
        hyperbolic_density(r), rel=1e-10)


def test_sr_value_positive_for_random_densities():
    for seed in range(25):
        F = presets.random_trig_density(seed)
        for r in (0.5, 0.9, 0.99):
            assert sr_value(F, 0.7, r) >= -1e-12


def test_positive_form_requires_double_degeneracy():
    with pytest.raises(CaseMismatch):
        sr_positive_form(presets.ma1(0.3), 0.0)
    # simple zero of the one-dependent density at phi = pi is still not enough
    with pytest.raises(CaseMismatch):
        sr_positive_form(presets.ma1(0.5), math.pi)


def test_positive_form_half_interval_consistency():
    F = presets.indicator(-HALF, HALF)
    phi = 3 * math.pi / 4
    val = sr_positive_form(F, phi)
    assert val >= 0.0
    # ratio structure: positive form equals 4 pi I(T fhat)^2 times the flat
    # density limit 1/(12 pi cos^2 phi); with the doubled plateau convention
    # I(T fhat) = 2 sqrt(2) / pi at this angle
    itf = 2 * math.sqrt(2) / math.pi
    want = 4 * math.pi * itf**2 * (1 / (12 * math.pi * math.cos(phi) ** 2))
    assert val == pytest.approx(want, rel=1e-9)
