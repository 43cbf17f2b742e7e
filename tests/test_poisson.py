import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gafzeros import presets
from gafzeros.errors import DomainError, PrecisionError
from gafzeros.periodic import COS, SIN, PeriodicFunction, mean, panel_nodes, wrap_angle
from gafzeros.intensity import rho1
from gafzeros.poisson import (R_CEILING, AuxValues, K_offdiag, P_op, Q_op, _herglotz_plan,
                              aux_ops, graded_edges, herglotz, poisson_kernel)
from gafzeros.spectral import SpectralMeasure

from conftest import step_trig_atom_measures

ONE = PeriodicFunction.constant(1.0)
X = PeriodicFunction.from_trig([1.0, -1.0])  # 1 - cos s


def k_diag(F, z):
    # the variance K(z, z) of the series: Re Phi over 1 - |z|^2
    return herglotz(F, z)[0].real / (1 - abs(z) ** 2)


@pytest.mark.parametrize("z", [1.0 + 0j, -1j, 0.8 + 0.6j, 2.0])
def test_points_outside_the_open_disk_are_refused(z):
    with pytest.raises(DomainError):
        herglotz(presets.uniform(), z)
    with pytest.raises(DomainError):
        rho1(presets.uniform(), z)


def test_poisson_kernel_values():
    s = np.linspace(-3, 3, 25)
    assert np.allclose(poisson_kernel(0.0, s), 1.0)
    for r in (0.2, 0.9, 0.999):
        assert poisson_kernel(r, 0.0) == pytest.approx((1 + r) / (1 - r), rel=1e-12)
        assert np.all(poisson_kernel(r, s) > 0)
    with pytest.raises(DomainError):
        poisson_kernel(1.0, 0.1)


def test_poisson_kernel_small_angle_stability():
    # naive 1 - cos(s) underflows at s = 1e-9; the stable form must not
    r = 0.99999
    stable = (1 - r * r) / ((1 - r) ** 2 + 4 * r * math.sin(0.5e-9) ** 2)
    assert poisson_kernel(r, 1e-9) == pytest.approx(stable, rel=1e-12)
    naive = (1 - r * r) / ((1 - r) ** 2 + 2 * r * (1 - math.cos(1e-9)))
    assert naive != pytest.approx(stable, rel=1e-9)  # the naive form is wrong here


def test_poisson_normalization_high_r():
    assert P_op(ONE, 0.99) == pytest.approx(1.0, abs=1e-10)
    assert P_op(ONE, 0.999999) == pytest.approx(1.0, abs=1e-10)


def test_Q_closed_forms():
    for r in (0.3, 0.9, 0.99, 0.999):
        assert Q_op(ONE, r) == pytest.approx((1 + r * r) / (1 - r * r), rel=1e-12)
        assert Q_op(X, r) == pytest.approx((1 - r) / (1 + r), rel=1e-12)


def test_precision_ceiling():
    with pytest.raises(PrecisionError) as err:
        Q_op(ONE, 1 - 1e-8)
    assert err.value.achievable is not None
    with pytest.raises(PrecisionError):
        herglotz(presets.uniform(), (1 - 1e-8) + 0j)
    with pytest.raises(PrecisionError):
        K_offdiag(presets.uniform(), (1 - 1e-8) + 0j, 0.2 + 0j)


def test_aux_identity_V_eq_I_plus_K():
    h = PeriodicFunction.from_trig([1.0, 0.4, 0.0, 0.2])
    for r in (0.5, 0.9, 0.99, 0.999):
        vals = aux_ops(h, r)
        assert isinstance(vals, AuxValues)
        assert vals.V == pytest.approx(mean(h) + (1 - r) * vals.K, rel=1e-8)


def test_aux_identity_U_vs_P():
    h = X
    for r in (0.5, 0.9, 0.99):
        vals = aux_ops(h, r)
        rhs = mean(h) - (1 - r * r) / (1 + r) ** 2 * P_op(h, r)
        assert r * vals.U == pytest.approx(rhs, abs=1e-12)


def test_aux_K_limit_constant():
    # K_r(1) tends to 2*mean - 3/4 = 5/4 as r -> 1
    vals = aux_ops(ONE, 0.9999)
    assert vals.K == pytest.approx(1.25, abs=2e-4)


def test_fatou_convergence():
    h = PeriodicFunction.from_trig([1.0, 0.5, 0.25])
    gaps = [abs(P_op(h, r) - h(0.0)) for r in (0.9, 0.99, 0.999)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_symmetry_filtering():
    # the squared kernel only sees the matching parity component
    f = PeriodicFunction.from_trig([1.0, 0.3, 0.1], [0.0, 0.4, -0.2])
    for r in (0.5, 0.95):
        assert Q_op(f, r) == pytest.approx(Q_op(f.hat(), r), rel=1e-12)
        assert Q_op(f * COS, r) == pytest.approx(Q_op(f.hat() * COS, r), rel=1e-12)
        assert Q_op(f * SIN, r) == pytest.approx(Q_op(f.check() * SIN, r), rel=1e-12)


def test_harmonic_extension_uniform():
    U = presets.uniform()
    for z in (0.0, 0.3 + 0.4j, 0.99j):
        assert herglotz(U, z)[0].real == pytest.approx(1.0, abs=1e-12)
        assert k_diag(U, z) == pytest.approx(1 / (1 - abs(z) ** 2), rel=1e-12)


def test_K_offdiag_uniform_geometric_series_oracle():
    U = presets.uniform()
    rng = np.random.default_rng(4)
    for _ in range(6):
        z = (rng.uniform(0, 0.9) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        w = (rng.uniform(0, 0.9) * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        got = K_offdiag(U, z, w)
        # independent oracle: partial geometric sum of z^k conj(w)^k
        q = z * np.conj(w)
        oracle = sum(q ** k for k in range(420))
        assert got == pytest.approx(oracle, rel=1e-10)


def test_K_single_atom():
    A = presets.atoms([(0.0, 1.0)])
    z = 0.55 * cmath.exp(0.4j)
    assert k_diag(A, z) == pytest.approx(1 / abs(1 - z) ** 2, rel=1e-13)
    w = 0.3 * cmath.exp(-1.0j)
    want = 1 / ((1 - z) * np.conj(1 - w))
    assert K_offdiag(A, z, w) == pytest.approx(want, rel=1e-13)


def test_kernel_positivity_and_cauchy_schwarz():
    rng = np.random.default_rng(11)
    measures = [presets.uniform(), presets.ma1(0.4),
                presets.indicator(-math.pi / 2, math.pi / 2),
                presets.mix((0.7, presets.uniform()),
                            (0.3, presets.atoms([(1.0, 1.0)])))]
    for F in measures:
        for _ in range(8):
            z = rng.uniform(0, 0.95) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            w = rng.uniform(0, 0.95) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
            kzz = k_diag(F, z)
            kww = k_diag(F, w)
            kzw = K_offdiag(F, z, w)
            assert kzz > 0
            assert abs(kzw) ** 2 <= kzz * kww * (1 + 1e-10)


def test_herglotz_closed_forms():
    for z in [r * cmath.exp(1j * phi) for r in (0.0, 0.5, 0.9, 0.99, 0.999, 0.9999)
              for phi in (0.0, 1.0, 3.0, -2.0, math.pi)]:
        phi, dphi = herglotz(presets.uniform(), z)
        assert abs(phi - 1.0) <= 1e-13 and abs(dphi) <= 1e-11
        for a in (0.3, -0.4):
            phi, dphi = herglotz(presets.ma1(a), z)
            assert abs(phi - (1 + 2 * a * z)) <= 1e-11 and abs(dphi - 2 * a) <= 1e-10
        for t in (0.0, 2.0, -3.0):
            e = cmath.exp(1j * t)
            phi, dphi = herglotz(presets.atoms([(t, 1.0)]), z)
            assert phi == pytest.approx((e + z) / (e - z), rel=1e-13)
            assert dphi == pytest.approx(2 * e / (e - z) ** 2, rel=1e-13)


HALF_CIRCLE = presets.indicator(-math.pi / 2, math.pi / 2)


def _arc(lo, hi):
    # unit mass spread evenly on the arc (lo, hi)
    return SpectralMeasure(density=PeriodicFunction.step([lo, hi], [0.0, 1.0 / (hi - lo)]))


DISK_POINTS = st.builds(cmath.rect, st.floats(0.0, R_CEILING), st.floats(-4.0, 4.0)).filter(
    lambda z: abs(z) <= R_CEILING)


@settings(max_examples=60, deadline=None)
@given(step_trig_atom_measures(), st.lists(DISK_POINTS, min_size=1, max_size=6))
@example(presets.uniform(), [0.0, 0.5j, -0.999999, 1j * R_CEILING])
@example(HALF_CIRCLE, [-0.9, -R_CEILING, cmath.rect(0.9999, 2.0), cmath.rect(0.99999, -2.5)])
@example(presets.mix((0.5, presets.uniform()), (0.5, presets.atoms([(0.0, 1.0)]))),
         [0.999999, cmath.rect(0.9999, 0.01), -0.5])
# narrow arcs of high level, where a difference of two logs cancels
@example(_arc(0.0, 0.008973633239393548), [0.22379 + 0.4683j])
@example(_arc(0.0, 0.015625), [-0.10404 + 0.22732j])
@example(_arc(1.0, 1.0011), [0.0, 0.3j, cmath.rect(0.999, -2.0)])
# (on an arc from pi/2 the quadrature's rotation into the frame of z = iy is exact)
@example(_arc(math.pi / 2, math.pi / 2 + 1e-6), [0.5j, 0.9j, 0.999j])
# a breakpoint within 1e-13 of the quadrature's end edge pi
@example(_arc(0.0, math.pi - 1e-13), [0.0, 0.5, -0.9j])
# the rotation into the frame of z moves one end of this arc of width 0.005 by
# 2.2e-16: the quadrature erred 2.0e-14 in Phi before its end masses
@example(_arc(-1.505148374454069, -1.5), [0.2701511529340699 + 0.42073549240394825j])
def test_closed_form_herglotz_matches_the_quadrature(F, points):
    # the quadrature's own error grows like 1/y: on uniform at r = 1 - 1e-6 its Phi'
    # reads 1.2e-10 where the exact value is 0
    phi, dphi = _herglotz_plan(F, np.array(points))
    for z, p, dp in zip(points, phi, dphi):
        want, dwant = herglotz(F, z)
        y = 1.0 - abs(z) ** 2
        assert abs(p - want) <= 1e-14 * max(1.0, abs(want)) / y
        assert abs(dp - dwant) <= 1e-14 * max(1.0, abs(dwant)) / y


@pytest.mark.parametrize("F", [
    presets.uniform(), presets.atoms([(1.0, 1.0)]), HALF_CIRCLE, presets.random_trig_density(3),
    SpectralMeasure(density=PeriodicFunction.from_trig([1.0, 0.6])
                    * PeriodicFunction.step([-1.0, 1.0], [1.0, 0.25])),
    SpectralMeasure(density=PeriodicFunction.from_callable(lambda s: 1.0 + 0.5 * np.cos(s) ** 3)),
], ids=["uniform", "atom", "half_circle", "trig", "trig_times_step", "callable"])
def test_closed_form_herglotz_exists_exactly_with_a_plan(F):
    plan = F.density is None or F.density.wave_and_arcs() is not None
    assert (_herglotz_plan(F, np.array([0.3j, 0.5])) is not None) == plan


#: points of the narrow-gap pins: the center, facing the gap at two radii, and away from it
_GAP_POINTS = [0.0, cmath.rect(0.5, 1.0), cmath.rect(0.99, 1.0), cmath.rect(0.9, -2.0), -0.3j]


@pytest.mark.parametrize("g, values", [
    (1e-3, [complex(-0.00017187696763524473305, 0.00026797713042023313557),
            complex(-0.0006864349330821043404, 0.0010725944202024434532),
            complex(-1.4393082896642909987, 2.8221231060483653499),
            complex(-0.000037480530170770035575, 0.000080312330019985497656),
            complex(-0.00006147710977877916791, 0.00018988979609429737541)]),
    (1e-5, [complex(-1.7198249995997043001e-6, 2.6784981961250976476e-6),
            complex(-6.8791928574390991628e-6, 0.00001071406157589326229),
            complex(-0.01717171594898794323, 0.02680198182737029108),
            complex(-3.747803579081225044e-7, 8.0301498717667902187e-7),
            complex(-6.152722560004051441e-7, 1.8986160302153528658e-6)]),
    (1e-7, [complex(-1.7198355493091911206e-8, 2.6784854641967165061e-8),
            complex(-6.8793411258424744426e-8, 1.0713942544720926524e-7),
            complex(-0.00017198090321336425414, 0.00026785024903047985803),
            complex(-3.7478010905217891484e-9, 8.0301390534218422247e-9),
            complex(-6.1527726830418577047e-9, 1.8986132123305299302e-8)]),
])
def test_closed_form_herglotz_derivative_in_a_narrow_gap(g, values):
    # the level's sin h was read off the wrapped width 2 pi - g, eps/g off (4.7e-9 at
    # g = 1e-7); it is now the sine of g/2.  References: 50 digits from
    # Phi' = 2iL (1/(e^(ib) - z) - 1/(e^(ia) - z))
    level = 1.0 / (2 * math.pi - g)
    F = SpectralMeasure(density=PeriodicFunction.step([1.0, 1.0 + g], [level, 0.0]))
    dphi = _herglotz_plan(F, np.array(_GAP_POINTS))[1]
    for z, got, want in zip(_GAP_POINTS, dphi, values):
        assert abs(got - want) <= 1e-13 * abs(want), z


def test_closed_form_herglotz_reads_an_end_across_the_cut():
    # seen from arg z = pi the end -3.1415 sits at u = pi - 3.1415 + (2 pi - TWOPI): wrapped
    # as (x + pi) mod 2 pi - pi it rounded at pi's scale, 7.4e-12 off at arg z = +pi.
    # References: 2L dth at the float arg z, 50 digits
    F = presets.indicator(-3.1415, 0.5)
    z = np.array([complex(-(1 - 1e-5), 0.0), complex(-(1 - 1e-5), -0.0),
                  complex(-(1 - 1e-6), 0.0), complex(-(1 - 1e-6), -0.0), -0.9])
    want = [0.05904958911899858321692, 0.05904958911915347858947, 0.00592755951332432143887,
            0.005927559513339989514453, 0.8696165631881734866765]
    for v, got, w in zip(z, _herglotz_plan(F, z)[0].real, want):
        assert abs(got - w) <= 1e-15 * w, v


def test_closed_form_herglotz_of_uniform_and_in_a_gap():
    z = np.array([0.0, 0.3 + 0.4j, -0.99, R_CEILING])
    phi, dphi = _herglotz_plan(presets.uniform(), z)
    assert np.all(dphi == 0.0)
    assert np.allclose(phi, 1.0, rtol=0.0, atol=1e-15)
    # the half circle's Poisson integral at -r, facing its gap, is (4/pi) atan((1 - r)/(1 + r)):
    # O(1 - r), kept to full relative precision (a difference of logs loses eps/(1 - r))
    r = np.array([0.5, 0.9, 0.999, 0.999999, R_CEILING])
    b = _herglotz_plan(HALF_CIRCLE, -r)[0].real
    assert np.allclose(b, 4.0 / math.pi * np.arctan((1.0 - r) / (1.0 + r)), rtol=1e-14, atol=0.0)


def _K_offdiag_two_centre(F, z, w):
    # the covariance integral on one rule graded toward both kernel centres
    pts, wts = panel_nodes(graded_edges(max(abs(z), abs(w)), F.density.breakpoints,
                                        centers=(cmath.phase(z), cmath.phase(w))))
    integrand = 1.0 / ((1.0 - z * np.exp(-1j * pts)) * np.conj(1.0 - w * np.exp(-1j * pts)))
    return complex(np.sum(F.density(pts) * integrand * wts))


@pytest.mark.parametrize("F", [presets.ma1(0.4), presets.indicator(-math.pi / 2, math.pi / 2)])
def test_K_offdiag_matches_two_centre_quadrature(F):
    rng = np.random.default_rng(5)
    for _ in range(12):
        z = rng.uniform(0, 0.999) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        w = rng.uniform(0, 0.999) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        assert K_offdiag(F, z, w) == pytest.approx(_K_offdiag_two_centre(F, z, w), rel=1e-10)


def test_harmonic_extension_matches_offdiag_on_diagonal():
    F = presets.ma1(0.25)
    z = 0.8 * cmath.exp(2.2j)
    kd = k_diag(F, z)
    ko = K_offdiag(F, z, z)
    assert kd == pytest.approx(ko.real, rel=1e-10)
    assert abs(ko.imag) < 1e-12 * kd


def _graded_edges_oracle(r, breakpoints=(), centers=(0.0,), floor_scale=16.0, ratio=2.0):
    # reference rule: sets of wrapped edges; -pi, pi and the breakpoints are all kept,
    # and another edge is kept, walking up, when it lies more than 1e-13 from each of
    # them and from the last other edge kept
    delta = max((1.0 - r) / floor_scale, 1e-12)
    fixed = {-math.pi, math.pi}
    for b in np.atleast_1d(np.asarray(breakpoints, dtype=float)):
        fixed.add(float(wrap_angle(b)))
    free = set()
    for c in centers:
        c = float(wrap_angle(c))
        free.add(c)
        d = delta
        while d < 2 * math.pi:
            for p in (c - d, c + d):
                free.add(float(wrap_angle(p)))
            d *= ratio
    kept = []
    for p in sorted(free):
        if min(abs(p - f) for f in fixed) > 1e-13 and (not kept or p - kept[-1] > 1e-13):
            kept.append(p)
    return np.array(sorted(fixed | set(kept)))


_RADII = st.one_of(st.floats(0.0, R_CEILING),
                   st.floats(0.0, 6.0).map(lambda e: min(1.0 - 10.0 ** -e, R_CEILING)),
                   st.just(R_CEILING))
_ANGLES = st.one_of(st.floats(-4.0, 4.0),
                    st.sampled_from([-math.pi, math.pi, 0.0, math.pi / 2]))


@st.composite
def _rule_inputs(draw):
    centers = draw(st.lists(_ANGLES, min_size=1, max_size=2))
    breaks = draw(st.lists(st.one_of(
        _ANGLES,
        st.sampled_from(centers),
        # within the 1e-13 merge distance of a center: the greedy merge path
        st.tuples(st.sampled_from(centers), st.floats(-2e-13, 2e-13)).map(sum),
    ), max_size=3))
    floor = draw(st.one_of(st.just(16.0), st.integers(0, 1024).map(
        lambda k_max: 16.0 * math.sqrt(k_max + 1.0))))
    return draw(_RADII), breaks, centers, floor


@settings(max_examples=300, deadline=None)
@given(_rule_inputs())
@example((0.9, [0.1, 0.1 + 6e-14, 0.1 + 1.3e-13], [0.1], 16.0))
@example((R_CEILING, [-math.pi, math.pi, 0.0], [0.0, math.pi], 16.0 * math.sqrt(513.0)))
@example((0.0, [], [0.0], 16.0))
def test_graded_edges_match_set_and_loop_oracle(case):
    r, breaks, centers, floor = case
    got = graded_edges(r, breaks, centers, floor)
    want = _graded_edges_oracle(r, breaks, centers, floor)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(_rule_inputs())
@example((0.6, [1.0, 2.0], [1.0], 16.0 * math.sqrt(513.0)))
@example((1.0 - 1e-9, [], [0.0], 16.0 * math.sqrt(2049.0)))
def test_graded_edges_ratio_8_match_oracle(case):
    # the variance rule's panels: c +- delta 8^j, each offset exact
    r, breaks, centers, floor = case
    got = graded_edges(r, breaks, centers, floor, _ratio=8)
    want = _graded_edges_oracle(r, breaks, centers, floor, ratio=8.0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
