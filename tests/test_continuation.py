import bisect
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gafzeros import presets
from gafzeros import continuation
from gafzeros.continuation import (Arc, _log_moments, _log_weights,
                                   arc_radius_bound, classify_arcs, continuation_report,
                                   log_variance_alpha, rho_local, variance_alpha)
from gafzeros.errors import DomainError, TailWarning
from gafzeros.intensity import rho1
from gafzeros.periodic import PeriodicFunction, mean, power_table, wrap_angle
from gafzeros.spectral import SpectralMeasure, shift

HALF = math.pi / 2


def test_variance_atom_closed_forms():
    Api = presets.atoms([(math.pi, 1.0)])
    A0 = presets.atoms([(0.0, 1.0)])
    for r in (0.3, 0.5, 0.9):
        for k in (0, 3, 10):
            assert variance_alpha(Api, r, k) == pytest.approx(
                (1 + r) ** (-2 * (k + 1)), rel=1e-12)
            assert variance_alpha(A0, r, k) == pytest.approx(
                (1 - r) ** (-2 * (k + 1)), rel=1e-12)


def test_variance_uniform_k0_matches_kernel_diagonal():
    U = presets.uniform()
    assert variance_alpha(U, 0.5, 0) == pytest.approx(4.0 / 3.0, rel=1e-10)


def test_variance_overflow_goes_to_log_space():
    A0 = presets.atoms([(0.0, 1.0)])
    lv = log_variance_alpha(A0, 0.9, 512)
    assert lv == pytest.approx(-2 * 513 * math.log(0.1), rel=1e-12)
    assert variance_alpha(A0, 0.9, 512) == math.inf


def _log_variance_uniform(r, k):
    """log of (1-r^2)^-(k+1) P_k((1+r^2)/(1-r^2)), the exact uniform variance,
    with the Legendre polynomial P_k by its three-term recurrence, rescaled
    whenever it passes 1e100."""
    y = (1.0 - r) * (1.0 + r)
    x = (1.0 + r * r) / y
    prev, cur, log_scale = 0.0, 1.0, 0.0
    for n in range(k):
        prev, cur = cur, ((2 * n + 1) * x * cur - n * prev) / (n + 1)
        if cur > 1e100:
            prev, cur, log_scale = prev / cur, 1.0, log_scale + math.log(cur)
    return -(k + 1) * math.log(y) + math.log(cur) + log_scale


@pytest.mark.parametrize("r", [0.9, 0.999, 1 - 1e-5, 1 - 1e-6])
def test_log_variance_uniform_matches_legendre_closed_form(r):
    # 1 - cos t formed by subtraction put 3.1e-3 into log var_512 at r = 1 - 1e-6
    ks = np.array([0, 1, 7, 100, 512])
    lv = log_variance_alpha(presets.uniform(), r, ks)
    want = [_log_variance_uniform(r, int(k)) for k in ks]
    assert lv == pytest.approx(want, rel=1e-13)


def test_variance_vectorized_ks():
    U = presets.uniform()
    lv = log_variance_alpha(U, 0.5, np.array([1, 2, 4]))
    assert lv.shape == (3,)
    assert np.all(np.diff(lv) > 0)


def _log_variance_loop(F, r, ks):
    """Reference: one log-sum-exp over the quadrature nodes per order k."""
    ks = np.atleast_1d(np.asarray(ks, dtype=float))
    logw, logd = _log_weights(F, r, int(ks.max()))
    out = []
    for k in ks:
        a = logw - (k + 1.0) * logd
        m = np.max(a)
        out.append(m + math.log(np.sum(np.exp(a - m))))
    return np.array(out)


CONTINUATION_PRESETS = [
    "uniform", "atoms:[(0,1)]", "atoms:[(3.141592653589793,1)]",
    "atoms:[(0,0.5),(3.141592653589793,0.5)]",
    "indicator:lo=-1.5707963267948966,hi=1.5707963267948966",
    "ma1:a=0.5", "mix:0.5*uniform+0.5*atoms:[(0,1)]",
]


@pytest.mark.parametrize("text, radii", [
    *[(t, (0.1, 0.7, 0.95, 0.999)) for t in CONTINUATION_PRESETS],
    # -log d reaches -2 log(1 - r) = 41.4: fewer than 32 orders share a block
    ("atoms:[(0,1)]", (1.0 - 1e-9,)),
])
def test_log_variance_matches_per_k_loop(text, radii):
    F = presets.parse_preset(text)
    ks = np.arange(0, 513)
    for r in radii:
        got = log_variance_alpha(F, r, ks)
        want = _log_variance_loop(F, r, ks)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), r


def test_log_variance_unsorted_repeated_gapped_and_scalar_ks():
    F = presets.parse_preset("mix:0.5*uniform+0.5*atoms:[(0,1)]")
    ks = np.array([300, 3, 3, 512, 0, 77, 31, 32, 300, 1])
    got = log_variance_alpha(F, 0.7, ks)
    assert got.shape == ks.shape
    want = _log_variance_loop(F, 0.7, ks)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))
    one = log_variance_alpha(F, 0.7, 77)
    assert isinstance(one, float)
    assert one == pytest.approx(_log_variance_loop(F, 0.7, 77)[0], rel=1e-13)


BLOCKED_SUM_PRESETS = [
    # at r near 1 the atom's -log d passes 618/32, so B drops below 32
    "uniform", "atoms:[(0,1)]",
    "indicator:lo=-1.5707963267948966,hi=1.5707963267948966",
]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(BLOCKED_SUM_PRESETS), st.floats(0.05, 1.0 - 1e-9),
       st.lists(st.integers(0, 1500), min_size=1, max_size=600))
@example("atoms:[(0,1)]", 1.0 - 1e-9, [700, 3, 3, 0, 15, 16, 17, 31, 100, 700, 1500, 1])
@example("uniform", 0.999, [512, 40, 40, 0, 31, 32, 33, 300])
# fewer orders than blocks in their span: only the blocks that hold one
@example("uniform", 0.7, [0, 3000, 1, 2999, 2500, 3000])
@example("atoms:[(0,1)]", 1.0 - 1e-9, [5000, 3, 0, 1500, 14, 13])
def test_blocked_sum_matches_per_k_loop(text, r, orders):
    # unsorted orders with repeats and gaps wider than a block
    F = presets.parse_preset(text)
    ks = np.array(orders)
    got = _log_moments(*_log_weights(F, r, int(ks.max())), ks)
    want = _log_variance_loop(F, r, ks)
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_log_variance_long_order_array_is_finite():
    # 3125 blocks go through the bounded chunks of one product each
    F = presets.parse_preset("mix:0.5*uniform+0.5*atoms:[(0,1)]")
    ks = np.arange(10 ** 5)
    got = log_variance_alpha(F, 0.7, ks)
    assert got.shape == ks.shape and np.all(np.isfinite(got))
    pick = np.array([0, 31, 32, 4095, 4096, 65535, 99999])
    want = _log_variance_loop(F, 0.7, pick)
    assert np.all(np.abs(got[pick] - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


def test_log_variance_rejects_fractional_orders():
    with pytest.raises(DomainError):
        log_variance_alpha(presets.uniform(), 0.5, np.array([1.0, 2.5]))


@pytest.mark.parametrize("text, k", [
    # one negative order among others, and alone, with and without a density
    ("uniform", [-3, 2]), ("atoms:[(0,1)]", -1), ("uniform", -1), ("uniform", -2)])
def test_log_variance_rejects_negative_orders_before_quadrature(text, k, monkeypatch):
    F = presets.parse_preset(text)

    def no_rule(*args, **kwargs):
        raise AssertionError("the rule was built")

    monkeypatch.setattr(continuation, "_log_weights", no_rule)
    with pytest.raises(DomainError, match="nonnegative integers"):
        log_variance_alpha(F, 0.5, k)


@pytest.mark.parametrize("text", CONTINUATION_PRESETS)
def test_log_variance_makes_no_subnormals(text):
    # the shifted exponents below -663 are dropped, so exp, the table
    # product and the block sums stay normal
    F = presets.parse_preset(text)
    for r in (0.1, 0.3, 0.6, 0.9, 0.95, 0.999, 1.0 - 1e-6, 1.0 - 1e-9):
        with np.errstate(under="raise"):
            lv = log_variance_alpha(F, r, np.arange(513))
        assert np.all(np.isfinite(lv))


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="the reference needs a long double wider than double")
def test_power_table_matches_long_double_exp():
    rng = np.random.default_rng(3)
    gain = np.concatenate([np.linspace(-1.4, 21.0, 4001), rng.uniform(-1.4, 21.0, 4000)])
    table = power_table(np.exp(gain), 32)
    want = np.exp(np.arange(32, dtype=np.longdouble)[:, None] * gain.astype(np.longdouble))
    assert np.max(np.abs((table - want) / want)) <= 7e-15
    # fewer rows are the same rows
    assert power_table(np.exp(gain), 21).tobytes() == table[:21].tobytes()


def _reference_log_weights(F, r):
    """A refined variance rule, independent of the library's: 64-point
    Gauss-Legendre on panels with ratio 2 and floor 8192, graded toward 0
    and toward every breakpoint, so it needs no knowledge of the support."""
    xs, ws = np.polynomial.legendre.leggauss(64)
    logw = [np.log([m for _, m in F.atoms])]
    logd = [np.log([(1 - r) ** 2 + 4 * r * math.sin(t / 2) ** 2 for t, _ in F.atoms])]
    if F.density is not None:
        breaks = wrap_angle(F.density.breakpoints)
        centers = np.concatenate([[0.0], breaks])
        steps = (1.0 - r) / 8192.0 * 2.0 ** np.arange(80)
        steps = steps[steps < 2 * math.pi]
        edges = np.unique(wrap_angle(np.concatenate(
            [[-math.pi, math.pi], centers, np.add.outer(centers, steps).ravel(),
             np.add.outer(centers, -steps).ravel()])))
        edges = np.concatenate([[-math.pi], edges[edges > -math.pi]])
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
        pts = (mid[:, None] + half[:, None] * xs).ravel()
        vals = F.density(pts) * (half[:, None] * ws).ravel()
        keep = vals > 0.0
        logw.append(np.log(vals[keep]))
        logd.append(np.log((1 - r) ** 2 + 4 * r * np.sin(pts[keep] / 2) ** 2))
    return np.concatenate(logw), np.concatenate(logd)


def _reference_log_variance(F, r, ks):
    logw, logd = _reference_log_weights(F, r)
    out = []
    for k in ks:
        a = logw - (k + 1.0) * logd
        m = np.max(a)
        out.append(m + math.log(np.sum(np.exp(a - m))))
    return np.array(out)


def _two_runs(breaks):
    """Density 1 on (b0, b1] and (b2, b3], 0 elsewhere, normalized."""
    dens = PeriodicFunction.step(breaks, [0.0, 1.0, 0.0, 1.0])
    return SpectralMeasure(density=dens * (1.0 / (2 * math.pi * mean(dens))))


VARIANCE_RULE_MEASURES = [
    *[(t, lambda t=t: presets.parse_preset(t)) for t in CONTINUATION_PRESETS],
    *[(t, lambda t=t: presets.parse_preset(t)) for t in [
        "indicator:lo=1,hi=2", "indicator:lo=-3,hi=-0.2", "indicator:lo=2.5,hi=3",
        "mix:0.5*indicator:lo=1,hi=2+0.5*atoms:[(2.5,1)]"]],
    ("run through pi", lambda: shift(presets.indicator(-0.75, 0.75), math.pi)),
    # run ends at equal or nearly equal distance from direction 0; graded
    # toward the nearest end alone, the last two read 9e-7 and 7e-11 off
    ("tied runs", lambda: _two_runs([-2.0, -1.0, 1.0, 2.0])),
    ("nearly tied runs", lambda: _two_runs([-2.0, -1.01, 1.0, 2.0])),
    ("runs either side of 0", lambda: _two_runs([-2.9, -0.15, 0.2, 2.0])),
]

_RULE_RADII = [0.05, 0.1, 0.3, 0.6, 0.9, 0.95, 0.99, 0.999, 1 - 1e-6, 1 - 1e-9]


@pytest.mark.parametrize("build", [b for _, b in VARIANCE_RULE_MEASURES],
                         ids=[t for t, _ in VARIANCE_RULE_MEASURES])
def test_variance_rule_matches_refined_reference(build):
    # the ratio-8 rule graded toward the support, against a rule that knows
    # nothing of the support; the parent rule graded toward 0 only was
    # 7.6e-4 off on indicator:lo=1,hi=2
    F = build()
    for k_max in (512, 2048):
        ks = np.unique(np.concatenate(
            [np.arange(8), np.geomspace(8, k_max, 24).astype(int), [k_max]]))
        for r in _RULE_RADII:
            got = log_variance_alpha(F, r, ks)
            want = _reference_log_variance(F, r, ks)
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert np.max(err) <= 1e-13, (r, k_max, int(ks[np.argmax(err)]), np.max(err))


def test_variance_alpha_off_center_support_passes_depth_check():
    # the parent rule raised PrecisionError here: its two depths missed the
    # boundary layer at t = 1 differently (41.3367 vs 41.3364; exact 41.3680)
    F = presets.parse_preset("indicator:lo=1,hi=2")
    want = _reference_log_variance(F, 0.99, [512])[0]
    assert math.log(variance_alpha(F, 0.99, 512)) == pytest.approx(want, rel=1e-13)


def test_rho_local_atoms_exact():
    for r in (0.3, 0.6, 0.9):
        assert rho_local(presets.atoms([(math.pi, 1.0)]), r) == pytest.approx(
            1 + r, abs=1e-6)
        assert rho_local(presets.atoms([(0.0, 1.0)]), r) == pytest.approx(
            1 - r, abs=1e-6)


def test_rho_local_uniform():
    got = rho_local(presets.uniform(), 0.5, k_max=512)
    assert got == pytest.approx(0.5, abs=1e-3)


def test_rho_local_needs_tail():
    with pytest.raises(DomainError):
        rho_local(presets.uniform(), 0.5, k_max=32)
    with pytest.raises(DomainError):
        continuation_report(presets.uniform(), 0.5, k_max=32)


def test_variance_ratio_lower_bound():
    # var_{k+1} >= var_k * min over the support of 1/(1 - 2 r cos t + r^2)
    cases = [
        (presets.uniform(), (1 + 0.6) ** 2),
        (presets.indicator(-HALF, HALF), 1 - 2 * 0.6 * math.cos(HALF) + 0.36),
        (presets.atoms([(0.0, 0.5), (math.pi, 0.5)]), (1 + 0.6) ** 2),
    ]
    r = 0.6
    for F, max_d in cases:
        lv = log_variance_alpha(F, r, np.arange(0, 12))
        steps = np.diff(lv)
        assert np.all(steps >= -math.log(max_d) - 1e-10), F.label


def test_classify_uniform_full_circle():
    arcs = classify_arcs(presets.uniform())
    assert len(arcs) == 1
    assert arcs[0].kind == "singular"
    assert arcs[0].hi - arcs[0].lo == pytest.approx(2 * math.pi)


def test_classify_half_interval():
    arcs = classify_arcs(presets.indicator(-HALF, HALF))
    kinds = {a.kind for a in arcs}
    assert kinds == {"regular", "singular"}
    reg = [a for a in arcs if a.kind == "regular"]
    assert len(reg) == 1
    assert reg[0].lo == pytest.approx(HALF, abs=1e-12)
    assert reg[0].hi == pytest.approx(3 * HALF, abs=1e-12)
    sing = [a for a in arcs if a.kind == "singular"]
    assert sing[0].lo == pytest.approx(-HALF, abs=1e-12)
    assert sing[0].hi == pytest.approx(HALF, abs=1e-12)


def test_classify_two_atoms():
    arcs = classify_arcs(presets.atoms([(0.0, 0.5), (math.pi, 0.5)]))
    points = [a for a in arcs if a.kind == "singular"]
    gaps = [a for a in arcs if a.kind == "regular"]
    assert len(points) == 2
    assert all(a.lo == a.hi for a in points)
    assert len(gaps) == 2
    assert sum(a.hi - a.lo for a in gaps) == pytest.approx(2 * math.pi)


def test_classify_smooth_positive_density():
    arcs = classify_arcs(presets.ma1(0.3))
    assert len(arcs) == 1 and arcs[0].kind == "singular"
    # isolated zero of the density (a = 1/2 at t = pi) does not open an arc
    arcs = classify_arcs(presets.ma1(0.5))
    assert len(arcs) == 1 and arcs[0].kind == "singular"


def _three_step():
    dens = PeriodicFunction.step([-2.0, 0.5, 2.5], [0.3, 0.0, 0.7])
    return SpectralMeasure(density=dens * (1.0 / (0.3 * (2 * math.pi - 4.5) + 0.7 * 2.0)))


def _one_minus_cos_power(n):
    x = PeriodicFunction.from_trig([1.0, -1.0])
    dens = x
    for _ in range(n - 1):
        dens = dens * x
    return SpectralMeasure(density=dens * (1.0 / (2 * math.pi * mean(dens))))


@pytest.mark.parametrize("F, want", [
    (presets.indicator(-HALF, HALF),
     [(-HALF, HALF, "singular"), (HALF, 3 * HALF, "regular")]),
    (_three_step(),
     [(0.5, 2 * math.pi - 2.0, "singular"), (2 * math.pi - 2.0, 2 * math.pi + 0.5, "regular")]),
    (presets.parse_preset("mix:0.5*uniform+0.5*indicator:lo=-1,hi=1"),
     [(-math.pi, math.pi, "singular")]),
    (presets.parse_preset("mix:0.5*indicator:lo=-1,hi=1+0.5*atoms:[(2.5,1)]"),
     [(-1.0, 1.0, "singular"), (1.0, 2.5, "regular"), (2.5, 2.5, "singular"),
      (2.5, 2 * math.pi - 1.0, "regular")]),
    # one trig piece: zero only at s = 0, yet below 1e-12 on a run of probe points
    (_one_minus_cos_power(2), [(-math.pi, math.pi, "singular")]),
    (_one_minus_cos_power(3), [(-math.pi, math.pi, "singular")]),
], ids=["indicator", "three-step", "uniform+indicator", "indicator+atom",
        "one-minus-cos-squared", "one-minus-cos-cubed"])
def test_classify_reads_zero_pieces(F, want):
    # a piece is outside the support exactly when its coefficients vanish
    arcs = classify_arcs(F)
    assert [a.kind for a in arcs] == [k for _, _, k in want]
    for arc, (lo, hi, _) in zip(arcs, want):
        assert arc.lo == pytest.approx(lo, abs=1e-12)
        assert arc.hi == pytest.approx(hi, abs=1e-12)


def test_classify_refuses_unstructured_vanishing():
    # a callable that vanishes on an arc has no breakpoints to carry its
    # support, so it is refused as a density before it can be classified
    def bump(s):
        out = np.cos(s) - 0.5
        return np.where(out > 0, out, 0.0) / 2.275730985272986
    with pytest.raises(DomainError, match="vanishes on an interval"):
        PeriodicFunction.from_callable(bump)


@pytest.mark.parametrize("c", [0.0, 1.0, math.pi])
def test_classify_refuses_unstructured_vanishing_at_any_angle(c):
    # the zero run is counted cyclically: across the wrap at pi too
    with pytest.raises(DomainError, match="vanishes on an interval"):
        PeriodicFunction.from_callable(
            lambda s: np.maximum(0.0, (1.0 - np.cos(s - c)) - 4.5e-6))


def test_classify_callable_with_isolated_zeros_is_full_support():
    # sin^20 vanishes to high order at 0 and pi but on no interval, like
    # the same polynomial built from its coefficients
    mass = 2.0 * math.pi * math.comb(20, 10) / 2.0 ** 20
    F = SpectralMeasure(density=PeriodicFunction.from_callable(
        lambda s: np.sin(s) ** 20 / mass))
    F.validate_normalized()
    assert [(a.lo, a.hi, a.kind) for a in classify_arcs(F)] == [
        (-math.pi, math.pi, "singular")]
    assert classify_arcs(shift(F, 0.0)) == classify_arcs(F)


@pytest.mark.parametrize("dens", [PeriodicFunction.from_callable(np.cos),
                                  PeriodicFunction.from_trig([0.1, 0.0, 0.2])])
def test_classify_refuses_negative_density(dens):
    with pytest.raises(DomainError, match="density is negative"):
        classify_arcs(SpectralMeasure(density=dens))


def test_support_cache_is_not_shared_with_callers():
    F = presets.parse_preset("mix:0.5*indicator:lo=-1,hi=1+0.5*atoms:[(2.5,1)]")
    first = classify_arcs(F)
    want = list(first)
    first.clear()
    first.append(Arc(0.0, 1.0, "regular"))
    assert classify_arcs(F) == want


@pytest.mark.parametrize("dens", [PeriodicFunction.from_callable(np.cos),
                                  PeriodicFunction.from_trig([0.1, 0.0, 0.2]),
                                  # a negative level between breakpoints
                                  PeriodicFunction.step([-1.0, 1.0], [1.0, -0.5])])
def test_negative_density_raises_on_every_call(dens):
    # the support is cached once found; a refusal is not, so it repeats
    for _ in range(3):
        with pytest.raises(DomainError, match="density is negative"):
            classify_arcs(SpectralMeasure(density=dens))
        with pytest.raises(DomainError, match="density is negative"):
            log_variance_alpha(SpectralMeasure(density=dens), 0.5, 8)
        with pytest.raises(DomainError, match="density is negative"):
            continuation_report(SpectralMeasure(density=dens), 0.5)


@pytest.mark.parametrize("dens", [PeriodicFunction.constant(0.0),
                                  PeriodicFunction.step([-1.0, 1.0], [0.0, 0.0])])
def test_classify_refuses_massless_density(dens):
    with pytest.raises(DomainError, match="no mass"):
        classify_arcs(SpectralMeasure(density=dens))


def test_regular_arc_bound_holds():
    I = presets.indicator(-HALF, HALF)
    reg = [a for a in classify_arcs(I) if a.kind == "regular"][0]
    centered = shift(I, reg.center)  # support now faces away from direction 0
    for r in (0.3, 0.6, 0.9):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TailWarning)
            rho = rho_local(centered, r, k_max=512)
        assert rho >= arc_radius_bound(reg, r) - 1e-3


def test_support_point_upper_bound():
    # when the measure charges the direction of r, rho cannot exceed 1 - r
    U = presets.uniform()
    for r in (0.3, 0.6, 0.9):
        assert rho_local(U, r, k_max=512) <= 1 - r + 1e-3


# ((1 - r)^2 + 4 r sin^2(delta/2))^(1/2) to 50 digits at the binary r and delta
_BOUND_PINS = [
    (1 - 1e-6, 1e-6, "0.0000014142132088399640868784614590353483387879942988868"),
    (1 - 1e-6, 1e-5, "0.000010049870645895109843887088949954486376497373604078"),
    (0.9999, 1e-6, "0.00010000499937502023320591447225221739712070061015664"),
    (1 - 1e-9, 1e-7, "0.00000010000499982472589946302801772023673679468918395186"),
    (0.999, 1e-3, "0.0014138599353365964136139968784823707428170364611132"),
    (0.5, HALF, "1.1180339887498948208206519211555058237764903024997"),
    (0.3, 2.5, "1.2532701900740160046591084231209425167210001577484"),
    (0.9, 3.0, "1.8952536753376319219925435996191353191146901549533"),
]


@pytest.mark.parametrize("r, delta, want", _BOUND_PINS,
                         ids=[f"r={r!r}-delta={d!r}" for r, d, _ in _BOUND_PINS])
def test_arc_radius_bound_keeps_its_digits(r, delta, want):
    # 1 - 2r cos(delta) + r^2 cancels on a narrow arc near the circle: 1.7e-5
    # relative at r = 1 - 1e-6, delta = 1e-6
    got = arc_radius_bound(Arc(-delta, delta, "regular"), r)
    assert abs(got - float(want)) <= 4 * np.finfo(float).eps * float(want)


def test_arc_bound_validation():
    with pytest.raises(DomainError):
        arc_radius_bound(Arc(0.0, 1.0, "singular"), 0.5)


def test_tail_warning_fires_on_slow_tail():
    I = shift(presets.indicator(-HALF, HALF), math.pi)
    with pytest.warns(TailWarning) as rec:
        rho_local(I, 0.3, k_max=128)
    assert rec[0].filename == __file__
    with pytest.warns(TailWarning) as rec:
        continuation_report(I, 0.3, k_max=128)
    assert rec[0].filename == __file__


@pytest.mark.parametrize("text", ["uniform", "atoms:[(0,1)]", "ma1:a=0.5",
                                  "mix:0.5*uniform+0.5*atoms:[(0,1)]"])
def test_report_rho_matches_rho_local(text):
    F = presets.parse_preset(text)
    for r in (0.3, 0.7, 0.95):
        for k_max in (100, 512):
            rep = continuation_report(F, r, k_max=k_max)
            assert rep.rho_estimate == pytest.approx(rho_local(F, r, k_max), rel=1e-12)


def test_continuation_report_json():
    rep = continuation_report(presets.indicator(-HALF, HALF), 0.5, k_max=128)
    payload = json.loads(rep.to_json())
    assert payload["r"] == 0.5
    assert len(payload["log_var_sequence"]) == 129
    kinds = {a["kind"] for a in payload["arcs"]}
    assert kinds == {"regular", "singular"}
    reg = [a for a in payload["arcs"] if a["kind"] == "regular"][0]
    assert reg["radius_bound"] == pytest.approx(
        math.sqrt(1 - 2 * 0.5 * math.cos(math.pi / 2) + 0.25))
    assert payload["rho_estimate"] == pytest.approx(0.5, abs=1e-3)


def test_json_radius_bound_is_measured_from_the_arc_center():
    r = 0.7
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TailWarning)
        rep = continuation_report(presets.parse_preset("indicator:lo=1,hi=2"), r, k_max=128)
    (reg,) = [a for a in json.loads(rep.to_json())["arcs"] if a["kind"] == "regular"]
    point = complex(*reg["radius_bound_from"])
    assert abs(point) == pytest.approx(r, rel=1e-15)
    for end in (reg["lo"], reg["hi"]):
        assert abs(complex(math.cos(end), math.sin(end)) - point) == pytest.approx(
            reg["radius_bound"], rel=1e-12)
    # not the distance from the real point r, which the report's rho estimates
    assert abs(complex(math.cos(2.0), math.sin(2.0)) - r) < reg["radius_bound"] - 0.1


def test_log_weights_refuse_massless_density():
    F = SpectralMeasure(density=PeriodicFunction.step([-1.0, 1.0], [0.0, 0.0]))
    with pytest.raises(DomainError, match="no mass"):
        log_variance_alpha(F, 0.5, 3)


def test_whole_circle_indicator_is_uniform():
    F = presets.indicator(-math.pi, math.pi)
    assert F.label == "indicator:lo=-3.14159,hi=3.14159"
    assert F.total_mass() == pytest.approx(1.0, abs=1e-15)
    assert rho1(F, 0.5) == rho1(presets.uniform(), 0.5)
    assert classify_arcs(F) == [Arc(-math.pi, math.pi, "singular")]


# ------------------------------------------------------------- the arc sweep


def _oracle_classify_arcs(F):
    """classify_arcs as it stood before the single sweep: a density-free atom
    branch, and support runs whose complement is rebuilt and split at the
    atoms.  Wrong for a zero density plus atoms and for repeated atom
    locations; right everywhere else.  It has no probe for wrapped
    callables, which the drawn measures do not include."""
    tol = 1e-12
    atoms = sorted(float(wrap_angle(t)) for t, _ in F.atoms)
    if F.density is None:
        if not atoms:
            raise DomainError("measure carries no mass")
        arcs = []
        for i, t in enumerate(atoms):
            arcs.append(Arc(lo=t, hi=t, kind="singular"))
            nxt = atoms[(i + 1) % len(atoms)]
            hi = nxt if nxt > t else nxt + 2 * math.pi
            if hi - t > tol:
                arcs.append(Arc(lo=t, hi=hi, kind="regular"))
        return arcs
    dens = F.density
    breaks = list(dens.breakpoints) or [-math.pi]
    edges = breaks + [breaks[0] + 2 * math.pi]
    merged = []
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        occ = bool(np.max(np.abs(dens.pieces[(i + 1) % len(breaks)][0].c)) > tol)
        if merged and merged[-1][2] == occ:
            merged[-1] = (merged[-1][0], hi, occ)
        else:
            merged.append((lo, hi, occ))
    if len(merged) > 1 and merged[0][2] == merged[-1][2]:
        lo, _, occ = merged.pop()
        first = merged.pop(0)
        merged.append((lo, first[1] + 2 * math.pi, occ))
    support = [(lo, hi) for lo, hi, occ in merged if occ]
    if not support and not atoms:
        raise DomainError("measure carries no mass")
    if sum(hi - lo for lo, hi in support) >= 2 * math.pi - tol:
        return [Arc(lo=-math.pi, hi=math.pi, kind="singular")]
    segs = sorted((float(wrap_angle(lo)), float(wrap_angle(lo)) + (hi - lo))
                  for lo, hi in support)
    points = sorted({t for t in atoms
                     if not any(lo - tol <= u <= hi + tol
                                for lo, hi in segs for u in (t, t + 2 * math.pi))})
    gaps = [(hi1, lo2) for (_, hi1), (lo2, _) in
            zip(segs, segs[1:] + [(segs[0][0] + 2 * math.pi, None)])
            if lo2 - hi1 > tol] if segs else [(-math.pi, math.pi)]
    arcs = [Arc(lo=lo, hi=hi, kind="singular") for lo, hi in segs]
    for lo, hi in gaps:
        cur = lo
        for t in sorted(u for t in points for u in (t, t + 2 * math.pi) if lo < u < hi):
            if t - cur > tol:
                arcs.append(Arc(lo=cur, hi=t, kind="regular"))
            arcs.append(Arc(lo=t, hi=t, kind="singular"))
            cur = t
        if hi - cur > tol:
            arcs.append(Arc(lo=cur, hi=hi, kind="regular"))
    arcs.sort(key=lambda a: a.lo)
    return arcs


_SPOTS = [-math.pi, math.pi, 0.0, -1.0, 2.0]


@st.composite
def _measures(draw):
    """Steps with zero and nonzero pieces (breakpoints at +-pi and coincident),
    trig densities, their products, or no density; plus 0-3 atoms, some on or
    next to a breakpoint or +-pi."""
    breaks = draw(st.lists(st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_SPOTS)),
                           min_size=1, max_size=5))
    breaks += draw(st.lists(st.sampled_from(breaks), max_size=2))
    step = PeriodicFunction.step(breaks, draw(st.lists(
        st.sampled_from([0.0, 0.0, 0.3, 1.0]), min_size=len(breaks), max_size=len(breaks))))
    trig = presets.random_trig_density(draw(st.integers(0, 50))).density
    kind = draw(st.sampled_from(["none", "step", "trig", "product", "zero"]))
    dens = {"none": None, "step": step, "trig": trig, "product": step * trig,
            "zero": PeriodicFunction.constant(0.0)}[kind]
    spots = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(_SPOTS + breaks),
                      # within the 1e-12 tolerance of a spot, on either side
                      st.tuples(st.sampled_from(_SPOTS + breaks),
                                st.sampled_from([-5e-13, 5e-13])).map(sum))
    atoms = draw(st.lists(st.tuples(spots, st.floats(0.1, 1.0)), max_size=3))
    return SpectralMeasure(density=dens, atoms=tuple(atoms))


def _outcome(classify, F):
    try:
        return classify(F)
    except DomainError as exc:
        return type(exc)


def _oracle_defect(F):
    """The two classes the sweep corrects: a zero density plus atoms, and a
    repeated atom location without a density."""
    if F.density is not None:
        return bool(F.atoms) and all(np.max(np.abs(p.c)) <= 1e-12 for p, _ in F.density.pieces)
    locations = [t for t, _ in F.atoms]
    return len(set(locations)) < len(locations)


@settings(max_examples=400, deadline=None)
@given(_measures())
@example(SpectralMeasure(atoms=((0.0, 0.5), (5e-13, 0.5))))
@example(SpectralMeasure(atoms=((-math.pi + 1e-13, 0.5), (math.pi, 0.5))))
@example(SpectralMeasure(density=PeriodicFunction.step([-2.0, 0.5, 2.5], [0.0, 0.3, 0.7]),
                         atoms=((2.5, 0.2), (-2.0, 0.2), (1.0, 0.1))))
@example(SpectralMeasure(density=PeriodicFunction.step([-1.0, 1.0], [0.0, 1.0]),
                         atoms=((1.0 + 5e-13, 0.5), (-1.0 - 5e-13, 0.5))))
def test_classify_matches_two_pass_oracle(F):
    if _oracle_defect(F):
        return  # see test_zero_density_and_repeated_atoms_match_single_atom
    got, want = _outcome(classify_arcs, F), _outcome(_oracle_classify_arcs, F)
    if isinstance(want, type):
        assert got is want
        return
    assert [a.kind for a in got] == [a.kind for a in want]
    for a, b in zip(got, want):
        assert (a.lo, a.hi) == pytest.approx((b.lo, b.hi), abs=1e-12)


@settings(max_examples=400, deadline=None)
@given(_measures())
def test_classified_arcs_tile_the_circle(F):
    arcs = _outcome(classify_arcs, F)
    if isinstance(arcs, type):
        return
    assert sum(a.hi - a.lo for a in arcs) == pytest.approx(2 * math.pi, abs=1e-9)
    for prev, arc in zip(arcs[-1:] + arcs[:-1], arcs):
        assert math.remainder(arc.lo - prev.hi, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)
        assert not (len(arcs) > 1 and prev.kind == arc.kind == "regular")


def _oracle_rule_centers(dens):
    """The variance rule's centers as they stood with per-piece live flags,
    liveness read off the piece coefficients as in _oracle_classify_arcs: each
    breakpoint where liveness changes and the live side leads away from 0,
    and 0 when the piece holding it is live."""
    breaks = list(dens.breakpoints) or [-math.pi]
    n = len(breaks)
    live = [bool(np.max(np.abs(p.c)) > 1e-12) for p, _ in dens.pieces]
    # live[i] ends at breaks[i] and live[i + 1] starts there
    centers = {b for i, b in enumerate(breaks) if live[i] != live[(i + 1) % n] and
               (0.0 <= b < math.pi if live[(i + 1) % n] else -math.pi < b <= 0.0)}
    if live[bisect.bisect_left(breaks, 0.0) % n]:
        centers.add(0.0)
    return tuple(sorted(centers)) or (0.0,)


# a run through pi ends at -0.7 + 2 pi, and (-0.7 + 2 pi) - 2 pi misses -0.7
_WRAPPED_END = PeriodicFunction.step([-0.7, 0.5], [1.0, 0.0])
# one run of the whole circle, whose hi - lo reads 6.283185307179585 < 2 pi
_WHOLE_TURN = PeriodicFunction.step([2.748405939029724], [1.0])


@settings(max_examples=400, deadline=None)
@given(_measures())
@example(SpectralMeasure(density=_WRAPPED_END))
@example(SpectralMeasure(density=_WHOLE_TURN))
def test_rule_centers_match_the_live_flag_oracle(F):
    if F.density is None:
        return
    assert continuation._rule_centers(F.density) == _oracle_rule_centers(F.density)


@pytest.mark.parametrize("dens, want", [(_WRAPPED_END, (-0.7, 0.5)), (_WHOLE_TURN, (0.0,))],
                         ids=["wrapped-end", "whole-turn"])
def test_rule_centers_read_run_ends_as_breakpoints(dens, want):
    assert continuation._rule_centers(dens) == want


@pytest.mark.parametrize("text, t", [
    ("mix:0*uniform+1*atoms:[(0,1)]", 0.0),
    ("mix:0*uniform+1*atoms:[(3.141592653589793,1)]", math.pi),
    ("atoms:[(0,0.5),(0,0.5)]", 0.0),
])
def test_zero_density_and_repeated_atoms_match_single_atom(text, t):
    want = classify_arcs(presets.atoms([(t, 1.0)]))
    assert want == [Arc(t, t, "singular"), Arc(t, t + 2 * math.pi, "regular")]
    got = classify_arcs(presets.parse_preset(text))
    assert got == want
    assert arc_radius_bound(got[1], 0.5) == pytest.approx(1.5, rel=1e-15)
