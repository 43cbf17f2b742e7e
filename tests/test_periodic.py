import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gafzeros.errors import DomainError
from gafzeros.periodic import (COS, SIN, PeriodicFunction, TrigPoly,
                               divide_by_one_minus_cos, mean, one_minus_cos,
                               panel_nodes, t_operator, wrap_angle, wrap_scalar)

S_GRID = np.linspace(-3.1, 3.1, 41)


def test_wrap_angle_half_open():
    assert wrap_angle(np.pi) == np.pi
    assert wrap_angle(-np.pi) == np.pi
    assert wrap_angle(3 * np.pi) == np.pi
    assert abs(wrap_angle(np.pi + 0.3) - (-np.pi + 0.3)) < 1e-14


_WRAP_EDGES = [k * math.pi for k in (-3, -2, -1, 1, 2, 3)]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.floats(-1e6, 1e6), st.floats(-20.0, 20.0),
                 st.sampled_from(_WRAP_EDGES + [math.nextafter(e, d) for e in _WRAP_EDGES
                                                for d in (-math.inf, math.inf)])))
@example(0.0)
@example(-0.0)
def test_wrap_scalar_is_wrap_angle_of_one_float(s):
    assert wrap_scalar(s) == float(wrap_angle(s))


def test_one_minus_cos_small_angle():
    s = 1e-9
    assert one_minus_cos(s) == pytest.approx(s * s / 2, rel=1e-12)


def test_trig_eval_and_coeffs():
    h = PeriodicFunction.from_trig([1.0, 0.5, 0.0, 2.0], [0.0, 0.0, 0.25])
    expect = 1 + 0.5 * np.cos(S_GRID) + 2 * np.cos(3 * S_GRID) + 0.25 * np.sin(2 * S_GRID)
    assert np.allclose(h(S_GRID), expect, atol=1e-14)
    # a_k cos ks + b_k sin ks has c_0 = a_0 and c_(+-k) = (a_k -+ i b_k)/2
    c = np.array([h.trig.coefficient(k) for k in range(-3, 4)])
    assert np.allclose(c[3:], [1.0, 0.25, -0.125j, 1.0])
    assert np.array_equal(c[:3], np.conj(c[:3:-1]))


def test_periodicity_at_pm_pi():
    h = PeriodicFunction.from_trig([0.3, 1.0, 0.7])
    assert h(np.pi) == pytest.approx(h(-np.pi), abs=1e-12)
    g = PeriodicFunction.from_callable(lambda s: np.exp(np.cos(s)) * np.cos(2 * s))
    assert g(np.pi - 1e-12) == pytest.approx(g(-np.pi + 1e-12), abs=1e-10)


@pytest.mark.parametrize("fn", [np.abs, lambda s: np.maximum(np.cos(s), 0.5),
                                lambda s: 1.0 + (s > 0.0), lambda s: 1.0 / (1.0001 + np.cos(s))],
                         ids=["abs", "clipped-cos", "jump", "slow-decay"])
def test_from_callable_refuses_what_its_fit_misses(fn):
    # a kink, a jump, or a spectrum still above the cut at |k| = 512
    with pytest.raises(DomainError, match="misses"):
        PeriodicFunction.from_callable(fn)


def test_from_callable_fits_smooth_callables_between_the_nodes():
    fn = lambda s: np.exp(np.cos(s)) / (2.0 + np.sin(3.0 * s))  # noqa: E731
    s = np.linspace(-np.pi, np.pi, 1001)
    miss = np.max(np.abs(PeriodicFunction.from_callable(fn)(s) - fn(s)))
    assert miss <= 1e-12 * np.max(np.abs(fn(s)))


def test_parity_split_reconstructs():
    h = PeriodicFunction.from_trig([1.0, 0.4, 0.1], [0.0, 0.3, -0.2])
    together = h.hat()(S_GRID) + h.check()(S_GRID)
    assert np.allclose(together, h(S_GRID), atol=1e-14)
    assert np.allclose(h.hat()(S_GRID), h.hat()(-S_GRID), atol=1e-14)
    assert np.allclose(h.check()(S_GRID), -h.check()(-S_GRID), atol=1e-14)


def test_symmetrize_idempotent_and_annihilates():
    h = PeriodicFunction.from_callable(lambda s: np.cos(s) + 0.5 * np.sin(3 * s))
    hh = h.hat()
    assert np.allclose(hh.hat()(S_GRID), hh(S_GRID), atol=1e-12)
    assert np.max(np.abs(hh.check()(S_GRID))) < 1e-12


def test_shift_trig_exact():
    h = PeriodicFunction.from_trig([1.0, 2 * 0.3])  # 1 + 0.6 cos s
    phi = 1.1
    g = h.shifted(phi)
    assert np.allclose(g(S_GRID), 1 + 0.6 * np.cos(S_GRID + phi), atol=1e-14)
    assert g(0.0) == pytest.approx(1 + 0.6 * math.cos(phi), abs=1e-14)


def test_step_function_eval_and_mean():
    f = PeriodicFunction.step([-np.pi / 2, np.pi / 2], [0.0, 1 / np.pi])
    assert f(0.0) == 1 / np.pi
    assert f(np.pi / 2) == 1 / np.pi  # right-closed pieces
    assert f(2.0) == 0.0
    assert mean(f) == pytest.approx(0.5 / np.pi, abs=1e-15)


def test_jet_trig_exact():
    h = PeriodicFunction.from_trig([0.0, 0.0, 1.0])  # cos 2s
    assert h.derivative_at_zero(0) == pytest.approx(1.0, abs=1e-14)
    assert h.derivative_at_zero(2) == pytest.approx(-4.0, abs=1e-12)
    assert h.derivative_at_zero(4) == pytest.approx(16.0, abs=1e-10)


def test_jet_fft_smooth_callable():
    g = PeriodicFunction.from_callable(lambda s: np.exp(np.cos(s)))
    # exp(cos s) = e * exp(cos s - 1): second derivative at 0 is -e
    assert g.derivative_at_zero(2) == pytest.approx(-math.e, rel=1e-9)
    assert g.derivative_at_zero(1) == pytest.approx(0.0, abs=1e-10)


def test_jet_zero_piece_constant():
    f = PeriodicFunction.step([-1.0, 1.0], [0.0, 3.0])
    assert f.derivative_at_zero(0) == pytest.approx(3.0, abs=1e-12)
    for order in (1, 2, 3, 4):
        assert f.derivative_at_zero(order) == pytest.approx(0.0, abs=1e-9)


def test_breakpoint_at_zero_blocks_jet():
    f = PeriodicFunction.step([0.0, 1.0], [0.0, 1.0])
    assert not f.smooth_at_zero
    with pytest.raises(DomainError):
        f.jet()


def test_t_operator_trig_exact():
    h = PeriodicFunction.from_trig([1.0, 0.0, 1.0])  # 1 + cos 2s
    assert np.allclose(t_operator(h)(S_GRID), -2 * (1 + np.cos(S_GRID)), atol=1e-13)
    assert np.allclose(t_operator(h, 2)(S_GRID), 2.0, atol=1e-13)


def test_t_operator_constant_and_x():
    assert np.allclose(t_operator(PeriodicFunction.constant(5.0))(S_GRID), 0.0)
    x = PeriodicFunction.from_trig([1.0, -1.0])
    assert np.allclose(t_operator(x)(S_GRID), 1.0, atol=1e-14)


def test_t_operator_ma1_hat_constant():
    a, phi = 0.3, 1.1
    h = PeriodicFunction.from_trig([1.0, 2 * a * math.cos(phi)])
    s = np.linspace(-3, 3, 20)
    assert np.allclose(t_operator(h)(s), -2 * a * math.cos(phi), atol=1e-13)


def test_t_operator_rejects_power_below_one():
    with pytest.raises(DomainError):
        t_operator(PeriodicFunction.constant(1.0), 0)


def test_t_operator_rejects_odd_and_nonsmooth():
    f = PeriodicFunction.step([0.0, 1.0], [0.0, 1.0])
    for power in (1, 2, 3):
        with pytest.raises(DomainError):
            t_operator(SIN, power)
        with pytest.raises(DomainError):
            t_operator(f, power)


def test_t_operator_callable_patch_matches_quotient():
    g = PeriodicFunction.from_callable(lambda s: np.exp(np.cos(s)))
    tg = t_operator(g)
    s = np.array([0.2, 0.7, 2.0])
    direct = (np.exp(np.cos(s)) - math.e) / (1 - np.cos(s))
    assert np.allclose(tg(s), direct, rtol=1e-11)
    # near zero the quotient must continue to h''(0) = -e
    assert tg(0.0) == pytest.approx(-math.e, rel=1e-9)
    assert tg(1e-5) == pytest.approx(-math.e, rel=1e-6)


def test_t_reconstruction_identity():
    # (Th) * (1 - cos s) + h(0) reproduces h away from 0
    for h in (PeriodicFunction.from_trig([1.0, 0.4, 0.0, 0.2]),
              PeriodicFunction.from_callable(lambda s: 1.0 / (2 + np.cos(s)))):
        th = t_operator(h)
        s = S_GRID[np.abs(S_GRID) > 1e-3]
        recon = th(s) * (1 - np.cos(s)) + h.derivative_at_zero(0)
        assert np.max(np.abs(recon - h(s))) < 1e-9


def test_t_squared_at_zero_matches_derivatives():
    h = PeriodicFunction.from_trig([1.0, 0.3, 0.0, 0.0, 0.5])
    d2 = h.derivative_at_zero(2)
    d4 = h.derivative_at_zero(4)
    t2 = t_operator(h, 2)
    assert t2(0.0) == pytest.approx((d2 + d4) / 6.0, rel=1e-7)


def test_divide_by_one_minus_cos_spectrum():
    tp = TrigPoly.from_cos_sin([1.0, 0.0, 1.0])  # 1 + cos 2s
    q = divide_by_one_minus_cos(tp, 2.0)
    c = np.array([q.coefficient(k) for k in (-1, 0, 1)])  # -2 - 2 cos s
    assert q.degree == 1
    assert np.allclose(c, [-1.0, -2.0, -1.0])
    assert np.max(np.abs(c.imag)) == 0.0


def test_product_with_cos_sin():
    h = PeriodicFunction.from_trig([1.0, 0.5])
    hc = h * COS
    hs = h * SIN
    assert np.allclose(hc(S_GRID), (1 + 0.5 * np.cos(S_GRID)) * np.cos(S_GRID), atol=1e-14)
    assert np.allclose(hs(S_GRID), (1 + 0.5 * np.cos(S_GRID)) * np.sin(S_GRID), atol=1e-14)


def test_mixed_kind_arithmetic():
    step = PeriodicFunction.step([-1.0, 1.0], [0.0, 1.0])
    trig = PeriodicFunction.from_trig([0.5, 0.25])
    s = np.array([-2.5, -0.5, 0.5, 2.5])
    total = step + trig
    assert np.allclose(total(s), step(s) + trig(s), atol=1e-14)
    prod = step * trig
    assert np.allclose(prod(s), step(s) * trig(s), atol=1e-14)
    assert total.breakpoints.size == 2


def test_wave_and_arcs_reads_constant_terms():
    trig = PeriodicFunction.from_trig([0.5, 0.25], [0.0, 0.1])
    step = PeriodicFunction.step([-1.0, 1.0], [0.0, 2.0])
    # no breakpoints: the one piece, constant term included, and no arcs
    wave, arcs = trig.wave_and_arcs()
    assert wave == tuple(trig.trig.c.tolist()) and wave[1] == 0.5 and arcs == ()
    wave, arcs = step.wave_and_arcs()
    assert wave == (0j,) and arcs == ((-1.0, 1.0, 2.0),)
    wave, arcs = (trig + step).wave_and_arcs()
    assert wave[1] == 0 and wave[2] == trig.trig.coefficient(1)
    assert wave == tuple(np.where(np.arange(3) == 1, 0.0, trig.trig.c).tolist())
    assert arcs == ((1.0, -1.0, 0.5), (-1.0, 1.0, 2.5))
    assert (trig * step).wave_and_arcs() is None
    # a callable is its trig fit, so it has a plan too
    wave, arcs = PeriodicFunction.from_callable(np.cos).wave_and_arcs()
    assert np.allclose(wave, (0.5, 0.0, 0.5), rtol=0.0, atol=1e-15) and arcs == ()


def test_wave_and_arcs_is_in_python_numbers():
    trig = PeriodicFunction.from_trig([0.5, 0.25], [0.0, 0.1])
    step = PeriodicFunction.step([-1.0, 1.0, 2.0], [0.0, 2.0, 3.0])
    wave, arcs = (trig + step).wave_and_arcs()
    assert all(type(c) is complex for c in wave)
    assert all(type(x) is float for arc in arcs for x in arc)
    # the first piece's arc (2, -1] wraps
    assert arcs == ((2.0, -1.0, 0.5), (-1.0, 1.0, 2.5), (1.0, 2.0, 3.5))
    # a zero level has no arc; the plan is read once
    assert step.wave_and_arcs() == ((0j,), ((-1.0, 1.0, 2.0), (1.0, 2.0, 3.0)))
    assert step.wave_and_arcs() is step.wave_and_arcs()
    assert (trig * step).wave_and_arcs() is None


@st.composite
def trig_functions(draw):
    degree = draw(st.integers(min_value=0, max_value=5))
    a = draw(st.lists(st.floats(-3, 3), min_size=degree + 1, max_size=degree + 1))
    b = draw(st.lists(st.floats(-3, 3), min_size=degree + 1, max_size=degree + 1))
    b[0] = 0.0
    return PeriodicFunction.from_trig(a, b)


@settings(max_examples=50, deadline=None)
@given(trig_functions(), trig_functions(),
       st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
def test_mean_is_linear(f, g, alpha, beta):
    combo = alpha * f + beta * g
    assert mean(combo) == pytest.approx(alpha * mean(f) + beta * mean(g), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(trig_functions())
def test_parity_projections_property(h):
    scale = max(1.0, np.max(np.abs(h(S_GRID))))
    hat2 = h.hat().hat()
    assert np.max(np.abs(hat2(S_GRID) - h.hat()(S_GRID))) < 1e-12 * scale
    cross = h.hat().check()
    assert np.max(np.abs(cross(S_GRID))) < 1e-12 * scale


def test_mean_trapezoid_smooth_accuracy():
    g = PeriodicFunction.from_callable(lambda s: np.exp(0.7 * np.cos(s)))
    # modified Bessel I_0(0.7) is the exact mean
    from math import factorial
    i0 = sum((0.7 / 2) ** (2 * m) / factorial(m) ** 2 for m in range(25))
    assert mean(g) == pytest.approx(i0, rel=1e-12)


# ------------------------------------------- piecewise algebra against closures

def _trig_oracle(a, b):
    def fn(s):
        return sum(a[k] * np.cos(k * s) + b[k] * np.sin(k * s) for k in range(len(a)))
    return fn


def _step_oracle(breaks, values):
    order = np.argsort(breaks)
    bs, vs = np.asarray(breaks)[order], np.asarray(values)[order]

    def fn(s):
        return vs[np.searchsorted(bs, wrap_angle(s), side="left") % bs.size]
    return fn


@st.composite
def trig_step_mixtures(draw):
    """(function, pointwise closure oracle, breakpoints, second derivative at
    0) for a random trig polynomial combined with a random step whose jumps
    stay 0.3 from 0."""
    degree = draw(st.integers(min_value=0, max_value=3))
    coeff = st.floats(-1, 1, allow_nan=False)
    a = draw(st.lists(coeff, min_size=degree + 1, max_size=degree + 1))
    b = [0.0] + draw(st.lists(coeff, min_size=degree, max_size=degree))
    slots = draw(st.lists(st.integers(-27, 27).filter(lambda j: j != 0),
                          min_size=1, max_size=3, unique=True))
    breaks = [np.sign(j) * (0.2 + 0.1 * abs(j)) for j in slots]
    values = draw(st.lists(coeff, min_size=len(breaks), max_size=len(breaks)))
    trig, ot = PeriodicFunction.from_trig(a, b), _trig_oracle(a, b)
    step, os_ = PeriodicFunction.step(breaks, values), _step_oracle(breaks, values)
    d2 = -sum(k * k * a[k] for k in range(len(a)))
    if draw(st.booleans()):
        return trig + step, (lambda s: ot(s) + os_(s)), breaks, d2
    return trig * step, (lambda s: ot(s) * os_(s)), breaks, d2 * float(os_(0.0))


_PROBE = np.linspace(-np.pi, np.pi, 1201)[1:]


def _assert_matches(h, oracle, breaks, away_from_zero=0.0):
    b = wrap_angle(np.asarray(breaks, dtype=float))
    gap = np.abs(wrap_angle(_PROBE[:, None] - b[None, :])).min(axis=1) if b.size else np.inf
    s = _PROBE[(gap > 1e-6) & (np.abs(_PROBE) > away_from_zero)]
    want = oracle(s)
    assert np.allclose(h(s), want, rtol=1e-10, atol=1e-10 * max(1.0, np.abs(want).max()))


def _fine_mean(oracle, breaks):
    edges = np.unique(np.concatenate(([-np.pi, np.pi], wrap_angle(np.asarray(breaks)))))
    fine = np.concatenate([np.linspace(lo, hi, 41)[:-1] for lo, hi in zip(edges[:-1], edges[1:])]
                          + [[np.pi]])
    pts, wts = panel_nodes(fine)
    return float(np.sum(oracle(pts) * wts)) / (2 * np.pi)


@settings(max_examples=60, deadline=None)
@given(trig_step_mixtures(), trig_step_mixtures(), st.floats(-3, 3, allow_nan=False))
def test_piece_algebra_matches_closure_oracle(fa, fb, phi):
    (f, of, bf, _), (g, og, bg, _) = fa, fb
    mirrored = bf + [-x for x in bf]
    cases = [
        (f, of, bf),
        (f + g, lambda s: of(s) + og(s), bf + bg),
        (f * g, lambda s: of(s) * og(s), bf + bg),
        (f.shifted(phi), lambda s: of(wrap_angle(s + phi)), [x - phi for x in bf]),
        (f.hat(), lambda s: 0.5 * (of(s) + of(-s)), mirrored),
        (f.check(), lambda s: 0.5 * (of(s) - of(-s)), mirrored),
    ]
    for h, oracle, breaks in cases:
        _assert_matches(h, oracle, breaks)
        assert mean(h) == pytest.approx(_fine_mean(oracle, breaks), rel=1e-10, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(trig_step_mixtures())
def test_t_operator_matches_closure_oracle(fa):
    f, of, bf, d2 = fa
    h = f.hat()
    assert h.is_even()
    mirrored = bf + [-x for x in bf]
    h0 = float(of(0.0))

    def oh(s):
        return 0.5 * (of(s) + of(-s))

    def ot(s):
        return (oh(s) - h0) / one_minus_cos(s)

    th = t_operator(h)
    _assert_matches(th, ot, mirrored, away_from_zero=0.05)
    assert th(0.0) == pytest.approx(d2, rel=1e-10, abs=1e-10)
    assert mean(th) == pytest.approx(_fine_mean(ot, mirrored), rel=1e-9, abs=1e-10)
    _assert_matches(t_operator(h, 2), lambda s: (ot(s) - d2) / one_minus_cos(s),
                    mirrored, away_from_zero=0.2)


def test_quotient_pieces_refuse_shift_and_allow_parity():
    tq = t_operator(PeriodicFunction.step([-1.0, 1.0], [0.0, 2.0]))
    assert [m for _, m in tq.pieces] == [1, 0]
    with pytest.raises(DomainError):
        tq.shifted(0.1)
    assert tq.is_even()
    assert np.allclose(tq.hat()(S_GRID), tq(S_GRID), rtol=1e-14)


def test_pole_mean_graded_near_breakpoint():
    # T of the step that is 2 off (-d, d] is 2 / (1 - cos s) there, and
    # int_d^(2 pi - d) 2 / (1 - cos s) ds = 4 cot(d / 2); the quotient piece
    # ends d = 0.002 from its pole at 0
    d = 0.002
    tq = t_operator(PeriodicFunction.step([-d, d], [2.0, 0.0]))
    assert mean(tq) == pytest.approx(4 / math.tan(d / 2) / (2 * np.pi), rel=1e-13)


def test_is_even_reads_pieces():
    f = PeriodicFunction.step([-1.0, 1.0], [0.0, 1.0])
    assert f.is_even()
    assert not f.shifted(0.1).is_even()
    assert f.shifted(0.1).hat().is_even()


@pytest.mark.parametrize("module, names, n", [
    ("gafzeros.periodic", ("_GL_X", "_GL_W"), 32),
])
def test_gauss_legendre_tables_match_leggauss(module, names, n):
    import importlib
    mod = importlib.import_module(module)
    x, w = np.polynomial.legendre.leggauss(n)
    assert np.array_equal(getattr(mod, names[0]), x)
    assert np.array_equal(getattr(mod, names[1]), w)


def test_package_import_skips_polynomial_and_pool():
    import os
    import subprocess
    import sys

    import gafzeros
    src = os.path.dirname(os.path.dirname(gafzeros.__file__))
    # a run asking for two workers too: the replicas use threads, never a process pool
    code = ("import sys, gafzeros\n"
            "from gafzeros.experiments import ExperimentConfig, run_experiment\n"
            "run_experiment(ExperimentConfig(F=gafzeros.presets.uniform(), N=16, replicas=4,"
            " workers=2))\n"
            "print(sorted(m for m in ('numpy.polynomial', 'concurrent.futures.process')"
            " if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "[]"
