import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from gafzeros import presets
from gafzeros.continuation import Arc, classify_arcs
from gafzeros.errors import DomainError, NormalizationError
from gafzeros.intensity import rho1, rho1_closed_form
from gafzeros.periodic import PeriodicFunction, mean, t_operator
from gafzeros.spectral import SpectralMeasure, covariance, shift

HALF = math.pi / 2


def half_interval_slice(phi):
    """The rotated half-circle profile with plateau value 1 (paper-style slice)."""
    lo = -(phi - HALF)
    hi = 3 * HALF - phi
    return PeriodicFunction.step([lo, hi], [1.0, 0.0])


ALL_PRESETS = [
    presets.uniform(),
    presets.ma1(0.3),
    presets.ma1(0.5),
    presets.indicator(-HALF, HALF),
    presets.atoms([(0.0, 0.5), (math.pi, 0.5)]),
    presets.mix((0.5, presets.uniform()), (0.5, presets.atoms([(0.0, 1.0)]))),
]


# ---------------------------------------------------------------------- covariance

REBUILT_PRESETS = [text for text, _ in presets.PRESET_EXAMPLES] + [
    "indicator:lo=-1,hi=2.5", "mix:0.5*uniform+0.5*indicator:lo=-1,hi=1",
    "random_trig_density(3)"]


def _build(text):
    if text == "random_trig_density(3)":
        return presets.random_trig_density(3)
    return presets.parse_preset(text)


@pytest.mark.parametrize("text", REBUILT_PRESETS)
def test_rebuilt_preset_compares_and_hashes_equal(text):
    a, b = _build(text), _build(text)
    assert a == b
    assert hash(a) == hash(b)
    if a.density is not None:
        assert a.density == b.density
        assert hash(a.density) == hash(b.density)
        assert a.density != 2.0 * b.density
        assert a.density.shifted(0.25) == b.density.shifted(0.25)
    assert len({a, b}) == 1


def test_callable_densities_compare_by_data():
    fn = lambda s: np.exp(np.cos(s))  # noqa: E731
    a, b = PeriodicFunction.from_callable(fn), PeriodicFunction.from_callable(fn)
    assert a == b and hash(a) == hash(b)
    # a callable is its trig fit: another closure of the same function is equal
    c = PeriodicFunction.from_callable(lambda s: np.exp(np.cos(s)))
    assert a == c and hash(a) == hash(c)
    assert a != PeriodicFunction.from_callable(lambda s: np.exp(0.5 * np.cos(s)))


def test_callable_density_is_its_shift_and_mix():
    mass = 2.0 * math.pi * np.i0(1.0)
    F = SpectralMeasure(density=PeriodicFunction.from_callable(
        lambda s: np.exp(np.cos(s)) * (1.0 + 0.3 * np.sin(2.0 * s)) / mass))
    for G in (shift(F, 0.0), presets.mix((1.0, F))):
        assert G.density == F.density and hash(G.density) == hash(F.density)
        for z in (0.5, 0.9 * cmath.exp(2.2j), 0.999 * cmath.exp(-0.4j)):
            assert rho1(G, z) == rho1(F, z) == rho1_closed_form(F, z)
        assert classify_arcs(G) == classify_arcs(F) == [Arc(-math.pi, math.pi, "singular")]


def test_non_finite_measures_are_refused():
    nan, inf = math.nan, math.inf
    for build in (lambda: SpectralMeasure(density=PeriodicFunction.constant(nan)),
                  lambda: SpectralMeasure(density=PeriodicFunction.constant(inf)),
                  lambda: SpectralMeasure(atoms=((0.0, nan),)),
                  lambda: presets.atoms([(0.0, nan)]),
                  lambda: presets.atoms([(inf, 1.0)]),
                  lambda: presets.ma1(nan),
                  lambda: presets.mix((nan, presets.uniform()), (nan, presets.ma1(0.3))),
                  lambda: presets.parse_preset("atoms:5"),
                  lambda: presets.parse_preset("atoms:[(1j,1)]"),
                  lambda: PeriodicFunction.step([0.0, inf], [1.0, 2.0])):
        with pytest.raises(DomainError):
            build()


def test_a_negative_density_is_refused_when_the_measure_is_made():
    # mass 1, but -0.05 on (-1, 1): sampling it gave non-finite coefficients
    dens = PeriodicFunction.step([-1.0, 1.0], [-0.05, 0.6071])
    with pytest.raises(DomainError, match="density is negative"):
        SpectralMeasure(density=dens)


def test_covariance_uniform():
    U = presets.uniform()
    assert covariance(U, 0) == pytest.approx(1.0, abs=1e-14)
    assert covariance(U, 1) == pytest.approx(0.0, abs=1e-14)
    assert covariance(U, 17) == pytest.approx(0.0, abs=1e-14)


def test_covariance_ma1():
    F = presets.ma1(0.3)
    assert covariance(F, 1) == pytest.approx(0.3, abs=1e-12)
    assert covariance(F, -1) == pytest.approx(0.3, abs=1e-12)
    assert covariance(F, 2) == pytest.approx(0.0, abs=1e-12)


def test_covariance_half_interval_against_quadrature_oracle():
    F = presets.indicator(-HALF, HALF)
    got = covariance(F, 1)
    assert got.real == pytest.approx(2 / math.pi, abs=1e-12)
    assert abs(got.imag) < 1e-12
    # independent adaptive-quadrature oracle
    oracle = quad(lambda t: math.cos(t) / math.pi, -HALF, HALF, epsabs=1e-13)[0]
    assert got.real == pytest.approx(oracle, abs=1e-11)


def test_covariance_atoms_exact():
    F = presets.atoms([(0.0, 0.5), (math.pi, 0.5)])
    assert covariance(F, 1) == pytest.approx(0.5 - 0.5, abs=1e-15)
    assert covariance(F, 2) == pytest.approx(1.0, abs=1e-14)


def test_covariance_rejects_unnormalized():
    bad = SpectralMeasure(density=PeriodicFunction.constant(1.0))  # mass 2 pi
    with pytest.raises(NormalizationError):
        covariance(bad, 0)


def test_covariance_cap():
    with pytest.raises(DomainError):
        covariance(presets.uniform(), 10_000)


# ---------------------------------------------------------------------- shift

def test_shift_uniform_invariant():
    U = presets.uniform()
    S = shift(U, 0.77)
    probe = np.linspace(-3, 3, 10)
    assert np.allclose(S.density(probe), U.density(probe))


def test_shift_density_value():
    # rotated one-dependent density evaluated at 0 picks out 1 + 2a cos(phi)
    a, phi = 0.3, 1.234
    F = presets.ma1(a)
    S = shift(F, phi)
    assert S.density(0.0) * 2 * math.pi == pytest.approx(1 + 2 * a * math.cos(phi),
                                                         abs=1e-13)


def test_shift_atom_location():
    F = presets.atoms([(0.0, 1.0)])
    S = shift(F, HALF)
    assert S.atoms[0][0] == pytest.approx(-HALF, abs=1e-15)


def test_shift_preserves_mass():
    for F in ALL_PRESETS:
        assert shift(F, 2.1).total_mass() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------- parity ops

def test_symmetrize_ma1_slice():
    a, phi = 0.3, 0.9
    h = PeriodicFunction.from_trig([1.0, 2 * a]).shifted(phi)
    hh = h.hat()
    s = np.linspace(-3, 3, 30)
    assert np.allclose(hh(s), 1 + 2 * a * math.cos(phi) * np.cos(s), atol=1e-13)


def test_symmetrize_half_interval_three_levels():
    phi = 3 * math.pi / 4
    fphi = half_interval_slice(phi)
    fhat = fphi.hat()
    # plateau structure: 0 inside |s| < pi/4, 1/2 in between, 1 beyond 3pi/4
    assert fhat(0.1) == pytest.approx(0.0, abs=1e-14)
    assert fhat(-1.2) == pytest.approx(0.5, abs=1e-14)
    assert fhat(1.2) == pytest.approx(0.5, abs=1e-14)
    assert fhat(3.0) == pytest.approx(1.0, abs=1e-14)
    breaks = np.sort(np.abs(fhat.breakpoints))
    assert np.allclose(np.unique(np.round(breaks, 12)),
                       [math.pi / 4, 3 * math.pi / 4], atol=1e-12)


def test_antisymmetrize_even_is_zero():
    h = PeriodicFunction.from_trig([1.0, 0.5, 0.2])
    s = np.linspace(-3, 3, 20)
    assert np.max(np.abs(h.check()(s))) < 1e-14


# ---------------------------------------------------------------------- mean

def test_mean_constant():
    assert mean(PeriodicFunction.constant(2.5)) == pytest.approx(2.5, abs=1e-15)


def test_mean_T_of_ma1_slice():
    a = 0.3
    for phi in (0.0, 0.9, 2.2):
        h = PeriodicFunction.from_trig([1.0, 2 * a]).shifted(phi).hat()
        assert mean(t_operator(h)) == pytest.approx(-2 * a * math.cos(phi), abs=1e-12)


def test_mean_T_of_half_interval_slice():
    # frozen oracle: the piecewise antiderivative of 1/(1-cos s) is -cot(s/2),
    # giving  (cot(pi/8) + cot(3pi/8)) / (2 pi) = sqrt(2)/pi  at phi = 3pi/4
    phi = 3 * math.pi / 4
    fhat = half_interval_slice(phi).hat()
    got = mean(t_operator(fhat))
    assert got == pytest.approx(math.sqrt(2) / math.pi, rel=1e-12)


# ---------------------------------------------------------------------- derivatives

def test_derivatives_ma1_hat():
    a, phi = 0.3, 0.8
    h = PeriodicFunction.from_trig([1.0, 2 * a * math.cos(phi)])
    assert h.derivative_at_zero(2) == pytest.approx(-2 * a * math.cos(phi), abs=1e-12)


def test_derivatives_constant():
    h = PeriodicFunction.constant(1.0)
    for order in (1, 2, 3, 4):
        assert h.derivative_at_zero(order) == pytest.approx(0.0, abs=1e-13)


def test_derivatives_order_cap_and_jump():
    h = PeriodicFunction.constant(1.0)
    for order in (-1, 9):  # the jet holds orders 0..8
        with pytest.raises(DomainError):
            h.derivative_at_zero(order)
    jump = PeriodicFunction.step([0.0, 1.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        jump.derivative_at_zero(1)


# ---------------------------------------------------------------------- sequences

@pytest.mark.parametrize("F", ALL_PRESETS, ids=lambda F: F.label[:24])
def test_toeplitz_psd_for_presets(F):
    # the Toeplitz matrix gamma(j - k) for j, k = 0..32
    gamma = np.array([covariance(F, k) for k in range(-32, 33)])
    toeplitz = gamma[32 + np.subtract.outer(np.arange(33), np.arange(33))]
    assert abs(gamma[32] - 1.0) <= 1e-10
    assert np.abs(toeplitz - toeplitz.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(toeplitz).min() >= -1e-8


def test_covariance_sequence_accessors():
    F = presets.ma1(0.25)
    assert covariance(F, 0) == pytest.approx(1.0, abs=1e-12)
    assert covariance(F, -1) == pytest.approx(np.conj(covariance(F, 1)), abs=1e-15)
    with pytest.raises(DomainError):
        covariance(F, 8193)
