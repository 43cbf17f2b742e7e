import hashlib
import math
import sys
import threading

import numpy as np
import pytest

from gafzeros import presets, sampling
from gafzeros.errors import DomainError, NormalizationError
from gafzeros.periodic import PeriodicFunction
from gafzeros.sampling import (CoefficientBlock, default_grid_size,
                               empirical_covariance, radius_check, replica_seed,
                               sample_block, sample_blocks, spectral_nodes)
from gafzeros.spectral import SpectralMeasure, covariance

HALF = math.pi / 2

STAT_PRESETS = [presets.uniform(), presets.ma1(0.3),
                presets.indicator(-HALF, HALF),
                presets.atoms([(0.0, 0.5), (math.pi, 0.5)])]


def test_replica_seed_is_splitmix64():
    # frozen values of the documented hash
    assert replica_seed(0, 0) == 16294208416658607535
    assert replica_seed(0, 1) == 7960286522194355700
    assert replica_seed(42, 0) != replica_seed(42, 1)
    assert replica_seed(42, 7) == replica_seed(42, 7)


def test_grid_size_rule():
    assert default_grid_size(64) == 4096
    assert default_grid_size(1000) == 8 * 1001


def test_node_masses_sum_to_one_exactly():
    for F in STAT_PRESETS + [presets.mix((0.5, presets.uniform()),
                                         (0.5, presets.atoms([(0.0, 1.0)])))]:
        if F.density is None:
            continue
        t, w = spectral_nodes(F, 4096)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(w >= 0)


def test_atom_block_perfectly_correlated():
    F = presets.atoms([(0.7, 1.0)])
    blk = sample_block(F, 16, 11)
    ratios = blk.values[1:] / blk.values[:-1]
    assert np.allclose(ratios, np.exp(-0.7j), atol=1e-13)


def test_reproducibility_bit_exact():
    F = presets.ma1(0.2)
    a = sample_block(F, 32, 987)
    b = sample_block(F, 32, 987)
    assert np.array_equal(a.values, b.values)
    c = sample_block(F, 32, 988)
    assert not np.array_equal(a.values, c.values)


def test_sample_blocks_match_individual_draws():
    F = presets.uniform()
    blocks = sample_blocks(F, 16, 5, seed=303)
    for i, blk in enumerate(blocks):
        solo = sample_block(F, 16, replica_seed(303, i))
        assert np.array_equal(blk.values, solo.values)


def test_rejects_bad_inputs():
    with pytest.raises(DomainError):
        sample_block(presets.uniform(), 0, 1)
    bad = SpectralMeasure(density=PeriodicFunction.constant(1.0))
    with pytest.raises(NormalizationError):
        sample_block(bad, 8, 1)


@pytest.mark.parametrize("grid_size", [8, 16, 0])
def test_rejects_aliasing_grid(grid_size):
    # a block of N + 1 = 17 needs 17 grid nodes: on 8 or 16 the lag-8 or
    # lag-16 covariance of uniform aliased to about -1 (it is 0), and an
    # empty grid returned NaNs
    F = presets.uniform()
    with pytest.raises(DomainError, match="aliases"):
        sample_block(F, 16, 1, grid_size=grid_size)
    with pytest.raises(DomainError, match="aliases"):
        sample_blocks(F, 16, 2000, seed=1, grid_size=grid_size)


def test_smallest_unaliased_grid_resolves_every_lag():
    blocks = sample_blocks(presets.uniform(), 16, 2000, seed=1, grid_size=17)
    for k in (8, 16):
        value, se = empirical_covariance(blocks, k)
        assert abs(value) <= 5.0 * se


def test_empirical_covariance_constant_block():
    blk = CoefficientBlock(values=np.ones(9, dtype=complex), seed=0,
                           F_label="ones", grid_size=0)
    for k in range(5):
        value, se = empirical_covariance([blk], k)
        assert value == pytest.approx(1.0, abs=1e-15)
    assert se == 0.0


def test_empirical_covariance_hermitian_exact():
    blocks = sample_blocks(presets.ma1(0.3), 32, 64, seed=5)
    plus, _ = empirical_covariance(blocks, 2)
    minus, _ = empirical_covariance(blocks, -2)
    assert minus == np.conj(plus)


def test_empirical_covariance_lag_bound():
    blocks = sample_blocks(presets.uniform(), 8, 4, seed=5)
    with pytest.raises(DomainError):
        empirical_covariance(blocks, 9)


def test_empirical_covariance_rejects_mixed_degrees():
    blocks = sample_blocks(presets.uniform(), 8, 2, seed=5) + \
        sample_blocks(presets.uniform(), 9, 2, seed=5)
    with pytest.raises(DomainError):
        empirical_covariance(blocks, 1)


@pytest.mark.parametrize("F", STAT_PRESETS, ids=lambda F: F.label[:24])
def test_covariance_statistics_4se(F):
    blocks = sample_blocks(F, 64, 1024, seed=2026)
    for k in range(0, 9):
        got, se = empirical_covariance(blocks, k)
        want = covariance(F, k)
        assert abs(got - want) <= 4.0 * se + 1e-12, (F.label, k)


def test_uniform_lag1_loose_bound():
    blocks = sample_blocks(presets.uniform(), 64, 4096, seed=77)
    got, _ = empirical_covariance(blocks, 1)
    assert abs(got) <= 4.0 / math.sqrt(4096)


def test_marginal_variance_one():
    for F in STAT_PRESETS:
        blocks = sample_blocks(F, 16, 1024, seed=31)
        values = np.stack([b.values for b in blocks])
        var0 = np.abs(values[:, 0]) ** 2
        se = var0.std(ddof=1) / math.sqrt(var0.size)
        assert abs(var0.mean() - 1.0) <= 4.0 * se


def test_discretization_bias_documented_bound():
    # E[gamma_hat(k)] is deterministic: sum_j w_j exp(-i k t_j)
    F = presets.ma1(0.4)
    for M in (512, 1024):
        t, w = spectral_nodes(F, M)
        for k in (1, 3, 7):
            mean_hat = np.sum(w * np.exp(-1j * k * t))
            lip = 2 * 0.4 / (2 * math.pi)  # Lipschitz constant of the density
            bound = 2 * math.pi * lip * (2 * math.pi / M)
            assert abs(mean_hat - covariance(F, k)) <= bound


HALF_CIRCLE = "indicator:lo=-1.5707963267948966,hi=1.5707963267948966"


@pytest.mark.parametrize("text, lags", [(HALF_CIRCLE, (1, 2, 3, 51, 52, 399)),
                                        ("ma1:a=0.5", (1, 2))])
def test_grid_bias_law(text, lags):
    # the covariances converge to the grid's sum_j w_j exp(-i k t_j), which is off
    # gamma(k) by (pi k / M)^2 / 6 relative where the density is smooth on each cell
    F = presets.parse_preset(text)
    M = 4096
    t, w = spectral_nodes(F, M)
    checked = []
    for k in lags:
        gamma = covariance(F, k)
        if abs(gamma) < 1e-12:
            continue
        off = abs(np.sum(w * np.exp(-1j * k * t)) / gamma - 1.0)
        assert off == pytest.approx((math.pi * k / M) ** 2 / 6, rel=0.05), k
        checked.append(k)
    assert checked == [k for k in lags if k % 2]


def test_sample_blocks_refuse_a_bad_replica_count():
    F = presets.uniform()
    for bad in (-3, 2.5, math.nan, math.inf):
        with pytest.raises(DomainError):
            sample_blocks(F, 16, bad, 1)
    assert sample_blocks(F, 16, 0, 1) == []


@pytest.mark.parametrize("cores", [1, 2, 3, 8])
def test_threaded_blocks_are_bit_identical_to_single_draws(monkeypatch, cores):
    # 37 replicas split unevenly; 8 slices is more threads than this box has cores
    monkeypatch.setattr(sampling, "_usable_cores", lambda: cores)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for F in (presets.ma1(0.3), presets.atoms([(0.0, 0.5), (math.pi, 0.5)])):
            alive = threading.active_count()
            blocks = sample_blocks(F, 16, 37, seed=11)
            assert threading.active_count() == alive
            for i, blk in enumerate(blocks):
                solo = sample_block(F, 16, replica_seed(11, i))
                assert blk.seed == solo.seed
                assert blk.values.tobytes() == solo.values.tobytes()
        digest = hashlib.sha1()
        for blk in sample_blocks(presets.ma1(0.3), 16, 64, seed=5):
            digest.update(blk.values.tobytes())
        # recorded from the single-threaded sampler
        assert digest.hexdigest() == "1cad3b4d0c8a1729fadcea4864316642d167a9bf"
    finally:
        sys.setswitchinterval(interval)


def test_a_worker_error_reaches_the_caller(monkeypatch):
    draw = sampling._draw_slice

    def failing(values, seeds, lo, hi, sqrt_w, phases):
        if lo > 0:
            raise FloatingPointError(f"slice at {lo}")
        draw(values, seeds, lo, hi, sqrt_w, phases)

    monkeypatch.setattr(sampling, "_usable_cores", lambda: 3)
    monkeypatch.setattr(sampling, "_draw_slice", failing)
    alive = threading.active_count()
    with pytest.raises(FloatingPointError, match="slice at"):
        sample_blocks(presets.uniform(), 16, 9, seed=1)
    assert threading.active_count() == alive


def test_radius_check_deterministic_block():
    blk = CoefficientBlock(values=np.ones(129, dtype=complex), seed=0,
                           F_label="ones", grid_size=0)
    assert radius_check(blk) == 0.0
    with pytest.raises(DomainError):
        radius_check(CoefficientBlock(values=np.ones(8, dtype=complex), seed=0,
                                      F_label="", grid_size=0))


def test_radius_check_uniform_calibration():
    # the sqrt(2 log n) envelope keeps the deviation under 0.05 for almost
    # every seed at this block length
    devs = [radius_check(b) for b in sample_blocks(presets.uniform(), 512, 100,
                                                   seed=515)]
    frac = np.mean([d <= 0.05 for d in devs])
    assert frac >= 0.95


def test_radius_check_atom_preset():
    devs = [radius_check(b) for b in sample_blocks(presets.atoms([(0.5, 1.0)]),
                                                   512, 50, seed=99)]
    assert max(devs) <= 0.05
