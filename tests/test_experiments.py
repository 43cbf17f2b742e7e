import math
import warnings

import numpy as np
import pytest

from gafzeros import presets
from gafzeros.errors import DomainError, TruncationBiasWarning
from gafzeros.experiments import (ExperimentConfig, RadialProfile,
                                  analytic_cell_counts, emit_profile,
                                  load_profile, profile_csv, run_experiment)
from gafzeros.periodic import PeriodicFunction
from gafzeros.sampling import sample_blocks
from gafzeros.spectral import SpectralMeasure
from gafzeros.zeros import annulus, count_region, find_roots


def small_config(**kw):
    base = dict(F=presets.uniform(), N=120, replicas=12, r_bins=3, phi_bins=4,
                r_max=0.9, seed=17)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(DomainError):
        ExperimentConfig(F=presets.uniform(), r_max=1.5)
    with pytest.raises(DomainError):
        ExperimentConfig(F=presets.uniform(), r_bins=0)


def test_analytic_counts_uniform_disk():
    # closed form: the 0.9-disk holds 0.81/0.19 expected zeros
    r_edges = np.linspace(0.0, 0.9, 4)
    phi_edges = np.linspace(-math.pi, math.pi, 5)
    cells = analytic_cell_counts(presets.uniform(), r_edges, phi_edges)
    assert cells.sum() == pytest.approx(0.81 / 0.19, rel=1e-6)
    # rotational symmetry: cells constant along phi
    assert np.allclose(cells, cells[:, :1], rtol=1e-9)


def test_profile_consistency_with_direct_counts():
    cfg = small_config()
    prof = run_experiment(cfg)
    # same seeds, same truncation: per-replica disk counts must agree exactly
    blocks = sample_blocks(cfg.F, cfg.N, cfg.replicas, cfg.seed)
    direct = np.mean([count_region(find_roots(b.values),
                                   annulus(cfg.r_min, cfg.r_max))
                      for b in blocks])
    assert prof.total_empirical() == pytest.approx(direct, abs=1e-12)


def test_profile_se_halves_with_replicas():
    prof_a = run_experiment(small_config(replicas=48, seed=5))
    prof_b = run_experiment(small_config(replicas=192, seed=5))
    se_a = prof_a.empirical_se.sum()
    se_b = prof_b.empirical_se.sum()
    ratio = se_b / se_a  # expect about 1/2 when replicas quadruple
    assert 0.35 <= ratio <= 0.65


def test_truncation_monotone_below_noise():
    a = run_experiment(small_config(N=400, replicas=40, seed=9))
    b = run_experiment(small_config(N=800, replicas=40, seed=9))
    se = math.hypot(math.sqrt(float(np.sum(a.empirical_se**2))),
                    math.sqrt(float(np.sum(b.empirical_se**2))))
    assert abs(a.total_empirical() - b.total_empirical()) <= 2.0 * se


def test_truncation_caveat_attached():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prof = run_experiment(small_config(N=40, r_max=0.95, replicas=2))
    assert prof.truncation_caveat
    assert any(issubclass(w.category, TruncationBiasWarning) for w in caught)
    clean = run_experiment(small_config(N=400, r_max=0.9, replicas=2))
    assert clean.truncation_caveat == ""


def test_emit_and_load_round_trip(tmp_path):
    with pytest.warns(TruncationBiasWarning):
        short = run_experiment(small_config(N=40, r_max=0.95, replicas=4))
    assert short.F_label and short.truncation_caveat
    for prof in (run_experiment(small_config(replicas=4)), short):
        for fmt in ("csv", "json"):
            path = tmp_path / f"profile.{fmt}"
            emit_profile(prof, path, fmt)
            back = load_profile(path, fmt)
            assert np.array_equal(back.r_edges, prof.r_edges)
            assert np.array_equal(back.phi_edges, prof.phi_edges)
            assert np.array_equal(back.empirical_mean, prof.empirical_mean)
            assert np.array_equal(back.empirical_se, prof.empirical_se)
            assert np.array_equal(back.analytic, prof.analytic)
            assert back.replicas == prof.replicas
            assert back.N == prof.N
            assert back.seed == prof.seed
            if fmt == "json":  # CSV has no metadata columns
                assert back.F_label == prof.F_label
                assert back.truncation_caveat == prof.truncation_caveat


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_step_cell_matches_sub_cell_reference():
    # the default 6x8 grid up to r = 0.95: the per-cell rule reads 0.2991387
    # in the cell r in [0.7917, 0.95], phi in [-pi/2, -pi/4], 1.18% above the
    # 8x8-sub-cell sum 0.2956615 (16x16 sub-cells agree with it to 4e-11)
    F = presets.parse_preset("indicator:lo=-1,hi=2")
    r_edges = np.linspace(0.0, 0.95, 7)
    phi_edges = np.linspace(-math.pi, math.pi, 9)
    cell = analytic_cell_counts(F, r_edges, phi_edges)[5, 2]
    sub = analytic_cell_counts(F, np.linspace(r_edges[5], r_edges[6], 9),
                               np.linspace(phi_edges[2], phi_edges[3], 9))
    assert cell == pytest.approx(sub.sum(), rel=1e-6)


def test_emit_header_only_for_empty_profile(tmp_path):
    empty = RadialProfile(r_edges=np.array([]), phi_edges=np.array([]),
                          empirical_mean=np.zeros((0, 0)),
                          empirical_se=np.zeros((0, 0)),
                          analytic=np.zeros((0, 0)), replicas=0, N=0, seed=0)
    path = tmp_path / "empty.csv"
    emit_profile(empty, path, "csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("r_lo,r_hi,phi_lo,phi_hi")
    back = load_profile(path, "csv")
    assert back.empirical_mean.size == 0


def test_single_cell_profile(tmp_path):
    prof = run_experiment(small_config(r_bins=1, phi_bins=1, replicas=3))
    text = profile_csv(prof)
    lines = text.strip().splitlines()
    assert len(lines) == 2  # header + one row
    path = tmp_path / "one.csv"
    emit_profile(prof, path, "csv")
    back = load_profile(path, "csv")
    assert back.empirical_mean.shape == (1, 1)


def test_csv_byte_stable_for_seed():
    cfg = small_config(replicas=6)
    a = profile_csv(run_experiment(cfg))
    b = profile_csv(run_experiment(cfg))
    assert a == b


def test_degenerate_direction_sector_counts():
    # one-dependent process with the density zero at angle pi: sector counts
    # around the degenerate direction, against (a) the exact analytic integral
    # over a wide sector and (b) the flat 1/(2 pi (1-r^2)) profile over a
    # narrow one (the flat regime only holds for |phi - pi| << sqrt(1-r^2))
    from scipy.integrate import quad

    F = presets.ma1(0.5)
    blocks = sample_blocks(F, 400, 200, seed=660)
    zsets = [find_roots(b.values) for b in blocks]
    r1, r2 = 0.9, 0.97

    from gafzeros.zeros import sector
    hw = 0.3
    cnt = np.array([count_region(z, sector(r1, r2, math.pi - hw, -(math.pi - hw)))
                    for z in zsets], dtype=float)
    cell = analytic_cell_counts(F, [r1, r2], [math.pi - hw, math.pi])
    exact = 2.0 * float(cell[0, 0])  # the density is symmetric in phi
    se = cnt.std(ddof=1) / math.sqrt(cnt.size)
    assert abs(cnt.mean() - exact) <= 3.0 * se

    hw = 0.05
    cnt_n = np.array([count_region(z, sector(r1, r2, math.pi - hw, -(math.pi - hw)))
                      for z in zsets], dtype=float)
    flat = 2 * hw * quad(lambda r: r / (2 * math.pi * (1 - r * r)), r1, r2)[0]
    se_n = cnt_n.std(ddof=1) / math.sqrt(cnt_n.size) + 1e-12
    assert abs(cnt_n.mean() - flat) <= 3.0 * se_n


@pytest.mark.parametrize("F", [
    presets.uniform(),
    presets.indicator(-math.pi / 2, math.pi / 2),
    presets.mix((0.5, presets.uniform()), (0.5, presets.indicator(-1.0, 1.0))),
    # a density built from a callable has no preset label: only the
    # coefficient blocks cross the process boundary, so none is needed
    SpectralMeasure(density=PeriodicFunction.from_callable(
        lambda s: (1.0 + 0.6 * np.cos(s)) / (2.0 * math.pi))),
], ids=["uniform", "indicator", "mix", "callable"])
def test_parallel_matches_serial(F):
    a = run_experiment(small_config(F=F, replicas=8, workers=1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        b = run_experiment(small_config(F=F, replicas=8, workers=2))
    assert np.array_equal(a.empirical_mean, b.empirical_mean)
    assert profile_csv(a) == profile_csv(b)


def test_gaf_threads_env_sets_default_workers(monkeypatch):
    monkeypatch.setenv("GAF_THREADS", "2")
    a = run_experiment(small_config(replicas=6, workers=None))
    monkeypatch.setenv("GAF_THREADS", "1")
    b = run_experiment(small_config(replicas=6, workers=None))
    assert np.array_equal(a.empirical_mean, b.empirical_mean)
