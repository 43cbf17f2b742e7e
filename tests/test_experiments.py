import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gafzeros import presets, sampling
from gafzeros.errors import DegenerateDenominator, DomainError, TruncationBiasWarning
from gafzeros.experiments import (ExperimentConfig, RadialProfile,
                                  analytic_cell_counts, emit_profile,
                                  load_profile, profile_csv, run_experiment)
from gafzeros.intensity import rho1
from gafzeros.periodic import PeriodicFunction
from gafzeros.sampling import sample_blocks
from gafzeros.spectral import SpectralMeasure
from gafzeros.zeros import MAX_DEGREE, annulus, count_region, find_roots

from conftest import step_trig_atom_measures


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
    # refused when the config is built, before any replica is sampled
    with pytest.raises(DomainError):
        ExperimentConfig(F=presets.uniform(), N=MAX_DEGREE + 1)
    with pytest.raises(DomainError):
        ExperimentConfig(F=presets.uniform(), workers=0)
    assert ExperimentConfig(F=presets.uniform(), N=MAX_DEGREE).N == MAX_DEGREE


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
                                   annulus(0.0, cfg.r_max))
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


def test_step_cell_matches_sub_cell_reference():
    # the default 6x8 grid up to r = 0.95: the cell r in [0.7917, 0.95],
    # phi in [-pi/2, -pi/4] against the sum over its 8x8 sub-cells
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
    # a density built from a callable has no preset label
    SpectralMeasure(density=PeriodicFunction.from_callable(
        lambda s: (1.0 + 0.6 * np.cos(s)) / (2.0 * math.pi))),
], ids=["uniform", "indicator", "mix", "callable"])
def test_parallel_matches_serial(monkeypatch, F):
    # the replicas are sampled and rooted on one thread per usable core: 8 replicas on
    # 1, 2, 3 and 8 threads (3 splits unevenly) give the single thread's bits
    monkeypatch.setattr(sampling, "_usable_cores", lambda: 1)
    a = run_experiment(small_config(F=F, replicas=8))
    for cores in (1, 2, 3, 8):
        monkeypatch.setattr(sampling, "_usable_cores", lambda: cores)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = run_experiment(small_config(F=F, replicas=8))
        assert np.array_equal(a.empirical_mean, b.empirical_mean), cores
        assert profile_csv(a) == profile_csv(b), cores


@pytest.mark.parametrize("text, cell, want", [
    # references: the per-cell 8x8 product rule summed over 16x16 sub-cells
    ("indicator:lo=-1,hi=2", (5, 2), 0.2956614967737),
    ("indicator:lo=-1.5707963267948966,hi=1.5707963267948966", (5, 1), 0.0713984281577),
    ("mix:0.5*ma1:a=0.5+0.5*indicator:lo=-1,hi=1", (5, 2), 0.8919924901621),
], ids=["indicator", "half_circle", "mix"])
def test_step_cells_on_the_default_grid(text, cell, want):
    cells = analytic_cell_counts(presets.parse_preset(text), np.linspace(0.0, 0.95, 7),
                                 np.linspace(-math.pi, math.pi, 9))
    assert cells[cell] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("r_edges, phi_edges", [
    ([0.5, 0.2], [0.0, 1.0]),
    ([0.2, 0.5], [1.0, 0.0]),
    ([0.2, 0.5], [-4.0, 4.0]),
    ([-0.5, 0.5], [0.0, 1.0]),
], ids=["reversed_r", "reversed_phi", "phi_span_8", "negative_r"])
def test_analytic_counts_refuse_malformed_edges(r_edges, phi_edges):
    with pytest.raises(DomainError):
        analytic_cell_counts(presets.uniform(), r_edges, phi_edges)


def test_analytic_cells_skip_numpy_polynomial():
    import os
    import subprocess
    import sys

    import gafzeros
    src = os.path.dirname(os.path.dirname(gafzeros.__file__))
    code = ("import sys, numpy as np; from gafzeros import presets; "
            "from gafzeros.experiments import analytic_cell_counts; "
            "analytic_cell_counts(presets.ma1(0.3), np.linspace(0, 0.95, 7), "
            "np.linspace(-np.pi, np.pi, 9)); print('numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_analytic_counts_refuse_an_underflowed_harmonic_extension():
    F = SpectralMeasure(atoms=((0.0, 1e-200),))
    with pytest.raises(DegenerateDenominator):
        analytic_cell_counts(F, [0.0, 0.5], [0.0, 1.0])


def _edges(draw, lo, hi, n):
    inner = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n, unique=True))
    edges = np.sort([lo, hi, *inner])
    return edges if min(np.diff(edges)) > 1e-3 else np.array([lo, hi])


@st.composite
def grids(draw):
    r_lo = draw(st.sampled_from([0.0, 0.3]))
    r_hi = draw(st.floats(r_lo + 0.1, 0.95))
    phi_lo = draw(st.floats(-4.0, 4.0))
    phi_hi = phi_lo + draw(st.sampled_from([2.0 * math.pi, draw(st.floats(0.5, 6.0))]))
    return (_edges(draw, r_lo, r_hi, draw(st.integers(0, 2))),
            _edges(draw, phi_lo, phi_hi, draw(st.integers(0, 3))))


@settings(max_examples=20, deadline=None)
@given(step_trig_atom_measures(), grids())
@example(presets.indicator(-1.0, 2.0),  # a thin annulus: its count is a small difference
         (np.array([0.0, 0.20898438, 0.2109375]), np.array([0.0, 2.0 * math.pi])))
@example(presets.uniform(),  # a + 2 pi - a rounds past 2 pi
         (np.array([0.0, 0.5]), np.array([1.72, 1.72 + 2.0 * math.pi])))
def test_cells_add_up_to_the_region_they_tile(F, grid):
    r_edges, phi_edges = grid
    cells = analytic_cell_counts(F, r_edges, phi_edges)
    region = analytic_cell_counts(F, r_edges[[0, -1]], phi_edges[[0, -1]])[0, 0]
    assert cells.sum() == pytest.approx(region, rel=1e-12)
    hyperbolic = r_edges**2 / (1.0 - r_edges**2)
    want = np.outer(np.diff(hyperbolic), np.diff(phi_edges)) / (2.0 * math.pi)
    assert np.allclose(analytic_cell_counts(presets.uniform(), r_edges, phi_edges), want,
                       rtol=1e-13, atol=1e-14)


def test_density_without_a_plan_matches_a_product_rule():
    # a trig x step product has no closed-form plan: its moments come from the
    # kernel rule; at r <= 0.6 a 24 x 24 product rule on rho1 resolves each cell
    dens = PeriodicFunction.from_trig([1.0, 0.6]) * PeriodicFunction.step([-1.0, 1.0],
                                                                           [1.0, 0.25])
    F = SpectralMeasure(density=dens)
    assert dens.wave_and_arcs() is None
    r_edges, phi_edges = [0.2, 0.6], [-1.0, 1.0, 2.5]
    cells = analytic_cell_counts(F, r_edges, phi_edges)
    x, w = np.polynomial.legendre.leggauss(24)
    rs = 0.4 + 0.2 * x
    for j, (lo, hi) in enumerate(zip(phi_edges[:-1], phi_edges[1:])):
        phis = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        want = sum(wr * wp * r * rho1(F, r * np.exp(1j * p))
                   for r, wr in zip(rs, w) for p, wp in zip(phis, w)) * 0.1 * (hi - lo)
        assert cells[0, j] == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("text, digest", [
    ("uniform", "14eef8fd0f34"),
    ("indicator:lo=-1.5707963267948966,hi=1.5707963267948966", "3bccc1305be9"),
    ("mix:0.5*uniform+0.5*indicator:lo=-1,hi=1", "d9707d56e93c"),
], ids=["uniform", "half_circle", "mix"])
def test_empirical_csv_bytes_are_pinned(text, digest):
    # the CSV rows without the analytic column (and without the header), one
    # line each: sampling, rooting and binning are byte-stable for a seed
    cfg = ExperimentConfig(F=presets.parse_preset(text), N=60, replicas=6, seed=5, workers=1)
    with pytest.warns(TruncationBiasWarning):
        lines = profile_csv(run_experiment(cfg)).splitlines()
    drop = lines[0].split(",").index("analytic")
    rows = "".join(",".join(v for k, v in enumerate(line.split(",")) if k != drop) + "\n"
                   for line in lines[1:])
    assert hashlib.sha1(rows.encode()).hexdigest()[:12] == digest
