import math
import warnings

import numpy as np
import pytest

from gafzeros import presets
from gafzeros.errors import BoundaryTieWarning, DomainError
from gafzeros.sampling import sample_blocks
from gafzeros.zeros import (_BLOCK, ZeroSet, _backward_residual, _newton_ratio, annulus,
                            companion_roots, count_region, disk, find_roots, sector)


def _match_sets(a, b):
    a = np.sort_complex(np.asarray(a))
    b = np.sort_complex(np.asarray(b))
    return np.abs(a[:, None] - b[None, :]).min(axis=1).max()


def test_quadratic_golden():
    zs = find_roots([-0.25, 0.0, 1.0])
    assert zs.degree == 2
    assert _match_sets(zs.roots, [-0.5, 0.5]) < 1e-14
    assert zs.residual < 1e-12


def test_geometric_sum_roots_of_unity():
    N = 16
    zs = find_roots(np.ones(N + 1))
    want = np.exp(2j * np.pi * np.arange(1, N + 1) / (N + 1))
    assert _match_sets(zs.roots, want) < 1e-8
    assert zs.residual < 1e-12


def test_trailing_and_leading_zero_coefficients():
    # p(z) = z^2 (z - 2), with two padded leading zeros
    zs = find_roots([0.0, 0.0, -2.0, 1.0, 0.0, 0.0])
    assert zs.degree == 3
    assert _match_sets(zs.roots, [0.0, 0.0, 2.0]) < 1e-12


def test_rejects_degenerate_input():
    with pytest.raises(DomainError):
        find_roots([1.0])
    with pytest.raises(DomainError):
        find_roots([0.0, 0.0])
    with pytest.raises(DomainError):
        find_roots(np.ones(3000))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_companion_oracle(seed):
    rng = np.random.default_rng(seed)
    # the last three degrees end a block of the power sums, or pass one by a coefficient
    for n in (8, 33, 64, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
        mine = find_roots(c).roots
        ref = companion_roots(c)
        assert _match_sets(mine, ref) < 1e-8


@pytest.mark.parametrize("n", [5, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 700])
def test_power_sums_match_polyval_on_both_sides_of_the_circle(n):
    # p and p' against np.polyval in long double at points inside, on and outside the
    # circle, each sum within 1e-13 sum_k |c_k| |z|^k (k |c_k| |z|^(k-1) for p'): so
    # w = p / p' within the bound they give it, and each point's backward residual
    # within 1e-13 of |p| / sum_k |c_k| |z|^k.  Measured: 4.5e-16 and 2.3e-15 at most
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    z = np.concatenate([rho * np.exp(2j * np.pi * rng.random(20))
                        for rho in (0.2, 0.7, 0.99, 1.0, 1.01, 1.3, 3.0)])
    k, cl, zl = np.arange(n + 1), c.astype(np.clongdouble), z.astype(np.clongdouble)
    p, dp = np.polyval(cl[::-1], zl), np.polyval((cl * k)[:0:-1], zl)
    s0 = np.polyval(np.abs(cl)[::-1], np.abs(zl))
    s1 = np.polyval((np.abs(cl) * k)[:0:-1], np.abs(zl))
    w, want = _newton_ratio(c, z), p / dp
    assert np.all(np.abs(w - want) * np.abs(dp) <= 1e-13 * (s0 + np.abs(want) * s1))
    residuals = np.array([_backward_residual(c, z[i:i + 1]) for i in range(z.size)])
    assert np.all(np.abs(residuals - np.abs(p) / s0) <= 1e-13)


def _assert_residual_contract(n, seed):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    zs = find_roots(c)
    assert len(zs) == n
    assert zs.residual <= 1e-8
    # the absolute form of the contract holds on the closed unit disk,
    # where sum_k |c_k| dominates the per-root scale
    scaled = c / np.abs(c).max()
    inside = zs.roots[np.abs(zs.roots) <= 1.0]
    worst = np.max(np.abs(np.polyval(scaled[::-1], inside)))
    assert worst / np.abs(scaled).sum() <= 1e-8


def test_residual_contract_gaussian_512():
    _assert_residual_contract(512, seed=7)


def test_residual_contract_gaussian_1024():
    # nine blocks of the power sums, the last of one coefficient, joined by Horner
    _assert_residual_contract(1024, seed=8)


def test_conjugation_equivariance():
    rng = np.random.default_rng(12)
    c = rng.standard_normal(41) + 1j * rng.standard_normal(41)
    a = find_roots(c).roots
    b = np.conj(find_roots(np.conj(c)).roots)
    assert _match_sets(a, b) < 1e-9


def test_count_region_goldens():
    zs = find_roots([-0.25, 0.0, 1.0])
    assert count_region(zs, disk(0.6)) == 2
    assert count_region(zs, sector(0.0, 1.0, -math.pi / 4, math.pi / 4)) == 1
    assert count_region(zs, annulus(0.4, 0.6)) == 2
    assert count_region(zs, annulus(0.6, 0.9)) == 0


def test_count_region_boundary_tie_flagged():
    zs = ZeroSet(roots=np.array([0.5 + 0j, -0.25 + 0j]), degree=2, residual=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        n = count_region(zs, disk(0.5))
    assert n == 2
    assert any(issubclass(w.category, BoundaryTieWarning) for w in caught)


def test_count_region_validation():
    zs = ZeroSet(roots=np.array([0.1 + 0j]), degree=1, residual=0.0)
    with pytest.raises(DomainError):
        count_region(zs, disk(-1.0))
    with pytest.raises(DomainError):
        count_region(zs, annulus(0.9, 0.1))
    with pytest.raises(DomainError):
        count_region(zs, "circle")


def test_sector_wraparound():
    roots = np.array([0.5 * np.exp(1j * 3.0), 0.5 * np.exp(-1j * 3.0),
                      0.5 + 0j])
    zs = ZeroSet(roots=roots, degree=3, residual=0.0)
    # sector crossing the branch cut at +-pi
    assert count_region(zs, sector(0.0, 1.0, 2.8, -2.8)) == 2


def test_partition_counts_sum_to_disk_count():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(101) + 1j * rng.standard_normal(101)
    zs = find_roots(c)
    total = count_region(zs, disk(0.97))
    parts = 0
    edges_r = [0.0, 0.5, 0.8, 0.97]
    edges_phi = np.linspace(-math.pi, math.pi, 5)
    for rlo, rhi in zip(edges_r[:-1], edges_r[1:]):
        for plo, phi_hi in zip(edges_phi[:-1], edges_phi[1:]):
            parts += count_region(zs, sector(rlo, rhi, plo, phi_hi))
    assert parts == total


def test_hyperbolic_disk_and_annulus_counts_match_closed_form():
    # truncated i.i.d. series: expected count in the 0.9 disk is 0.81/0.19,
    # and the annulus count is the difference of the disk closed forms
    blocks = sample_blocks(presets.uniform(), 400, 100, seed=314159)
    zsets = [find_roots(b.values) for b in blocks]
    counts = np.asarray([count_region(z, disk(0.9)) for z in zsets], dtype=float)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    want = 0.81 / 0.19
    assert abs(counts.mean() - want) <= 4.0 * se
    ring = np.asarray([count_region(z, annulus(0.3, 0.9)) for z in zsets],
                      dtype=float)
    se_ring = ring.std(ddof=1) / math.sqrt(ring.size)
    want_ring = 0.81 / 0.19 - 0.09 / 0.91
    assert abs(ring.mean() - want_ring) <= 4.0 * se_ring
