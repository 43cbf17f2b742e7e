"""Sampling coefficient blocks of the stationary Gaussian process.

A block (xi_0, ..., xi_N) is drawn through the discretized spectral
representation: independent standard complex normals sit on a frequency grid
(cell midpoints for the density, one node per atom), and

    xi_k = sum_j exp(-i k t_j) sqrt(w_j) zeta_j.

The cell masses sum to one exactly, so every marginal has unit variance by
construction.  As replicas accumulate, the empirical covariances converge to
the grid's coefficients sum_j w_j exp(-i k t_j), not to the Fourier
coefficients gamma(k) of the measure.  Where the density is smooth on each
cell (a trig density, or a step whose jumps sit on cell edges) the two differ
by (pi k / M)^2 / 6 relative at lag k to leading order, low for a trig density
and high for a step: on the half-circle indicator at M = 4096, 2.55e-4 at lag
51 and 1.58e-2 at lag 399; on ma1:a=0.5, 9.8e-8 at lag 1.  A jump inside a
cell gives a bias of the same order without that law (0.4 to 3 times it on
indicator:lo=-1,hi=2 at lags 1 to 1000).  Atoms are exact.

Reproducibility contract: ``sample_block(F, N, seed)`` is bit-stable for a
fixed (seed, measure, N, grid).  Replica seeds are derived with SplitMix64:

    state  = (seed + (index + 1) * 0x9E3779B97F4A7C15) mod 2^64
    state ^= state >> 30;  state *= 0xBF58476D1CE4E5B9;  state &= 2^64-1
    state ^= state >> 27;  state *= 0x94D049BB133111EB;  state &= 2^64-1
    state ^= state >> 31

and the result feeds numpy's PCG64.  Counts produced from these streams are
reproducible across runs; other languages re-implementing the hash get the
same replica seeds even though their normal variates will differ.

``sample_blocks`` draws its replicas on up to one thread per usable core, each
thread a contiguous slice of the seeds (``_in_slices``, the split that
``experiments.run_experiment`` roots the blocks on); the draws and the product
release the GIL.  A block's arithmetic is the same on every thread, so its bits
do not depend on the thread count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .periodic import PI, TWOPI
from .spectral import SpectralMeasure

__all__ = [
    "CoefficientBlock", "sample_block", "sample_blocks", "empirical_covariance",
    "radius_check", "replica_seed", "spectral_nodes",
]

_MASK64 = (1 << 64) - 1


def replica_seed(seed: int, index: int) -> int:
    """SplitMix64-derived seed for one replica; see the module docstring."""
    state = (int(seed) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _MASK64
    state ^= state >> 30
    state = (state * 0xBF58476D1CE4E5B9) & _MASK64
    state ^= state >> 27
    state = (state * 0x94D049BB133111EB) & _MASK64
    state ^= state >> 31
    return state


@dataclass(frozen=True)
class CoefficientBlock:
    """One sampled coefficient vector with its provenance."""

    values: np.ndarray
    seed: int
    F_label: str
    grid_size: int


def default_grid_size(N: int) -> int:
    return max(8 * (N + 1), 4096)


def spectral_nodes(F: SpectralMeasure, M: int):
    """Frequency nodes and masses: density cells first, atoms last.

    Each cell mass is the exact integral of the density over the cell,
    split at its breakpoints.  Density masses are rescaled so the total,
    including atoms, is exactly one.
    """
    F.validate_normalized()
    nodes = []
    masses = []
    atom_mass = F.atom_mass
    if F.density is not None:
        edges = -PI + TWOPI * np.arange(M + 1) / M
        mids = 0.5 * (edges[:-1] + edges[1:])
        w = np.real(F.density.integrals(edges))
        total = w.sum()
        if total <= 0:
            raise DomainError("density part carries no mass")
        w *= (1.0 - atom_mass) / total
        nodes.append(mids)
        masses.append(w)
    for t, m in F.atoms:
        nodes.append(np.array([t]))
        masses.append(np.array([m]))
    return np.concatenate(nodes), np.concatenate(masses)


def _block_machine(F: SpectralMeasure, N: int, grid_size: int | None):
    if N < 1:
        raise DomainError("block length N must be at least 1")
    M = default_grid_size(N) if grid_size is None else int(grid_size)
    if M < N + 1:
        # lags are resolved only up to M - 1: a coarser grid aliases lag M to lag 0
        raise DomainError(f"frequency grid of {M} nodes aliases a block of length "
                          f"{N + 1}; need grid_size >= N + 1")
    t, w = spectral_nodes(F, M)
    phases = np.exp(-1j * np.outer(np.arange(N + 1), t))
    return M, np.sqrt(w), phases


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_slices(n: int, work) -> None:
    """work(lo, hi) over min(usable cores, n) contiguous slices of range(n): the first on the
    calling thread, one joined thread each for the rest; a thread's first error raised here."""
    T = max(1, min(_usable_cores(), n))
    cuts = [n * j // T for j in range(T + 1)]
    errors = []

    def guarded(lo: int, hi: int) -> None:
        try:
            work(lo, hi)
        except BaseException as exc:  # raised again in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=cuts[j:j + 2]) for j in range(1, T)]
    try:
        for t in threads:
            t.start()
        work(0, cuts[1])
    finally:
        for t in threads:
            if t.ident is not None:  # started
                t.join()
    if errors:
        raise errors[0]


def _draw_slice(values: list, seeds: list, lo: int, hi: int, sqrt_w: np.ndarray,
                phases: np.ndarray) -> None:
    """values[i] = phases @ (sqrt_w * zeta_i) for lo <= i < hi, each zeta_i drawn from
    seeds[i] into one reused buffer."""
    buf = np.empty((sqrt_w.size, 2))
    zeta = buf.view(complex)[:, 0]
    for i in range(lo, hi):
        np.random.default_rng(int(seeds[i]) & _MASK64).standard_normal(out=buf)
        zeta /= math.sqrt(2.0)
        zeta *= sqrt_w
        # np.dot releases the GIL around its BLAS call where numpy 2.4's ``@`` holds it
        # for this matrix-vector product; both make the same zgemv call, same bits
        values[i] = np.dot(phases, zeta)


def sample_block(F: SpectralMeasure, N: int, seed: int,
                 grid_size: int | None = None) -> CoefficientBlock:
    """Draw one coefficient block (xi_0, ..., xi_N)."""
    M, sqrt_w, phases = _block_machine(F, N, grid_size)
    values = [None]
    _draw_slice(values, [seed], 0, 1, sqrt_w, phases)
    return CoefficientBlock(values=values[0], seed=int(seed), F_label=F.label, grid_size=M)


def sample_blocks(F: SpectralMeasure, N: int, replicas: int, seed: int,
                  grid_size: int | None = None) -> list[CoefficientBlock]:
    """Independent replicas with SplitMix64-derived per-replica seeds.

    Bit-identical to calling :func:`sample_block` with each derived seed; the
    node grid and phase matrix are shared across replicas, and the replicas are
    drawn on the threads of ``_in_slices``.  DomainError for a negative or
    non-integral ``replicas``; 0 gives [].
    """
    if not (replicas >= 0 and float(replicas).is_integer()):
        raise DomainError(f"replica count {replicas!r} is not a nonnegative integer")
    M, sqrt_w, phases = _block_machine(F, N, grid_size)
    n = int(replicas)
    seeds = [replica_seed(seed, i) for i in range(n)]
    values = [None] * n
    _in_slices(n, lambda lo, hi: _draw_slice(values, seeds, lo, hi, sqrt_w, phases))
    return [CoefficientBlock(values=v, seed=rs, F_label=F.label, grid_size=M)
            for rs, v in zip(seeds, values)]


def empirical_covariance(blocks, k: int):
    """Lag-k sample covariance averaged over blocks and positions.

    Returns ``(value, stderr)``; the standard error is taken across the
    per-block averages.  Negative lags are evaluated by conjugating the
    positive lag, so the Hermitian symmetry is exact by construction.
    """
    blocks = list(blocks)
    if not blocks:
        raise DomainError("need at least one block")
    if k < 0:
        value, se = empirical_covariance(blocks, -k)
        return np.conj(value), se
    degrees = sorted({blk.values.size - 1 for blk in blocks})
    if len(degrees) > 1 or k > degrees[0]:
        raise DomainError(f"lag {k} needs blocks of one degree >= {k}; got degrees {degrees}")
    v = np.stack([blk.values for blk in blocks])
    per_block = np.mean(v[:, k:] * np.conj(v[:, : v.shape[1] - k]), axis=1)
    value = per_block.mean()
    if per_block.size > 1:
        spread = np.abs(per_block - value) ** 2
        se = math.sqrt(spread.sum() / (per_block.size - 1) / per_block.size)
    else:
        se = 0.0
    return complex(value), float(se)


def radius_check(block: CoefficientBlock) -> float:
    """Deviation of |xi_k|^(1/k) from 1 over the upper half of the block.

    Unit-variance marginals force the k-th root of |xi_k| to 1, which pins the
    convergence radius of the random series at 1; the deviation shrinks like
    sqrt(log k)/k.  Zero coefficients are skipped.
    """
    v = block.values
    N = v.size - 1
    if N < 64:
        raise DomainError("radius check needs a block of degree >= 64")
    ks = np.arange(N // 2, N + 1)
    mags = np.abs(v[ks])
    keep = mags > 0.0
    if not np.any(keep):
        return math.inf
    dev = np.abs(mags[keep] ** (1.0 / ks[keep]) - 1.0)
    return float(dev.max())
