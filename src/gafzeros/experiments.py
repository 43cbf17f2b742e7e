"""Replicated zero-count experiments against the analytic density.

One experiment runs: sample a coefficient block, truncate to a degree-N
polynomial, find all roots, bin those inside the outer radius over an
(r, phi) sector grid; repeat over replicas, and set the empirical per-cell
means against the integral of the analytic density over each cell.  Counts
are compared to counts: no pointwise density normalization enters.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationBiasWarning
from .intensity import rho1
from .periodic import PI, gauss_legendre
from .sampling import sample_blocks
from .spectral import SpectralMeasure
from .zeros import find_roots

__all__ = ["ExperimentConfig", "RadialProfile", "run_experiment",
           "emit_profile", "load_profile", "analytic_cell_counts"]

#: tail mass ratio above which a truncation-bias caveat is attached
_TRUNCATION_RATIO = 1e-3

_GL8_X, _GL8_W = gauss_legendre([
    (0.18343464249564978, 0.36268378337836166),
    (0.525532409916329, 0.3137066458778869),
    (0.7966664774136267, 0.22238103445337443),
    (0.9602898564975362, 0.10122853629037706),
])


@dataclass(frozen=True)
class ExperimentConfig:
    F: SpectralMeasure
    N: int = 400
    replicas: int = 200
    r_bins: int = 6
    phi_bins: int = 8
    r_max: float = 0.95
    r_min: float = 0.0
    seed: int = 0
    workers: int | None = None

    def __post_init__(self):
        if not (0.0 <= self.r_min < self.r_max <= 0.99):
            raise DomainError("need 0 <= r_min < r_max <= 0.99")
        if self.r_bins < 1 or self.phi_bins < 1 or self.replicas < 1:
            raise DomainError("bins and replicas must be positive")


@dataclass(frozen=True)
class RadialProfile:
    """Binned zero counts: empirical mean/SE and analytic integral per cell."""

    r_edges: np.ndarray
    phi_edges: np.ndarray
    empirical_mean: np.ndarray
    empirical_se: np.ndarray
    analytic: np.ndarray
    replicas: int
    N: int
    seed: int
    F_label: str = ""
    truncation_caveat: str = ""

    def total_empirical(self) -> float:
        return float(self.empirical_mean.sum())

    def total_analytic(self) -> float:
        return float(self.analytic.sum())


def _truncation_tail(r_max: float, N: int) -> float:
    # mass of the discarded series tail relative to the variance at r_max
    return r_max ** (2 * (N + 1)) / (1.0 - r_max**2)


def _histogram(roots: np.ndarray, r_edges, phi_edges) -> np.ndarray:
    r = np.abs(roots)
    keep = (r >= r_edges[0]) & (r < r_edges[-1])
    r = r[keep]
    phi = np.angle(roots[keep])
    h, _, _ = np.histogram2d(r, phi, bins=[r_edges, phi_edges])
    return h


def _replica_counts(args):
    values, r_edges, phi_edges = args
    return _histogram(find_roots(values).roots, r_edges, phi_edges)


def analytic_cell_counts(F: SpectralMeasure, r_edges, phi_edges) -> np.ndarray:
    """Integral of the zero density over each (r, phi) cell, in counts.

    Product Gauss-Legendre (8 x 8) per cell on rho1(r e^{i phi}) r dr dphi.
    """
    r_edges = np.asarray(r_edges, dtype=float)
    phi_edges = np.asarray(phi_edges, dtype=float)
    out = np.empty((r_edges.size - 1, phi_edges.size - 1))
    for i in range(r_edges.size - 1):
        rm, rh = 0.5 * (r_edges[i] + r_edges[i + 1]), 0.5 * (r_edges[i + 1] - r_edges[i])
        r_nodes = rm + rh * _GL8_X
        for j in range(phi_edges.size - 1):
            pm = 0.5 * (phi_edges[j] + phi_edges[j + 1])
            ph = 0.5 * (phi_edges[j + 1] - phi_edges[j])
            p_nodes = pm + ph * _GL8_X
            total = 0.0
            for rr, wr in zip(r_nodes, _GL8_W):
                if rr <= 0.0:
                    continue
                vals = [rho1(F, rr * np.exp(1j * pp)) for pp in p_nodes]
                total += wr * rh * rr * float(np.dot(_GL8_W, vals)) * ph
            out[i, j] = total
    return out


def run_experiment(config: ExperimentConfig) -> RadialProfile:
    """Replicated sampling -> roots -> binning, with the analytic column.

    All coefficient blocks are sampled in this process; worker processes
    (if any) only root and bin them.  Deterministic for a fixed seed
    regardless of worker scheduling: replica results are reduced in index
    order.  The GAF_THREADS environment variable sets the default worker
    count when ``config.workers`` is not given.
    """
    F = config.F
    r_edges = np.linspace(config.r_min, config.r_max, config.r_bins + 1)
    phi_edges = np.linspace(-PI, PI, config.phi_bins + 1)
    caveat = ""
    tail = _truncation_tail(config.r_max, config.N)
    if tail > _TRUNCATION_RATIO:
        caveat = (f"truncation tail ratio {tail:.2e} at r_max={config.r_max} "
                  f"for N={config.N}; counts near the outer edge may be biased")
        warnings.warn(caveat, TruncationBiasWarning, stacklevel=2)

    workers = config.workers
    if workers is None:
        env = os.environ.get("GAF_THREADS", "")
        workers = int(env) if env.isdigit() and int(env) > 0 else 1
    blocks = sample_blocks(F, config.N, config.replicas, config.seed)
    jobs = [(block.values, r_edges, phi_edges) for block in blocks]
    if workers > 1:
        # imported here: the pool machinery costs about 1.4 MB resident
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            hists = list(pool.map(_replica_counts, jobs, chunksize=8))
    else:
        hists = [_replica_counts(job) for job in jobs]

    stack = np.stack(hists)
    mean = stack.mean(axis=0)
    if config.replicas > 1:
        se = stack.std(axis=0, ddof=1) / math.sqrt(config.replicas)
    else:
        se = np.zeros_like(mean)
    analytic = analytic_cell_counts(F, r_edges, phi_edges)
    return RadialProfile(r_edges=r_edges, phi_edges=phi_edges,
                         empirical_mean=mean, empirical_se=se, analytic=analytic,
                         replicas=config.replicas, N=config.N, seed=config.seed,
                         F_label=F.label, truncation_caveat=caveat)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_COLUMNS = ["r_lo", "r_hi", "phi_lo", "phi_hi", "empirical_mean",
            "empirical_se", "analytic", "replicas", "N", "seed"]


def _rows(profile: RadialProfile):
    for i in range(profile.r_edges.size - 1):
        for j in range(profile.phi_edges.size - 1):
            yield {
                "r_lo": repr(float(profile.r_edges[i])),
                "r_hi": repr(float(profile.r_edges[i + 1])),
                "phi_lo": repr(float(profile.phi_edges[j])),
                "phi_hi": repr(float(profile.phi_edges[j + 1])),
                "empirical_mean": repr(float(profile.empirical_mean[i, j])),
                "empirical_se": repr(float(profile.empirical_se[i, j])),
                "analytic": repr(float(profile.analytic[i, j])),
                "replicas": str(profile.replicas),
                "N": str(profile.N),
                "seed": str(profile.seed),
            }


def profile_csv(profile: RadialProfile) -> str:
    """CSV text, row-major over (r, phi) cells; floats use repr round-trip."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in _rows(profile):
        writer.writerow(row)
    return buf.getvalue()


def emit_profile(profile: RadialProfile, path, fmt: str = "csv") -> None:
    """Write the profile as CSV or JSON with a bit-stable row order."""
    if fmt == "csv":
        text = profile_csv(profile)
    elif fmt == "json":
        payload = {
            "columns": _COLUMNS,
            "rows": [row for row in _rows(profile)],
            "F_label": profile.F_label,
            "truncation_caveat": profile.truncation_caveat,
        }
        text = json.dumps(payload, indent=1)
    else:
        raise DomainError(f"unsupported format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_profile(path, fmt: str = "csv") -> RadialProfile:
    """Inverse of :func:`emit_profile` (metadata columns must be consistent);
    CSV has no ``F_label`` or ``truncation_caveat`` column, so they read empty."""
    meta = {}
    with open(path, "r", encoding="utf-8") as fh:
        if fmt == "csv":
            rows = list(csv.DictReader(fh))
        elif fmt == "json":
            payload = json.load(fh)
            rows = payload["rows"]
            meta = {key: payload.get(key, "") for key in ("F_label", "truncation_caveat")}
        else:
            raise DomainError(f"unsupported format {fmt!r}")
    if not rows:
        return RadialProfile(r_edges=np.array([]), phi_edges=np.array([]),
                             empirical_mean=np.zeros((0, 0)),
                             empirical_se=np.zeros((0, 0)),
                             analytic=np.zeros((0, 0)),
                             replicas=0, N=0, seed=0, **meta)
    r_los = sorted({float(row["r_lo"]) for row in rows})
    phi_los = sorted({float(row["phi_lo"]) for row in rows})
    r_edges = np.array(r_los + [max(float(row["r_hi"]) for row in rows)])
    phi_edges = np.array(phi_los + [max(float(row["phi_hi"]) for row in rows)])
    shape = (r_edges.size - 1, phi_edges.size - 1)
    mean = np.zeros(shape)
    se = np.zeros(shape)
    analytic = np.zeros(shape)
    for row in rows:
        i = r_los.index(float(row["r_lo"]))
        j = phi_los.index(float(row["phi_lo"]))
        mean[i, j] = float(row["empirical_mean"])
        se[i, j] = float(row["empirical_se"])
        analytic[i, j] = float(row["analytic"])
    first = rows[0]
    return RadialProfile(r_edges=r_edges, phi_edges=phi_edges,
                         empirical_mean=mean, empirical_se=se, analytic=analytic,
                         replicas=int(first["replicas"]), N=int(first["N"]),
                         seed=int(first["seed"]), **meta)
