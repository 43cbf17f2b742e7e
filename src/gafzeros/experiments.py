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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, DomainError, TruncationBiasWarning
from .intensity import _DENOM_FLOOR
from .periodic import PI, TWOPI, panel_nodes
from .poisson import _check_radius, _herglotz_plan, graded_edges, herglotz
from .sampling import _in_slices, sample_blocks
from .spectral import SpectralMeasure
from .zeros import MAX_DEGREE, find_roots

__all__ = ["ExperimentConfig", "RadialProfile", "run_experiment",
           "emit_profile", "load_profile", "analytic_cell_counts"]

#: tail mass ratio above which a truncation-bias caveat is attached
_TRUNCATION_RATIO = 1e-3


@dataclass(frozen=True)
class ExperimentConfig:
    """``workers`` must be positive and has no effect: replicas run on one thread per core."""

    F: SpectralMeasure
    N: int = 400
    replicas: int = 200
    r_bins: int = 6
    phi_bins: int = 8
    r_max: float = 0.95
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if not 0.0 < self.r_max <= 0.99:
            raise DomainError("need 0 < r_max <= 0.99")
        if self.r_bins < 1 or self.phi_bins < 1 or self.replicas < 1 or self.workers < 1:
            raise DomainError("bins, replicas and workers must be positive")
        if not 1 <= self.N <= MAX_DEGREE:
            raise DomainError(f"need 1 <= N <= {MAX_DEGREE}")


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


def _replica_counts(hists: list, blocks: list, lo: int, hi: int, r_edges, phi_edges) -> None:
    """hists[i] = the (r, phi) histogram of the roots of blocks[i] for lo <= i < hi."""
    for i in range(lo, hi):
        roots = find_roots(blocks[i].values).roots
        r = np.abs(roots)
        keep = (r >= r_edges[0]) & (r < r_edges[-1])
        hists[i] = np.histogram2d(r[keep], np.angle(roots[keep]), bins=[r_edges, phi_edges])[0]


def _flux(F: SpectralMeasure, edges: np.ndarray, cells: np.ndarray, path) -> np.ndarray:
    """Im of the integral of Phi'/b dz, b = Re Phi, along (z, dz/dt) = path(t) between
    consecutive ``cells`` on the panels between ``edges``, over the last axis of z."""
    t, w = panel_nodes(edges)
    z, dz = path(t)
    phi, dphi = (_herglotz_plan(F, z)
                 or np.vectorize(lambda v: herglotz(F, v), otypes=[complex, complex])(z))
    if not np.all(phi.real > _DENOM_FLOOR):
        raise DegenerateDenominator(f"harmonic extension {phi.real.min()!r} on the edge "
                                    f"through z = {complex(z.flat[0])!r}")
    panels = (w * (dphi * dz).imag / phi.real).reshape(*z.shape[:-1], edges.size - 1, -1)
    return np.add.reduceat(panels.sum(axis=-1), np.searchsorted(edges, cells[:-1]), axis=-1)


def analytic_cell_counts(F: SpectralMeasure, r_edges, phi_edges) -> np.ndarray:
    """Integral of the zero density over each (r, phi) cell, in counts.

    rho1 = Delta log(b / y) / (4 pi) with b = Re Phi, so by Green's theorem a cell holds
    dphi/(2 pi) [r^2/(1 - r^2)] from r_lo to r_hi plus 1/(4 pi) times the outward flux
    of grad log b, the flux Im of the integral of Phi'/b dz (``_flux``): along each arc,
    dz = iz dphi on ``graded_edges`` toward the breakpoints and atoms down to 1 - r,
    merged with the phi edges; along each ray, dz = e^(i phi) dr on panels growing by 8
    from 1 - r_max inward.  Each edge is computed once for its two cells, so cells add
    up to the region they tile.  Splitting every panel in four moves no cell by more
    than 3e-15 (1e-12 relative) up to r = 0.99; ``uniform`` is its closed form to 1e-15.
    """
    r_edges, phi_edges = np.asarray(r_edges, dtype=float), np.asarray(phi_edges, dtype=float)
    span = phi_edges[-1] - phi_edges[0]  # a + 2 pi - a may round past 2 pi
    if not (min(r_edges.size, phi_edges.size) > 1 and r_edges[0] >= 0.0
            and np.all(np.diff(r_edges) > 0.0) and np.all(np.diff(phi_edges) > 0.0)
            and span <= TWOPI + 1e-12):
        raise DomainError("cell edges must increase strictly, from r >= 0, over at most 2 pi")
    _check_radius(r_edges[-1])
    phi0 = phi_edges[0]
    centers = [t for t, _ in F.atoms] + ([] if F.density is None
                                         else F.density.breakpoints.tolist())
    arcs = []  # dz = 0 on an arc of radius 0: no flux
    for r in r_edges.tolist():
        # panels at most pi/8 wide: log b of a density with a double zero is
        # singular about sqrt(2 (1 - r)) off the circle
        graded = np.mod(graded_edges(r, centers=centers, floor_scale=1.0) - phi0, TWOPI)
        edges = phi0 + np.union1d(graded, np.arange(16) * (TWOPI / 16))
        edges = np.union1d(edges[edges <= phi_edges[-1]], phi_edges)
        arcs.append(_flux(F, edges, phi_edges,
                          lambda t: (r * np.exp(1j * t), 1j * r * np.exp(1j * t))))
    toward_one = 1.0 - (1.0 - r_edges[-1]) * 8.0 ** np.arange(1, 22)
    r_panels = np.union1d(r_edges, toward_one[toward_one > r_edges[0]])
    closed = span > TWOPI - 1e-12  # then the first and last rays are one edge
    u = np.exp(1j * (phi_edges[:-1] if closed else phi_edges))[:, None]
    rays = _flux(F, r_panels, r_edges, lambda r: (r * u, u))  # one row per ray
    rays = np.concatenate([rays, rays[:1]]) if closed else rays
    hyperbolic = r_edges**2 / ((1.0 - r_edges) * (1.0 + r_edges))
    return (np.outer(np.diff(hyperbolic), np.diff(phi_edges)) / TWOPI
            + (np.diff(arcs, axis=0) - np.diff(rays, axis=0).T) / (4.0 * PI))


def run_experiment(config: ExperimentConfig) -> RadialProfile:
    """Replicated sampling -> roots -> binning, with the analytic column.

    The replicas are sampled, then rooted and binned, on the threads of
    ``sampling._in_slices``.  Deterministic for a fixed seed whatever the
    thread count: replica results are reduced in index order.
    """
    F = config.F
    r_edges = np.linspace(0.0, config.r_max, config.r_bins + 1)
    phi_edges = np.linspace(-PI, PI, config.phi_bins + 1)
    caveat = ""
    # mass of the discarded series tail relative to the variance at r_max
    tail = config.r_max ** (2 * (config.N + 1)) / (1.0 - config.r_max**2)
    if tail > _TRUNCATION_RATIO:
        caveat = (f"truncation tail ratio {tail:.2e} at r_max={config.r_max} "
                  f"for N={config.N}; counts near the outer edge may be biased")
        warnings.warn(caveat, TruncationBiasWarning, stacklevel=2)

    blocks = sample_blocks(F, config.N, config.replicas, config.seed)
    hists = [None] * len(blocks)
    _in_slices(len(blocks), lambda lo, hi: _replica_counts(hists, blocks, lo, hi, r_edges,
                                                           phi_edges))
    stack = np.stack(hists)
    mean = stack.mean(axis=0)
    se = (stack.std(axis=0, ddof=1) / math.sqrt(config.replicas) if config.replicas > 1
          else np.zeros_like(mean))
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
    meta = [str(profile.replicas), str(profile.N), str(profile.seed)]
    for i in range(profile.r_edges.size - 1):
        for j in range(profile.phi_edges.size - 1):
            cell = (profile.r_edges[i], profile.r_edges[i + 1], profile.phi_edges[j],
                    profile.phi_edges[j + 1], profile.empirical_mean[i, j],
                    profile.empirical_se[i, j], profile.analytic[i, j])
            yield dict(zip(_COLUMNS, [repr(float(v)) for v in cell] + meta))


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
    r_edges = np.array(sorted({float(row[k]) for row in rows for k in ("r_lo", "r_hi")}))
    phi_edges = np.array(sorted({float(row[k]) for row in rows for k in ("phi_lo", "phi_hi")}))
    r_los, phi_los = r_edges[:-1].tolist(), phi_edges[:-1].tolist()
    cells = {key: np.zeros((len(r_los), len(phi_los)))
             for key in ("empirical_mean", "empirical_se", "analytic")}
    for row in rows:
        i = r_los.index(float(row["r_lo"]))
        j = phi_los.index(float(row["phi_lo"]))
        for key, grid in cells.items():
            grid[i, j] = float(row[key])
    first = rows[0] if rows else dict.fromkeys(("replicas", "N", "seed"), 0)
    return RadialProfile(r_edges=r_edges, phi_edges=phi_edges, **cells,
                         replicas=int(first["replicas"]), N=int(first["N"]),
                         seed=int(first["seed"]), **meta)
