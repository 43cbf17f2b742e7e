"""Analytic-continuation diagnostics of the random series.

The local convergence radius at a point r inside the disk is read off the
derivative variances

    var_k(r) = int (1 - 2 r cos t + r^2)^(-(k+1)) dF(t),

whose log is eventually linear in k: rho(r) = lim var_k^(-1/2k).  Arcs of the
circle outside the support of the measure are exactly the directions across
which the series continues; each such arc, of center c and half-width delta,
comes with the computable bound rho(r e^{ic}) >= (1 - 2 r cos(delta) + r^2)^(1/2)
at the point facing its middle.
"""

from __future__ import annotations

import json
import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError, TailWarning
from .periodic import PI, TWOPI, one_minus_cos, panel_nodes, wrap_angle
from .poisson import graded_edges
from .spectral import SpectralMeasure

__all__ = [
    "variance_alpha", "log_variance_alpha", "rho_local", "classify_arcs",
    "Arc", "arc_radius_bound", "ContinuationReport", "continuation_report",
]


#: panel ratio of the variance rule (the depth check of variance_alpha uses 2)
_RATIO = 8


def _log_weights(F: SpectralMeasure, r: float, k_max: int, ratio: int = _RATIO):
    """Quadrature nodes for the variance integrals: log-density weights and
    log d at each node/atom, d = 1 - 2r cos t + r^2 the squared distance
    from r to e^{it}.

    The variance rule is the kernel rule of :mod:`.poisson` with panel ratio
    8 and floor 16 sqrt(k_max + 1), graded toward the centers of
    :func:`_support`: the local maxima of the high-k integrand over the
    support.  Against a 64-point rule of ratio 2 and floor 8192, graded
    toward 0 and every breakpoint, log var_k agrees within
    2.5e-14 max(1, |log var_k|) for k_max = 512 and 2048 and r up to
    1 - 1e-9: on supports that hold direction 0, lie away from it, wrap
    through pi or have tied ends, and on trig and atom mixes.
    """
    if not 0.0 < r < 1.0:
        raise DomainError("radius must lie strictly inside (0, 1)")
    parts_logw = []
    parts_logd = []
    if F.density is not None:
        dens = F.density
        floor = 16.0 * math.sqrt(k_max + 1.0)
        pts, wts = panel_nodes(graded_edges(r, dens.breakpoints, _support(dens)[1], floor,
                                            _ratio=ratio))
        vals = dens(pts) * wts
        keep = vals > 0.0
        parts_logw.append(np.log(vals[keep]))
        parts_logd.append(np.log((1.0 - r) ** 2 + 2.0 * r * one_minus_cos(pts[keep])))
    for t, m in F.atoms:
        parts_logw.append(np.array([math.log(m)]))
        parts_logd.append(np.array([math.log((1.0 - r) ** 2 + 2.0 * r * one_minus_cos(t))]))
    if not sum(w.size for w in parts_logw):
        raise DomainError("measure carries no mass")
    return np.concatenate(parts_logw), np.concatenate(parts_logd)


#: blocks per matrix product: bounds the exponent matrix for any number of orders
_BLOCKS_PER_PRODUCT = 64


def _log_moments(logw, logd, ks):
    """log sum_j exp(logw_j - (k+1) logd_j) for every integer k in ``ks``,
    blocked as :func:`log_variance_alpha` describes."""
    ks = np.asarray(ks, dtype=float)
    flat = ks.ravel()
    if not np.all(flat == np.round(flat)):
        raise DomainError("derivative orders k must be integers")
    order = np.argsort(flat)
    sk = flat[order]
    gain = -logd
    reach = float(np.max(gain)) - min(float(np.min(gain)), 0.0)
    block = 32 if 32.0 * reach <= 700.0 else max(1, int(700.0 / reach))
    table = np.ones((min(block, int(sk[-1] - sk[0]) + 1), gain.size))
    step = np.exp(gain)
    for i in range(1, len(table)):
        np.multiply(table[i - 1], step, out=table[i])
    sorted_ks = sk.tolist()
    starts = [0]  # block starts, closed by the sentinel sk.size
    while starts[-1] < sk.size:
        starts.append(bisect_left(sorted_ks, sorted_ks[starts[-1]] + block, starts[-1]))
    out = np.empty_like(flat)
    for c in range(0, len(starts) - 1, _BLOCKS_PER_PRODUCT):
        cut = starts[c:c + _BLOCKS_PER_PRODUCT + 1]
        k0 = sk[cut[:-1]]
        a = logw + np.multiply.outer(k0 + 1.0, gain)
        m = np.max(a, axis=1)
        a -= m[:, None]
        sums = np.exp(a, out=a) @ table.T
        b = np.repeat(np.arange(k0.size), np.diff(cut))
        rows = (sk[cut[0]:cut[-1]] - k0[b]).astype(int)
        out[order[cut[0]:cut[-1]]] = m[b] + np.log(sums[b, rows])
    return out.reshape(ks.shape)


def log_variance_alpha(F: SpectralMeasure, r: float, k) -> np.ndarray:
    """log of the k-th derivative variance, vectorized over k (overflow-free).

    k may be an integer or an array of integers in any order, with repeats
    and gaps.  All orders share one quadrature rule, graded for the largest
    k.  The sorted orders are cut into blocks lying within B of the block's
    first order k0.  The exponents logw_j - (k0 + 1) logd_j of all blocks form
    one matrix, each row shifted by its maximum, that takes a single exp and
    one matrix product with the power table P[i, j] = exp(-i logd_j), i < B
    (64 blocks per product at most).  P is built once per call from one exp
    and one product per row, so P[i] carries at most 2i - 1 roundings of
    2^-53: below 7e-15 relative.  B is at most 32 and satisfies
    B * (max_j(-logd_j) + max(0, max_j logd_j)) <= 700, so no table entry or
    block sum can overflow, and a term that underflowed at k0 cannot grow
    back into significance within its block.  Near r -> 1 with mass at
    direction 0, -logd reaches -2 log(1 - r) and B shrinks on its own
    (16 at r = 1 - 1e-9).

    The rule is the variance rule of :func:`_log_weights`, checked there to
    2.5e-14 max(1, |log var_k|) against a refined rule.
    """
    ks = np.asarray(k, dtype=float)
    logw, logd = _log_weights(F, r, int(ks.max()))
    out = _log_moments(logw, logd, ks)
    return out if np.ndim(k) else float(out)


def variance_alpha(F: SpectralMeasure, r: float, k: int) -> float:
    """Variance of the k-th Taylor coefficient of the series centered at r.

    Evaluated in log space; may overflow to inf for large k when the measure
    charges the direction of r (use :func:`log_variance_alpha` there).
    Every call also evaluates the dense twin of the variance rule (panel
    ratio 2, same centers and floor) and raises PrecisionError where the two
    disagree beyond 1e-6 relative.
    """
    lv = log_variance_alpha(F, r, int(k))
    if F.density is not None:
        # embedded accuracy check: the same centers and floor on the dense
        # ratio-2 panels
        logw, logd = _log_weights(F, r, int(k), ratio=2)
        lv2 = float(_log_moments(logw, logd, int(k)))
        if abs(lv2 - lv) > 1e-6:
            raise PrecisionError(
                f"variance quadrature disagrees between depths: {lv} vs {lv2}",
                achievable=abs(lv2 - lv))
    return float(np.exp(lv)) if lv < 709.0 else math.inf


def _tail_orders(k_max: int) -> np.ndarray:
    if k_max < 64:
        raise DomainError("tail extrapolation needs k_max >= 64")
    return np.array([k_max // 4, k_max // 2, k_max], dtype=float)


def _rho_from_tail(ks: np.ndarray, lv: np.ndarray) -> float:
    """rho from log var_k at three geometric orders; called directly by the
    public functions, so the TailWarning points at their caller."""
    a1 = (lv[1] - lv[0]) / (ks[1] - ks[0])
    a2 = (lv[2] - lv[1]) / (ks[2] - ks[1])
    slope = 2.0 * a2 - a1
    if abs(a2 - a1) > 0.01 * max(abs(slope), 1e-30):
        warnings.warn(
            f"variance tail has not settled: slopes {a1:.6g} vs {a2:.6g}; "
            f"raw log-variances {list(zip(ks.tolist(), lv.tolist()))}",
            TailWarning, stacklevel=3)
    return math.exp(-0.5 * slope)


def rho_local(F: SpectralMeasure, r: float, k_max: int = 512) -> float:
    """Local convergence radius estimate var_k^(-1/2k) extrapolated in k.

    Uses log-variances at k_max/4, k_max/2, k_max: the two slopes of
    log var_k are Richardson-combined (2 a2 - a1), which cancels the
    log(k)/k correction of Laplace-type tails exactly for geometric k.
    A TailWarning (carrying the raw sequence) fires when the two slopes
    disagree by more than 1 percent.
    """
    ks = _tail_orders(k_max)
    return _rho_from_tail(ks, log_variance_alpha(F, r, ks))


# ---------------------------------------------------------------------------
# support classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Arc:
    """Circle arc from lo to hi (radians, hi may exceed pi to wrap);
    degenerate lo == hi marks a single point."""

    lo: float
    hi: float
    kind: str  # "regular" | "singular"

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))

    @property
    def half_width(self) -> float:
        return 0.5 * (self.hi - self.lo)

    @property
    def center(self) -> float:
        return float(wrap_angle(0.5 * (self.hi + self.lo)))


def arc_radius_bound(arc: Arc, r: float) -> float:
    """Lower bound on the local radius at the point r e^{i arc.center},
    which faces the middle of a regular arc: its distance to the arc's ends,
    (1 - 2r cos(delta) + r^2)^(1/2) for the half-width delta.  It is measured
    from that point, not from the real point r of a report, unless the arc
    is centered on direction 0."""
    if arc.kind != "regular":
        raise DomainError("bound applies to regular arcs")
    delta = arc.half_width
    return math.sqrt(1.0 - 2.0 * r * math.cos(delta) + r * r)


#: coefficients, probe values and arc widths at or below this count as zero
_ZERO_TOL = 1e-12

#: midpoints at which a one-piece density is checked for sign
_SIGN_POINTS = 4096


def _support(dens):
    """The support of a density, cached on it (an error is not): its runs
    and the centers of the variance rule (:func:`_log_weights`).

    Runs are the sorted merged (lo, hi) of the pieces whose coefficients are
    not all zero (piece i + 1 covers (b[i], b[i + 1]]); a run through pi
    ends past pi.  A nonzero trig polynomial vanishes at isolated points
    only, so one such piece is full support once it is seen to be
    nonnegative: without evaluation when c_0 >= sum_{k != 0} |c_k|, else at
    ``_SIGN_POINTS`` midpoints, where a value below -_ZERO_TOL raises
    DomainError.

    Centers are the local maxima over the closed support of the high-k
    integrand d(t)^-(k+1), d = 1 - 2r cos t + r^2.  d grows with |t|, so
    they are 0 when the closed support holds it, and each breakpoint from
    which a run leads away from 0: a run's lo in [0, pi) or its hi in
    (-pi, 0].  The support point nearest 0 is one of them; a massless
    density gets (0.0,)."""
    if dens._runs is not None:
        return dens._runs
    if not dens.breakpoints.size:
        p = dens.pieces[0][0]
        if 2.0 * p.c[p.degree].real < np.abs(p.c).sum():  # c_0 < sum_{k != 0} |c_k|
            probe = -PI + TWOPI * (np.arange(_SIGN_POINTS) + 0.5) / _SIGN_POINTS
            if np.min(dens(probe)) < -_ZERO_TOL:
                raise DomainError("density is negative")
    breaks = list(dens.breakpoints) or [-PI]
    n = len(breaks)
    live = [np.max(np.abs(p.c)) > _ZERO_TOL for p, _ in dens.pieces]
    runs: list[tuple[float, float]] = []
    for i, (lo, hi) in enumerate(zip(breaks, breaks[1:] + [breaks[0] + TWOPI])):
        if not live[(i + 1) % n]:
            continue
        if runs and runs[-1][1] == lo:
            runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((lo, hi))
    if len(runs) > 1 and runs[-1][1] == runs[0][0] + TWOPI:
        runs = runs[1:-1] + [(runs[-1][0], runs[0][1] + TWOPI)]
    # live[i] ends at b[i] and live[i + 1] starts there: a run's lo or hi
    centers = {b for i, b in enumerate(breaks) if live[i] != live[(i + 1) % n] and
               (0.0 <= b < PI if live[(i + 1) % n] else -PI < b <= 0.0)}
    if live[bisect_left(breaks, 0.0) % n]:
        centers.add(0.0)
    dens._runs = (tuple(runs), tuple(sorted(centers)) or (0.0,))
    return dens._runs


def classify_arcs(F: SpectralMeasure) -> list[Arc]:
    """Partition the circle into maximal arcs outside/inside the support.

    One sweep over the support runs of the density (see :func:`_support`):
    each run is a singular arc, and the gap up to the next run is regular,
    split at the atoms outside the support, each a singular point.  Without
    support the first atom seeds the sweep, so a purely atomic measure and
    a zero density plus atoms give the same arcs.  A repeated atom location
    counts as one point.  Arcs are sorted by lo; a regular arc may wrap
    through pi, so its hi can exceed pi.
    """
    runs = _support(F.density)[0] if F.density is not None else ()
    if sum(hi - lo for lo, hi in runs) >= TWOPI - _ZERO_TOL:
        return [Arc(lo=-PI, hi=PI, kind="singular")]
    points = sorted({t for t, _ in F.atoms
                     if not any(lo - _ZERO_TOL <= u <= hi + _ZERO_TOL
                                for lo, hi in runs for u in (t, t + TWOPI))})
    if not runs:
        if not points:
            raise DomainError("measure carries no mass")
        runs = [(points[0], points[0])]
    arcs: list[Arc] = []
    ends = [lo for lo, _ in runs[1:]] + [runs[0][0] + TWOPI]
    for (lo, cur), end in zip(runs, ends):
        arcs.append(Arc(lo=lo, hi=cur, kind="singular"))
        for t in sorted(u for t in points for u in (t, t + TWOPI) if cur < u < end):
            if t - cur > _ZERO_TOL:
                arcs.append(Arc(lo=cur, hi=t, kind="regular"))
            arcs.append(Arc(lo=t, hi=t, kind="singular"))
            cur = t
        if end - cur > _ZERO_TOL:
            arcs.append(Arc(lo=cur, hi=end, kind="regular"))
    arcs.sort(key=lambda a: a.lo)
    return arcs


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContinuationReport:
    r: float
    k_max: int
    log_var_sequence: np.ndarray
    rho_estimate: float
    arcs: list[Arc]
    F_label: str = ""

    def to_json(self) -> str:
        """The report as JSON.  A regular arc's ``radius_bound`` is
        :func:`arc_radius_bound`, the distance to the arc's ends from the
        point ``radius_bound_from`` = (x, y) of r e^{i arc.center}, not from
        the report's point r."""
        payload = {
            "r": self.r,
            "k_max": self.k_max,
            "rho_estimate": self.rho_estimate,
            "F_label": self.F_label,
            "log_var_sequence": [float(v) for v in self.log_var_sequence],
            "var_sequence": [math.exp(v) if v < 709.0 else None
                             for v in self.log_var_sequence],
            "arcs": [{"lo": a.lo, "hi": a.hi, "kind": a.kind,
                      "radius_bound": (arc_radius_bound(a, self.r)
                                       if a.kind == "regular" else None),
                      "radius_bound_from": ([self.r * math.cos(a.center),
                                             self.r * math.sin(a.center)]
                                            if a.kind == "regular" else None)}
                     for a in self.arcs],
        }
        return json.dumps(payload, indent=1)


def continuation_report(F: SpectralMeasure, r: float, k_max: int = 512) -> ContinuationReport:
    """Variance tail, radius estimate, and arc classification in one record;
    the estimate reads the orders :func:`rho_local` uses off that tail."""
    tail = _tail_orders(k_max)
    lv = log_variance_alpha(F, r, np.arange(0, k_max + 1))
    rho = _rho_from_tail(tail, lv[tail.astype(int)])
    return ContinuationReport(r=float(r), k_max=int(k_max), log_var_sequence=lv,
                              rho_estimate=rho, arcs=classify_arcs(F), F_label=F.label)
