"""Analytic-continuation diagnostics of the random series.

The local convergence radius at a point r inside the disk is read off the
derivative variances

    var_k(r) = int (1 - 2 r cos t + r^2)^(-(k+1)) dF(t),

whose log is eventually linear in k: rho(r) = lim var_k^(-1/2k).  Arcs of the
circle outside the support of the measure are exactly the directions across
which the series continues; each such arc, of center c and half-width delta,
comes with the computable bound at the point facing its middle,
rho(r e^{ic}) >= ((1 - r)^2 + 4 r sin^2(delta/2))^(1/2).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PrecisionError, TailWarning
from .periodic import _ZERO_TOL, PI, TWOPI, one_minus_cos, panel_nodes, power_table, wrap_angle
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
    :func:`_rule_centers`: the local maxima of the high-k integrand over the
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
        pts, wts = panel_nodes(graded_edges(r, dens.breakpoints, _rule_centers(dens), floor,
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
#: shifted exponents below this are dropped, so no term is subnormal
_EXP_FLUSH = -663.0


def _log_moments(logw, logd, ks):
    """log sum_j exp(logw_j - (k+1) logd_j) for every nonnegative integer k
    in ``ks``, blocked as :func:`log_variance_alpha` describes."""
    ks = np.asarray(ks, dtype=float)
    gain = -logd
    reach = float(np.max(gain)) - min(float(np.min(gain)), 0.0)
    block = 32 if 32.0 * reach <= 618.0 else max(1, int(618.0 / reach))
    lo = int(ks.min())
    span = int(ks.max()) - lo + 1
    at = (ks - lo).astype(int)  # each order's place in the flat output
    blocks = np.arange(-(-span // block))
    if blocks.size > max(ks.size, _BLOCKS_PER_PRODUCT):
        # fewer orders than blocks in the span: only the blocks that hold one
        blocks, rank = np.unique(at // block, return_inverse=True)
        at = rank * block + at % block
    table = power_table(np.exp(gain), min(block, span))
    k0 = lo + block * blocks.astype(float)
    out = np.empty((k0.size, len(table)))
    for c in range(0, k0.size, _BLOCKS_PER_PRODUCT):
        a = logw + np.multiply.outer(k0[c:c + _BLOCKS_PER_PRODUCT] + 1.0, gain)
        m = np.max(a, axis=1)
        a -= m[:, None]
        np.copyto(a, -np.inf, where=a < _EXP_FLUSH)
        np.log(np.exp(a, out=a) @ table.T, out=out[c:c + _BLOCKS_PER_PRODUCT])
        out[c:c + _BLOCKS_PER_PRODUCT] += m[:, None]
    return out.ravel()[at]


def log_variance_alpha(F: SpectralMeasure, r: float, k) -> np.ndarray:
    """log of the k-th derivative variance, vectorized over k (overflow-free).

    k may be a nonnegative integer or an array of them in any order, with
    repeats and gaps; anything else raises DomainError before any
    quadrature.  All orders share one quadrature rule, graded for the
    largest k.  The span min k .. max k is cut into blocks of B orders that
    start at k0 = min k, min k + B, ...; one pass evaluates every block, or
    only those holding an order when they are fewer (and over 64 blocks).
    A scalar k costs one block of one order.  The exponents
    logw_j - (k0 + 1) logd_j form one matrix, each row shifted by its
    maximum; shifted exponents below -663 are dropped, then the matrix takes
    a single exp and one matrix product with the power table
    P[i, j] = exp(-i logd_j), i < B (64 blocks per product at most).  P is
    built by doubling from one exp, P[h:2h] = P[:h] P[h], so P[i] carries at
    most 2i - 1 roundings of 2^-53: below 7e-15 relative.  B is at most 32
    and satisfies B * (max_j(-logd_j) + max(0, max_j logd_j)) <= 618.  No
    table entry or block sum can overflow; with d <= 4 every table entry is
    at least e^-44.4, so no exp result, table product or block sum is
    subnormal; and a dropped term stays below e^-45 of its block sum.  Near
    r -> 1 with mass at direction 0, -logd reaches -2 log(1 - r) and B
    shrinks on its own (14 at r = 1 - 1e-9).

    The rule is the variance rule of :func:`_log_weights`, checked there to
    2.5e-14 max(1, |log var_k|) against a refined rule.
    """
    ks = np.asarray(k, dtype=float)
    if not np.all(ks == np.round(ks)) or ks.min() < 0.0:
        raise DomainError("derivative orders k must be nonnegative integers")
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
    ((1 - r)^2 + 4r sin^2(delta/2))^(1/2) for the half-width delta, a form that
    keeps its digits on a narrow arc near the circle.  It is measured from that
    point, not from the real point r of a report, unless the arc is centered on 0."""
    if arc.kind != "regular":
        raise DomainError("bound applies to regular arcs")
    return math.sqrt((1.0 - r) ** 2 + 4.0 * r * math.sin(0.5 * arc.half_width) ** 2)


def _rule_centers(dens):
    """The centers of the variance rule (:func:`_log_weights`): the local maxima of the
    high-k integrand d(t)^-(k+1), d = 1 - 2r cos t + r^2, over the closed support.  d
    grows with |t|, so they are 0 where a run of ``PeriodicFunction.support`` holds it
    and each run end that leads away from 0: a lo in [0, pi) or a hi in (-pi, 0], a hi
    past pi read as the breakpoint it wraps, which hi - 2 pi can miss by an ulp.  The
    whole circle and a massless density get (0.0,)."""
    breaks, centers = dens.breakpoints, set()
    for lo, hi in dens.support():
        if hi == lo + TWOPI:  # the whole circle, the only run: no ends
            return (0.0,)
        end = hi if hi <= PI else float(breaks[np.argmin(np.abs(breaks - (hi - TWOPI)))])
        if 0.0 <= lo < PI:
            centers.add(lo)
        if -PI < end <= 0.0:
            centers.add(end)
        if (lo <= 0.0 <= end) if hi <= PI else (lo <= 0.0 or 0.0 <= end):
            centers.add(0.0)
    return tuple(sorted(centers)) or (0.0,)


def classify_arcs(F: SpectralMeasure) -> list[Arc]:
    """Partition the circle into maximal arcs outside/inside the support.

    One sweep over the runs of the density's support (``PeriodicFunction.support``)
    and the atoms outside them as one-point runs, placed in the turn from the first
    run's lo (or -pi): a singular arc per run, a regular arc per gap wider than
    _ZERO_TOL.  A purely atomic measure and a zero density plus atoms give the same
    arcs, and a repeated atom location counts as one point.  Arcs come sorted by
    lo; a regular arc may wrap through pi, so its hi can exceed pi.
    """
    runs = list(F.density.support()) if F.density is not None else []
    if sum(hi - lo for lo, hi in runs) >= TWOPI - _ZERO_TOL:
        return [Arc(lo=-PI, hi=PI, kind="singular")]
    points = {t for t, _ in F.atoms
              if not any(lo - _ZERO_TOL <= u <= hi + _ZERO_TOL
                         for lo, hi in runs for u in (t, t + TWOPI))}
    if not runs and not points:
        raise DomainError("measure carries no mass")
    start = runs[0][0] if runs else -PI
    runs = sorted(runs + [(t, t) if t >= start else (t + TWOPI, t + TWOPI) for t in points])
    arcs: list[Arc] = []
    for (lo, hi), (end, _) in zip(runs, runs[1:] + [(runs[0][0] + TWOPI, None)]):
        arcs.append(Arc(lo=lo, hi=hi, kind="singular"))
        if end - hi > _ZERO_TOL:
            arcs.append(Arc(lo=hi, hi=end, kind="regular"))
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
