"""Per-layer metrics, read off the spans of a traced pass.

Timings are medians per call.  A metric is absent when the pass recorded no
span it needs; run.py then takes it from another workload's traced step.
"""

from __future__ import annotations

import statistics


def _p50(scale, name, **match):
    def get(tr):
        d = tr.durations(name, **match)
        return statistics.median(d) * scale if d else None
    return get


def _attrs(tr, name, key):
    return [s[key] for s in tr.named(name) if s.get(key) is not None]


def _max(name, key):
    def get(tr):
        vals = _attrs(tr, name, key)
        return max(vals) if vals else None
    return get


def _median_attr(name, key):
    def get(tr):
        vals = _attrs(tr, name, key)
        return statistics.median(vals) if vals else None
    return get


def _sum_attr(name, key):
    def get(tr):
        spans = tr.named(name)
        return sum(s.get(key, 0) for s in spans) if spans else None
    return get


def _binned_frac(tr):
    found = sum(_attrs(tr, "zeros.find_roots", "roots"))
    binned = sum(_attrs(tr, "experiments.binning", "binned"))
    return binned / found if found else None


#: name -> (unit, reader)
LAYERS = {
    "sampling.block_ms": ("ms", _p50(1e3, "sampling.sample_block")),
    "sampling.spectral_nodes_ms": ("ms", _p50(1e3, "sampling.spectral_nodes")),
    "sampling.blocks_ms": ("ms", _p50(1e3, "sampling.sample_blocks")),
    "sampling.grid_nodes": ("count", _max("sampling.spectral_nodes", "nodes")),
    "zeros.find_roots_ms": ("ms", _p50(1e3, "zeros.find_roots")),
    "zeros.residual_max": ("ratio", _max("zeros.find_roots", "residual")),
    "zeros.solver_errors": ("count", _sum_attr("zeros.find_roots", "solver_error")),
    "zeros.find_roots_calls": ("count", lambda tr: len(tr.named("zeros.find_roots")) or None),
    "zeros.roots_binned_frac": ("ratio", _binned_frac),
    "experiments.analytic_cells_s": ("s", _p50(1.0, "experiments.analytic_cell_counts")),
    "intensity.rho1_ms.trig": ("ms", _p50(1e3, "intensity.rho1", kind="trig")),
    "intensity.rho1_ms.step": ("ms", _p50(1e3, "intensity.rho1", kind="step")),
    "intensity.rho1_ms.atoms": ("ms", _p50(1e3, "intensity.rho1", kind="atoms")),
    "intensity.rho1_ms.mixed": ("ms", _p50(1e3, "intensity.rho1", kind="mixed")),
    "intensity.route_gap_max": ("ratio", _max("intensity.route_check", "gap")),
    "spectral.relative_density_us": ("us", _p50(1e6, "spectral.relative_density")),
    "poisson.rule_us": ("us", _p50(1e6, "poisson.rule")),
    "poisson.rule_nodes": ("count", _median_attr("poisson.rule", "nodes")),
    "poisson.P_op_us": ("us", _p50(1e6, "poisson.P_op")),
    "asymptotics.boundary_ms": ("ms", _p50(1e3, "asymptotics.rho1_boundary")),
    "asymptotics.expansion_gap_max": ("ratio", _max("asymptotics.rho1_boundary", "gap")),
    "asymptotics.known_defect_profiles": (
        "count", _sum_attr("asymptotics.rho1_boundary", "known_defect")),
    "continuation.log_variance_ms": ("ms", _p50(1e3, "continuation.log_variance_alpha")),
    "continuation.rho_local_ms": ("ms", _p50(1e3, "continuation.rho_local")),
    "continuation.classify_arcs_ms": ("ms", _p50(1e3, "continuation.classify_arcs")),
}

#: every per-layer metric a traced run prints, overhead included
NAMES = list(LAYERS) + ["trace.overhead_s", "trace.overhead_frac"]


def layer_metrics(tracer) -> dict:
    out = {}
    for name, (unit, read) in LAYERS.items():
        value = read(tracer)
        if value is not None:
            out[name] = (value, unit)
    return out
