"""The four benchmark workloads.

Each workload turns the run seed into a deterministic stream of operations
on the library's public API, times the operation a user waits for, and
checks every output.  ``step`` runs the next operation of the stream; with a
tracer it also records spans around each layer call and then times the
sub-layer public functions on the same inputs (the "breakdown"), outside the
timed region.  ``tell`` and ``seek`` replay a step, so a traced step sees
exactly the inputs of the untraced step before it.
"""

from __future__ import annotations

import cmath
import math
import time

import numpy as np

import gafzeros as gz
from gafzeros import presets
from gafzeros.errors import GafError, SolverError
from gafzeros.periodic import panel_nodes
from gafzeros.poisson import graded_edges
from gafzeros.sampling import spectral_nodes

from spans import NullTracer

clock = time.perf_counter
PI = math.pi
NULL = NullTracer()

INDICATOR = "indicator:lo=-1.5707963267948966,hi=1.5707963267948966"
MIX = "mix:0.5*uniform+0.5*atoms:[(0,1)]"
TWO_ATOMS = "atoms:[(0,0.5),(3.141592653589793,0.5)]"


class Tally:
    """Outcomes of one pass: latencies, throughput items, failures."""

    def __init__(self):
        self.latencies: list[float] = []   # seconds per timed operation
        self.items = 0                     # units of work completed
        self.busy = 0.0                    # seconds spent in timed calls
        self.attempted = 0
        self.failures: list[str] = []
        self.known_defects: list[str] = []
        self.notes: dict[str, float] = {}
        self.marks: list[tuple] = []       # (operations, items, busy) after each step

    def mark(self) -> None:
        self.marks.append((len(self.latencies), self.items, self.busy))

    def timed(self, seconds: float, items: int = 1) -> None:
        self.latencies.append(seconds)
        self.busy += seconds
        self.items += items

    def record(self, label: str, reasons: list[str]) -> None:
        """One attempted operation; it failed if any reason is given."""
        self.attempted += 1
        if reasons:
            self.failures.append(f"{label}: {'; '.join(reasons)}")

    def note_max(self, key: str, value: float) -> None:
        self.notes[key] = max(self.notes.get(key, -math.inf), value)

    def note_count(self, key: str) -> None:
        self.notes[key] = self.notes.get(key, 0) + 1


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _angle_dist(a: float, b: float) -> float:
    return abs((a - b + PI) % (2.0 * PI) - PI)


class Workload:
    name = ""
    min_steps = 3
    #: runs stop on a multiple of this many steps, so every run holds the
    #: same mix of inputs
    cycle = 1

    def __init__(self, seed: int):
        self.index = 0
        self.rng = np.random.default_rng([int(seed), sum(map(ord, self.name))])

    def tell(self):
        return self.index, self.rng.bit_generator.state

    def seek(self, position) -> None:
        self.index, self.rng.bit_generator.state = position

    def step(self, tally: Tally, tracer=None) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def aliases(self, p50_ms: float, p95_ms: float, per_s: float) -> dict:
        """The workload's own names for the end-to-end figures."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# experiment: the default `gafzeros experiment` at a reduced replica count
# ---------------------------------------------------------------------------


class Experiment(Workload):
    name = "experiment"
    min_steps = 2
    N, REPLICAS, R_BINS, PHI_BINS, R_MAX = 400, 8, 6, 8, 0.95

    def __init__(self, seed: int):
        self.F = presets.parse_preset("uniform")
        self.r_edges = np.linspace(0.0, self.R_MAX, self.R_BINS + 1)
        self.phi_edges = np.linspace(-PI, PI, self.PHI_BINS + 1)
        # uniform case: the density 1/(pi (1-r^2)^2) integrates to
        # r^2/(1-r^2) over the disk of radius r, split evenly in phi
        ring = np.diff(self.r_edges**2 / (1.0 - self.r_edges**2))
        self.exact = np.repeat(ring[:, None] / self.PHI_BINS, self.PHI_BINS, axis=1)
        self.untraced: dict[int, tuple] = {}
        self.grid_size = None
        super().__init__(seed)

    def warmup(self) -> None:
        block = gz.sample_block(self.F, self.N, 1)
        gz.find_roots(block.values)

    def step(self, tally: Tally, tracer=None) -> None:
        i = self.index
        self.index += 1
        op_seed = int(self.rng.integers(2**32))
        label = f"experiment op={i} seed={op_seed}"
        reasons = []
        try:
            t0 = clock()
            if tracer is None:
                prof = gz.run_experiment(gz.ExperimentConfig(
                    F=self.F, N=self.N, replicas=self.REPLICAS, r_bins=self.R_BINS,
                    phi_bins=self.PHI_BINS, r_max=self.R_MAX, seed=op_seed, workers=1))
                out = (prof.empirical_mean, prof.empirical_se, prof.analytic)
            else:
                out = self._replay(i, op_seed, tracer)
            dt = clock() - t0
        except GafError as exc:
            tally.record(label, [_error(exc)])
            return
        tally.timed(dt)
        mean, se, analytic = out
        if tracer is None:
            self.untraced[i] = out
        elif i in self.untraced:
            ref_mean, _, ref_analytic = self.untraced[i]
            if not (np.array_equal(ref_mean, mean) and np.array_equal(ref_analytic, analytic)):
                reasons.append("traced replay differs from run_experiment")
            tally.note_count("replays_compared")
        rel = float(np.max(np.abs(analytic / self.exact - 1.0)))
        tally.note_max("analytic_rel_err_max", rel)
        if not rel <= 1e-5:
            reasons.append(f"analytic column off the closed form by {rel:.2e}")
        # sum of cell variances; zero counts in neighbouring cells are
        # negatively correlated, so this over-states the total's SE
        se_total = math.sqrt(float(np.sum(se**2)))
        z = abs(float(mean.sum() - analytic.sum())) / se_total if se_total > 0 else math.inf
        tally.note_max("total_z_max", z)
        if not z <= 4.0:
            reasons.append(f"empirical total {mean.sum():.3f} is {z:.1f} SE from "
                           f"analytic {analytic.sum():.3f}")
        tally.record(label, reasons)
        if tracer is not None:
            with tracer.span("sampling.spectral_nodes", i) as sp:
                nodes, _ = spectral_nodes(self.F, self.grid_size)
            sp["nodes"] = int(nodes.size)

    def histogram(self, roots: np.ndarray) -> np.ndarray:
        """Cell counts of one replica, binned exactly as run_experiment bins."""
        r = np.abs(roots)
        keep = (r >= self.r_edges[0]) & (r < self.r_edges[-1])
        h, _, _ = np.histogram2d(r[keep], np.angle(roots[keep]),
                                 bins=[self.r_edges, self.phi_edges])
        return h

    def _replay(self, i: int, op_seed: int, tracer):
        """run_experiment through its public steps, one span per layer call."""
        hists = []
        with tracer.span("experiments.run", i, seed=op_seed):
            for k in range(self.REPLICAS):
                with tracer.span("experiments.replica", i, replica=k):
                    with tracer.span("sampling.sample_block", i):
                        block = gz.sample_block(self.F, self.N, gz.replica_seed(op_seed, k))
                    self.grid_size = block.grid_size
                    with tracer.span("zeros.find_roots", i) as sp:
                        try:
                            zs = gz.find_roots(block.values)
                        except SolverError:
                            sp["solver_error"] = 1
                            raise
                        sp["residual"] = zs.residual
                        sp["roots"] = len(zs)
                    with tracer.span("experiments.binning", i) as sp:
                        h = self.histogram(zs.roots)
                        sp["binned"] = int(h.sum())
                    hists.append(h)
            with tracer.span("experiments.analytic_cell_counts", i):
                analytic = gz.analytic_cell_counts(self.F, self.r_edges, self.phi_edges)
        stack = np.stack(hists)
        se = stack.std(axis=0, ddof=1) / math.sqrt(self.REPLICAS)
        return stack.mean(axis=0), se, analytic

    def aliases(self, p50_ms, p95_ms, per_s):
        return {"experiment_s": (p50_ms / 1e3, "s")}


# ---------------------------------------------------------------------------
# density: rho1 ladders and boundary expansions, no sampling or rooting
# ---------------------------------------------------------------------------

#: radii 1 - 10^(-k/2), k = 2..9
RUNGS = [1.0 - 10.0 ** (-k / 2.0) for k in range(2, 10)]
#: seeded directions per preset per sweep
DIRECTIONS = 4
#: extra directions on each side of every jump of a step density
JUMP_OFFSET = 0.02
#: rho1_boundary is known to be wrong on the unsupported side of a jump
#: closer than this (the difference-quotient operator's 0.05 rad jet patch
#: reaches across the jump); failures there are reported as known defects
DEFECT_ZONE = 0.06


class _DensityPreset:
    def __init__(self, F, kind: str, fixed=()):
        self.F = F
        self.kind = kind
        self.label = F.label
        self.jumps = [float(b) for b in F.density.breakpoints]
        self.fixed = list(fixed) + [b + s * JUMP_OFFSET for b in self.jumps for s in (-1, 1)]
        self.features = self.jumps + [t for t, _ in F.atoms]
        self.is_uniform = F.label == "uniform"


class Density(Workload):
    name = "density"
    #: a pure atomic measure has no boundary expansion; its rho1 cost is
    #: sampled in the traced breakdown only
    ATOMS = TWO_ATOMS

    def __init__(self, seed: int):
        self.presets = [
            _DensityPreset(presets.parse_preset("uniform"), "trig"),
            _DensityPreset(presets.parse_preset("ma1:a=0.3"), "trig"),
            _DensityPreset(presets.parse_preset("ma1:a=0.5"), "trig", fixed=[PI]),
            _DensityPreset(presets.parse_preset(INDICATOR), "step"),
            _DensityPreset(presets.parse_preset(MIX), "mixed"),
            _DensityPreset(presets.random_trig_density(3), "trig"),
        ]
        self.atoms_F = presets.parse_preset(self.ATOMS)
        super().__init__(seed)

    def warmup(self) -> None:
        p = self.presets[0]
        gz.rho1_boundary(p.F, 0.5)
        for r in RUNGS:
            gz.rho1(p.F, r * cmath.exp(0.5j))

    def step(self, tally: Tally, tracer=None) -> None:
        i = self.index
        self.index += 1
        for p in self.presets:
            phis = list(self.rng.uniform(-PI, PI, DIRECTIONS)) + p.fixed
            for phi in phis:
                check_rung = int(self.rng.integers(len(RUNGS)))
                self._profile(p, float(phi), check_rung, i, tally, tracer)

    def _profile(self, p, phi, check_rung, i, tally, tracer):
        tr = tracer or NULL
        label = f"density {p.label} phi={phi:.6f}"
        with tr.span("density.profile", i, preset=p.label, phi=phi):
            t0 = clock()
            try:
                with tr.span("asymptotics.rho1_boundary", i) as bsp:
                    _, report = gz.rho1_boundary(p.F, phi)
            except GafError as exc:
                report = exc
            tally.busy += clock() - t0
            values = []
            for r in RUNGS:
                z = r * cmath.exp(1j * phi)
                t0 = clock()
                try:
                    with tr.span("intensity.rho1", i, kind=p.kind):
                        v = gz.rho1(p.F, z)
                except GafError as exc:
                    v = exc
                tally.timed(clock() - t0)
                values.append(v)

        for k, (r, v) in enumerate(zip(RUNGS, values)):
            reasons = []
            y = 1.0 - r * r
            if isinstance(v, Exception):
                reasons.append(_error(v))
            else:
                scaled = v * PI * y * y
                if not 0.0 <= scaled <= 1.0 + 1e-5:
                    reasons.append(f"rho1 pi y^2 = {scaled!r} outside [0, 1 + 1e-5]")
                if p.is_uniform and not abs(scaled - 1.0) <= 1e-9:
                    reasons.append(f"uniform rho1 pi y^2 = {scaled!r}, expected 1")
                if k == check_rung:
                    reasons += self._route_check(p, r * cmath.exp(1j * phi), v, i, tally, tr)
            tally.record(f"{label} r={r!r}", reasons)

        reasons = []
        if isinstance(report, Exception):
            reasons.append(_error(report))
        elif not any(isinstance(v, Exception) for v in values):
            checked = self._expansion_check(p, phi, report, values, tally)
            if checked is not None:
                gap, failed = checked
                bsp["gap"] = gap
                if failed and self._in_defect_zone(p, phi):
                    bsp["known_defect"] = 1
                    tally.known_defects.append(f"{label}: expansion gap {gap:.3g}")
                elif failed:
                    reasons.append(f"boundary expansion off rho1 by {gap:.3g}")
        tally.record(f"{label} boundary", reasons)

        if tracer is not None:
            self._breakdown(p, phi, i, tracer)

    def _route_check(self, p, z, v, i, tally, tr):
        with tr.span("intensity.route_check", i) as sp:
            try:
                ref = gz.rho1(p.F, z, "spectral_double")
            except GafError as exc:
                return [f"spectral_double: {_error(exc)}"]
        gap = abs(v - ref) / abs(ref) if ref else abs(v - ref)
        sp["gap"] = gap
        tally.note_max("route_gap_max", gap)
        return [] if gap <= 1e-7 else [f"auto vs spectral_double differ by {gap:.2e}"]

    def _expansion_check(self, p, phi, report, values, tally):
        """Relative gap between the expansion and rho1 up the radial ladder.

        The expansion is a limit statement, y -> 0 at a fixed direction, so
        it passes when the gap at the top rung is within 1e-3, and fails
        when the gap is larger and no longer shrinking: not three times
        smaller at the top rung than two rungs (a factor 10 in y) below.
        A larger gap that still shrinks is not yet asymptotic, and neither
        is a direction with (1 - r)/d^2 > 1 at the top rung, d being the
        distance to the nearest jump or atom; both go unchecked.
        Returns (gap at the top rung, failed), or None when unchecked.
        """
        r = RUNGS[-1]
        d = min((_angle_dist(phi, f) for f in p.features), default=math.inf)
        gaps = [abs(report(1.0 - x * x) - v) / v if v > 0 else math.inf
                for x, v in zip(RUNGS, values)]
        if (1.0 - r) > d * d or (gaps[-1] > 1e-3 and gaps[-3] >= 3.0 * gaps[-1]):
            tally.note_count("expansions_unchecked")
            return None
        tally.note_max("expansion_gap_max", gaps[-1])
        tally.note_count("expansions_checked")
        return gaps[-1], not gaps[-1] <= 1e-3

    def _in_defect_zone(self, p, phi) -> bool:
        near = any(_angle_dist(phi, b) < DEFECT_ZONE for b in p.jumps)
        return near and float(np.asarray(p.F.density(np.array([phi])))[0]) == 0.0

    def _breakdown(self, p, phi, i, tracer):
        with tracer.span("spectral.relative_density", i):
            f_hat = p.F.relative_density(phi).hat()
        for r in RUNGS:
            with tracer.span("poisson.rule", i) as sp:
                pts, _ = panel_nodes(graded_edges(r, f_hat.breakpoints))
            sp["nodes"] = int(pts.size)
            with tracer.span("poisson.P_op", i):
                gz.P_op(f_hat, r)
            with tracer.span("intensity.rho1", i, kind="atoms"):
                gz.rho1(self.atoms_F, r * cmath.exp(1j * phi))

    def aliases(self, p50_ms, p95_ms, per_s):
        return {"points_per_s": (per_s, "1/s"), "point_p50_ms": (p50_ms, "ms"),
                "point_p95_ms": (p95_ms, "ms")}


# ---------------------------------------------------------------------------
# continuation: reports at seeded radii
# ---------------------------------------------------------------------------


class Continuation(Workload):
    name = "continuation"
    K_MAX = 512
    #: (preset, expected local radius as a function of r, relative tolerance)
    PRESETS = [
        ("uniform", lambda r: 1.0 - r, 1e-3),
        ("atoms:[(0,1)]", lambda r: 1.0 - r, 1e-6),
        ("atoms:[(3.141592653589793,1)]", lambda r: 1.0 + r, 1e-6),
        (TWO_ATOMS, None, None),
        (INDICATOR, None, None),
        ("ma1:a=0.5", None, None),
        (MIX, None, None),
    ]

    def __init__(self, seed: int):
        self.measures = [(presets.parse_preset(t), f, tol) for t, f, tol in self.PRESETS]
        super().__init__(seed)

    def warmup(self) -> None:
        gz.continuation_report(self.measures[0][0], 0.5, k_max=self.K_MAX)

    def step(self, tally: Tally, tracer=None) -> None:
        i = self.index
        self.index += 1
        tr = tracer or NULL
        for F, expect, tol in self.measures:
            r = float(self.rng.uniform(0.1, 0.95))
            label = f"continuation {F.label} r={r!r}"
            t0 = clock()
            try:
                with tr.span("continuation.continuation_report", i, preset=F.label):
                    rep = gz.continuation_report(F, r, k_max=self.K_MAX)
            except GafError as exc:
                rep = exc
            tally.timed(clock() - t0)
            if isinstance(rep, Exception):
                tally.record(label, [_error(rep)])
                continue
            reasons = []
            rho = rep.rho_estimate
            if not (math.isfinite(rho) and rho > 0.0):
                reasons.append(f"rho estimate {rho!r}")
            elif expect is not None and not abs(rho / expect(r) - 1.0) <= tol:
                reasons.append(f"rho {rho!r}, expected {expect(r)!r} to {tol:g}")
            if F.label.startswith("indicator"):
                regular = [(a.lo, a.hi) for a in rep.arcs if a.kind == "regular"]
                if len(regular) != 1 or not (abs(regular[0][0] - PI / 2) <= 1e-12 and
                                             abs(regular[0][1] - 3 * PI / 2) <= 1e-12):
                    reasons.append(f"regular arcs {regular}, expected [(pi/2, 3pi/2)]")
            tally.record(label, reasons)
            if tracer is not None:
                self._breakdown(F, r, i, tracer)

    def _breakdown(self, F, r, i, tracer):
        with tracer.span("continuation.log_variance_alpha", i):
            gz.log_variance_alpha(F, r, np.arange(self.K_MAX + 1))
        with tracer.span("continuation.rho_local", i):
            gz.rho_local(F, r, self.K_MAX)
        with tracer.span("continuation.classify_arcs", i):
            gz.classify_arcs(F)
        if F.density is not None:
            # the variance integrals grade to (1 - r)/(16 sqrt(k_max + 1))
            with tracer.span("poisson.rule", i) as sp:
                pts, _ = panel_nodes(graded_edges(
                    r, F.density.breakpoints, floor_scale=16.0 * math.sqrt(self.K_MAX + 1.0)))
            sp["nodes"] = int(pts.size)

    def aliases(self, p50_ms, p95_ms, per_s):
        return {"reports_per_s": (per_s, "1/s"), "report_p50_ms": (p50_ms, "ms"),
                "report_p95_ms": (p95_ms, "ms")}


# ---------------------------------------------------------------------------
# sampler: batched blocks and their covariance statistics
# ---------------------------------------------------------------------------


class Sampler(Workload):
    name = "sampler"
    min_steps = cycle = 5
    N, BLOCKS, LAGS = 16, 4096, range(0, 9)
    #: the five measures of acceptance criterion 11
    PRESETS = ["uniform", "ma1:a=0.3", "ma1:a=0.5", INDICATOR, TWO_ATOMS]

    def __init__(self, seed: int):
        self.measures = [presets.parse_preset(t) for t in self.PRESETS]
        super().__init__(seed)

    def warmup(self) -> None:
        blocks = gz.sample_blocks(self.measures[0], self.N, 64, 0)
        gz.empirical_covariance(blocks, 1)

    def step(self, tally: Tally, tracer=None) -> None:
        i = self.index
        self.index += 1
        tr = tracer or NULL
        F = self.measures[i % len(self.measures)]
        op_seed = int(self.rng.integers(2**32))
        label = f"sampler {F.label} seed={op_seed}"
        t0 = clock()
        try:
            with tr.span("sampling.sample_blocks", i, preset=F.label):
                blocks = gz.sample_blocks(F, self.N, self.BLOCKS, op_seed)
            covs = []
            for k in self.LAGS:
                with tr.span("sampling.empirical_covariance", i, lag=k):
                    covs.append(gz.empirical_covariance(blocks, k))
        except GafError as exc:
            covs = exc
        tally.timed(clock() - t0, self.BLOCKS)
        if isinstance(covs, Exception):
            tally.record(label, [_error(covs)])
            return
        reasons = []
        for k, (got, se) in zip(self.LAGS, covs):
            want = gz.covariance(F, k)
            z = abs(got - want) / se if se > 0 else math.inf
            tally.note_max("covariance_z_max", z)
            if not abs(got - want) <= 4.0 * se + 1e-12:
                reasons.append(f"lag {k}: {got:.4g} vs {want:.4g} (se {se:.2g})")
        tally.record(label, reasons)
        if tracer is not None:
            with tracer.span("sampling.spectral_nodes", i) as sp:
                nodes, _ = spectral_nodes(F, blocks[0].grid_size)
            sp["nodes"] = int(nodes.size)

    def aliases(self, p50_ms, p95_ms, per_s):
        return {"blocks_per_s": (per_s, "1/s")}


WORKLOADS = {cls.name: cls for cls in (Experiment, Density, Continuation, Sampler)}
