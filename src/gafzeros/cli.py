"""Command-line front end.

All machine output (key=value lines, CSV) goes to stdout; prose goes to
stderr.  Exit codes: 0 success, 2 domain/usage errors, 3 precision errors.
Angles are radians throughout.
"""

from __future__ import annotations

import argparse
import cmath
import sys

from . import presets
from .asymptotics import rho1_boundary
from .continuation import arc_radius_bound, continuation_report
from .errors import DomainError, GafError, PrecisionError
from .experiments import ExperimentConfig, emit_profile, profile_csv, run_experiment
from .intensity import ROUTES, rho1
from .periodic import wrap_angle

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_PRECISION = 3


def _emit(key, value):
    if isinstance(value, float):
        print(f"{key}={value!r}")
    else:
        print(f"{key}={value}")


def cmd_density(args) -> int:
    F = presets.parse_preset(args.preset)
    if args.z:
        z = complex(args.z)
        r, phi = abs(z), cmath.phase(z) if z else 0.0
    elif args.r is not None:
        r, phi = args.r, float(wrap_angle(args.phi))
        z = r * cmath.exp(1j * args.phi)
    else:
        raise ValueError("give either --z or --r (with optional --phi)")
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius {r} is not in [0, 1)")
    value = rho1(F, z, method=args.method)
    _emit("preset", args.preset)
    _emit("r", float(r))
    _emit("phi", float(phi))
    _emit("method", args.method)
    _emit("rho1", float(value))
    return EXIT_OK


def cmd_asymptote(args) -> int:
    F = presets.parse_preset(args.preset)
    case, report = rho1_boundary(F, args.phi)
    _emit("preset", args.preset)
    _emit("phi", float(args.phi))
    _emit("case", case)
    for k in sorted(report.coefficients):
        _emit(f"coeff[y^{k}]", float(report.coefficients[k]))
    for name in sorted(report.inputs):
        _emit(f"input.{name}", float(report.inputs[name]))
    return EXIT_OK


def cmd_experiment(args) -> int:
    F = presets.parse_preset(args.preset)
    config = ExperimentConfig(F=F, N=args.n, replicas=args.replicas, r_bins=args.rbins,
                              phi_bins=args.pbins, r_max=args.rmax, seed=args.seed)
    profile = run_experiment(config)
    if profile.truncation_caveat:
        print(f"warning: {profile.truncation_caveat}", file=sys.stderr)
    if args.out:
        emit_profile(profile, args.out, fmt=args.format)
        print(f"wrote {args.format} profile to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(profile_csv(profile))
    return EXIT_OK


def cmd_continuation(args) -> int:
    F = presets.parse_preset(args.preset)
    report = continuation_report(F, args.r, k_max=args.kmax)
    if args.json:
        print(report.to_json())
        return EXIT_OK
    _emit("preset", args.preset)
    _emit("r", float(args.r))
    _emit("k_max", args.kmax)
    _emit("rho_estimate", float(report.rho_estimate))
    for i, arc in enumerate(report.arcs):
        _emit(f"arc[{i}]", f"({arc.lo!r},{arc.hi!r},{arc.kind})")
        if arc.kind == "regular":
            _emit(f"arc[{i}].radius_bound", float(arc_radius_bound(arc, args.r)))
    return EXIT_OK


def cmd_presets(args) -> int:
    for text, note in presets.PRESET_EXAMPLES:
        _emit("preset", text)
        print(f"  {note}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gafzeros",
        description="Zero densities of random power series with stationary "
                    "Gaussian coefficients.")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("density", help="evaluate the zero density at one point")
    d.add_argument("--preset", required=True)
    d.add_argument("--r", type=float, default=None)
    d.add_argument("--phi", type=float, default=0.0)
    d.add_argument("--z", default="", help="complex point, e.g. '0.3+0.4j' "
                   "(alternative to --r/--phi)")
    d.add_argument("--method", default="auto", choices=["auto", *ROUTES])
    d.set_defaults(func=cmd_density)

    a = sub.add_parser("asymptote", help="boundary expansion in one direction")
    a.add_argument("--preset", required=True)
    a.add_argument("--phi", type=float, required=True)
    a.set_defaults(func=cmd_asymptote)

    e = sub.add_parser("experiment", help="Monte Carlo zero counts vs analytic")
    e.add_argument("--preset", required=True)
    e.add_argument("--n", type=int, default=400)
    e.add_argument("--replicas", type=int, default=200)
    e.add_argument("--rmax", type=float, default=0.95)
    e.add_argument("--rbins", type=int, default=6)
    e.add_argument("--pbins", type=int, default=8)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out", default="")
    e.add_argument("--format", default="csv", choices=["csv", "json"])
    e.set_defaults(func=cmd_experiment)

    c = sub.add_parser("continuation", help="local radius and regular arcs")
    c.add_argument("--preset", required=True)
    c.add_argument("--r", type=float, required=True)
    c.add_argument("--kmax", type=int, default=512)
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_continuation)

    pr = sub.add_parser("presets", help="list the preset grammar")
    pr.set_defaults(func=cmd_presets)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except PrecisionError as exc:
        print(f"precision error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (GafError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
