"""Named spectral-measure presets and the text grammar for the CLI.

Grammar::

    uniform
    ma1:a=<float>
    indicator:lo=<float>,hi=<float>
    atoms:[(t,m),...]
    mix:w1*<preset>+w2*<preset>
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .errors import DomainError
from .periodic import PI, TWOPI, PeriodicFunction, TrigPoly
from .spectral import SpectralMeasure

__all__ = [
    "uniform", "ma1", "indicator", "atoms", "mix", "random_trig_density",
    "parse_preset", "PRESET_EXAMPLES",
]


def uniform() -> SpectralMeasure:
    """The i.i.d.-coefficient case: density 1/(2*pi)."""
    dens = PeriodicFunction.from_trig([1.0 / TWOPI])
    return SpectralMeasure(density=dens, label="uniform")


def ma1(a: float) -> SpectralMeasure:
    """One-dependent coefficients: gamma(+-1) = a, density (1 + 2a cos t)/(2*pi)."""
    a = float(a)
    if abs(a) > 0.5:
        raise DomainError("ma1 requires |a| <= 1/2 for a nonnegative density")
    dens = PeriodicFunction.from_trig([1.0 / TWOPI, 2.0 * a / TWOPI])
    return SpectralMeasure(density=dens, label=f"ma1:a={a:g}")


def indicator(lo: float, hi: float) -> SpectralMeasure:
    """Uniform measure on the arc (lo, hi), normalized to mass one."""
    lo, hi = float(lo), float(hi)
    if not (-PI <= lo < hi <= PI):
        raise DomainError("need -pi <= lo < hi <= pi")
    if hi - lo >= TWOPI - 1e-12:
        # both ends wrap to the same breakpoint: the arc is the whole circle
        dens = PeriodicFunction.constant(1.0 / TWOPI)
    else:
        dens = PeriodicFunction.step([lo, hi], [0.0, 1.0 / (hi - lo)])
    return SpectralMeasure(density=dens, label=f"indicator:lo={lo:g},hi={hi:g}")


def atoms(pairs) -> SpectralMeasure:
    """Purely atomic measure from (location, mass) pairs; masses must sum to 1."""
    pairs = tuple((float(t), float(m)) for t, m in pairs)
    total = math.fsum(m for _, m in pairs)
    if abs(total - 1.0) > 1e-10:
        raise DomainError(f"atom masses sum to {total!r}, expected 1")
    return SpectralMeasure(density=None, atoms=pairs,
                           label="atoms:[" + ",".join(f"({t:g},{m:g})" for t, m in pairs) + "]")


def mix(*weighted) -> SpectralMeasure:
    """Convex combination of measures given as (weight, measure) pairs."""
    weighted = [(float(w), F) for w, F in weighted]
    if not all(math.isfinite(w) for w, _ in weighted):
        raise DomainError("mix weights must be finite")
    if abs(math.fsum(w for w, _ in weighted) - 1.0) > 1e-10:
        raise DomainError("mix weights must sum to 1")
    dens = None
    out_atoms: list[tuple[float, float]] = []
    for w, F in weighted:
        if F.density is not None:
            part = w * F.density
            dens = part if dens is None else dens + part
        out_atoms.extend((t, w * m) for t, m in F.atoms)
    label = "mix:" + "+".join(f"{w:g}*{F.label or '?'}" for w, F in weighted)
    return SpectralMeasure(density=dens, atoms=tuple(out_atoms), label=label)


def random_trig_density(seed: int, degree: int = 4) -> SpectralMeasure:
    """Seeded random positive trig-polynomial density (a spectral square).

    Draws complex coefficients g_0..g_degree and uses |sum g_m e^{ims}|^2,
    nonnegative by construction, plus a constant floor of 0.05 of its
    coefficient sum, normalized to total mass one.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    spec = np.convolve(g, np.conj(g)[::-1])  # coefficients of |G|^2, k=-d..d
    spec[degree] += 0.05 * np.abs(spec).sum()
    spec = spec / (TWOPI * spec[degree].real)
    spec[degree] = spec[degree].real
    spec[:degree] = np.conj(spec[:degree:-1])  # Hermitian: a real density
    dens = PeriodicFunction.from_trigpoly(TrigPoly(spec))
    return SpectralMeasure(density=dens, label=f"randtrig:seed={seed},degree={degree}")


# ---------------------------------------------------------------------------
# text grammar
# ---------------------------------------------------------------------------

PRESET_EXAMPLES = [
    ("uniform", "i.i.d. coefficients; zero density 1/(pi (1-|z|^2)^2)"),
    ("ma1:a=0.3", "one-dependent coefficients; boundary correction a^2/(1+2a cos phi)^2"),
    ("ma1:a=0.5", "degenerate at phi = pi; density growth drops to 1/(2 pi (1-r^2))"),
    ("indicator:lo=-1.5707963267948966,hi=1.5707963267948966",
     "half-circle support; flat zero density 1/(12 pi cos^2 phi) on the left half"),
    ("atoms:[(0,0.5),(3.141592653589793,0.5)]",
     "purely atomic spectrum; series continues meromorphically"),
    ("mix:0.5*uniform+0.5*atoms:[(0,1)]", "mixed continuous and atomic parts"),
]


def _split_top_level(text: str, sep: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def _parse_kwargs(body: str) -> dict[str, float]:
    out = {}
    for item in _split_top_level(body, ","):
        if "=" not in item:
            raise DomainError(f"expected key=value, got {item!r}")
        key, val = item.split("=", 1)
        out[key.strip()] = float(val)
    return out


def parse_preset(text: str) -> SpectralMeasure:
    """Parse the preset grammar into a measure; unknown names/keys are rejected."""
    text = text.strip()
    if text == "uniform":
        return uniform()
    if text.startswith("ma1:"):
        kw = _parse_kwargs(text[4:])
        if set(kw) != {"a"}:
            raise DomainError(f"ma1 takes exactly a=<float>, got {sorted(kw)}")
        return ma1(kw["a"])
    if text.startswith("indicator:"):
        kw = _parse_kwargs(text[len("indicator:"):])
        if set(kw) != {"lo", "hi"}:
            raise DomainError(f"indicator takes lo=,hi=, got {sorted(kw)}")
        return indicator(kw["lo"], kw["hi"])
    if text.startswith("atoms:"):
        body = text[len("atoms:"):].strip()
        try:
            pairs = [(float(t), float(m)) for t, m in ast.literal_eval(body)]
        except (ValueError, SyntaxError, TypeError) as exc:
            raise DomainError(f"cannot parse atom list {body!r}") from exc
        return atoms(pairs)
    if text.startswith("mix:"):
        terms = _split_top_level(text[4:], "+")
        weighted = []
        for term in terms:
            if "*" not in term:
                raise DomainError(f"mix term {term!r} must look like w*<preset>")
            w, rest = term.split("*", 1)
            weighted.append((float(w), parse_preset(rest)))
        return mix(*weighted)
    raise DomainError(f"unknown preset {text!r}")
