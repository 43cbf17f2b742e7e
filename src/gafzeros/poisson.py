"""Poisson kernel, its averaged operators, and the covariance kernel K(z, w).

All circle integrals here face the same difficulty: the kernel concentrates
in a window of width ~(1-r) around its center, so a uniform grid dies as
r -> 1.  Every operator therefore integrates on one rule, ``_kernel_nodes``:
32-point Gauss-Legendre on panels with edges -pi, pi, the integrand's
breakpoints, each kernel center c and c +- delta 2^j for every delta 2^j < 2 pi,
delta = max((1-r)/floor, 1e-12) with floor 16; all wrapped to (-pi, pi] and
merged within 1e-13, into a breakpoint where one is near.  The variance
integrals of :mod:`.continuation` grade the same way with ratio 8
(c +- delta 8^j), floor 16 sqrt(k_max + 1), toward the local maxima of their
integrand over the support; their logs are checked to 2.5e-14 max(1, |log var_k|)
up to r = 1 - 1e-9 (``_log_weights`` there).
The operators here refuse direct quadrature above r = 1 - 1e-6; past that
only the boundary expansions are meaningful.  The covariance kernel reads one
such integral, the Herglotz transform Phi of the spectral measure
(``herglotz``): K(z, z) = Re Phi(z) / (1 - |z|^2), and ``K_offdiag`` off the
diagonal.  A measure enters the frame of z, rotated by phi = arg z, as one node set
(``_frame_nodes``): the kernel rule on the shifted density, a node per atom, and at
each breakpoint an end mass for the width the shift's rounding moved; ``herglotz``
and ``intensity.rho1_spectral`` sum over it.  Where the density is a trig wave plus
levels (``wave_and_arcs``), ``_herglotz_plan`` gives Phi and Phi' over arrays in
closed form instead: the wave 2 pi (2 sum_(n>=0) c_n z^n - c_0), a level L on the
arc (a, b) L[((b - a) mod 2 pi) - 2i (Log(1 - z e^(-ib)) - Log(1 - z e^(-ia)))], an
atom m (e^(it) + z)/(e^(it) - z).  In the frame of z, u = t - arg z, the half-angle variable
theta, tan theta = ((1 + r)/(1 - r)) tan(u/2), gives P du = 2 d theta: Re Phi_L = 2L dth on an
arc dth wide in theta, as ``intensity._arc_moments`` reads it too.  The plan feeds the cells of
:mod:`.experiments`; the quadrature is its oracle and its fallback.  ``_wave_jet`` is the wave's
Horner jet, on |z| = 1 too, that the boundary expansions of :mod:`.asymptotics` read.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import DomainError, PrecisionError
from .periodic import (PI, TWOPI, TWOPI_LOW, PeriodicFunction, one_minus_cos, panel_nodes,
                       wrap_angle, wrap_scalar)
from .spectral import SpectralMeasure

__all__ = [
    "poisson_kernel", "P_op", "Q_op", "AuxValues", "aux_ops",
    "herglotz", "K_offdiag", "R_CEILING",
]

#: radii above this are refused by direct quadrature
R_CEILING = 1.0 - 1e-6

#: the graded subgrid descends to (1-r) divided by this factor
GRADING_FLOOR = 16.0


def poisson_kernel(r: float, s) -> float | np.ndarray:
    """(1 - r^2) / (1 - 2r cos s + r^2), stable for all s.

    The denominator is assembled as (1-r)^2 + 2r(1-cos s) with
    1 - cos s = 2 sin(s/2)^2, which keeps full precision near s = 0.
    """
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius {r} must lie in [0, 1)")
    x = one_minus_cos(s)
    out = (1.0 - r * r) / ((1.0 - r) ** 2 + 2.0 * r * x)
    if np.isscalar(s) or (isinstance(s, np.ndarray) and s.ndim == 0):
        return float(out)
    return out


def _check_radius(r: float) -> float:
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise DomainError(f"radius {r} must lie in [0, 1)")
    if r > R_CEILING:
        achievable = np.finfo(float).eps / (1.0 - r) ** 2
        raise PrecisionError(
            f"r = {r} exceeds the quadrature ceiling {R_CEILING}; "
            f"achievable relative tolerance is only about {achievable:.1e}",
            achievable=achievable)
    return r


def graded_edges(r: float, breakpoints=(), centers=(0.0,), floor_scale=GRADING_FLOOR,
                 _ratio=2):
    """Panel edges on [-pi, pi], geometrically refined toward each center.

    Edges: -pi, pi, the breakpoints, each center c and c +- delta q^j for all
    j >= 0 with delta q^j < 2 pi, delta = max((1-r)/floor_scale, 1e-12), all
    wrapped to (-pi, pi].  Sorted, -pi, pi and every breakpoint are kept, so no
    panel straddles a jump; another edge within 1e-13 of a breakpoint, of -pi or
    pi, or of the last kept edge is merged into it.  The ratio q = ``_ratio`` is
    a power of two, so each offset is exact (``math.ldexp``): 2 for the kernel
    rule, 8 for the variance rule (``continuation._log_weights``, which states
    its checked accuracy).  Edges are plain floats, bit for bit those of
    ``wrap_angle``.
    """
    delta = max((1.0 - r) / floor_scale, 1e-12)
    shift = _ratio.bit_length() - 1  # q = 2^shift
    steps, step = [], delta
    while step < TWOPI:
        steps.append(step)
        step = math.ldexp(step, shift)
    # + 0.0 turns a -0.0 into the 0.0 that wrap_angle gives
    cs = [wrap_scalar(float(c)) + 0.0 for c in centers]
    fixed = {-PI, PI, *(wrap_scalar(float(b)) + 0.0 for b in breakpoints)}
    edges = [*fixed, *cs]
    for c in cs:
        for step in steps:
            edges.append(wrap_scalar(c - step) + 0.0)
            edges.append(wrap_scalar(c + step) + 0.0)
    edges.sort()
    merged = [edges[0]]  # -pi, the least edge
    for p in edges[1:]:
        if p - merged[-1] > 1e-13:
            merged.append(p)
        elif p in fixed:
            while merged[-1] not in fixed and p - merged[-1] <= 1e-13:
                merged.pop()
            if p != merged[-1]:
                merged.append(p)
    return np.array(merged)


def _kernel_nodes(r, breakpoints):
    """The kernel rule: Gauss-Legendre nodes and weights on graded_edges toward 0."""
    return panel_nodes(graded_edges(r, breakpoints))


def P_op(h: PeriodicFunction, r: float) -> float:
    """Average of h against the Poisson kernel: (1/2pi) int h P_r."""
    r = _check_radius(r)
    pts, wts = _kernel_nodes(r, h.breakpoints)
    return float(np.sum(h(pts) * poisson_kernel(r, pts) * wts)) / TWOPI


def Q_op(h: PeriodicFunction, r: float) -> float:
    """Average of h against the squared Poisson kernel: (1/2pi) int h P_r^2."""
    r = _check_radius(r)
    pts, wts = _kernel_nodes(r, h.breakpoints)
    return float(np.sum(h(pts) * poisson_kernel(r, pts) ** 2 * wts)) / TWOPI


class AuxValues(NamedTuple):
    U: float
    V: float
    K: float


def aux_ops(h: PeriodicFunction, r: float) -> AuxValues:
    """The three auxiliary kernel averages used by the boundary recursions.

    With x = 1 - cos s and D = (1-r)^2 + 2 r x:

    * U: (1/2pi) int h * 2x / D
    * V: (1/2pi) int h * (2x / D)^2
    * K: (1/2pi) int h * (2x - (1-r)) ((1-r)^2 + 2(1+r) x) / D^2

    They satisfy V(h) = I(h) + (1-r) K(h) identically.
    """
    r = _check_radius(r)
    pts, wts = _kernel_nodes(r, h.breakpoints)
    hv = h(pts)
    x = one_minus_cos(pts)
    e = 1.0 - r
    d = e * e + 2.0 * r * x
    u_int = np.sum(hv * (2.0 * x / d) * wts)
    v_int = np.sum(hv * (2.0 * x / d) ** 2 * wts)
    k_int = np.sum(hv * (2.0 * x - e) * (e * e + 2.0 * (1.0 + r) * x) / d**2 * wts)
    return AuxValues(U=float(u_int) / TWOPI, V=float(v_int) / TWOPI,
                     K=float(k_int) / TWOPI)


# ---------------------------------------------------------------------------
# covariance kernel of the random series
# ---------------------------------------------------------------------------


def _frame_nodes(F: SpectralMeasure, z: complex):
    """(r, phi, s, mass): the measure as nodes s in the frame of z (module docstring).
    The shift rounds a breakpoint b to b' = wrap(b - phi), e = (b - phi + 2 pi k) - b'
    off its place: exact by ``math.fsum`` but for the last term, k TWOPI_LOW.
    The node at b' carries the end mass -e (right - left value at b)."""
    r = _check_radius(abs(z))
    phi = cmath.phase(z) if r > 0.0 else 0.0
    s, mass = np.array(F.atoms, dtype=float).reshape(-1, 2).T
    s = wrap_angle(s - phi)
    if F.density is not None:
        dens = F.density.shifted(phi)
        pts, wts = _kernel_nodes(r, dens.breakpoints)
        b, ps = F.density.breakpoints, [p for p, _ in F.density.pieces]
        ends, ends_mass = wrap_angle(b - phi), []
        for i, (t, u) in enumerate(zip(b.tolist(), ends.tolist())):
            k = round((u - t + phi) / TWOPI)
            e = math.fsum((t, -phi, k * TWOPI, -u)) + k * TWOPI_LOW
            ends_mass.append(-e * (ps[(i + 1) % b.size](t) - ps[i](t)))
        s = np.concatenate([pts, s, ends])
        mass = np.concatenate([dens(pts) * wts, mass, ends_mass])
    return r, phi, s, mass


def herglotz(F: SpectralMeasure, z: complex) -> tuple[complex, complex]:
    """Phi(z) = int (e^{it} + z)/(e^{it} - z) dF(t) and Phi'(z), summed over the nodes of
    ``_frame_nodes``.  With d = e^{is} - r formed as (1 - r) - (1 - cos s) + i sin s,
    the kernels (y - 2ir sin s)/|d|^2 and 2 e^{-i phi} (d + r)/d^2 keep full precision
    as r -> 1."""
    r, phi, s, mass = _frame_nodes(F, z)
    x, sn = one_minus_cos(s), np.sin(s)
    d = (1.0 - r) - x + 1j * sn
    phi_z = np.sum(mass * ((1.0 - r) * (1.0 + r) - 2j * r * sn) / ((1.0 - r) ** 2 + 2.0 * r * x))
    dphi_z = 2.0 * np.sum(mass * (d + r) / d**2) * cmath.exp(-1j * phi)
    return complex(phi_z), complex(dphi_z)


def _wave_jet(wave, z, order: int) -> list:
    """[Phi, Phi', ..., Phi^(order)] of the trig wave with spectrum ``wave`` (k = -d..d)
    at z, a complex or an array: Phi = 2 pi (2 sum_(n>=0) c_n z^n - c_0), by Horner's
    rule carrying the derivatives; defined on |z| = 1 too."""
    c = wave[len(wave) // 2:]
    jet = [0j] * (order + 1)
    for a in reversed(c):
        for k in range(order, 0, -1):
            jet[k] = jet[k] * z + jet[k - 1]
        jet[0] = jet[0] * z + a
    # jet[k] = p^(k)(z) / k! for p(z) = sum_(n>=0) c_n z^n
    return [TWOPI * (2.0 * jet[0] - c[0]),
            *(2.0 * TWOPI * math.factorial(k) * jet[k] for k in range(1, order + 1))]


def _frame_angle(t, phi):
    """t - phi less k whole turns, in [-pi, pi), floats or arrays: exact in the turns."""
    k = ((t - phi) / TWOPI + 0.5) // 1.0
    return (t - k * PI) - (phi + k * PI) - k * TWOPI_LOW


def _half_angle(t: float, phi: float):
    """(u, sin(u/2), cos(u/2)) at u = ``_frame_angle(t, phi)``.  An end behind z (|u| > pi/2)
    is read from the antipode, v = t - (phi +- pi) exact in the turns, as cos(u/2) = -+sin(v/2):
    u rounds at pi's scale, which cos(u/2) would carry as eps pi / d at d from the antipode."""
    u = _frame_angle(t, phi)
    if abs(u) <= 0.5 * PI:
        return u, math.sin(0.5 * u), math.cos(0.5 * u)
    m, s = math.copysign(1.0, t - phi), math.copysign(1.0, u)
    v = ((t - m * PI) - phi if abs(t) >= abs(phi) else t - (phi + m * PI)) - m * 0.5 * TWOPI_LOW
    return u, s * math.cos(0.5 * v), -s * math.sin(0.5 * v)


def _half_width(lo: float, hi: float):
    """(h, sin h) for the arc from lo to hi in [-pi, pi] (past pi if hi <= lo, all if equal),
    2h wide; sin h off the narrower of it and its complement, so a narrow gap keeps it too."""
    d = abs(hi - lo)
    w = d if d <= PI else (PI - max(lo, hi)) + (PI + min(lo, hi)) + TWOPI_LOW
    return 0.5 * (hi - lo if hi > lo else (hi + PI) + (PI - lo)), math.sin(0.5 * w)


def _herglotz_plan(F: SpectralMeasure, z):
    """(Phi, Phi') over the array z in closed form (module docstring), or None without a
    plan.  A level L on an arc of width 2h is summed in the frame of z, u = s - arg z
    (``_frame_angle``), never as a difference of two logs, which the level (~1/h) would
    magnify on a narrow arc: with sigma = -1 if the arc wraps past u = pi, else 1,

        Re Phi_L = 2L atan2((1 - r^2) sin h, sigma ((1 + r)^2 s_a s_b + (1 - r)^2 c_a c_b)),
        Im Phi_L = -L log(|v_b|^2 / |v_a|^2),  |v|^2 = (1 + r)^2 s^2 + (1 - r)^2 c^2,
        Phi'_L = 4L sin h e^(i(a + h)) / ((e^(ia) - z)(e^(ib) - z)),

    the log as log1p(4 r sigma sin h sin((u_a + u_b)/2) / |v_a|^2) while that is below 1/2."""
    plan = ((0j,), ()) if F.density is None else F.density.wave_and_arcs()
    if plan is None:
        return None
    z = np.asarray(z, dtype=complex)
    phi, dphi = _wave_jet(plan[0], z, 1)
    r, arg = np.abs(z), np.angle(z)
    y, rp2, rm2 = (1.0 - r) * (1.0 + r), (1.0 + r) ** 2, (1.0 - r) ** 2
    for lo, hi, level in plan[1]:
        h, sin_h = _half_width(lo, hi)
        u = np.stack([_frame_angle(lo, arg), _frame_angle(hi, arg)])
        sigma = np.where(u[1] <= u[0], -1.0, 1.0)
        sn, cs = np.sin(0.5 * u), np.cos(0.5 * u)
        va, vb = rp2 * sn[0] ** 2 + rm2 * cs[0] ** 2, rp2 * sn[1] ** 2 + rm2 * cs[1] ** 2
        x = 4.0 * r * sigma * sin_h * np.sin(0.5 * (u[0] + u[1])) / va
        near = np.abs(x) < 0.5
        log_ratio = np.where(near, np.log1p(np.where(near, x, 0.0)), np.log(vb / va))
        re = 2.0 * np.arctan2(y * sin_h, sigma * (rp2 * sn[0] * sn[1] + rm2 * cs[0] * cs[1]))
        phi = phi + level * (re - 1j * log_ratio)
        ea, eb = cmath.exp(1j * lo), cmath.exp(1j * hi)
        dphi = dphi + 4.0 * level * sin_h * cmath.exp(1j * (lo + h)) / ((ea - z) * (eb - z))
    for t, m in F.atoms:
        e = cmath.exp(1j * t)
        phi, dphi = phi + m * (e + z) / (e - z), dphi + 2.0 * m * e / (e - z) ** 2
    return phi, dphi


def K_offdiag(F: SpectralMeasure, z: complex, w: complex) -> complex:
    """Covariance kernel int (1 - z e^{-it})^{-1} conj(1 - w e^{-it})^{-1} dF(t)."""
    phi_z, phi_w = herglotz(F, z)[0], herglotz(F, w)[0]
    return (phi_z + phi_w.conjugate()) / (2.0 * (1.0 - z * w.conjugate()))
