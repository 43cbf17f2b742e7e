"""2*pi-periodic functions with exact trigonometric-polynomial fast paths.

The central object is :class:`PeriodicFunction`, a real periodic function on
(-pi, pi] that knows three things on top of pointwise evaluation:

* an optional exact trigonometric-polynomial representation (kept through
  sums, products, shifts, parity splits and the difference-quotient operator),
* an optional list of breakpoints (jump/kink locations) so that integrals can
  be split instead of sampled across discontinuities,
* a Taylor jet at s = 0, which feeds derivative queries and the stable
  near-zero evaluation of the difference-quotient operator.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as npcheb
from numpy.polynomial import polynomial as nppoly

from .errors import DomainError

PI = math.pi
TWOPI = 2.0 * math.pi

#: order of the Taylor jet carried at s = 0 (coefficients of s^0 .. s^8)
JET_LEN = 9

#: grid size used for spectrally accurate means and Fourier-based jets
GRID_M = 4096

#: below this |s| the difference-quotient operator switches to its jet form
#: (narrowed to half the distance to the nearest breakpoint, see _t_once)
T_PATCH_S0 = 0.05

_BREAK_MERGE_TOL = 1e-12


def wrap_angle(s):
    """Map angles to the fundamental interval (-pi, pi]."""
    s = np.asarray(s, dtype=float)
    w = s - TWOPI * np.round(s / TWOPI)
    w = np.where(w <= -PI, w + TWOPI, w)
    return w


def one_minus_cos(s):
    """1 - cos(s) evaluated as 2*sin(s/2)^2 (no cancellation near 0)."""
    sn = np.sin(np.asarray(s, dtype=float) / 2.0)
    return 2.0 * sn * sn


# Conversion between the even Taylor jet (t0, t2, t4, t6, t8) of a smooth even
# function and its expansion h = sum_m A_m (1 - cos s)^m.  The matrices are the
# exact rational conversion tables for the two bases.
_X_FROM_T = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 2.0, 0.0, 0.0, 0.0],
        [0.0, 1.0 / 3.0, 4.0, 0.0, 0.0],
        [0.0, 4.0 / 45.0, 4.0 / 3.0, 8.0, 0.0],
        [0.0, 1.0 / 35.0, 7.0 / 15.0, 4.0, 16.0],
    ]
)
_T_FROM_X = np.array(
    [
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0, 0.0],
        [0.0, -1.0 / 24.0, 0.25, 0.0, 0.0],
        [0.0, 1.0 / 720.0, -1.0 / 24.0, 0.125, 0.0],
        [0.0, -1.0 / 40320.0, 1.0 / 320.0, -1.0 / 32.0, 1.0 / 16.0],
    ]
)


def even_jet_to_x_coeffs(jet):
    """A_0..A_4 of h = sum A_m x^m (x = 1-cos s) from a length-9 Taylor jet."""
    t_even = np.asarray(jet, dtype=float)[0:9:2]
    return _X_FROM_T @ t_even


def x_coeffs_to_jet(a):
    """Inverse of :func:`even_jet_to_x_coeffs`; odd jet entries are zero."""
    a = np.asarray(a, dtype=float)
    if a.size < 5:
        a = np.concatenate([a, np.zeros(5 - a.size)])
    t_even = _T_FROM_X @ a[:5]
    jet = np.zeros(JET_LEN)
    jet[0:9:2] = t_even
    return jet


# ---------------------------------------------------------------------------
# trigonometric polynomials
# ---------------------------------------------------------------------------


class TrigPoly:
    """Real trigonometric polynomial stored as a two-sided complex spectrum.

    ``c[d + k]`` is the coefficient of exp(i*k*s) for k = -d..d; the spectrum
    is Hermitian for real polynomials.
    """

    __slots__ = ("c", "degree")

    def __init__(self, c):
        c = np.asarray(c, dtype=complex)
        if c.size % 2 == 0:
            raise ValueError("spectrum length must be odd (k = -d..d)")
        self.c = c
        self.degree = c.size // 2

    @classmethod
    def from_cos_sin(cls, a, b=None):
        """Build sum a_k cos(ks) + b_k sin(ks); a[0] is the constant term."""
        a = np.atleast_1d(np.asarray(a, dtype=float))
        b = np.zeros_like(a) if b is None else np.atleast_1d(np.asarray(b, dtype=float))
        d = max(a.size, b.size) - 1
        c = np.zeros(2 * d + 1, dtype=complex)
        c[d] = a[0]
        for k in range(1, d + 1):
            ak = a[k] if k < a.size else 0.0
            bk = b[k] if k < b.size else 0.0
            c[d + k] = 0.5 * (ak - 1j * bk)
            c[d - k] = 0.5 * (ak + 1j * bk)
        return cls(c)

    @classmethod
    def constant(cls, value):
        return cls(np.array([value], dtype=complex))

    def __call__(self, s):
        s = np.asarray(s, dtype=float)
        ks = np.arange(-self.degree, self.degree + 1)
        phase = np.exp(1j * np.multiply.outer(s, ks))
        return np.real(phase @ self.c)

    def cos_sin_coeffs(self):
        d = self.degree
        a = np.zeros(d + 1)
        b = np.zeros(d + 1)
        a[0] = self.c[d].real
        for k in range(1, d + 1):
            a[k] = 2.0 * self.c[d + k].real
            b[k] = -2.0 * self.c[d + k].imag
        return a, b

    def trimmed(self, tol=0.0):
        d = self.degree
        mags = np.abs(self.c)
        top = d
        while top > 0 and mags[d + top] <= tol and mags[d - top] <= tol:
            top -= 1
        if top == d:
            return self
        return TrigPoly(self.c[d - top : d + top + 1])

    # -- algebra ----------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, TrigPoly):
            d = max(self.degree, other.degree)
            c = np.zeros(2 * d + 1, dtype=complex)
            c[d - self.degree : d + self.degree + 1] += self.c
            c[d - other.degree : d + other.degree + 1] += other.c
            return TrigPoly(c)
        c = self.c.copy()
        c[self.degree] += other
        return TrigPoly(c)

    def scaled(self, alpha):
        return TrigPoly(self.c * alpha)

    def conv(self, other):
        return TrigPoly(np.convolve(self.c, other.c))

    def shifted(self, phi):
        ks = np.arange(-self.degree, self.degree + 1)
        return TrigPoly(self.c * np.exp(1j * ks * phi))

    def even_part(self):
        return TrigPoly(0.5 * (self.c + self.c[::-1]))

    def odd_part(self):
        return TrigPoly(0.5 * (self.c - self.c[::-1]))

    def is_even(self, tol=1e-12):
        scale = max(np.abs(self.c).max(), 1.0)
        return np.abs(self.c - self.c[::-1]).max() <= tol * scale

    def jet(self):
        ks = np.arange(-self.degree, self.degree + 1)
        jet = np.zeros(JET_LEN)
        fact = 1.0
        for m in range(JET_LEN):
            if m > 0:
                fact *= m
            jet[m] = np.real(np.sum(self.c * (1j * ks) ** m)) / fact
        return jet

    def mean(self):
        return float(self.c[self.degree].real)


def divide_by_one_minus_cos(tp: TrigPoly, g0: float) -> TrigPoly:
    """Spectrum of (h - g0) / (1 - cos s) for a trig polynomial h.

    Multiplication by 1 - cos s acts on Fourier coefficients as
    u_k - (u_{k-1} + u_{k+1})/2; the division solves that tridiagonal system
    by a downward recurrence, which is stable because the homogeneous
    solutions grow only linearly in k.
    """
    d = tp.degree
    if d == 0:
        return TrigPoly.constant(0.0)
    g = tp.c.astype(complex).copy()
    g[d] -= g0
    u = np.zeros(2 * d - 1, dtype=complex)  # k = -(d-1)..(d-1)

    def uset(k, val):
        u[k + d - 1] = val

    u_above = 0.0 + 0.0j           # u_d
    u_here = -2.0 * g[2 * d]       # u_{d-1}, from the equation at k = d
    uset(d - 1, u_here)
    for k in range(d - 1, -(d - 1), -1):
        u_below = 2.0 * (u_here - g[k + d]) - u_above
        uset(k - 1, u_below)
        u_above, u_here = u_here, u_below
    # restore the exact Hermitian/even symmetry of the real even quotient
    u = 0.5 * (u + np.conj(u[::-1]))
    return TrigPoly(u).trimmed(tol=0.0)


# ---------------------------------------------------------------------------
# periodic functions
# ---------------------------------------------------------------------------


def _merge_breaks(*groups):
    pts = [wrap_angle(np.asarray(g, dtype=float)).ravel() for g in groups if len(g)]
    if not pts:
        return np.empty(0)
    allpts = np.sort(np.concatenate(pts))
    keep = [allpts[0]]
    for p in allpts[1:]:
        if p - keep[-1] > _BREAK_MERGE_TOL:
            keep.append(p)
    # endpoints that collide across the wrap are the same circle point
    if len(keep) > 1 and (keep[0] + TWOPI) - keep[-1] <= _BREAK_MERGE_TOL:
        keep.pop()
    return np.array(keep)


class PeriodicFunction:
    """Real 2*pi-periodic function on (-pi, pi] with derivative access at 0."""

    __slots__ = ("_eval", "trig", "breakpoints", "smooth_at_zero", "_jet", "label")

    def __init__(self, eval_fn, *, trig=None, breakpoints=(), smooth_at_zero=True,
                 jet=None, label=""):
        self._eval = eval_fn
        self.trig = trig
        self.breakpoints = _merge_breaks(breakpoints)
        if self.breakpoints.size and np.min(np.abs(self.breakpoints)) < 1e-9:
            smooth_at_zero = False
        self.smooth_at_zero = bool(smooth_at_zero)
        self._jet = None if jet is None else np.asarray(jet, dtype=float)
        self.label = label

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_trig(cls, a, b=None, label=""):
        tp = TrigPoly.from_cos_sin(a, b)
        return cls(tp, trig=tp, label=label)

    @classmethod
    def from_trigpoly(cls, tp: TrigPoly, label=""):
        return cls(tp, trig=tp, label=label)

    @classmethod
    def constant(cls, value, label=""):
        return cls.from_trig([float(value)], label=label)

    @classmethod
    def from_callable(cls, fn: Callable, breakpoints=(), smooth_at_zero=True,
                      jet=None, label=""):
        return cls(lambda s: np.asarray(fn(s), dtype=float),
                   breakpoints=breakpoints, smooth_at_zero=smooth_at_zero,
                   jet=jet, label=label)

    @classmethod
    def step(cls, breakpoints: Sequence[float], values: Sequence[float], label=""):
        """Piecewise constant; ``values[i]`` covers (breakpoints[i-1], breakpoints[i]]
        cyclically."""
        breaks = wrap_angle(np.asarray(breakpoints, dtype=float))
        order = np.argsort(breaks)
        breaks = breaks[order]
        vals = np.asarray(values, dtype=float)[order]
        if breaks.size != vals.size:
            raise ValueError("need one value per breakpoint")

        def fn(s):
            idx = np.searchsorted(breaks, np.asarray(s, dtype=float), side="left")
            return vals[idx % vals.size]

        smooth = bool(np.min(np.abs(breaks)) > 1e-9) if breaks.size else True
        jet = None
        if smooth and breaks.size:
            zero_val = fn(np.array([0.0]))[0]
            jet = np.zeros(JET_LEN)
            jet[0] = zero_val
        return cls(fn, breakpoints=breaks, smooth_at_zero=smooth, jet=jet, label=label)

    # -- evaluation ---------------------------------------------------------
    def __call__(self, s):
        s_arr = wrap_angle(s)
        out = self._eval(s_arr) if self.trig is None else self.trig(s_arr)
        if np.isscalar(s) or (isinstance(s, np.ndarray) and s.ndim == 0):
            return float(out)
        return np.asarray(out, dtype=float)

    # -- jet / derivatives ---------------------------------------------------
    def jet(self):
        """Taylor coefficients t_0..t_8 of the function at s = 0."""
        if self._jet is not None:
            return self._jet
        if not self.smooth_at_zero:
            raise DomainError("function is not smooth at s = 0")
        if self.trig is not None:
            self._jet = self.trig.jet()
        elif self.breakpoints.size:
            self._jet = self._jet_from_zero_piece()
        else:
            self._jet = self._jet_from_fft()
        return self._jet

    def _zero_piece(self):
        b = self.breakpoints
        right = b[b > 1e-9]
        left = b[b < -1e-9]
        hi = right.min() if right.size else left.min() + TWOPI
        lo = left.max() if left.size else right.max() - TWOPI
        return lo, hi

    def _jet_from_zero_piece(self):
        lo, hi = self._zero_piece()
        w_lo = max(0.85 * lo, -0.8)
        w_hi = min(0.85 * hi, 0.8)
        fit = npcheb.Chebyshev.interpolate(lambda u: self(u), 24, domain=[w_lo, w_hi])
        jet = np.zeros(JET_LEN)
        fact = 1.0
        d = fit
        for m in range(JET_LEN):
            if m > 0:
                fact *= m
                d = d.deriv()
            jet[m] = d(0.0) / fact
        return jet

    def _jet_from_fft(self):
        m = 2 * GRID_M
        s = wrap_angle(TWOPI * np.arange(m) / m)
        coeffs = np.fft.fft(self._eval(s)) / m
        ks = np.fft.fftfreq(m, d=1.0 / m)
        mags = np.abs(coeffs)
        keep = mags > 1e-13 * max(mags.max(), 1e-300)
        keep &= np.abs(ks) <= 512
        c, k = coeffs[keep], ks[keep]
        jet = np.zeros(JET_LEN)
        fact = 1.0
        for order in range(JET_LEN):
            if order > 0:
                fact *= order
            jet[order] = np.real(np.sum(c * (1j * k) ** order)) / fact
        return jet

    def derivative_at_zero(self, order: int) -> float:
        if order < 0 or order >= JET_LEN:
            raise DomainError(f"derivative order must be in 0..{JET_LEN - 1}")
        return float(self.jet()[order] * math.factorial(order))

    # -- parity -------------------------------------------------------------
    def hat(self):
        """Even part (h(s) + h(-s)) / 2."""
        if self.trig is not None:
            return PeriodicFunction.from_trigpoly(self.trig.even_part(),
                                                  label=_lab("hat", self.label))
        ev = self._eval
        jet = None
        if self._jet is not None:
            jet = self._jet.copy()
            jet[1::2] = 0.0
        return PeriodicFunction(
            lambda s: 0.5 * (ev(s) + ev(wrap_angle(-s))),
            breakpoints=_merge_breaks(self.breakpoints, -self.breakpoints),
            smooth_at_zero=self.smooth_at_zero, jet=jet,
            label=_lab("hat", self.label))

    def check(self):
        """Odd part (h(s) - h(-s)) / 2."""
        if self.trig is not None:
            return PeriodicFunction.from_trigpoly(self.trig.odd_part(),
                                                  label=_lab("check", self.label))
        ev = self._eval
        jet = None
        if self._jet is not None:
            jet = self._jet.copy()
            jet[0::2] = 0.0
        return PeriodicFunction(
            lambda s: 0.5 * (ev(s) - ev(wrap_angle(-s))),
            breakpoints=_merge_breaks(self.breakpoints, -self.breakpoints),
            smooth_at_zero=self.smooth_at_zero, jet=jet,
            label=_lab("check", self.label))

    def is_even(self, tol=1e-10):
        if self.trig is not None:
            return self.trig.is_even()
        probes = np.linspace(0.17, 3.05, 11)
        a, b = self(probes), self(-probes)
        scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
        return bool(np.abs(a - b).max() <= tol * scale)

    # -- shift ---------------------------------------------------------------
    def shifted(self, phi: float):
        """s -> h(s + phi)."""
        phi = float(phi)
        if self.trig is not None:
            return PeriodicFunction.from_trigpoly(self.trig.shifted(phi),
                                                  label=_lab(f"shift{phi:+.3g}", self.label))
        ev = self._eval
        if self.breakpoints.size:
            breaks = wrap_angle(self.breakpoints - phi)
            smooth = True  # re-derived from the shifted breakpoints in __init__
        else:
            breaks = ()
            smooth = self.smooth_at_zero
        return PeriodicFunction(
            lambda s: ev(wrap_angle(s + phi)),
            breakpoints=breaks, smooth_at_zero=smooth,
            label=_lab(f"shift{phi:+.3g}", self.label))

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, PeriodicFunction):
            if self.trig is not None and other.trig is not None:
                return PeriodicFunction.from_trigpoly(self.trig + other.trig)
            ev1, ev2 = self._eval, other._eval
            jet = None
            if self._has_jet() and other._has_jet():
                jet = self.jet() + other.jet()
            return PeriodicFunction(
                lambda s: ev1(s) + ev2(s),
                breakpoints=_merge_breaks(self.breakpoints, other.breakpoints),
                smooth_at_zero=self.smooth_at_zero and other.smooth_at_zero,
                jet=jet)
        if self.trig is not None:
            return PeriodicFunction.from_trigpoly(self.trig + float(other))
        ev, c = self._eval, float(other)
        jet = None if self._jet is None else self._jet + np.eye(JET_LEN)[0] * c
        return PeriodicFunction(lambda s: ev(s) + c, breakpoints=self.breakpoints,
                                smooth_at_zero=self.smooth_at_zero, jet=jet)

    __radd__ = __add__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PeriodicFunction) else -float(other))

    def __mul__(self, other):
        if isinstance(other, PeriodicFunction):
            if self.trig is not None and other.trig is not None:
                tp = self.trig.conv(other.trig)
                # convolve the factor jets rather than re-deriving them from
                # the product spectrum: this keeps identities like
                # (h cos)(0) == h(0) and (h sin)(0) == 0 exact in floats
                jet = np.convolve(self.jet(), other.jet())[:JET_LEN]
                return PeriodicFunction(tp, trig=tp, jet=jet)
            ev1, ev2 = self._eval, other._eval
            jet = None
            if self._has_jet() and other._has_jet():
                jet = np.convolve(self.jet(), other.jet())[:JET_LEN]
            return PeriodicFunction(
                lambda s: ev1(s) * ev2(s),
                breakpoints=_merge_breaks(self.breakpoints, other.breakpoints),
                smooth_at_zero=self.smooth_at_zero and other.smooth_at_zero,
                jet=jet)
        alpha = float(other)
        if self.trig is not None:
            return PeriodicFunction.from_trigpoly(self.trig.scaled(alpha))
        ev = self._eval
        jet = None if self._jet is None else self._jet * alpha
        return PeriodicFunction(lambda s: alpha * ev(s), breakpoints=self.breakpoints,
                                smooth_at_zero=self.smooth_at_zero, jet=jet)

    __rmul__ = __mul__

    def times_cos(self):
        return self * COS

    def times_sin(self):
        return self * SIN

    def _has_jet(self):
        # only report jets that are already materialized; everything else is
        # computed lazily from the combined evaluator when first requested
        return self._jet is not None or self.trig is not None


COS = PeriodicFunction.from_trig([0.0, 1.0], label="cos")
SIN = PeriodicFunction.from_trig([0.0, 0.0], [0.0, 1.0], label="sin")


def _lab(op, label):
    return f"{op}({label})" if label else ""


# ---------------------------------------------------------------------------
# the difference-quotient operator  h -> (h - h(0)) / (1 - cos s)
# ---------------------------------------------------------------------------


def t_operator(h: PeriodicFunction, power: int = 1) -> PeriodicFunction:
    """Apply (h(s) - h(0)) / (1 - cos s), ``power`` times.

    At s = 0 the quotient continues to h''(0).  Requires an even function
    that is smooth at 0.  Trig polynomials are transformed exactly through
    their expansion in powers of 1 - cos s; other representations use a
    direct quotient away from 0 and the Taylor jet inside |s| < s0, where
    s0 = min(0.05, half the distance from 0 to the nearest breakpoint of h):
    the jet describes h only up to its nearest breakpoint.
    """
    if power < 1:
        raise DomainError("power must be >= 1")
    out = h
    for _ in range(power):
        out = _t_once(out)
    return out


def _t_once(h: PeriodicFunction) -> PeriodicFunction:
    if not h.smooth_at_zero:
        raise DomainError("difference quotient needs smoothness at s = 0")
    if not h.is_even():
        raise DomainError("difference quotient is defined for even functions")
    if h.trig is not None:
        h0 = float(np.real(h.trig.c.sum()))  # value at 0, summed exactly
        return PeriodicFunction.from_trigpoly(divide_by_one_minus_cos(h.trig, h0),
                                              label=_lab("T", h.label))
    a = even_jet_to_x_coeffs(h.jet())
    a_shift = a[1:]
    h0 = float(h.jet()[0])
    ev = h._eval
    s0 = T_PATCH_S0
    if h.breakpoints.size:
        s0 = min(s0, 0.5 * float(np.min(np.abs(wrap_angle(h.breakpoints)))))
    x0 = 1.0 - math.cos(s0)

    def fn(s):
        x = one_minus_cos(s)
        with np.errstate(divide="ignore", invalid="ignore"):
            direct = (np.asarray(ev(s), dtype=float) - h0) / x
        patch = nppoly.polyval(x, a_shift)
        return np.where(x < x0, patch, direct)

    return PeriodicFunction(fn, breakpoints=h.breakpoints, smooth_at_zero=True,
                            jet=x_coeffs_to_jet(a_shift), label=_lab("T", h.label))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(32)


def panel_nodes(edges):
    """Gauss-Legendre nodes/weights for the union of panels between edges."""
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * _GL_X[None, :]
    wts = half[:, None] * _GL_W[None, :]
    return pts.ravel(), wts.ravel()


def panel_quad(fn, edges):
    """Integral of ``fn`` over [edges[0], edges[-1]] split at the edges."""
    pts, wts = panel_nodes(edges)
    return np.sum(np.asarray(fn(pts)) * wts)


def _segment_edges(breaks, max_panel=0.4):
    """Edges covering (-pi, pi] split at breakpoints, panels <= max_panel."""
    base = [-PI] + [float(b) for b in np.asarray(breaks, dtype=float)] + [PI]
    base = sorted(set(base))
    edges = []
    for lo, hi in zip(base[:-1], base[1:]):
        if hi - lo < _BREAK_MERGE_TOL:
            continue
        n = max(1, int(math.ceil((hi - lo) / max_panel)))
        edges.extend(np.linspace(lo, hi, n + 1)[:-1])
    edges.append(PI)
    return np.array(edges)


_UNIFORM_S = wrap_angle(TWOPI * np.arange(GRID_M) / GRID_M)


def mean(h: PeriodicFunction) -> float:
    """Average of h over one period (the functional written I(h) in reports).

    Uses the exact constant coefficient for trig polynomials, breakpoint-split
    Gauss-Legendre panels for piecewise functions, and the periodic trapezoid
    rule (spectrally accurate) otherwise.
    """
    if h.trig is not None:
        return h.trig.mean()
    if h.breakpoints.size:
        return float(panel_quad(h._eval, _segment_edges(h.breakpoints))) / TWOPI
    return float(np.mean(h._eval(_UNIFORM_S)))
