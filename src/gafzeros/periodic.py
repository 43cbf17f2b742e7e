"""2*pi-periodic functions stored as data: piecewise trigonometric quotients.

The central object is :class:`PeriodicFunction`, a real periodic function on
(-pi, pi] given by sorted wrapped breakpoints b and, for each piece, a
trigonometric polynomial p with an integer power m.  Piece i covers
(b[i-1], b[i]] cyclically (one piece when there are no breakpoints), and its
value is p(s) / (1 - cos s)^m.  Sums, products, shifts, parity parts and the
difference-quotient operator act on the pieces exactly; integrals are closed
form on pieces with m = 0 and Gauss-Legendre on panels graded toward the pole
at s = 0 otherwise.  The Taylor jet at s = 0 is read off the piece holding 0.
A smooth callable enters as data too: its checked trigonometric fit.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError

PI = math.pi
TWOPI = 2.0 * math.pi
TWOPI_LOW = 2.4492935982947064e-16  # 2 pi - TWOPI: what TWOPI rounds off

#: order of the Taylor jet carried at s = 0 (coefficients of s^0 .. s^8)
JET_LEN = 9

#: FFT size and frequency cap for the trig fit of a callable
_FFT_SIZE = 8192
_FFT_MAX_K = 512
#: largest miss of that fit at the grid midpoints, relative to max |fn|
_FIT_TOL = 1e-10

_BREAK_MERGE_TOL = 1e-12

#: coefficients, probe values and arc widths at or below this count as zero
_ZERO_TOL = 1e-12
#: midpoints at which a piece is checked for sign
_SIGN_POINTS = 4096


def wrap_angle(s):
    """Map angles to the fundamental interval (-pi, pi]."""
    s = np.asarray(s, dtype=float)
    w = s - TWOPI * np.round(s / TWOPI)
    w = np.where(w <= -PI, w + TWOPI, w)
    return w


def wrap_scalar(s: float) -> float:
    """``wrap_angle`` of one float in plain Python (a zero may differ in sign)."""
    w = s - TWOPI * round(s / TWOPI)
    return w + TWOPI if w <= -PI else w


def one_minus_cos(s):
    """1 - cos(s) evaluated as 2*sin(s/2)^2 (no cancellation near 0)."""
    sn = np.sin(np.asarray(s, dtype=float) / 2.0)
    return 2.0 * sn * sn


# ---------------------------------------------------------------------------
# trigonometric polynomials
# ---------------------------------------------------------------------------


def _padded(c, d):
    """Spectrum ``c`` zero-padded to k = -d..d."""
    pad = d - c.size // 2
    return c if pad == 0 else np.pad(c, pad)


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
        if self.degree == 0:
            return np.full(s.shape, self.c[0].real)
        ks = np.arange(-self.degree, self.degree + 1)
        phase = np.exp(1j * np.multiply.outer(s, ks))
        return np.real(phase @ self.c)

    def coefficient(self, k: int) -> complex:
        return self.c[self.degree + k] if abs(k) <= self.degree else 0.0j

    def trimmed(self):
        d = self.degree
        top = d
        while top > 0 and self.c[d + top] == 0 and self.c[d - top] == 0:
            top -= 1
        if top == d:
            return self
        return TrigPoly(self.c[d - top : d + top + 1])

    # -- algebra ----------------------------------------------------------
    def __add__(self, other: TrigPoly):
        d = max(self.degree, other.degree)
        c = np.zeros(2 * d + 1, dtype=complex)
        c[d - self.degree : d + self.degree + 1] += self.c
        c[d - other.degree : d + other.degree + 1] += other.c
        return TrigPoly(c)

    def scaled(self, alpha):
        return TrigPoly(self.c * alpha)

    def conv(self, other):
        return TrigPoly(np.convolve(self.c, other.c))

    def shifted(self, phi):
        ks = np.arange(-self.degree, self.degree + 1)
        return TrigPoly(self.c * np.exp(1j * ks * phi))

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


#: 1 - cos s as a trigonometric polynomial
_ONE_MINUS_COS = TrigPoly(np.array([-0.5, 1.0, -0.5]))


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
    u = np.zeros(2 * d - 1, dtype=complex)  # u[d - 1 + k] for k = -(d-1)..(d-1)
    u_above = 0.0 + 0.0j           # u_d
    u_here = -2.0 * g[2 * d]       # u_{d-1}, from the equation at k = d
    u[2 * d - 2] = u_here
    for k in range(d - 1, -(d - 1), -1):
        u_below = 2.0 * (u_here - g[k + d]) - u_above
        u[k + d - 2] = u_below
        u_above, u_here = u_here, u_below
    # restore the exact Hermitian/even symmetry of the real even quotient
    u = 0.5 * (u + np.conj(u[::-1]))
    return TrigPoly(u).trimmed()


# ---------------------------------------------------------------------------
# pieces: (p, m) stands for p(s) / (1 - cos s)^m
# ---------------------------------------------------------------------------


def _lifted(piece, m):
    """The numerator of ``piece`` over the power m >= its own."""
    p, own = piece
    for _ in range(m - own):
        p = p.conv(_ONE_MINUS_COS)
    return p


def _piece_sum(a, b):
    m = max(a[1], b[1])
    return _lifted(a, m) + _lifted(b, m), m


def _piece_product(a, b):
    return a[0].conv(b[0]), a[1] + b[1]


def _piece_parity(a, mirror, sign):
    """(a(s) + sign * mirror(-s)) / 2 for two pieces."""
    m = max(a[1], mirror[1])
    p, q = _lifted(a, m), _lifted(mirror, m)
    d = max(p.degree, q.degree)
    return TrigPoly(0.5 * (_padded(p.c, d) + sign * _padded(q.c[::-1], d))), m


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


def _midpoints(breaks):
    """One interior point of each piece (piece 0 wraps through pi)."""
    if not breaks.size:
        return np.zeros(1)
    lo = np.concatenate(([breaks[-1] - TWOPI], breaks[:-1]))
    return wrap_angle(0.5 * (lo + breaks))


class PeriodicFunction:
    """Real 2*pi-periodic function on (-pi, pi], piecewise p(s) / (1 - cos s)^m.

    ``breakpoints`` is sorted and wrapped; ``pieces[i] = (p, m)`` covers
    (breakpoints[i-1], breakpoints[i]] cyclically.  Functions compare and
    hash by breakpoints, pieces and jet.
    """

    __slots__ = ("breakpoints", "pieces", "_jet", "_arcs", "_runs", "_centers")

    def __init__(self, breakpoints, pieces, *, jet=None):
        self.breakpoints = np.asarray(breakpoints, dtype=float)
        self.pieces = tuple(pieces)
        if len(self.pieces) != max(self.breakpoints.size, 1):
            raise ValueError("need one piece per breakpoint interval")
        self._jet = None if jet is None else np.asarray(jet, dtype=float)
        self._arcs = False  # wave_and_arcs, once computed
        self._runs = None  # support(), once computed
        self._centers = None  # the variance rule's centers (continuation._support)

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_trig(cls, a, b=None):
        return cls.from_trigpoly(TrigPoly.from_cos_sin(a, b))

    @classmethod
    def from_trigpoly(cls, tp: TrigPoly):
        return cls((), [(tp, 0)])

    @classmethod
    def constant(cls, value):
        return cls.from_trig([float(value)])

    @classmethod
    def from_callable(cls, fn: Callable):
        """The trig polynomial fitted to a smooth callable, which is not kept:
        the FFT spectrum of ``fn`` on 8192 points, cut to |k| <= 512 and to
        coefficients above 1e-13 of the largest.  DomainError for a callable
        exactly 0 at three grid points in a row (cyclically), whose support
        needs breakpoints, and for one the fit misses at the grid midpoints by
        more than 1e-10 max |fn|, as at a kink or jump or when the spectrum is
        still above the cut at |k| = 512."""
        n = _FFT_SIZE
        both = np.asarray(fn(wrap_angle(PI * np.arange(2 * n) / n)), dtype=float)
        vals, mids = both[::2], both[1::2]
        zero = vals == 0.0
        if np.any(zero & np.roll(zero, 1) & np.roll(zero, 2)):
            raise DomainError("callable vanishes on an interval: give it breakpoints")
        coeffs = np.fft.fft(vals) / n
        ks = np.fft.fftfreq(n, d=1.0 / n).astype(int)
        mags = np.abs(coeffs)
        keep = (mags > 1e-13 * max(mags.max(), 1e-300)) & (np.abs(ks) <= _FFT_MAX_K)
        # the fit at the midpoints: the kept spectrum rotated by half a grid step
        fit = np.fft.ifft(np.where(keep, coeffs * np.exp(1j * PI * ks / n), 0.0)).real * n
        miss = np.max(np.abs(fit - mids))
        if not miss <= _FIT_TOL * np.max(np.abs(both)):
            raise DomainError(f"trig fit to |k| <= {_FFT_MAX_K} misses the callable by "
                              f"{miss:.3g}: not smooth enough (a kink or jump?)")
        d = int(np.abs(ks[keep]).max(initial=0))
        c = np.zeros(2 * d + 1, dtype=complex)
        c[d + ks[keep]] = coeffs[keep]
        return cls.from_trigpoly(TrigPoly(c))

    @classmethod
    def step(cls, breakpoints: Sequence[float], values: Sequence[float]):
        """Piecewise constant; ``values[i]`` covers (breakpoints[i-1], breakpoints[i]]
        cyclically.  DomainError for a non-finite breakpoint."""
        breaks = np.asarray(breakpoints, dtype=float)
        if not np.all(np.isfinite(breaks)):
            raise DomainError(f"breakpoints must be finite, got {breaks.tolist()}")
        breaks = wrap_angle(breaks)
        vals = np.asarray(values, dtype=float)
        if breaks.size != vals.size or not breaks.size:
            raise ValueError("need one value per breakpoint")
        order = np.argsort(breaks)
        breaks, vals = breaks[order], vals[order]
        merged = _merge_breaks(breaks)
        idx = np.searchsorted(breaks, _midpoints(merged), side="left") % breaks.size
        return cls(merged, [(TrigPoly.constant(vals[i]), 0) for i in idx])

    # -- structure -----------------------------------------------------------
    @property
    def trig(self) -> TrigPoly | None:
        """The numerator of a one-piece function without pole, else None."""
        p, m = self.pieces[0]
        return p if len(self.pieces) == 1 and m == 0 else None

    def wave_and_arcs(self):
        """Cached split h = w + levels[i] on piece i, w a trig wave without
        constant term, in Python numbers, when no piece has a pole and the pieces
        differ only in their constant term (trig, step, or their sum), else
        None: the wave's spectrum (the one piece's without breakpoints) and
        ``(lo, hi, level)`` per piece of nonzero level."""
        if self._arcs is False:
            d = max(p.degree for p, _ in self.pieces)
            specs = [_padded(p.c, d) for p, _ in self.pieces]
            wave = np.where(np.arange(2 * d + 1) == d, 0.0, specs[0])
            b = self.breakpoints.tolist()
            self._arcs = None
            if all(m == 0 and np.array_equal(np.delete(c, d), np.delete(wave, d))
                   for c, (_, m) in zip(specs, self.pieces)):
                self._arcs = (tuple((wave if b else specs[0]).tolist()), tuple(
                    (b[i - 1], b[i], v) for i, v in
                    enumerate(float(c[d].real) for c in specs) if b and v))
        return self._arcs

    def support(self):
        """The support, cached (a refusal is not): its runs, the sorted merged (lo, hi)
        of the live pieces, those with a coefficient above _ZERO_TOL (piece i + 1
        covers (b[i], b[i + 1]]; a run through pi ends past pi), and per piece whether
        it is live.  A nonzero trig polynomial vanishes at isolated points only, so a
        live piece is support over its whole interval once it is seen to be
        nonnegative there: without evaluation when c_0 >= sum_{k != 0} |c_k|, else at
        ``_SIGN_POINTS`` midpoints of its interval, where a value below -_ZERO_TOL
        raises DomainError."""
        if self._runs is not None:
            return self._runs
        breaks = list(self.breakpoints) or [-PI]
        n = len(breaks)
        live = tuple(bool(np.max(np.abs(p.c)) > _ZERO_TOL) for p, _ in self.pieces)
        runs: list[tuple[float, float]] = []
        for i, (lo, hi) in enumerate(zip(breaks, breaks[1:] + [breaks[0] + TWOPI])):
            if not live[(i + 1) % n]:
                continue
            p = self.pieces[(i + 1) % n][0]  # the numerator carries the sign
            if 2.0 * p.c[p.degree].real < np.abs(p.c).sum():  # c_0 < sum_{k != 0} |c_k|
                probe = lo + (hi - lo) * (np.arange(_SIGN_POINTS) + 0.5) / _SIGN_POINTS
                if np.min(p(probe)) < -_ZERO_TOL:
                    raise DomainError("density is negative")
            if runs and runs[-1][1] == lo:
                runs[-1] = (runs[-1][0], hi)
            else:
                runs.append((lo, hi))
        if len(runs) > 1 and runs[-1][1] == runs[0][0] + TWOPI:
            runs = runs[1:-1] + [(runs[-1][0], runs[0][1] + TWOPI)]
        self._runs = (tuple(runs), live)
        return self._runs

    @property
    def smooth_at_zero(self) -> bool:
        b = self.breakpoints
        return not (b.size and np.min(np.abs(b)) < 1e-9)

    def _index(self, s):
        """Piece index at wrapped angles s."""
        n = self.breakpoints.size
        if not n:
            return np.zeros(np.shape(s), dtype=int)
        return np.searchsorted(self.breakpoints, s, side="left") % n

    def _refine(self, other):
        """Common refinement: merged breakpoints and, for each new piece, the
        indices of the pieces of self and other that hold its midpoint."""
        breaks = _merge_breaks(self.breakpoints, other.breakpoints)
        mids = _midpoints(breaks)
        return breaks, zip(self._index(mids), other._index(mids))

    def _key(self):
        jet = self.jet() if self.smooth_at_zero else None
        return (_bytes(self.breakpoints), tuple((_bytes(p.c), m) for p, m in self.pieces),
                None if jet is None else _bytes(jet))

    def __eq__(self, other):
        if not isinstance(other, PeriodicFunction):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    # -- evaluation ---------------------------------------------------------
    def __call__(self, s):
        s_arr = wrap_angle(s)
        if self.trig is not None:
            out = self.trig(s_arr)
        else:
            flat = s_arr.ravel()
            idx = self._index(flat)
            out = np.empty(flat.shape)
            for i, (p, m) in enumerate(self.pieces):
                sel = np.flatnonzero(idx == i)
                vals = p(flat[sel])
                out[sel] = vals / one_minus_cos(flat[sel]) ** m if m else vals
            out = out.reshape(s_arr.shape)
        if np.isscalar(s) or (isinstance(s, np.ndarray) and s.ndim == 0):
            return float(out)
        return np.asarray(out, dtype=float)

    # -- jet / derivatives ---------------------------------------------------
    def jet(self):
        """Taylor coefficients t_0..t_8 of the function at s = 0."""
        if self._jet is None:
            if not self.smooth_at_zero:
                raise DomainError("function is not smooth at s = 0")
            self._jet = self.pieces[int(self._index(0.0))][0].jet()
        return self._jet

    def derivative_at_zero(self, order: int) -> float:
        if order < 0 or order >= JET_LEN:
            raise DomainError(f"derivative order must be in 0..{JET_LEN - 1}")
        return float(self.jet()[order] * math.factorial(order))

    # -- parity -------------------------------------------------------------
    def _parity(self, sign):
        if not self.breakpoints.size:  # one piece, its own mirror
            return PeriodicFunction((), [_piece_parity(self.pieces[0], self.pieces[0], sign)])
        breaks = _merge_breaks(self.breakpoints, -self.breakpoints)
        mids = _midpoints(breaks)
        # -mids needs no wrapping: a midpoint is never a breakpoint, so when
        # it is +-pi, -pi and pi both lie in piece 0
        return PeriodicFunction(breaks, [
            _piece_parity(self.pieces[i], self.pieces[j], sign)
            for i, j in zip(self._index(mids), self._index(-mids))])

    def hat(self):
        """Even part (h(s) + h(-s)) / 2."""
        return self._parity(1.0)

    def check(self):
        """Odd part (h(s) - h(-s)) / 2."""
        return self._parity(-1.0)

    def is_even(self):
        """True when every piece of the odd part, (p - mirrored p) / 2,
        vanishes to 1e-12 relative."""
        scale = max(max(np.abs(p.c).max() for p, _ in self.pieces), 1.0)
        return all(np.abs(p.c).max() <= 0.5e-12 * scale for p, _ in self.check().pieces)

    # -- shift ---------------------------------------------------------------
    def shifted(self, phi: float):
        """s -> h(s + phi); defined when no piece has a pole (m = 0)."""
        phi = float(phi)
        if any(m for _, m in self.pieces):
            raise DomainError("shift is defined for pieces without pole (m = 0)")
        breaks = _merge_breaks(self.breakpoints - phi)
        idx = self._index(wrap_angle(_midpoints(breaks) + phi)) if breaks.size else [0]
        return PeriodicFunction(breaks, [(self.pieces[i][0].shifted(phi), 0) for i in idx])

    # -- arithmetic ------------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, PeriodicFunction):
            other = PeriodicFunction.constant(float(other))
        breaks, pairs = self._refine(other)
        return PeriodicFunction(breaks, [_piece_sum(self.pieces[i], other.pieces[j])
                                         for i, j in pairs])

    __radd__ = __add__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other if isinstance(other, PeriodicFunction) else -float(other))

    def __mul__(self, other):
        if not isinstance(other, PeriodicFunction):
            alpha = float(other)
            return PeriodicFunction(self.breakpoints,
                                    [(p.scaled(alpha), m) for p, m in self.pieces])
        breaks, pairs = self._refine(other)
        jet = None
        if self.smooth_at_zero and other.smooth_at_zero:
            # convolve the factor jets rather than re-deriving them from
            # the product spectrum: this keeps identities like
            # (h cos)(0) == h(0) and (h sin)(0) == 0 exact in floats
            jet = np.convolve(self.jet(), other.jet())[:JET_LEN]
        return PeriodicFunction(breaks, [_piece_product(self.pieces[i], other.pieces[j])
                                         for i, j in pairs], jet=jet)

    __rmul__ = __mul__

    # -- integrals -------------------------------------------------------------
    def integrals(self, edges, k: int = 0) -> np.ndarray:
        """Integrals of h(s) exp(-iks) between consecutive sorted ``edges`` in
        [-pi, pi]: exact antiderivatives on pieces with m = 0 (orthogonality
        over one full period of a one-piece function), graded Gauss-Legendre
        on pieces with a pole."""
        edges = np.asarray(edges, dtype=float)
        whole = self.trig
        if whole is not None and edges.size == 2 and edges[1] - edges[0] == TWOPI:
            return np.array([TWOPI * whole.coefficient(k)])
        b = self.breakpoints
        inner = b[(b > edges[0]) & (b < edges[-1])]
        pts = np.sort(np.concatenate((edges, inner))) if inner.size else edges
        idx = self._index(0.5 * (pts[:-1] + pts[1:]))
        out = np.empty(pts.size - 1, dtype=complex)
        for i, (p, m) in enumerate(self.pieces):
            sel = idx == i
            if not sel.any():
                continue
            if not m:
                out[sel] = np.diff(_antiderivative(p, k, pts))[sel]
            else:
                out[sel] = [_pole_integral(p, m, k, pts[j], pts[j + 1])
                            for j in np.flatnonzero(sel)]
        if inner.size:
            out = np.add.reduceat(out, np.searchsorted(pts, edges[:-1]))
        return out


def _bytes(a):
    """Bytes of an array with -0.0 folded into 0.0, for hashing."""
    return (np.asarray(a) + 0.0).tobytes()


def _antiderivative(p: TrigPoly, k: int, x):
    """An antiderivative of p(s) exp(-iks), at the points x."""
    f = np.arange(-p.degree, p.degree + 1) - k
    anti = np.zeros((x.size, f.size), dtype=complex)
    nonzero = f != 0
    anti[:, nonzero] = np.exp(1j * np.outer(x, f[nonzero])) / (1j * f[nonzero])
    anti[:, ~nonzero] = x[:, None]
    return anti @ p.c


def _pole_integral(p: TrigPoly, m: int, k: int, lo: float, hi: float) -> complex:
    """Integral of p(s) exp(-iks) / (1 - cos s)^m over [lo, hi] not holding 0.

    32-point Gauss-Legendre on panels whose edges double their distance from
    the pole at 0, split further so that no panel is wider than
    16 / (degree + |k| + 1)."""
    near, far = (lo, hi) if lo >= 0.0 else (-hi, -lo)
    if near <= 0.0:
        raise DomainError("quotient piece reaches its pole at s = 0")
    edges = near * np.exp2(np.arange(64))
    edges = np.append(edges[edges < far], far)
    parts = np.ceil(np.diff(edges) * (p.degree + abs(k) + 1) / 16.0).astype(int)
    if parts.max() > 1:
        edges = np.concatenate([np.linspace(a, b, n + 1)[:-1]
                                for a, b, n in zip(edges[:-1], edges[1:], parts)] + [[far]])
    t, w = panel_nodes(edges)
    s = t if lo >= 0.0 else -t
    vals = p(s) / one_minus_cos(s) ** m * w
    return complex(np.sum(vals * np.exp(-1j * k * s)) if k else np.sum(vals))


COS = PeriodicFunction.from_trig([0.0, 1.0])
SIN = PeriodicFunction.from_trig([0.0, 0.0], [0.0, 1.0])


# ---------------------------------------------------------------------------
# the difference-quotient operator  h -> (h - h(0)) / (1 - cos s)
# ---------------------------------------------------------------------------


def t_operator(h: PeriodicFunction, power: int = 1) -> PeriodicFunction:
    """Apply (h(s) - h(0)) / (1 - cos s), ``power`` times.

    At s = 0 the quotient continues to h''(0).  Requires an even function
    that is smooth at 0, checked once: T keeps both properties piece by
    piece.  The piece holding 0 is divided exactly through its
    Fourier coefficients; every other piece (p, m) becomes
    (p - h(0) (1 - cos s)^m, m + 1), an exact quotient kept as data.
    """
    if power < 1:
        raise DomainError("power must be >= 1")
    if not h.smooth_at_zero:
        raise DomainError("difference quotient needs smoothness at s = 0")
    if not h.is_even():
        raise DomainError("difference quotient is defined for even functions")
    for _ in range(power):
        h = _t_once(h)
    return h


def _t_once(h: PeriodicFunction) -> PeriodicFunction:
    zero = int(h._index(0.0))
    p0 = h.pieces[zero][0]
    h0 = float(np.real(p0.c.sum()))  # value at 0, summed exactly
    minus_h0 = (TrigPoly.constant(-h0), 0)
    return PeriodicFunction(h.breakpoints, [
        (divide_by_one_minus_cos(p, h0), 0) if i == zero
        else (_piece_sum((p, m), minus_h0)[0], m + 1)
        for i, (p, m) in enumerate(h.pieces)])


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def gauss_legendre(half):
    """Gauss-Legendre nodes/weights on [-1, 1] from the (node, weight) rows
    of the positive nodes.  The tables passed in equal numpy's
    ``legendre.leggauss(n)`` bit for bit; as literals, importing the package
    loads no numpy.polynomial and makes no LAPACK call (about 1.6 MB resident)."""
    half = np.array(half, dtype=float)
    return (np.concatenate([-half[::-1, 0], half[:, 0]]),
            np.concatenate([half[::-1, 1], half[:, 1]]))


_GL_X, _GL_W = gauss_legendre([
    (0.048307665687738324, 0.09654008851472766),
    (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451),
    (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378),
    (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023),
    (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168),
    (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609),
    (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765),
    (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743),
    (0.9972638618494816, 0.007018610009470506),
])


def panel_nodes(edges):
    """Gauss-Legendre nodes/weights for the union of panels between edges."""
    edges = np.asarray(edges, dtype=float)
    a, b = edges[:-1], edges[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * _GL_X[None, :]
    wts = half[:, None] * _GL_W[None, :]
    return pts.ravel(), wts.ravel()


def mean(h: PeriodicFunction) -> float:
    """Average of h over one period (the functional written I(h) in reports).

    The constant coefficient for a one-piece function without pole, else the
    sum of the per-piece integrals of :meth:`PeriodicFunction.integrals`.
    """
    whole = h.trig
    if whole is not None:
        return whole.mean()
    return float(np.real(h.integrals(np.array([-PI, PI]))[0])) / TWOPI
