"""Generalized polynomial chains over a gauge sequence.

Two recursively defined families are provided.

* ``p_{t;j,m}``  -- anchored at a point t in [a, b): level m is w_m, and
  each step down integrates from t and multiplies by the current gauge.
  For t = a not in I the recursive integral may diverge; divergence is a
  value (inf), decided analytically where possible and by a doubling-window
  probe otherwise.

* ``p_{a,z;i:k:j}`` -- starts from the left-anchored ``p_{a;k,j}`` (which
  must be finite) and continues the same descent, but integrating from an
  interior point z.  Without a closed form it is Chen's identity split at
  z: the sum over c in k..j of p_{a;c,j}(z)/w_c(z) p_{z;i,c}.

Positive parts multiply by the indicator {x >= t} with the convention
inf * 0 = 0.  Degree-k interpolation at a point is realized through the
basis property of the first chain.

Evaluation engine: a chain's route is picked once: exact term arithmetic
when its start has a closed form, then a single-level antiderivative
shortcut for table gauges that provide one, then the divergence probe for
chains anchored at a, and otherwise the one numeric chain integrator
``PanelChain``: composite Clenshaw-Curtis panels, each giving the
transfer matrix of its levels, composed by Chen's identity for iterated
integrals.  Every numeric value is such a product ending at x, whether
of a chain anchored at one point, of the probe's windows or of the
batched two-argument family (swept across many anchors).  A chain
anchored at a finite open a runs in u = log(x - a) under the paper's
change of scale x = a + e^u, which sends a to u = -inf: one probe serves
both kinds of left endpoint, and the chain is cut in that probe's
windows.  The numeric route is deliberately independent of the closed
forms so the two can be cross-checked.

The closed forms live in one ring, sums of c * u^d * exp(r*u), with u = x
for unit/exponential gauges and u = log(x - base) for power gauges: there
w_j = exp((lam_j - 1)*u) and dx = exp(u) du, a logarithmic term (lam_j = 0)
is a polynomial term in u, and t = base is the anchor u = -inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    GaugeError,
    InconclusiveError,
    PreconditionError,
    QuadratureError,
)
from .intervals import (
    ExponentialGauge,
    GaugeSpec,
    Interval,
    PowerGauge,
    ScaleMap,
    UnitGauge,
    transport_gauges,
)

__all__ = [
    "FULL",
    "POSITIVE",
    "NEGATIVE",
    "WPolyHandle",
    "XRing",
    "FinitenessSet",
    "finiteness_set",
    "interpolate",
    "chain_t_handle",
    "chain_az_handle",
]

FULL = "full"
POSITIVE = "positive"
NEGATIVE = "negative"

_TINY_RATE = 1e-12
_PROBE_WINDOWS = 24  # windows of the left-endpoint divergence probe
# Windows by which a finite a's cut reaches past the probe's last certified
# one, deepest first: the slowest geometric decay the probe accepts (0.75
# per window) shrinks a tail by 2^-53 over 128 of them and by 1e-10 over 80.
_TAIL_WINDOWS = (128, 104, 80)
_FLOAT_RANGE = (OverflowError, ZeroDivisionError, GaugeError)  # range breakdown
# The numeric route's tolerance for values of a given size, absolute plus
# relative (``_tolerance``): the panels' two-order agreement test and the
# divergence probe's decision rules.
_ABS_TOL = 1e-10
_REL_TOL = 1e-10


def _safe_exp(u: float) -> float:
    if u > 700.0:
        return math.inf
    if u < -745.0:
        return 0.0
    return math.exp(u)


# ---------------------------------------------------------------------------
# Exact term rings
# ---------------------------------------------------------------------------

class ExpPoly:
    """Finite sum of terms c * u^d * exp(r*u), d a nonnegative integer.

    Closed under multiplication by exponentials and under integration from
    a finite point or from -inf, which is exactly what the chain recursion
    needs for unit/exponential gauges (u = x) and power gauges
    (u = log(x - base)).
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms = terms if terms is not None else {}

    @classmethod
    def exponential(cls, rate: float) -> "ExpPoly":
        return cls({(0, _canon_rate(rate)): 1.0})

    def _add_term(self, d: int, r: float, c: float) -> None:
        if c == 0.0:
            return
        key = (d, _canon_rate(r))
        self.terms[key] = self.terms.get(key, 0.0) + c

    def mul_exp(self, rate: float) -> "ExpPoly":
        out = ExpPoly()
        for (d, r), c in self.terms.items():
            out._add_term(d, r + rate, c)
        return out

    def antiderivative(self) -> "ExpPoly":
        out = ExpPoly()
        for (d, r), c in self.terms.items():
            if r == 0.0:
                out._add_term(d + 1, 0.0, c / (d + 1))
            else:
                sign = 1.0
                fact = 1.0
                for i in range(d + 1):
                    out._add_term(d - i, r, c * sign * fact / r ** (i + 1))
                    sign = -sign
                    fact *= d - i
        return out

    def integrate_from(self, t: float) -> Optional["ExpPoly"]:
        """Integral from t; from t = -inf, None when a term fails
        integrable decay there."""
        if t == -math.inf:
            if any(c != 0.0 and r <= _TINY_RATE for (d, r), c in self.terms.items()):
                return None
            return self.antiderivative()
        anti = self.antiderivative()
        out = ExpPoly(dict(anti.terms))
        out._add_term(0, 0.0, -anti.eval(t))
        return out

    def eval(self, x: float) -> float:
        acc = 0.0
        dominant = None  # overflowed term with the largest r*x (then degree)
        for (d, r), c in self.terms.items():
            if c == 0.0:
                continue
            e = _safe_exp(r * x) if r != 0.0 else 1.0
            if e == math.inf:
                key = (r * x, d)
                if dominant is None or key > dominant[0]:
                    dominant = (key, c)
                continue
            acc += c * x**d * e
        if dominant is not None:
            return math.inf if dominant[1] > 0 else -math.inf
        return acc

    def eval_many(self, xs: np.ndarray) -> np.ndarray:
        """eval at each of xs: the terms summed in eval's order, and a cell
        where some term overflows (r*x past 700) handed to eval, whose
        rule gives it its +-inf."""
        xs = np.asarray(xs, dtype=float)
        acc = np.zeros(xs.shape)
        over = np.zeros(xs.shape, dtype=bool)
        term = rx = None  # buffers, allocated by the first term that needs them
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for (d, r), c in self.terms.items():
                if c == 0.0:
                    continue
                term = np.power(xs, d, out=term)
                term *= c
                if r != 0.0:
                    rx = np.multiply(xs, r, out=rx)
                    over |= rx > 700.0
                    term *= np.exp(rx, out=rx)
                acc += term
        if over.any():
            acc[over] = [self.eval(x) for x in xs[over].tolist()]
        return acc

    def pretty(self, var: str = "x") -> str:
        bits = []
        for (d, r), c in sorted(self.terms.items(), key=lambda kv: kv[0]):
            if c == 0.0:
                continue
            factors = []
            if d:
                factors.append(f"{var}^{d}" if d > 1 else var)
            if r:
                factors.append(f"exp({_fmt(r)}{var})")
            if not factors:
                bits.append(_fmt(c))
            elif c == 1.0:
                bits.append("*".join(factors))
            else:
                bits.append(f"{_fmt(c)}*" + "*".join(factors))
        return " + ".join(bits) if bits else "0"


def _canon_rate(r: float) -> float:
    return 0.0 if abs(r) <= _TINY_RATE else r


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e12:
        return str(int(v))
    return repr(v)


# ---------------------------------------------------------------------------
# Panel chain integrator (generic route)
# ---------------------------------------------------------------------------

def _cheb_nodes(n: int) -> np.ndarray:
    # Chebyshev points of the second kind on [-1, 1], ascending.
    return -np.cos(np.pi * np.arange(n + 1) / n)


def _cheb_coeffs(vals: np.ndarray) -> np.ndarray:
    """Interpolation coefficients from values at _cheb_nodes(n), one set
    per row of vals (last axis of length n + 1)."""
    n = vals.shape[-1] - 1
    v = vals[..., ::-1]  # descending nodes = cos(pi*k/n)
    ext = np.concatenate([v, v[..., -2:0:-1]], axis=-1)
    c = np.fft.rfft(ext, axis=-1).real / n
    c[..., 0] /= 2.0
    c[..., n] /= 2.0
    return c


@functools.cache
def _cheb_cumulative(n: int) -> np.ndarray:
    """The (n+1)x(n+1) matrix Q with (Q @ v)[i] the integral over
    [-1, node i] of the interpolant of the values v at _cheb_nodes(n)."""
    cheb = np.polynomial.chebyshev
    ic = cheb.chebint(_cheb_coeffs(np.eye(n + 1)), axis=1)  # row k: node k
    at = cheb.chebvander(_cheb_nodes(n), n + 1) - cheb.chebvander(-1.0, n + 1)
    return at @ ic.T


class PanelChain:
    """Composite Clenshaw-Curtis chain integrator: the transfer matrices of
    levels j..m over panels, and the chain anchored at a break read from
    them.

    T(t, x) is the unit upper-triangular matrix whose entry [r][c] is the
    ordered iterated integral of w_{j+r+1} ... w_{j+c} over
    t <= y_c <= ... <= y_{r+1} <= x (signed where x < t), so that
    p_{t;j,m}(x) = w_j(x) T(t, x)[0][m - j].  Chen's identity for iterated
    integrals, T(t, x) = T(s, x) T(t, s), makes the matrix between any two
    breaks the product of the panel matrices ``mats[k]``: T(b_k, b_{k+1})
    for a panel right of the anchor, T(b_{k+1}, b_k) for one left of it.
    Positive gauges make the first kind's entries nonnegative and give the
    second kind's the sign (-1)^(c - r), so products of either kind never
    cancel and keep relative accuracy however small the values are.

    Row r of T(e, y), from the edge e nearer the anchor, is e_r plus the
    integral from e of w_{j+r+1} times row r + 1, so each gauge level is
    evaluated once per order, at every panel's Chebyshev nodes.  A panel's
    matrix is the order-48 one where order 32 agrees with it to the
    tolerance, and the product of its halves' matrices where not.

    A value is one more such product: w_j(x) times row 0 of T(e, x), over
    the sub-panel from the edge e of x's panel on the anchor's side, times
    the column T(t, e)[:, m - j], which the cover keeps at every break.
    It is exactly zero at the anchor.  ``extend`` adds panels on either
    side and keeps the matrices; a cover anchored at its bottom (the
    default) stays anchored there.
    """

    def __init__(
        self,
        gauges: GaugeSpec,
        levels: Sequence[int],
        breaks: np.ndarray,
        anchor: Optional[float] = None,
    ):
        if len(breaks) < 2:
            raise DomainError("need at least one panel")
        self.gauges = gauges
        self.levels = list(levels)
        breaks = np.asarray(breaks, dtype=float)
        self.lo, self.hi = float(breaks[0]), float(breaks[-1])
        self._bottom = anchor is None
        self.anchor = self.lo if anchor is None else float(anchor)
        if not self.lo <= self.anchor <= self.hi:
            raise DomainError("anchor outside working interval")
        if self.anchor not in breaks:
            breaks = np.insert(breaks, np.searchsorted(breaks, self.anchor),
                               self.anchor)
        self.breaks = breaks
        self.mats = self._transfer(breaks[:-1], breaks[1:],
                                   int(np.searchsorted(breaks, self.anchor)))
        self._cols = None  # T(t, b_k)[:, m - j] at the breaks, on first read

    def _ends(self, a: np.ndarray, b: np.ndarray, back: int,
              order: int) -> np.ndarray:
        """For panels [a_k, b_k], the first ``back`` of them left of the
        anchor: T(e_k, f_k) from the edge e_k nearer the anchor to the far
        one f_k."""
        half = ((b - a) / 2.0)[:, None, None]
        xs = a[:, None] + (_cheb_nodes(order) + 1.0) * half[:, 0]
        q_t = _cheb_cumulative(order).T
        q_back = -q_t[::-1, ::-1]  # integrals from the right edge
        size = len(self.levels)
        row = np.zeros((len(a), size, order + 1))  # row r of T(e_k, node)
        row[:, -1] = 1.0
        ends = np.empty((len(a), size, size))
        ends[:, -1] = row[..., -1]
        for r in range(size - 2, -1, -1):
            w = self.gauges.values(self.levels[r + 1], xs.ravel()).reshape(xs.shape)
            zero = w == 0.0
            if zero.any() and np.any(zero[:, None, :] & (np.abs(row) > 1e250)):
                raise QuadratureError(
                    "gauge underflow against a huge integral: float range breakdown"
                )
            row *= w[:, None, :]
            nxt = np.empty_like(row)  # one product per direction, into one array
            np.matmul(row[:back], q_back, out=nxt[:back])
            np.matmul(row[back:], q_t, out=nxt[back:])
            row = nxt
            row *= half
            row[:, r] += 1.0
            ends[:back, r] = row[:back, :, 0]
            ends[back:, r] = row[back:, :, -1]
        return ends

    def _transfer(self, a: np.ndarray, b: np.ndarray, back: int,
                  depth: int = 0) -> np.ndarray:
        """T(e_k, f_k) over the spans [a_k, b_k] as ``_ends`` gives it, at
        order 48 where order 32 agrees with it to the tolerance; a span
        where they do not is the product of its two halves'."""
        high = self._ends(a, b, back, 48)
        low = self._ends(a, b, back, 32)
        bad = np.flatnonzero(~np.all(np.abs(low - high) <= _tolerance(np.abs(high)),
                                     axis=(1, 2)))
        if len(bad):
            if depth == 8:
                raise QuadratureError(
                    f"panel chain did not converge after {depth} bisections "
                    f"on [{self.lo}, {self.hi}]")
            mid = 0.5 * (a[bad] + b[bad])
            nb = int(np.count_nonzero(bad < back))
            lower = self._transfer(a[bad], mid, nb, depth + 1)
            upper = self._transfer(mid, b[bad], nb, depth + 1)
            # Chen's identity from the near half to the far one.
            high[bad[:nb]] = lower[:nb] @ upper[:nb]
            high[bad[nb:]] = upper[nb:] @ lower[nb:]
        return high

    def extend(self, lo: float, hi: float) -> None:
        """Grow the cover to [lo, hi] by new panels below and above it."""
        below = _panel_breaks(lo, self.lo)[:-1] if lo < self.lo else []
        above = _panel_breaks(self.hi, hi)[1:] if hi > self.hi else []
        if len(below) or len(above):
            breaks = np.concatenate([below, self.breaks, above])
            k, n = len(below), len(self.mats)
            new = np.r_[0:k, k + n:len(breaks) - 1]  # the new panels
            mats = self._transfer(breaks[new], breaks[new + 1], 0 if self._bottom else k)
            self.mats = np.concatenate([mats[:k], self.mats, mats[k:]])
            self.breaks, self.lo, self.hi = breaks, float(breaks[0]), float(breaks[-1])
            self.anchor = self.lo if self._bottom else self.anchor
            self._cols = None

    def _prefix(self) -> np.ndarray:
        """T(t, b_k)[:, m - j] at every break b_k, walked outward from the
        anchor t."""
        size = len(self.levels)
        cols = np.empty((len(self.breaks), size))
        at = int(np.searchsorted(self.breaks, self.anchor))
        cols[at] = np.eye(size)[-1]
        for k in range(at, len(self.mats)):  # rightward
            cols[k + 1] = self.mats[k] @ cols[k]
        for k in range(at - 1, -1, -1):  # leftward
            cols[k] = self.mats[k] @ cols[k + 1]
        return cols

    def values(self, xs: np.ndarray, final: Optional[np.ndarray] = None) -> np.ndarray:
        """Values at each of xs; ``final``, when given, stands in for the
        bottom level's gauge factor w_j at each x."""
        xs = np.asarray(xs, dtype=float)
        if xs.size and not (self.lo <= xs.min() and xs.max() <= self.hi):
            raise DomainError("query outside working interval")
        if self._cols is None:
            self._cols = self._prefix()
        at = np.searchsorted(self.breaks, xs)  # breaks[at - 1] < x <= breaks[at]
        inside = self.breaks[at] != xs
        left = xs < self.anchor
        edge = np.where(left | ~inside, at, at - 1)  # on the anchor's side
        v = self._cols[edge, 0]  # at a break: T(t, x)[0][m - j]
        k = np.flatnonzero(inside)
        if len(k):
            k = k[np.argsort(~left[k], kind="stable")]  # left of the anchor first
            near = self.breaks[edge[k]]
            ends = self._transfer(np.minimum(near, xs[k]), np.maximum(near, xs[k]),
                                  int(np.count_nonzero(left[k])))
            cols = self._cols[edge[k]]  # one order of summation for every x
            v[k] = sum(ends[:, 0, c] * cols[:, c] for c in range(len(self.levels)))
        if final is None:
            final = self.gauges.values(self.levels[0], xs)
        v = v * final
        if len(self.levels) > 1:
            v[xs == self.anchor] = 0.0  # the integral from the anchor to itself
        return v

    def eval(self, x: float, final: Optional[float] = None) -> float:
        """``values`` at the one point x."""
        return float(self.values(np.array([x], dtype=float),
                                 None if final is None else np.array([final]))[0])


def _tolerance(scale):
    """The numeric route's tolerance for values of size scale."""
    return _ABS_TOL + _REL_TOL * (1e-30 + scale)


def _panel_breaks(lo: float, hi: float) -> np.ndarray:
    """Uniform panel edges on [lo, hi]: width at most 2, at least 4 panels."""
    n = max(4, int(math.ceil((hi - lo) / 2.0)))
    return np.linspace(lo, hi, n + 1)


@dataclass(frozen=True)
class _LeftFrame:
    """The frame in which a is u = -inf: its gauges, its probe point x0 and
    its floor, the lowest u at which a gauge may be evaluated.

    For a = -inf that is the gauge itself, in x.  A finite open a goes to
    u = -inf under x = a + e^u, with transported gauges wt_0 = w_0(a + e^u)
    and wt_j = w_j(a + e^u) e^u; p_{a;j,m}(x) is then pt_{-inf;j,m}(log(x - a)),
    divided by x - a for j >= 1.  Below the floor, about log(4 ulp(a)),
    a + e^u no longer resolves from a.
    """

    gauges: GaugeSpec
    x0: float
    floor: float = -math.inf

    def anchor_at(self, i: int) -> float:
        """Where the probe's window i starts: doubling windows at a = -inf,
        steps of log 2 (halving x - a) down to the floor at a finite a."""
        if math.isinf(self.floor):
            return self.x0 - max(8.0, 2.0 * abs(self.x0)) * 2.0**i
        return max(self.x0 - (i + 1) * math.log(2.0), self.floor)

    def cuts(self, depth: int, x: float) -> list:
        """Where a chain queried at x may be cut, deepest first, given the
        probe's last certified window: at a = -inf that window, at least 8
        below x; at a finite a, _TAIL_WINDOWS windows past it, moved down
        with x below x0, and not below the floor."""
        if math.isinf(self.floor):
            return [min(self.anchor_at(depth), x - 8.0)]
        shift = min(x - self.x0, 0.0)
        return [max(self.anchor_at(depth + k) + shift, self.floor)
                for k in _TAIL_WINDOWS]


def _left_frame(g: GaugeSpec, n: int) -> _LeftFrame:
    """The left frame of g's levels 0..n."""
    iv = g.interval
    a = iv.a
    lo = a if math.isfinite(a) else -1.0
    hi = iv.b if math.isfinite(iv.b) else max(lo + 2.0, 1.0)
    x0 = lo + 0.75 * (hi - lo)
    if math.isinf(a):
        return _LeftFrame(g, x0)
    psi = ScaleMap(
        Interval(-math.inf, math.log(iv.b - a), right_closed=iv.right_closed),
        iv,
        psi=lambda u: a + math.exp(u),
        psi_prime=math.exp,
        psi_inverse=lambda x: math.log(x - a),
        name="log",
    )
    floor = max(math.log(4.0 * math.ulp(a)), -700.0)
    return _LeftFrame(
        transport_gauges(g, psi, n_entries=n + 1), math.log(x0 - a), floor)


# ---------------------------------------------------------------------------
# Chain evaluator
# ---------------------------------------------------------------------------

class _Descent:
    """Evaluates a chain: from ``start``, each of ``levels`` in turn
    integrates from ``anchor`` and multiplies by that level's gauge.

    p_{t;j,m} starts from the gauge level m (an int) with anchor t, and
    p_{a,z;i:k:j} with a closed-form start p_{a;k,j} starts from that
    chain's evaluator with anchor z.  The route is picked once: the
    closed-form descent when the start has an ExpPoly form (the second
    chain takes its start's ring as it is), then the one-level
    antiderivative shortcut (``_one_level_cells``), then the
    left-endpoint probe, and otherwise one PanelChain cover, built on the
    first evaluation and grown by later ones that fall outside it.  A
    chain anchored at a runs in its ``_LeftFrame``, where a is u = -inf.
    ``values`` holds every route's arithmetic, and ``eval`` is ``values``
    at one point.
    """

    def __init__(self, g: GaugeSpec, start, levels: Sequence[int],
                 anchor: float):
        self.g = g
        self.start = start
        self.levels = list(levels)
        self.anchor = anchor
        self.divergent = False
        self._exact = None  # the closed form, an ExpPoly in u
        self._anti = None  # W, an antiderivative of a one-level chain's w_m
        self._log_base = _log_base(g)
        self._panel: Optional[PanelChain] = None
        self._left = None  # (_LeftFrame, the probe's certified depth)
        self._prepare()

    def _prepare(self) -> None:
        g, start, levels, t = self.g, self.start, self.levels, self.anchor
        ring = _gauge_ring(g, start) if isinstance(start, int) else start._exact
        if ring is not None:
            self._exact = _descend(ring, g, levels, _ring_u(g, t))
            self.divergent = self._exact is None
            return
        if not levels:
            return
        if len(levels) == 1:
            anti = g.antideriv(start)
            if anti is not None:
                self._anti = anti
                self.divergent = not math.isfinite(anti(t))  # no integrable decay
                return
        iv = g.interval
        if math.isinf(t) or (t == iv.a and not iv.left_closed):
            frame = _left_frame(g, start)
            finite, depth = _probe_left_chain(frame, levels[-1], start)
            if not finite:
                self.divergent = True
            else:
                self._left = (frame, depth)

    def _cover(self, xs: list) -> PanelChain:
        """The PanelChain covering every x of xs, points of the left frame
        if anchored at a: built by the first call, grown toward a later
        call's points that fall outside it."""
        old, x_lo, x_hi = self._panel, min(xs), max(xs)
        levels = range(self.levels[-1], self.levels[0] + 2)  # bottom to top
        if self._left is None:
            # Interior anchor: a working interval around the anchor and xs,
            # grown by at least doubling its reach past ref on a side, so
            # that queries on alternating sides do not add panels each time.
            g, ref = self.g, self.anchor
            iv = g.interval
            pad = 0.5 * (1.0 + max(ref - x_lo, x_hi - ref))
            lo = max(min(ref, x_lo) - pad, iv.a)
            hi = min(max(ref, x_hi) + pad, iv.b)
            if old is not None:
                old.extend(max(min(lo, 2.0 * old.lo - ref), iv.a) if x_lo < old.lo else old.lo,
                           min(max(hi, 2.0 * old.hi - ref), iv.b) if x_hi > old.hi else old.hi)
            elif lo < hi:
                self._panel = PanelChain(g, levels, _panel_breaks(lo, hi), anchor=ref)
            else:
                raise DomainError("cannot build working interval")
            return self._panel
        # Cut in the probe's windows, which end at the probe point x0.
        frame, depth = self._left
        g, finite_a = frame.gauges, math.isfinite(frame.floor)
        if x_lo < frame.floor:
            raise InconclusiveError(f"x - a = e^{x_lo} is too close to a to resolve")
        cuts = frame.cuts(depth, x_lo)  # the lowest point cuts deepest
        # Reach 0.5 past x; at a finite a, where x - a = e^x, at most 1 past
        # it in x as well, so that a fast-growing gauge is not evaluated at
        # e^0.5 times the query.  There a doubled reach in u would be a
        # power of x - a, so the cover grows only to the query's own reach.
        reach = min(x_hi + 0.5, math.log1p(math.exp(x_hi))) if finite_a else x_hi + 0.5
        hi = min(max(reach, frame.x0), g.interval.b)
        if old is not None and x_hi <= old.hi:
            hi = old.hi
        elif old is not None and not finite_a:
            hi = min(max(hi, 2.0 * old.hi - frame.x0), g.interval.b)
        # The deepest cut at which every gauge stays in float range (one
        # may overflow near a) and that still leaves a negligible tail.
        for cut in [cuts[0]] + [c for c in cuts[1:] if c > cuts[0]]:
            try:
                if old is None:
                    self._panel = PanelChain(g, levels, _panel_breaks(cut, hi))
                else:
                    old.extend(min(cut, old.lo), hi)
                return self._panel
            except _FLOAT_RANGE as exc:
                err = exc
        raise InconclusiveError(
            f"no cut from {cuts[0]} to {cut} keeps the gauges in float range"
        ) from err

    def _frame_points(self, xs: list) -> tuple:
        """xs as points of the cover's frame, and the bottom level's gauge
        factors there (None: the cover's own).  For a finite a, x = a + e^u,
        and the factor is w_j at x itself: the frame's w_j(a + e^u)
        e^u^[j >= 1] over (x - a)^[j >= 1]."""
        a = self.anchor
        if self._left is None or math.isinf(a):
            return xs, None
        return ([math.log(x - a) for x in xs],
                np.array([self.g.value(self.levels[-1], x) for x in xs]))

    def values(self, xs: list) -> np.ndarray:
        """The chain at each float of xs, +inf if it diverges: the closed form
        (0 at the anchor) and a bare gauge level point by point, any other
        route in one call for all of xs."""
        if self.divergent:
            return np.full(len(xs), math.inf)
        if self._exact is not None:
            at = self.anchor if self.levels else math.nan
            us = xs if self._log_base is None else [_ring_u(self.g, x) for x in xs]
            return np.array([0.0 if x == at else self._exact.eval(u)
                             for x, u in zip(xs, us)], dtype=float)
        if not self.levels:
            return np.array([self.g.value(self.start, x) for x in xs], dtype=float)
        if self._anti is not None:
            xs = np.asarray(xs, dtype=float)
            return _one_level_cells(self.g, self.levels[0], self._anti,
                                    np.full(xs.shape, self.anchor), xs)
        if not xs:
            return np.zeros(0)
        us, final = self._frame_points(xs)
        return self._cover(us).values(us, final)

    def eval(self, x: float) -> float:
        return self.values([x]).item()


def _chain_t(g: GaugeSpec, t: float, j: int, m: int) -> _Descent:
    """p_{t;j,m}: w_m descended through levels m-1, ..., j from t."""
    if j > m:
        raise DomainError("need j <= m")
    return _Descent(g, m, range(m - 1, j - 1, -1), t)


def _ring_rate(g: GaugeSpec) -> Callable[[int], float]:
    """j -> the rate r of w_j = exp(r*u) in the ring's variable u."""
    if isinstance(g, UnitGauge):
        return lambda j: 0.0
    if isinstance(g, PowerGauge):
        return lambda j: g.lam(j) - 1.0
    return g.lam  # type: ignore[union-attr]


def _log_base(g: GaugeSpec) -> Optional[float]:
    """The base of the ring's variable u = log(x - base) for a power gauge;
    None where u = x."""
    return g.base if isinstance(g, PowerGauge) else None


def _ring_u(g: GaugeSpec, x: float) -> float:
    """x in the ring's variable u (-inf at a power gauge's base)."""
    base = _log_base(g)
    if base is None:
        return x
    return math.log(x - base) if x > base else -math.inf


def _gauge_ring(g: GaugeSpec, m: int) -> Optional[ExpPoly]:
    """w_m as an ExpPoly in the ring's variable; None for a gauge without
    one."""
    if isinstance(g, (UnitGauge, ExponentialGauge, PowerGauge)):
        return ExpPoly.exponential(_ring_rate(g)(m))
    return None


def _descend(ring: ExpPoly, g: GaugeSpec, levels: Sequence[int], u_t: float):
    """The closed-form descent in the ring's variable u from its anchor
    u_t; None when an integral from u_t = -inf (t = -inf, or t at a power
    gauge's base) diverges."""
    power = _log_base(g) is not None
    rate = _ring_rate(g)
    for lvl in levels:
        if power:
            ring = ring.mul_exp(1.0)  # dx = exp(u) du
        ring = ring.integrate_from(u_t)
        if ring is None:
            return None
        ring = ring.mul_exp(rate(lvl))
    return ring


# ---------------------------------------------------------------------------
# Divergence probe for a generic left-anchored chain
# ---------------------------------------------------------------------------

def _strongly_decayed(incs, vals) -> bool:
    """Two-increment early acceptance: the latest window added next to
    nothing and shrank by 10x, so the remaining tail is negligible."""
    if len(incs) < 2:
        return False
    tol = _tolerance(abs(vals[-1]) + 1.0)
    return 0.0 <= incs[-1] <= tol and incs[-1] <= 0.1 * incs[-2]


class _WindowSweep:
    """T(L_i, x0) of a left frame's levels lo..hi at the probe's window
    anchors L_i = frame.anchor_at(i), built window by window.

    Window i's segment [L_i, L_{i-1}] (x0 in place of L_{-1}) is built
    once, as a PanelChain on _panel_breaks of the segment, and
    T(L_i, x0) = T(L_{i-1}, x0) T(L_i, L_{i-1}); every pair (j, m) in
    lo..hi reads its truncations p_{L_i;j,m}(x0) = w_j(x0) T(L_i, x0)[j][m]
    from the same matrices.

    Where a segment's build breaks down (a gauge leaves float range, or a
    panel does not converge), a pair that reaches that window goes on in
    a sweep of its own levels j..m, since the level that broke down may
    not be among them.  That sweep starts from the block j..m of the
    windows built so far, which is their T of levels j..m alone, so a
    breakdown stays attributed to the pair and the window where it
    happens.
    """

    def __init__(self, frame: _LeftFrame, lo: int, hi: int):
        self.frame = frame
        self.lo = lo
        self.levels = range(lo, hi + 1)
        self._at: list = []  # T(L_i, x0) for the windows built so far
        self._broken: Optional[Exception] = None  # what stopped the next window
        self._own: dict = {}  # (j, m) -> the pair's own sweep past a breakdown

    def value(self, i: int, j: int, m: int) -> float:
        """p_{L_i;j,m}(x0) in the frame's gauges."""
        while len(self._at) <= i and self._broken is None:
            self._extend()
        if len(self._at) <= i:
            if len(self.levels) == m - j + 1:
                raise self._broken
            own = self._own.get((j, m))
            if own is None:
                own = self._own[j, m] = _WindowSweep(self.frame, j, m)
                block = slice(j - self.lo, m - self.lo + 1)
                own._at = [acc[block, block] for acc in self._at]
            return own.value(i, j, m)
        v = float(self._at[i][j - self.lo, m - self.lo])
        if math.isnan(v):
            raise OverflowError(f"window {i}: inf * 0 in the transfer product")
        f = self.frame
        return v * f.gauges.value(j, f.x0)

    def _extend(self) -> None:
        f, i = self.frame, len(self._at)
        top = f.x0 if i == 0 else f.anchor_at(i - 1)
        try:
            mats = PanelChain(f.gauges, self.levels,
                              _panel_breaks(f.anchor_at(i), top)).mats
        except (*_FLOAT_RANGE, QuadratureError) as exc:
            self._broken = exc
            return
        acc = self._at[-1] if self._at else np.eye(len(self.levels))
        with np.errstate(over="ignore", invalid="ignore"):
            for mat in mats[::-1]:  # leftward: R <- R T_k
                acc = acc @ mat
        self._at.append(acc)


def _probe_left_chain(frame: _LeftFrame, j: int, m: int,
                      sweep: Optional[_WindowSweep] = None):
    """Decide the left-endpoint dichotomy by truncated-anchor probing.

    In the ``_LeftFrame``, where a is u = -inf, truncations p_{L;j,m}(x0)
    increase as L marches toward -inf through the windows of
    ``frame.anchor_at``: doubling windows for a = -inf, steps of log 2
    (halving x - a) down to the floor for a finite a.  Geometric decay of
    the increments over three consecutive windows certifies a finite limit;
    non-decreasing increments certify divergence; anything else raises
    InconclusiveError rather than guessing.  Returns (finite, depth of the
    last certified window), from which ``frame.cuts`` cuts the chain.
    The truncations come from ``sweep`` (one of levels j..m by default),
    which several pairs of one frame may share.
    """
    if sweep is None:
        sweep = _WindowSweep(frame, j, m)
    x0, floor, anchor_at = frame.x0, frame.floor, frame.anchor_at
    vals, incs = [], []
    decided_at = None
    for i in range(_PROBE_WINDOWS):
        try:
            if i and anchor_at(i - 1) == floor:  # the last window reached it
                raise OverflowError(f"window {i} stays at the float floor")
            v = sweep.value(i, j, m)
        except _FLOAT_RANGE as exc:
            # Float range breakdown inside this window; decide from the
            # evidence gathered so far, never by fiat.
            if decided_at is not None:
                return True, i - 1
            if len(incs) >= 2 and incs[-1] > 1.5 * incs[-2] > 0:
                return False, None
            if _strongly_decayed(incs, vals):
                return True, i - 1
            raise InconclusiveError(
                f"divergence probe for p_(a;{j},{m}) hit float range limits "
                f"in window {i} before the dichotomy was settled"
            ) from exc
        except QuadratureError as exc:
            raise InconclusiveError(
                f"divergence probe for p_(a;{j},{m}) could not resolve the "
                f"truncated chain in window {i}: {exc}"
            ) from exc
        if not math.isfinite(v):
            return False, None  # truncations are monotone: the limit is inf
        vals.append(v)
        if i >= 1:
            incs.append(vals[-1] - vals[-2])
        if len(incs) >= 2 and incs[-1] > 100.0 * incs[-2] > 0:
            return False, None  # explosive growth of monotone truncations
        if _strongly_decayed(incs, vals):
            return True, i
        if len(incs) >= 3:
            d1, d2, d3 = incs[-3], incs[-2], incs[-1]
            tol = _tolerance(abs(vals[-1]) + 1.0)
            if d3 <= tol:
                return True, i
            if d1 > 0 and d2 > 0 and d2 / d1 <= 0.75 and d3 / d2 <= 0.75:
                # Geometric decay: the limit exists.  March a little longer
                # for value accuracy while the panel budget allows.
                if decided_at is None:
                    decided_at = i
                q = max(d2 / d1, d3 / d2)
                budget = (x0 - anchor_at(i + 1)) / 2.0 > 900.0
                if d3 * q / (1.0 - q) <= 10.0 * tol or i - decided_at >= 4 or budget:
                    return True, i
            elif decided_at is None and d1 > 0 and d2 > 0:
                # Over doubling windows, divergence shows as increment
                # ratios at or above 1 with a flat-or-rising trend.  A
                # ratio that is large but steadily falling is the
                # transient of a slowly decaying integrand: march on.
                r12 = d2 / d1
                r23 = d3 / d2
                if r12 >= 0.999 and r23 >= 0.999 and r23 >= r12 * 0.999:
                    return False, None
    if decided_at is not None:
        return True, _PROBE_WINDOWS - 1
    raise InconclusiveError(
        f"divergence probe for p_(a;{j},{m}) did not settle after "
        f"{_PROBE_WINDOWS} doubling windows"
    )


# ---------------------------------------------------------------------------
# Finiteness sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FinitenessSet:
    """Finiteness pattern of the left-anchored chain up to level n.

    Columns F_(.m) are contiguous upper ranges [j_m, m]; rows F_(j.) need
    not be contiguous.
    """

    gauges: GaugeSpec
    n: int
    table: tuple  # table[j][m-j] for 0 <= j <= m <= n
    method: str

    def contains(self, j: int, m: int) -> bool:
        if not 0 <= j <= m <= self.n:
            raise DomainError(f"need 0 <= j <= m <= {self.n}")
        return self.table[j][m - j]

    def j_m(self, m: int) -> int:
        """Minimal j with (j, m) finite; columns are contiguous."""
        jm = m
        for j in range(m, -1, -1):
            if self.contains(j, m):
                jm = j
            else:
                break
        return jm

    def column(self, m: int) -> list:
        return [j for j in range(m + 1) if self.contains(j, m)]

    def F_kn(self, k: int) -> list:
        """F_{k,n}: the levels m in [k, n] with p_{a;k,m} finite (row k)."""
        return [m for m in range(k, self.n + 1) if self.contains(k, m)]


def finiteness_set(
    g: GaugeSpec, n: int, force_probe: bool = False
) -> FinitenessSet:
    """Finiteness pattern of p_{a;j,m} for 0 <= j <= m <= n.

    With a in I every entry is finite.  For the unit/exponential/power
    families the pattern is the chains' own closed-form descent from a
    (``_descend``, where a rate within 1e-12 of 0 counts as 0), so an entry
    is finite exactly when that chain's handle is; otherwise probe
    integration decides.  ``force_probe`` bypasses the analytic routes so
    the two can be compared.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    iv = g.interval
    table = [[None] * (n + 1 - j) for j in range(n + 1)]

    def put(j, m, val):
        table[j][m - j] = val

    def fill(pred, method):
        for j in range(n + 1):
            for m in range(j, n + 1):
                put(j, m, pred(j, m))
        return FinitenessSet(g, n, _freeze(table), method)

    if not force_probe:
        if iv.left_closed:
            return fill(lambda j, m: True, "a in I")
        if _gauge_ring(g, 0) is not None:
            # The chains' own descent from a, one level at a time: once
            # p_{a;j,m} diverges, so does every p_{a;i,m} with i < j.
            for m in range(n + 1):
                ring = _gauge_ring(g, m)
                for j in range(m, -1, -1):
                    if j < m and ring is not None:
                        ring = _descend(ring, g, [j], _ring_u(g, iv.a))
                    put(j, m, ring is not None)
            return FinitenessSet(g, n, _freeze(table), "analytic")

    # Levels 0..n must exist (a short TableGauge raises GaugeError here), so
    # that the probe's GaugeError can only mean a range breakdown.
    g.shifted(n)
    frame = _left_frame(g, n)
    sweep = _WindowSweep(frame, 0, n)
    for m in range(n + 1):
        put(m, m, True)
        for j in range(m - 1, -1, -1):
            if table[j + 1][m - j - 1] is False:
                put(j, m, False)  # dichotomy propagates downward
                continue
            finite, _ = _probe_left_chain(frame, j, m, sweep)
            put(j, m, finite)
    return FinitenessSet(g, n, _freeze(table), "probe")


def _freeze(table) -> tuple:
    return tuple(tuple(bool(v) for v in row) for row in table)


# ---------------------------------------------------------------------------
# Handles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WPolyHandle:
    """An evaluable w-polynomial or a positive/negative part of one.

    ``family`` is a tagged tuple:
      ("chain_t", t, j, m)         p_{t;j,m}, an S^j w-polynomial;
      ("chain_az", z, i, k, j)     p_{a,z;i:k:j}, an S^i w-polynomial;
      ("interp", z, (c_0..c_k))    sum_l c_l p_{z;0,l}.

    Gauged derivatives are evaluated through the exact chain identities,
    never by differencing.  A handle builds its evaluator once and reuses
    it; values are not memoized.  ``values`` over many points is the
    evaluation path; ``eval`` (and calling the handle) is ``values`` at one
    point.
    """

    gauges: GaugeSpec
    family: tuple
    part: str = FULL
    _state: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.part not in (FULL, POSITIVE, NEGATIVE):
            raise DomainError(f"bad part {self.part!r}")
        if self.part != FULL and self.family[0] != "chain_t":
            raise DomainError("positive/negative parts apply to the t-chain only")

    @property
    def tag(self) -> str:
        return self.family[0]

    # -- evaluation -----------------------------------------------------------
    def eval(self, x: float) -> float:
        """``values`` at the one point x."""
        return self.values([x]).item()

    __call__ = eval

    def values(self, xs) -> np.ndarray:
        """The value at each of xs, from one call of the evaluator; +inf
        signals analytic divergence of the chain, and a part is 0.0 off its
        side of t (which covers the inf * 0 = 0 convention)."""
        xs = [float(x) for x in xs]
        for x in xs:
            self.gauges.interval.require(x)
        if self.part == FULL:
            return self._full_evaluator().values(xs)
        t, pos = self.family[1], self.part == POSITIVE  # 0.0 off the part's side
        vals = iter(self._full_evaluator().values([x for x in xs if (x >= t) == pos]).tolist())
        return np.array([next(vals) if (x >= t) == pos else 0.0 for x in xs])

    def _full_evaluator(self):
        ev = self._state.get("ev")
        if ev is None:
            ev = _build_evaluator(self.gauges, self.family)
            self._state["ev"] = ev
        return ev

    # -- exact gauged derivatives ----------------------------------------------
    def gauged_deriv(self, s: int, x: float) -> float:
        """s-th gauged derivative at x under the handle's own gauge level.

        A chain_t handle at level j differentiates under the j-shifted
        gauges; the s-th derivative is p_{t;j+s,m}/w_{j+s}, with positive
        parts carrying their indicator through each level unchanged.
        """
        if s < 0:
            raise DomainError("derivative order must be >= 0")
        if self.part == NEGATIVE and s > 0:
            raise PreconditionError("negative parts are not differentiable across t")
        g = self.gauges
        x = float(x)
        sub = self._deriv_handle(s)
        if sub is None:
            return 0.0
        g.interval.require(x)
        level = s if self.tag == "interp" else self.family[2] + s  # j + s
        return sub.eval(x) / g.value(level, x)

    def _deriv_handle(self, s: int):
        """Handle (the interp family's evaluator) whose value / w_level is
        the s-th derivative."""
        cache = self._state.setdefault("derivs", {})
        if s in cache:
            return cache[s]
        g = self.gauges
        out = None
        if self.tag == "chain_t":
            _, t, j, m = self.family
            if s <= m - j:
                out = WPolyHandle(g, ("chain_t", t, j + s, m), self.part)
        elif self.tag == "chain_az":
            _, z, i, k, j = self.family
            lvl = i + s
            if lvl <= j:
                if lvl >= k:
                    out = WPolyHandle(g, ("chain_t", g.interval.a, lvl, j))
                else:
                    out = WPolyHandle(g, ("chain_az", z, lvl, k, j))
        else:
            _, z, coeffs = self.family
            out = _InterpSum(g, z, [c if l >= s else 0.0 for l, c in enumerate(coeffs)],
                             level=s)
        cache[s] = out
        return out

    def x_ring(self) -> Optional["XRing"]:
        """The handle's values as an ExpPoly in x on its region, or None
        unless its evaluator is a closed-form descent in u = x (unit and
        exponential gauges; chain_az and every part of chain_t)."""
        ev = self._full_evaluator()
        poly = _x_poly(ev)
        if poly is None:
            return None
        t = self.family[1]
        region = {FULL: (-math.inf, math.inf), POSITIVE: (t, math.inf),
                  NEGATIVE: (-math.inf, t)}[self.part]
        return XRing(poly, ev.anchor if ev.levels else None, region)

    def pretty(self) -> str:
        poly = _x_poly(self._full_evaluator())
        if poly is not None:
            return poly.pretty()
        return f"<{self.tag}{self.family[1:]}:{self.part}>"


class XRing(NamedTuple):
    """A handle's values as a ring in x: ``poly`` at every x of the region
    lo <= x < hi (and 0 outside it), except exactly 0 at ``anchor``, the
    point a chain with at least one level integrates from (None for a bare
    gauge level)."""

    poly: ExpPoly
    anchor: Optional[float]
    region: tuple


def _x_poly(ev) -> Optional[ExpPoly]:
    """The closed form of a chain evaluator when it is a ring in x (not in
    log(x - base)); None otherwise."""
    if isinstance(ev, _Descent) and ev._exact is not None and ev._log_base is None:
        return ev._exact
    return None


class _InterpSum:
    """sum_l c_l p_{z;i,l} via per-term chain evaluators (i = ``level``)."""

    def __init__(self, g: GaugeSpec, z: float, coeffs, level: int = 0):
        self.parts = [
            (c, _chain_t(g, z, level, l))
            for l, c in enumerate(coeffs)
            if c != 0.0
        ]

    def values(self, xs: list) -> np.ndarray:
        terms = [c * ev.values(xs) for c, ev in self.parts] or [np.zeros(len(xs))]
        return np.array([math.fsum(vs) for vs in zip(*terms)])

    def eval(self, x: float) -> float:
        return self.values([x]).item()


def _build_evaluator(g: GaugeSpec, family: tuple):
    tag = family[0]
    if tag == "chain_t":
        _, t, j, m = family
        return _chain_t(g, t, j, m)
    if tag == "chain_az":
        _, z, i, k, j = family
        if not i <= k <= j:
            raise DomainError("need i <= k <= j")
        start = _chain_t(g, g.interval.a, k, j)
        if start.divergent:
            raise PreconditionError(
                f"(k, j) = ({k}, {j}) is not in the finiteness set; "
                "p_(a;k,j) diverges"
            )
        if i == k:
            return start
        if k == j:  # p_{a;k,k} = w_k, so this is p_{z;i,k}
            return _chain_t(g, z, i, k)
        if start._exact is not None:
            return _Descent(g, start, range(k - 1, i - 1, -1), z)
        # Chen's identity split at z: p_{a,z;i:k:j} is the sum over c in
        # k..j of p_{a;c,j}(z)/w_c(z) p_{z;i,c}, with coefficient 1 at c = j.
        a = g.interval.a
        coeffs = [0.0] * k + [
            (start if c == k else _chain_t(g, a, c, j)).eval(z) / g.value(c, z)
            for c in range(k, j)
        ] + [1.0]
        return _InterpSum(g, z, coeffs, level=i)
    if tag == "interp":
        _, z, coeffs = family
        return _InterpSum(g, z, coeffs)
    raise DomainError(f"unknown family {tag!r}")


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def chain_t_handle(
    g: GaugeSpec,
    t: float,
    j: int,
    m: int,
    part: str = FULL,
) -> WPolyHandle:
    """Handle for p_{t;j,m}; t must lie in [a, b)."""
    iv = g.interval
    if not (t == iv.a or (iv.contains(t) and t < iv.b)):
        raise DomainError(f"anchor t={t} not in [{iv.a}, {iv.b})")
    if not 0 <= j <= m:
        raise DomainError("need 0 <= j <= m")
    return WPolyHandle(g, ("chain_t", float(t), j, m), part)


def chain_az_handle(
    g: GaugeSpec,
    z: float,
    i: int,
    k: int,
    j: int,
) -> WPolyHandle:
    """Handle for p_{a,z;i:k:j}; requires (k, j) in the finiteness set."""
    iv = g.interval
    if not iv.a < z < iv.b:
        raise DomainError(f"z={z} must lie in the open interval ({iv.a}, {iv.b})")
    if not 0 <= i <= k <= j:
        raise DomainError("need 0 <= i <= k <= j")
    h = WPolyHandle(g, ("chain_az", float(z), i, k, j))
    h._full_evaluator()  # validates (k, j) in F eagerly
    return h


def interpolate(
    g: GaugeSpec,
    z: float,
    c: Sequence[float],
) -> WPolyHandle:
    """The unique w-polynomial p of degree <= k with p^(l)(z) = c_l.

    Realized as the basis combination sum_l c_l p_{z;0,l}.
    """
    g.interval.require(z, "interpolation point")
    coeffs = tuple(float(v) for v in c)
    return WPolyHandle(g, ("interp", float(z), coeffs))


def translated_chain(g: GaugeSpec, j: int, m: int) -> Optional[tuple]:
    """(sigma, base) with p_{t;j,m}(x) = exp(sigma*u_t) * base(u_x - u_t)
    for every t with a finite u_t, in the ring's variable u (x itself
    under unit and exponential gauges); None for a gauge without a ring.
    base is the chain anchored at u = 0, and sigma sums the rates of
    levels j..m and, under a power gauge, 1 per level for dx = exp(u) du."""
    ring = _gauge_ring(g, m)
    if ring is None:
        return None
    rate, power = _ring_rate(g), _log_base(g) is not None
    sigma = math.fsum([rate(s) for s in range(j, m + 1)] + [power * (m - j)])
    return sigma, _descend(ring, g, range(m - 1, j - 1, -1), 0.0)


def chain_t_two_arg(g: GaugeSpec, j: int, m: int) -> Callable:
    """Return a (t, x) -> p+_{t;j,m}(x) evaluator for anchors t in I: the
    chain's value where x >= t and 0 where x < t.

    Arrays broadcast against each other and give an array; a pair of
    floats gives a float, from the array call on one cell (unit and
    exponential gauges keep their own scalar arithmetic for it, which a
    quadrature's one-point integrand needs for speed).  An anchor left
    of a raises DomainError, and so does t = a at an open a under a
    gauge with no closed form.  One array route per gauge kind:

    * a closed form: ``translated_chain``'s base, one ExpPoly.eval_many on
      the cells with u_x >= u_t, times e^(sigma u_t).  Under a power gauge
      whose base is a, the cells at t = a (u_t = -inf) take the chain's
      descent from u = -inf, +inf where it diverges;
    * otherwise, on the cells with x >= t: m = j is w_m from one values()
      call; a one-level chain whose w_m has an antiderivative W is
      w_j(x) (W(x) - W(t)) (``_one_level_cells``); any other chain is one
      PanelChain cover swept leftward across the anchors (``_swept_chain``).
    """
    iv = g.interval
    ring = translated_chain(g, j, m)
    log_base = _log_base(g)
    at_a = ring is not None or iv.left_closed  # whether t = a is an anchor
    outside = (lambda t: t < iv.a) if at_a else (lambda t: t <= iv.a)
    check = not (at_a and iv.a == -math.inf)  # else no t is outside I

    if ring is None:
        anti = g.antideriv(m) if m - j == 1 else None
        if m == j:
            cells = lambda t, x: g.values(j, x)
        elif anti is None:
            cells = functools.partial(_swept_chain, g, j, m)
        else:
            cells = functools.partial(_one_level_cells, g, j, anti)

        def grid(t: np.ndarray, x: np.ndarray) -> np.ndarray:
            t, x = np.broadcast_arrays(t, x)
            out = np.zeros(t.shape)
            on = x >= t
            out[on] = cells(t[on], x[on])
            return out
    else:
        sigma, base = ring
        if log_base == iv.a:  # the chain's descent from u = -inf, or None
            left = _descend(_gauge_ring(g, m), g, range(m - 1, j - 1, -1),
                            -math.inf)

        def grid(t: np.ndarray, x: np.ndarray) -> np.ndarray:
            with np.errstate(divide="ignore", invalid="ignore"):
                if log_base is not None:  # u = log(x - base), -inf at the base
                    t, x = np.log(t - log_base), np.log(x - log_base)
                h = x - t  # nan, a cell left at 0, where x = t = +-inf
            on = h >= 0.0
            out = np.zeros(h.shape)
            out[on] = base.eval_many(h[on])
            with np.errstate(over="ignore", invalid="ignore"):
                st = sigma * t
                # _safe_exp's cut-offs: +inf past e^700, 0 below e^-745.
                scale = np.where(st > 700.0, np.inf,
                                 np.where(st < -745.0, 0.0, np.exp(st)))
                np.multiply(out, scale, out=out, where=on)
            if log_base == iv.a:
                hit = (t == -math.inf) & (x >= t)
                out[hit] = math.inf if left is None else left.eval_many(
                    np.broadcast_to(x, hit.shape)[hit])
            return out

    def family(t, x):
        scalar = isinstance(t, (float, int)) and isinstance(x, (float, int))
        if not scalar:
            t, x = np.asarray(t, dtype=float), np.asarray(x, dtype=float)
        if check and np.any(outside(t)):
            raise DomainError(f"anchor t={float(np.min(t))} not in {iv}")
        if not scalar:
            return grid(t, x)
        if ring is not None and log_base is None:  # grid's cells, far cheaper
            return _safe_exp(sigma * t) * base.eval(x - t) if x - t >= 0.0 else 0.0
        return float(grid(np.array([float(t)]), np.array([float(x)]))[0])

    return family


def _one_level_cells(g: GaugeSpec, j: int, anti, t: np.ndarray,
                     x: np.ndarray) -> np.ndarray:
    """p_{t;j,j+1}(x) = w_j(x) (W(x) - W(t)) at cells (t, x) on either side
    of t, signed where x < t, W = anti an antiderivative of w_{j+1}: W once
    per distinct t and x, and w_j from one values() call.  A cell whose
    W(t) is not finite is +inf, one with x = t is 0, and a zero w_j raises
    what value() raises.  It serves both a one-level chain's ``_Descent``
    (one t) and the two-argument family (cells with t <= x)."""
    ts, ti = np.unique(t, return_inverse=True)
    w_t = np.array([anti(v) for v in ts.tolist()], dtype=float)[ti]
    out = np.where(np.isfinite(w_t), 0.0, math.inf)
    live = (x != t) & np.isfinite(w_t)
    xs, xi = np.unique(x[live], return_inverse=True)
    if len(xs):
        w = g.values(j, xs)
        if not np.all(w > 0.0):
            g.value(j, float(xs[np.argmin(w > 0.0)]))  # raises
        w_x = np.array([anti(v) for v in xs.tolist()], dtype=float)
        out[live] = w[xi] * (w_x[xi] - w_t[live])
    return out


def _swept_chain(g: GaugeSpec, j: int, m: int, t: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """p_{t;j,m}(x) at cells with t <= x, from one PanelChain cover of
    [min t, max x] with every distinct t and x as a break.

    One leftward sweep R <- R T_k over the panels carries, for each x
    passed, the row e_0 T(s, x) down to the break s: it is seeded with e_0
    where s = x, and read in its last column where s is an anchor t.
    """
    ts, ti = np.unique(t, return_inverse=True)
    xs, xi = np.unique(x, return_inverse=True)
    if not len(xs) or not xs[-1] > ts[0]:
        return np.zeros(t.shape)  # no cell, or x = t in every one
    breaks = np.union1d(_panel_breaks(ts[0], xs[-1]), np.union1d(ts, xs))
    cover = PanelChain(g, range(j, m + 1), breaks)
    at_t = np.searchsorted(cover.breaks, ts).tolist()
    at_x = np.searchsorted(cover.breaks, xs).tolist()
    rows = np.zeros((len(xs), m - j + 1))
    out = np.zeros((len(ts), len(xs)))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(at_x[-1], -1, -1):
            while at_x and at_x[-1] == k:
                at_x.pop()
                rows[len(at_x), 0] = 1.0
            while at_t and at_t[-1] == k:
                at_t.pop()
                out[len(at_t)] = rows[:, -1]
            if not at_t:
                break
            rows = rows @ cover.mats[k - 1]
        vals = g.values(j, xs)[xi] * out[ti, xi]
    if np.isnan(vals).any():
        raise QuadratureError("inf * 0 in a transfer product: float range breakdown")
    return vals
