"""Generalized polynomial chains over a gauge sequence.

Two recursively defined families are provided.

* ``p_{t;j,m}``  -- anchored at a point t in [a, b): level m is w_m, and
  each step down integrates from t and multiplies by the current gauge.
  For t = a not in I the recursive integral may diverge; divergence is a
  value (inf), decided analytically where possible and by a doubling-window
  probe otherwise.

* ``p_{a,z;i:k:j}`` -- starts from the left-anchored ``p_{a;k,j}`` (which
  must be finite) and continues the same descent, but integrating from an
  interior point z.

Positive parts multiply by the indicator {x >= t} with the convention
inf * 0 = 0.  Degree-k interpolation at a point is realized through the
basis property of the first chain.

Evaluation engine: both families are one descent, evaluated by one
class.  A start (the gauge w_m for the first chain, the evaluator of
p_{a;k,j} for the second) is integrated from the anchor (t, or z) and
multiplied by the next gauge, level by level.  The route is picked once
per chain: exact term arithmetic when the start has a closed form, then a
single-level antiderivative shortcut for table gauges that provide one,
then the divergence probe for chains anchored at a, and otherwise the
numeric chain integrator ``PanelChain`` (composite Clenshaw-Curtis panels
summed outward from the anchor).  The numeric route is deliberately
independent of the closed forms so the two can be cross-checked.

The closed forms live in one ring, sums of c * u^d * exp(r*u), with u = x
for unit/exponential gauges and u = log(x - base) for power gauges: there
w_j = exp((lam_j - 1)*u) and dx = exp(u) du, a logarithmic term (lam_j = 0)
is a polynomial term in u, and t = base is the anchor u = -inf.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

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
    UnitGauge,
)

__all__ = [
    "FULL",
    "POSITIVE",
    "NEGATIVE",
    "QuadConfig",
    "DEFAULT_QUAD",
    "WPolyHandle",
    "FinitenessSet",
    "wpoly_eval",
    "wpoly_eval_az",
    "finiteness_set",
    "interpolate",
    "chain_t_handle",
    "chain_az_handle",
]

FULL = "full"
POSITIVE = "positive"
NEGATIVE = "negative"

_TINY_RATE = 1e-12
_PROBE_WINDOWS = 24  # doubling windows of the left-endpoint divergence probe


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances for the numeric evaluation routes."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")


DEFAULT_QUAD = QuadConfig()


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


@functools.cache
def _at_probes(n: int) -> np.ndarray:
    """Chebyshev polynomials of degree 0..n (rows) at the 9 equispaced
    probes of the panels' two-order agreement test (columns)."""
    return np.polynomial.chebyshev.chebvander(np.linspace(-1.0, 1.0, 9), n).T


class PanelChain:
    """Composite Clenshaw-Curtis chain integrator anchored at a break point.

    Level by level, the chain values at every panel's Chebyshev nodes are
    integrated from each panel's left edge by one product with the cached
    cumulative-integration matrix of the order, and the panel integrals
    are summed outward from the anchor by cumulative sums: rightward for
    panels right of it, leftward and negated for panels left of it.  The
    running integral is therefore exactly zero at the anchor, and a value
    near the anchor is built only from the panels between the two, never
    as the difference of two long sums from a distant edge.  For the
    left-anchored chains of the divergence probe (anchor = lo) the
    integrands are positive, so the sums carry no cancellation and values
    stay relatively accurate many orders of magnitude below their maximum.
    """

    def __init__(
        self,
        gauges: GaugeSpec,
        levels: Sequence[int],
        breaks: np.ndarray,
        start_values: Callable[[np.ndarray], np.ndarray],
        quad: QuadConfig = DEFAULT_QUAD,
        defer_final: bool = False,
        anchor: Optional[float] = None,
    ):
        if len(breaks) < 2:
            raise DomainError("need at least one panel")
        self.gauges = gauges
        self.levels = list(levels)
        self.breaks = np.asarray(breaks, dtype=float)
        self.lo = float(self.breaks[0])
        self.hi = float(self.breaks[-1])
        self.anchor = self.lo if anchor is None else float(anchor)
        if not self.lo <= self.anchor <= self.hi:
            raise DomainError("anchor outside working interval")
        if self.anchor not in self.breaks:
            self.breaks = np.insert(
                self.breaks, np.searchsorted(self.breaks, self.anchor), self.anchor
            )
        self.start_values = start_values
        self.quad = quad
        # With defer_final the last gauge factor is applied at query time
        # only; the stored panels hold the final integral, which stays in
        # float range even when the outermost gauge overflows deep inside
        # the working interval.
        self.final_gauge = self.levels[-1] if defer_final and self.levels else None
        self._coeffs = self._build()

    def _run(self, breaks: np.ndarray, order: int):
        width = (breaks[1:] - breaks[:-1])[:, None]
        xs = breaks[:-1, None] + (_cheb_nodes(order) + 1.0) * width / 2.0
        flat = xs.ravel()
        first_right = int(np.searchsorted(breaks, self.anchor))
        vals = np.asarray(self.start_values(flat), dtype=float).reshape(xs.shape)
        q_t = _cheb_cumulative(order).T

        for lvl in self.levels:
            # Integral of each panel's interpolant from its left edge to
            # each node; the last node gives the whole panel.
            cum = vals @ q_t
            cum *= width / 2.0
            whole = cum[:, -1]
            right = np.cumsum(whole[first_right:-1])
            left = np.cumsum(whole[:first_right][::-1])[::-1]
            cum[first_right + 1:] += right[:, None]
            cum[:first_right] -= left[:, None]
            vals = cum
            if lvl != self.final_gauge:  # else the factor is deferred to eval()
                w = self.gauges.values(lvl, flat).reshape(xs.shape)
                if np.any((w == 0.0) & (np.abs(cum) > 1e250)):
                    raise QuadratureError(
                        "gauge underflow against a huge integral: float "
                        "range breakdown"
                    )
                vals *= w
        return _cheb_coeffs(vals)

    def _build(self):
        # Bisect panels that fail their own two-resolution agreement test;
        # steep gauge factors (large within-panel dynamic range) force
        # narrow panels locally, which a higher order alone cannot fix.
        breaks = self.breaks
        for _ in range(9):
            lowres = self._run(breaks, 32)
            hires = self._run(breaks, 48)
            cv = hires @ _at_probes(48)
            err = np.max(np.abs(lowres @ _at_probes(32) - cv), axis=1)
            tol = self.quad.abs_tol + self.quad.rel_tol * (
                1e-30 + np.max(np.abs(cv), axis=1)
            )
            bad = np.flatnonzero(~(err <= tol))
            if not len(bad):
                self.breaks = breaks
                return hires
            if len(breaks) > 1024:
                break
            breaks = np.insert(breaks, bad + 1, 0.5 * (breaks[bad] + breaks[bad + 1]))
        raise QuadratureError(
            f"panel chain did not converge with {len(breaks) - 1} panels on "
            f"[{self.lo}, {self.hi}]"
        )

    def eval(self, x: float) -> float:
        if not self.lo <= x <= self.hi:
            raise DomainError("query outside working interval")
        if x == self.anchor and self.levels:
            return 0.0  # the integral from the anchor to itself
        p = int(np.searchsorted(self.breaks, x, side="right") - 1)
        p = min(max(p, 0), len(self.breaks) - 2)
        a, b = self.breaks[p], self.breaks[p + 1]
        u = 2.0 * (x - a) / (b - a) - 1.0
        v = float(np.polynomial.chebyshev.chebval(u, self._coeffs[p]))
        if self.final_gauge is not None:
            v *= self.gauges.value(self.final_gauge, x)
        return v


def _panel_breaks(lo: float, hi: float, finite_left: Optional[float]) -> np.ndarray:
    """Panel edges on [lo, hi]; geometric refinement toward a finite
    singular left base, uniform width-<=2 panels otherwise."""
    if finite_left is not None and math.isfinite(finite_left):
        # Geometric toward finite_left (which sits at or below lo).
        d0 = lo - finite_left
        edges = [lo]
        d = d0
        while finite_left + d < hi:
            d *= 2.0
            edges.append(min(finite_left + d, hi))
        if edges[-1] < hi:
            edges.append(hi)
        return np.array(edges)
    n = max(4, int(math.ceil((hi - lo) / 2.0)))
    return np.linspace(lo, hi, n + 1)


def _left_chain(
    g: GaugeSpec, j: int, m: int, lo: float, hi: float, quad: QuadConfig
) -> PanelChain:
    """p_{lo;j,m} on [lo, hi], a truncation of the left-anchored chain.

    Panels refine geometrically toward a finite a, and the outermost gauge
    factor is applied at query time.
    """
    a = g.interval.a
    return PanelChain(
        g,
        levels=range(m - 1, j - 1, -1),
        breaks=_panel_breaks(lo, hi, a if math.isfinite(a) else None),
        start_values=lambda xs: g.values(m, xs),
        quad=quad,
        defer_final=True,
    )


# ---------------------------------------------------------------------------
# Chain evaluator
# ---------------------------------------------------------------------------

class _Descent:
    """Evaluates a chain: from ``start``, each of ``levels`` in turn
    integrates from ``anchor`` and multiplies by that level's gauge.

    p_{t;j,m} starts from the gauge level m (an int) with anchor t, and
    p_{a,z;i:k:j} starts from the evaluator of p_{a;k,j} with anchor z.
    The route is picked once: the closed-form descent when the start has an
    ExpPoly form (the second chain takes its start's ring as it is), then
    the one-level antiderivative shortcut, then the left-endpoint probe,
    and otherwise a PanelChain built on first eval.
    """

    def __init__(self, g: GaugeSpec, start, levels: Sequence[int],
                 anchor: float, quad: QuadConfig):
        self.g = g
        self.start = start
        self.levels = list(levels)
        self.anchor = anchor
        self.quad = quad
        self.divergent = False
        self._exact = None
        self._log_base = _log_base(g)
        self._panel: Optional[PanelChain] = None
        self._left_depth: Optional[int] = None
        self._prepare()

    def _prepare(self) -> None:
        g, start, levels, t = self.g, self.start, self.levels, self.anchor
        ring = _gauge_ring(g, start) if isinstance(start, int) else start._exact
        if isinstance(ring, ExpPoly):
            self._exact = _descend(ring, g, levels, t)
            self.divergent = self._exact is None
            return
        if not levels:
            return
        if isinstance(start, int) and len(levels) == 1:
            anti = g.antideriv(start)
            if anti is not None:
                lo_val = anti(t)
                if math.isfinite(lo_val):
                    self._exact = _OneLevel(g, levels[0], anti, lo_val)
                else:
                    self.divergent = True  # W(t) = -inf: no integrable decay
                return
        iv = g.interval
        if math.isinf(t) or (t == iv.a and not iv.left_closed):
            # Anchored at a, so this is the first chain: start is a level.
            finite, depth = _probe_left_chain(g, levels[-1], start, self.quad)
            if not finite:
                self.divergent = True
            else:
                self._left_depth = depth

    def _start_values(self, xs: np.ndarray) -> np.ndarray:
        if isinstance(self.start, int):
            return self.g.values(self.start, xs)
        return np.array([self.start.eval(float(u)) for u in xs])

    def _chain_for(self, x: float) -> PanelChain:
        old = self._panel
        if old is not None and old.lo <= x <= old.hi:
            return old
        g, t, iv = self.g, self.anchor, self.g.interval
        left = self._left_depth is not None
        if left:
            # Left-anchored: truncate past the probe's last window, which
            # ends at the probe point ref.
            ref = _probe_point(iv)
            if math.isfinite(iv.a):
                lo = iv.a + (min(x, ref) - iv.a) / 2.0 ** (self._left_depth + 1)
            else:
                lo = min(
                    ref - max(8.0, 2.0 * abs(ref)) * 2.0**self._left_depth,
                    x - 8.0,
                )
            hi = min(max(x + 0.5, ref), iv.b)
        else:
            # Interior anchor: a working interval around the anchor and x.
            ref, pad = t, 0.5 * (1.0 + abs(x - t))
            lo = max(min(t, x) - pad, iv.a)
            hi = min(max(t, x) + pad, iv.b)
        if old is not None:
            # Grow the cover toward x, at least doubling its reach past
            # ref on that side, and keep the far side, so that queries on
            # alternating sides do not rebuild it each time.
            lo, hi = min(lo, old.lo), max(hi, old.hi)
            if x > old.hi:
                hi = min(max(hi, 2.0 * old.hi - ref), iv.b)
            elif not left:  # a left truncation already deepens with x
                lo = max(min(lo, 2.0 * old.lo - ref), iv.a)
        if left:
            self._panel = _left_chain(g, self.levels[-1], self.start, lo, hi,
                                      self.quad)
        elif lo < hi:
            self._panel = PanelChain(
                g,
                levels=self.levels,
                breaks=_panel_breaks(lo, hi, None),
                start_values=self._start_values,
                quad=self.quad,
                anchor=t,
            )
        else:
            raise DomainError("cannot build working interval")
        return self._panel

    def eval(self, x: float) -> float:
        if self.levels:
            if self.divergent:
                return math.inf
            if x == self.anchor:
                return 0.0
        if self._exact is None:
            if not self.levels:
                return self.g.value(self.start, x)
            return self._chain_for(x).eval(x)
        if self._log_base is not None:
            x = _log_u(x, self._log_base)
        return self._exact.eval(x)


class _OneLevel:
    """p_{t;j,j+1}(x) = w_j(x) * (W(x) - W(t)) via a known antiderivative."""

    def __init__(self, g: GaugeSpec, j: int, anti, lo_val: float):
        self.g = g
        self.j = j
        self.anti = anti
        self.lo_val = lo_val

    def eval(self, x: float) -> float:
        return self.g.value(self.j, x) * (self.anti(x) - self.lo_val)


def _chain_t(g: GaugeSpec, t: float, j: int, m: int, quad: QuadConfig) -> _Descent:
    """p_{t;j,m}: w_m descended through levels m-1, ..., j from t."""
    if j > m:
        raise DomainError("need j <= m")
    return _Descent(g, m, range(m - 1, j - 1, -1), t, quad)


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


def _log_u(x: float, base: float) -> float:
    return math.log(x - base) if x > base else -math.inf


def _gauge_ring(g: GaugeSpec, m: int) -> Optional[ExpPoly]:
    """w_m as an ExpPoly in the ring's variable; None for a gauge without
    one."""
    if isinstance(g, (UnitGauge, ExponentialGauge, PowerGauge)):
        return ExpPoly.exponential(_ring_rate(g)(m))
    return None


def _descend(ring: ExpPoly, g: GaugeSpec, levels: Sequence[int], anchor: float):
    """The closed-form descent in the ring's variable u; None when an
    integral from u = -inf (t = -inf, or t at a power gauge's base)
    diverges."""
    base = _log_base(g)
    rate = _ring_rate(g)
    u_t = anchor if base is None else _log_u(anchor, base)
    for lvl in levels:
        if base is not None:
            ring = ring.mul_exp(1.0)  # dx = exp(u) du
        ring = ring.integrate_from(u_t)
        if ring is None:
            return None
        ring = ring.mul_exp(rate(lvl))
    return ring


# ---------------------------------------------------------------------------
# Divergence probe for a generic left-anchored chain
# ---------------------------------------------------------------------------

def _probe_point(iv: Interval) -> float:
    lo = iv.a if math.isfinite(iv.a) else -1.0
    hi = iv.b if math.isfinite(iv.b) else max(lo + 2.0, 1.0)
    return lo + 0.75 * (hi - lo)


def _strongly_decayed(incs, vals, quad: QuadConfig) -> bool:
    """Two-increment early acceptance: the latest window added next to
    nothing and shrank by 10x, so the remaining tail is negligible."""
    if len(incs) < 2:
        return False
    scale = abs(vals[-1]) + 1.0
    tol = quad.abs_tol + quad.rel_tol * scale
    return 0.0 <= incs[-1] <= tol and incs[-1] <= 0.1 * incs[-2]


def _probe_left_chain(g: GaugeSpec, j: int, m: int, quad: QuadConfig):
    """Decide the left-endpoint dichotomy by truncated-anchor probing.

    Truncations p_{L;j,m}(x0) increase as L marches toward a in doubling
    windows.  Geometric decay of the increments over three consecutive
    windows certifies a finite limit; non-decreasing increments certify
    divergence; anything else raises InconclusiveError rather than
    guessing.  Returns (finite, usable_anchor).
    """
    iv = g.interval
    a = iv.a
    x0 = _probe_point(iv)

    def anchor_at(i: int) -> float:
        if math.isinf(a):
            return x0 - max(8.0, 2.0 * abs(x0)) * 2.0**i
        return a + (x0 - a) / 2.0 ** (i + 1)

    vals = []
    incs = []
    decided_at = None
    for i in range(_PROBE_WINDOWS):
        try:
            v = _left_chain(g, j, m, anchor_at(i), x0, quad).eval(x0)
        except (OverflowError, ZeroDivisionError, GaugeError) as exc:
            # Float range breakdown inside this window; decide from the
            # evidence gathered so far, never by fiat.
            if decided_at is not None:
                return True, i - 1
            if len(incs) >= 2 and incs[-1] > 1.5 * incs[-2] > 0:
                return False, None
            if _strongly_decayed(incs, vals, quad):
                return True, i - 1
            raise InconclusiveError(
                f"divergence probe for p_(a;{j},{m}) hit float range limits "
                f"at anchor {anchor_at(i)} before the dichotomy was settled"
            ) from exc
        except QuadratureError as exc:
            raise InconclusiveError(
                f"divergence probe for p_(a;{j},{m}) could not resolve the "
                f"truncated chain at anchor {anchor_at(i)}: {exc}"
            ) from exc
        if not math.isfinite(v):
            return False, None  # truncations are monotone: the limit is inf
        vals.append(v)
        if i >= 1:
            incs.append(vals[-1] - vals[-2])
        if len(incs) >= 2 and incs[-1] > 100.0 * incs[-2] > 0:
            return False, None  # explosive growth of monotone truncations
        if _strongly_decayed(incs, vals, quad):
            return True, i
        if len(incs) >= 3:
            d1, d2, d3 = incs[-3], incs[-2], incs[-1]
            scale = abs(vals[-1]) + 1.0
            tol = quad.abs_tol + quad.rel_tol * scale
            if d3 <= tol:
                return True, i
            if d1 > 0 and d2 > 0 and d2 / d1 <= 0.75 and d3 / d2 <= 0.75:
                # Geometric decay: the limit exists.  March a little longer
                # for value accuracy while the panel budget allows.
                if decided_at is None:
                    decided_at = i
                q = max(d2 / d1, d3 / d2)
                budget = (x0 - anchor_at(i + 1)) / 2.0 > 900.0
                if (
                    d3 * q / (1.0 - q) <= 10.0 * tol
                    or i - decided_at >= 4
                    or budget
                ):
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


def _exp_criterion(lam: Callable[[int], float], j: int, m: int) -> bool:
    # Every suffix sum lam_{i+1} + ... + lam_m, i in [j, m-1], must be > 0.
    for i in range(j, m):
        if math.fsum(lam(s) for s in range(i + 1, m + 1)) <= 0.0:
            return False
    return True


def finiteness_set(
    g: GaugeSpec, n: int, quad: QuadConfig = DEFAULT_QUAD, force_probe: bool = False
) -> FinitenessSet:
    """Finiteness pattern of p_{a;j,m} for 0 <= j <= m <= n.

    Analytic criteria cover the unit/exponential/power families (suffix
    sums of the exponent parameters); a belonging to I, or lying finite
    below every gauge singularity, makes everything finite; otherwise probe
    integration decides.  ``force_probe`` bypasses the analytic shortcuts
    so the two routes can be compared.
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
        if isinstance(g, UnitGauge):
            if math.isinf(iv.a):
                return fill(lambda j, m: j == m, "analytic")
            return fill(lambda j, m: True, "analytic")
        if isinstance(g, ExponentialGauge):
            if math.isfinite(iv.a):
                return fill(lambda j, m: True, "analytic")
            return fill(lambda j, m: _exp_criterion(g.lam, j, m), "analytic")
        if isinstance(g, PowerGauge):
            if iv.a > g.base:
                return fill(lambda j, m: True, "analytic")
            return fill(lambda j, m: _exp_criterion(g.lam, j, m), "analytic")

    # Levels 0..n must exist (a short TableGauge raises GaugeError here), so
    # that the probe's GaugeError can only mean a range breakdown.
    g.shifted(n)
    for m in range(n + 1):
        put(m, m, True)
        for j in range(m - 1, -1, -1):
            if table[j + 1][m - j - 1] is False:
                put(j, m, False)  # dichotomy propagates downward
                continue
            finite, _ = _probe_left_chain(g, j, m, quad)
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
    it; values are not memoized.
    """

    gauges: GaugeSpec
    family: tuple
    part: str = FULL
    quad: QuadConfig = DEFAULT_QUAD
    _state: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.part not in (FULL, POSITIVE, NEGATIVE):
            raise DomainError(f"bad part {self.part!r}")
        if self.part != FULL and self.family[0] != "chain_t":
            raise DomainError("positive/negative parts apply to the t-chain only")

    @property
    def tag(self) -> str:
        return self.family[0]

    @property
    def degree(self) -> int:
        if self.tag == "chain_t":
            return self.family[3] - self.family[2]
        if self.tag == "chain_az":
            _, _, i, _, j = self.family
            return j - i
        return len(self.family[2]) - 1

    # -- evaluation -----------------------------------------------------------
    def eval(self, x: float) -> float:
        """Value at x; +inf signals analytic divergence of the chain."""
        x = float(x)
        self.gauges.interval.require(x)
        if self.part != FULL:
            t = self.family[1]
            if self.part == POSITIVE and not x >= t:
                return 0.0  # covers the inf * 0 = 0 convention
            if self.part == NEGATIVE and not x < t:
                return 0.0
        return self._full_evaluator().eval(x)

    __call__ = eval

    def _full_evaluator(self):
        ev = self._state.get("ev")
        if ev is None:
            ev = _build_evaluator(self.gauges, self.family, self.quad)
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
        if isinstance(sub, tuple):  # interp: list of (c, handle) terms
            acc = math.fsum(c * h.eval(x) for c, h in sub)
            return acc / g.value(s, x)
        return sub.eval(x) / g.value(self.family[2] + s, x)  # level j + s

    def _deriv_handle(self, s: int):
        """Handle (or term list) whose value / w_level is the s-th derivative."""
        cache = self._state.setdefault("derivs", {})
        if s in cache:
            return cache[s]
        g = self.gauges
        out = None
        if self.tag == "chain_t":
            _, t, j, m = self.family
            if s <= m - j:
                out = WPolyHandle(g, ("chain_t", t, j + s, m), self.part, self.quad)
        elif self.tag == "chain_az":
            _, z, i, k, j = self.family
            lvl = i + s
            if lvl <= j:
                if lvl >= k:
                    out = WPolyHandle(
                        g, ("chain_t", g.interval.a, lvl, j), FULL, self.quad
                    )
                else:
                    out = WPolyHandle(g, ("chain_az", z, lvl, k, j), FULL, self.quad)
        else:
            _, z, coeffs = self.family
            terms = tuple(
                (c, WPolyHandle(g, ("chain_t", z, s, l), FULL, self.quad))
                for l, c in enumerate(coeffs)
                if c != 0.0 and l >= s
            )
            out = terms
        cache[s] = out
        return out

    def pretty(self) -> str:
        ev = self._full_evaluator()
        if (isinstance(ev, _Descent) and isinstance(ev._exact, ExpPoly)
                and ev._log_base is None):  # a ring in x, not in log(x - base)
            return ev._exact.pretty()
        return f"<{self.tag}{self.family[1:]}:{self.part}>"


class _InterpSum:
    """sum_l c_l p_{z;0,l} via per-term chain evaluators."""

    def __init__(self, g: GaugeSpec, z: float, coeffs, quad: QuadConfig):
        self.parts = [
            (c, _chain_t(g, z, 0, l, quad))
            for l, c in enumerate(coeffs)
            if c != 0.0
        ]

    def eval(self, x: float) -> float:
        return math.fsum(c * ev.eval(x) for c, ev in self.parts)


def _build_evaluator(g: GaugeSpec, family: tuple, quad: QuadConfig):
    tag = family[0]
    if tag == "chain_t":
        _, t, j, m = family
        return _chain_t(g, t, j, m, quad)
    if tag == "chain_az":
        _, z, i, k, j = family
        if not i <= k <= j:
            raise DomainError("need i <= k <= j")
        start = _chain_t(g, g.interval.a, k, j, quad)
        if start.divergent:
            raise PreconditionError(
                f"(k, j) = ({k}, {j}) is not in the finiteness set; "
                "p_(a;k,j) diverges"
            )
        if i == k:
            return start
        return _Descent(g, start, range(k - 1, i - 1, -1), z, quad)
    if tag == "interp":
        _, z, coeffs = family
        return _InterpSum(g, z, coeffs, quad)
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
    quad: QuadConfig = DEFAULT_QUAD,
) -> WPolyHandle:
    """Handle for p_{t;j,m}; t must lie in [a, b)."""
    iv = g.interval
    if not (t == iv.a or (iv.contains(t) and t < iv.b)):
        raise DomainError(f"anchor t={t} not in [{iv.a}, {iv.b})")
    if not 0 <= j <= m:
        raise DomainError("need 0 <= j <= m")
    return WPolyHandle(g, ("chain_t", float(t), j, m), part, quad)


def chain_az_handle(
    g: GaugeSpec,
    z: float,
    i: int,
    k: int,
    j: int,
    quad: QuadConfig = DEFAULT_QUAD,
) -> WPolyHandle:
    """Handle for p_{a,z;i:k:j}; requires (k, j) in the finiteness set."""
    iv = g.interval
    if not iv.a < z < iv.b:
        raise DomainError(f"z={z} must lie in the open interval ({iv.a}, {iv.b})")
    if not 0 <= i <= k <= j:
        raise DomainError("need 0 <= i <= k <= j")
    h = WPolyHandle(g, ("chain_az", float(z), i, k, j), FULL, quad)
    h._full_evaluator()  # validates (k, j) in F eagerly
    return h


def wpoly_eval(p: WPolyHandle, x: float) -> float:
    """Evaluate a handle; +inf means the defining integral diverges."""
    return p.eval(x)


def wpoly_eval_az(
    z: float,
    i: int,
    k: int,
    j: int,
    g: GaugeSpec,
    x: float,
    quad: QuadConfig = DEFAULT_QUAD,
) -> float:
    return chain_az_handle(g, z, i, k, j, quad).eval(x)


def interpolate(
    g: GaugeSpec,
    z: float,
    c: Sequence[float],
    quad: QuadConfig = DEFAULT_QUAD,
) -> WPolyHandle:
    """The unique w-polynomial p of degree <= k with p^(l)(z) = c_l.

    Realized as the basis combination sum_l c_l p_{z;0,l}.
    """
    g.interval.require(z, "interpolation point")
    coeffs = tuple(float(v) for v in c)
    return WPolyHandle(g, ("interp", float(z), coeffs), FULL, quad)


def chain_t_two_arg(
    g: GaugeSpec, j: int, m: int, quad: QuadConfig = DEFAULT_QUAD
) -> Callable[[float, float], float]:
    """Return a fast (t, x) -> p_{t;j,m}(x) evaluator for finite anchors t.

    For unit/exponential gauges the chain satisfies the translation
    identity p_{t;j,m}(x) = exp(sigma*t) * p_{0;j,m}(x - t) with sigma the
    sum of the exponent parameters over levels j..m, so a single chain
    built at t = 0 serves every anchor.  Other gauges fall back to per-t
    handles with a small cache.
    """
    if isinstance(g, (UnitGauge, ExponentialGauge)):
        lam = _ring_rate(g)
        sigma = math.fsum(lam(s) for s in range(j, m + 1))
        base = _descend(_gauge_ring(g, m), g, range(m - 1, j - 1, -1), 0.0)

        def fast(t: float, x: float) -> float:
            return _safe_exp(sigma * t) * base.eval(x - t)

        return fast

    cache: dict = {}

    def slow(t: float, x: float) -> float:
        ev = cache.get(t)
        if ev is None:
            ev = _chain_t(g, t, j, m, quad)
            if len(cache) < 4096:
                cache[t] = ev
        return ev.eval(x)

    return slow
