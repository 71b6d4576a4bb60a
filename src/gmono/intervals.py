"""Intervals, gauge sequences, the shift operator and change of scale.

A gauge sequence w = (w_0, w_1, ...) is a sequence of strictly positive,
locally bounded Borel functions on an interval I.  Four families are
implemented:

* unit            -- w_j = 1 for all j;
* exponential     -- w_j(x) = exp(lam_j * x);
* power           -- w_j(x) = (x - a)**(lam_j - 1) for a finite left base a;
* table           -- an explicit finite list of callables, optionally with
                     analytic derivative data (smooth_order per entry).

A change of scale is a strictly increasing C^1 bijection psi: Itilde -> I.
It transports gauges by wt_0 = w_0 o psi and wt_j = (w_j o psi) * psi' for
j >= 1, which makes gauged differentiation commute with composition by psi.

All objects here are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from ._jets import (
    Jet,
    jet_compose,
    jet_const,
    jet_deriv,
    jet_div,
    jet_exp,
    jet_mul,
    jet_power,
    jet_scale,
    jet_sub,
    jet_var,
    _jet_sincos,
)
from .errors import DomainError, GaugeError, malformed_input_as

__all__ = [
    "Interval",
    "GaugeSpec",
    "UnitGauge",
    "ExponentialGauge",
    "PowerGauge",
    "TableGauge",
    "ScaleMap",
    "gauge_eval",
    "shift",
    "transport_gauges",
    "identity_map",
    "affine_map",
    "tan_map",
    "arctan_cheb_gauges",
    "stein_gauges",
    "default_grid",
    "interval_from_dict",
    "gauge_from_dict",
    "gauge_to_dict",
]


# ---------------------------------------------------------------------------
# Intervals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Interval with endpoints -inf <= a < b <= +inf and closedness flags.

    Endpoint membership matters: it changes the finiteness sets of the
    left-anchored w-polynomial chain and the admissible set of measures.
    """

    a: float
    b: float
    left_closed: bool = False
    right_closed: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        if not self.a < self.b:
            raise DomainError(f"need a < b, got a={self.a}, b={self.b}")
        if self.left_closed and not math.isfinite(self.a):
            raise DomainError("left_closed requires a finite left endpoint")
        if self.right_closed and not math.isfinite(self.b):
            raise DomainError("right_closed requires a finite right endpoint")

    def contains(self, x: float) -> bool:
        if self.a < x < self.b:
            return True
        if x == self.a:
            return self.left_closed
        if x == self.b:
            return self.right_closed
        return False

    def contains_interior(self, x: float) -> bool:
        return self.a < x < self.b

    def require(self, x: float, what: str = "point") -> None:
        if not self.contains(x):
            raise DomainError(f"{what} {x} outside interval {self}")

    def reflected(self) -> "Interval":
        return Interval(-self.b, -self.a, self.right_closed, self.left_closed)

    def __str__(self) -> str:
        lb = "[" if self.left_closed else "("
        rb = "]" if self.right_closed else ")"
        return f"{lb}{self.a}, {self.b}{rb}"


def default_grid(interval: Interval, n: int = 512) -> np.ndarray:
    """Uniform interior grid; infinite ends are mapped through arctan.

    Matches the default certification-grid policy: n interior points, never
    touching open endpoints.
    """
    if n < 2:
        raise DomainError("grid size must be >= 2")
    # Map the whole interval through arctan when either end is infinite.
    if math.isinf(interval.a) or math.isinf(interval.b):
        ta, tb = math.atan(interval.a), math.atan(interval.b)
        u = np.linspace(ta, tb, n + 2)[1:-1]
        return np.tan(u)
    pts = np.linspace(interval.a, interval.b, n + 2)
    if interval.left_closed and interval.right_closed:
        return np.linspace(interval.a, interval.b, n)
    return pts[1:-1]


# ---------------------------------------------------------------------------
# Gauge sequences
# ---------------------------------------------------------------------------

class GaugeSpec:
    """Base class for gauge sequences over an interval.

    Subclasses implement value(); they may also provide analytic jets of
    each w_j (for analytic derivative chains) and antiderivatives (for exact
    single-level integrals of gauges without a closed-form chain ring).
    """

    interval: Interval
    kind: str = "abstract"

    # -- required -----------------------------------------------------------
    def value(self, j: int, x: float) -> float:
        raise NotImplementedError

    def shifted(self, i: int) -> "GaugeSpec":
        raise NotImplementedError

    # -- optional analytic data ----------------------------------------------
    def jet(self, j: int, x: float, L: int) -> Optional[Jet]:
        """Taylor coefficients of w_j at x, length L, or None if unavailable."""
        return None

    def antideriv(self, j: int) -> Optional[Callable[[float], float]]:
        """An antiderivative of w_j, or None."""
        return None

    def smooth_order(self, j: int) -> float:
        """Number of available analytic ordinary derivatives of w_j."""
        return 0

    # -- shared helpers -------------------------------------------------------
    def value_lenient(self, j: int, x: float) -> float:
        """Like value(), but lets float underflow pass through as 0.0.

        Chain integrators use this: a positive gauge that underflows
        contributes nothing to the integrals, while an overflow must still
        raise so range breakdown is surfaced.
        """
        return self.value(j, x)

    def values(self, j: int, xs) -> np.ndarray:
        """value_lenient() at every point of xs, as one array; raises what
        value_lenient() raises."""
        return self._values(j, np.atleast_1d(np.asarray(xs, dtype=float)))

    def _values(self, j: int, xs: np.ndarray) -> np.ndarray:
        # Subclasses with array arithmetic for w_j override this loop.
        return np.array([self.value_lenient(j, x) for x in xs.tolist()])

    def params(self) -> dict:
        return {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} on {self.interval}>"


def _raise_overflow(v: np.ndarray, u: np.ndarray, what: str) -> None:
    """OverflowError where a finite argument u gave an infinite value, as
    math.exp and float ** raise for one point."""
    over = np.isinf(v) & np.isfinite(u)
    if over.any():
        raise OverflowError(f"{what} overflows at argument {u[np.argmax(over)]}")


class UnitGauge(GaugeSpec):
    """w_j = 1 for all j."""

    kind = "unit"

    def __init__(self, interval: Interval):
        self.interval = interval

    def value(self, j, x):
        return 1.0

    def _values(self, j, xs):
        return np.ones(xs.shape)

    def shifted(self, i):
        return self

    def jet(self, j, x, L):
        return jet_const(1.0, L)

    def smooth_order(self, j):
        return math.inf

    def params(self):
        return {}


class ExponentialGauge(GaugeSpec):
    """w_j(x) = exp(lam_j * x); lam_j = 0 beyond the supplied list."""

    kind = "exponential"

    def __init__(self, interval: Interval, lams: Sequence[float]):
        self.interval = interval
        self.lams = tuple(float(v) for v in lams)

    def lam(self, j: int) -> float:
        return self.lams[j] if j < len(self.lams) else 0.0

    def value(self, j, x):
        return math.exp(self.lam(j) * x)

    def _values(self, j, xs):
        u = self.lam(j) * xs
        with np.errstate(over="ignore", under="ignore"):
            v = np.exp(u)
        _raise_overflow(v, u, f"exponential gauge w_{j}")
        return v

    def shifted(self, i):
        if i == 0:
            return self
        return ExponentialGauge(self.interval, self.lams[i:])

    def jet(self, j, x, L):
        lam = self.lam(j)
        return jet_exp(jet_scale(jet_var(x, L), lam))

    def smooth_order(self, j):
        return math.inf

    def params(self):
        return {"lams": list(self.lams)}


class PowerGauge(GaugeSpec):
    """w_j(x) = (x - base)**(lam_j - 1); lam_j = 1 beyond the supplied list.

    The base must sit at or below the interval's left endpoint, so that
    every w_j is positive and finite on the interior.
    """

    kind = "power"

    def __init__(self, interval: Interval, base: float, lams: Sequence[float]):
        if not math.isfinite(base):
            raise GaugeError("power gauge requires a finite base")
        if base > interval.a:
            raise GaugeError("power gauge base must be <= interval.a")
        if base == interval.a and interval.left_closed and any(
            float(l) < 1.0 for l in lams
        ):
            raise GaugeError("power gauge unbounded at the closed left endpoint")
        self.interval = interval
        self.base = float(base)
        self.lams = tuple(float(v) for v in lams)

    def lam(self, j: int) -> float:
        return self.lams[j] if j < len(self.lams) else 1.0

    def value(self, j, x):
        u = x - self.base
        if u <= 0.0:
            raise DomainError(f"power gauge evaluated at x={x} <= base={self.base}")
        return u ** (self.lam(j) - 1.0)

    def _values(self, j, xs):
        u = xs - self.base
        low = u <= 0.0
        if low.any():
            x = xs[np.argmax(low)]
            raise DomainError(f"power gauge evaluated at x={x} <= base={self.base}")
        with np.errstate(over="ignore", under="ignore"):
            v = u ** (self.lam(j) - 1.0)
        _raise_overflow(v, u, f"power gauge w_{j}")
        return v

    def shifted(self, i):
        if i == 0:
            return self
        return PowerGauge(self.interval, self.base, self.lams[i:])

    def jet(self, j, x, L):
        u = jet_sub(jet_var(x, L), jet_const(self.base, L))
        return jet_power(u, self.lam(j) - 1.0)

    def smooth_order(self, j):
        return math.inf

    def params(self):
        return {"base": self.base, "lams": list(self.lams)}


class TableGauge(GaugeSpec):
    """Explicit finite list of gauge functions.

    Each entry is a callable w_j; optional per-entry jet evaluators supply
    analytic derivatives (smooth); optional antiderivatives make one-level
    chain integrals exact.  Values are checked to be strictly positive.
    """

    kind = "table"

    def __init__(
        self,
        interval: Interval,
        funcs: Sequence[Callable[[float], float]],
        jets: Optional[Sequence[Optional[Callable[[float, int], Jet]]]] = None,
        antiderivs: Optional[Sequence[Optional[Callable[[float], float]]]] = None,
        smooth_orders: Optional[Sequence[float]] = None,
        name: str = "",
    ):
        if not funcs:
            raise GaugeError("table gauge needs at least one entry")
        self.interval = interval
        self.funcs = tuple(funcs)
        self.jets = tuple(jets) if jets is not None else (None,) * len(funcs)
        self.antiderivs = (
            tuple(antiderivs) if antiderivs is not None else (None,) * len(funcs)
        )
        self._smooth = (
            tuple(smooth_orders)
            if smooth_orders is not None
            else tuple(math.inf if jf is not None else 0 for jf in self.jets)
        )
        self.name = name

    def _entry(self, j: int) -> int:
        if j >= len(self.funcs):
            raise GaugeError(
                f"table gauge has {len(self.funcs)} entries, index {j} requested"
            )
        return j

    def value(self, j, x):
        v = float(self.funcs[self._entry(j)](x))
        if not v > 0.0 or not math.isfinite(v):
            raise GaugeError(f"table gauge w_{j}({x}) = {v} is not positive finite")
        return v

    def value_lenient(self, j, x):
        v = float(self.funcs[self._entry(j)](x))
        if v < 0.0 or math.isnan(v) or v == math.inf:
            raise GaugeError(f"table gauge w_{j}({x}) = {v} out of range")
        return v

    def _values(self, j, xs):
        f = self.funcs[self._entry(j)]
        pts = xs.tolist()
        v = np.fromiter(map(f, pts), float, len(pts))
        bad = (v < 0.0) | np.isnan(v) | (v == math.inf)
        if bad.any():
            i = int(np.argmax(bad))
            raise GaugeError(f"table gauge w_{j}({pts[i]}) = {v[i]} out of range")
        return v

    def shifted(self, i):
        if i == 0:
            return self
        self._entry(i)
        return TableGauge(
            self.interval,
            self.funcs[i:],
            self.jets[i:],
            self.antiderivs[i:],
            self._smooth[i:],
            name=f"{self.name}>>{i}" if self.name else "",
        )

    def jet(self, j, x, L):
        jf = self.jets[self._entry(j)]
        if jf is None:
            return None
        return jf(x, L)

    def antideriv(self, j):
        return self.antiderivs[self._entry(j)]

    def smooth_order(self, j):
        return self._smooth[self._entry(j)]

    def params(self):
        return {"name": self.name, "entries": len(self.funcs)}


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def gauge_eval(g: GaugeSpec, j: int, x: float) -> float:
    """Evaluate w_j(x); raises DomainError outside I, GaugeError if invalid."""
    if j < 0:
        raise DomainError("gauge index must be >= 0")
    g.interval.require(x)
    v = g.value(j, x)
    if not v > 0.0:
        raise GaugeError(f"gauge w_{j}({x}) = {v} is not strictly positive")
    return v


def shift(g: GaugeSpec, i: int) -> GaugeSpec:
    """The left-shift S^i: returns the gauge sequence (w_i, w_{i+1}, ...)."""
    if i < 0:
        raise DomainError("shift index must be >= 0")
    return g.shifted(i)


# ---------------------------------------------------------------------------
# Change of scale
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScaleMap:
    """Strictly increasing C^1 map psi from Itilde onto I.

    psi_jet(x, L), when given, returns the Taylor coefficients of psi at x
    and enables analytic derivative chains under transported gauges.
    """

    domain: Interval
    codomain: Interval
    psi: Callable[[float], float]
    psi_prime: Callable[[float], float]
    psi_inverse: Callable[[float], float]
    psi_jet: Optional[Callable[[float, int], Jet]] = None
    name: str = ""

    def check(self, grid) -> None:
        """Sanity-check inverse consistency and positivity of psi' on a grid."""
        for x in np.atleast_1d(grid):
            x = float(x)
            if self.psi_prime(x) <= 0.0:
                raise DomainError(f"psi'({x}) <= 0")
            y = self.psi(x)
            back = self.psi_inverse(y)
            if abs(back - x) > 1e-9 * (1.0 + abs(x)):
                raise DomainError(f"psi_inverse(psi({x})) = {back} != {x}")


def identity_map(interval: Interval) -> ScaleMap:
    return ScaleMap(
        interval,
        interval,
        psi=lambda x: x,
        psi_prime=lambda x: 1.0,
        psi_inverse=lambda y: y,
        psi_jet=lambda x, L: jet_var(x, L),
        name="identity",
    )


def affine_map(domain: Interval, c: float, d: float) -> ScaleMap:
    """psi(x) = c*x + d with c > 0."""
    if c <= 0:
        raise DomainError("affine map needs positive slope")
    lo, hi = c * domain.a + d, c * domain.b + d
    codomain = Interval(lo, hi, domain.left_closed, domain.right_closed)

    def ajet(x: float, L: int) -> Jet:
        if L == 1:
            return (c * x + d,)
        return (c * x + d, c) + (0.0,) * (L - 2)

    return ScaleMap(
        domain,
        codomain,
        psi=lambda x: c * x + d,
        psi_prime=lambda x: c,
        psi_inverse=lambda y: (y - d) / c,
        psi_jet=ajet,
        name="affine",
    )


def tan_map() -> ScaleMap:
    """psi = tan from (-pi/2, pi/2) onto the real line."""

    def tjet(x: float, L: int) -> Jet:
        s, c = _jet_sincos(jet_var(x, L))
        return jet_div(s, c)

    return ScaleMap(
        Interval(-math.pi / 2, math.pi / 2),
        Interval(-math.inf, math.inf),
        psi=math.tan,
        psi_prime=lambda x: 1.0 / math.cos(x) ** 2,
        psi_inverse=math.atan,
        psi_jet=tjet,
        name="tan",
    )


def transport_gauges(g: GaugeSpec, m: ScaleMap, n_entries: int = 16) -> TableGauge:
    """Transported gauges wt over the domain of m.

    wt_0 = w_0 o psi and wt_j = (w_j o psi) * psi' for j >= 1.  The result
    is a table gauge; analytic jets are composed whenever both the base
    gauge and the map provide them.
    """
    if m.codomain.a != g.interval.a or m.codomain.b != g.interval.b:
        raise DomainError(
            f"scale map codomain {m.codomain} does not match gauge interval "
            f"{g.interval}"
        )
    if isinstance(g, TableGauge):
        n_entries = len(g.funcs)

    def make_value(j: int):
        if j == 0:
            return lambda x: g.value(0, m.psi(x))
        return lambda x: g.value(j, m.psi(x)) * m.psi_prime(x)

    def make_jet(j: int):
        def jf(x: float, L: int) -> Optional[Jet]:
            if m.psi_jet is None:
                return None
            pj = m.psi_jet(x, L + 1)
            wj = g.jet(j, pj[0], L)
            if wj is None:
                return None
            comp = jet_compose(wj, pj[:L])
            if j == 0:
                return comp
            return jet_mul(comp, jet_deriv(pj))

        return jf

    funcs = [make_value(j) for j in range(n_entries)]
    jets = [make_jet(j) for j in range(n_entries)]
    smooth = [g.smooth_order(j) if m.psi_jet is not None else 0 for j in range(n_entries)]
    return TableGauge(
        m.domain,
        funcs,
        jets,
        antiderivs=None,
        smooth_orders=smooth,
        name=f"transport[{m.name}]",
    )


# ---------------------------------------------------------------------------
# Named gauge constructions used by the applications
# ---------------------------------------------------------------------------

def arctan_cheb_gauges() -> TableGauge:
    """w_0 = pi + arctan, w_1 = 1/(1+x^2) on the real line.

    The degree-<=1 w-polynomials for this pair are products of arctan
    factors; they drive the Chebyshev-type integral ratio bound.
    """
    iv = Interval(-math.inf, math.inf)

    def w0(x):
        return math.pi + math.atan(x)

    def w1(x):
        return 1.0 / (1.0 + x * x)

    def one_plus_sq(a: Jet) -> Jet:
        sq = jet_mul(a, a)
        return (sq[0] + 1.0,) + sq[1:]

    def w0_jet(x, L):
        # d/dx arctan = 1/(1+x^2); integrate that rational jet termwise.
        dinv = jet_div(jet_const(1.0, L), one_plus_sq(jet_var(x, L)))
        coeffs = [math.pi + math.atan(x)] + [dinv[i] / (i + 1) for i in range(L - 1)]
        return tuple(coeffs)

    def w1_jet(x, L):
        return jet_div(jet_const(1.0, L), one_plus_sq(jet_var(x, L)))

    return TableGauge(
        iv,
        [w0, w1],
        jets=[w0_jet, w1_jet],
        antiderivs=[None, math.atan],
        smooth_orders=[math.inf, math.inf],
        name="arctan_cheb",
    )


def stein_gauges() -> TableGauge:
    """(w_0, w_1, w_2) = (1, 1/phi, phi) with phi the standard normal density.

    Composing the two gauged differentiations yields the Ornstein-Uhlenbeck
    generator f'' - x f'.
    """
    iv = Interval(-math.inf, math.inf)
    c = 1.0 / math.sqrt(2.0 * math.pi)

    def phi(x):
        return c * math.exp(-x * x / 2.0)

    def inv_phi(x):
        u = x * x / 2.0
        return math.inf if u > 700.0 else math.exp(u) / c

    def phi_jet(x, L):
        half_sq = jet_scale(jet_mul(jet_var(x, L), jet_var(x, L)), -0.5)
        return jet_scale(jet_exp(half_sq), c)

    def inv_phi_jet(x, L):
        return jet_div(jet_const(1.0, L), phi_jet(x, L))

    return TableGauge(
        iv,
        [lambda x: 1.0, inv_phi, phi],
        jets=[lambda x, L: jet_const(1.0, L), inv_phi_jet, phi_jet],
        antiderivs=[lambda x: x, None, None],
        smooth_orders=[math.inf, math.inf, math.inf],
        name="stein",
    )


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

_TABLE_REGISTRY = {
    "arctan_cheb": arctan_cheb_gauges,
    "stein": stein_gauges,
}


def _endpoint(v) -> float:
    if isinstance(v, str):
        s = v.strip().lower()
        if s in ("-inf", "-infinity"):
            return -math.inf
        if s in ("inf", "+inf", "infinity", "+infinity"):
            return math.inf
        raise DomainError(f"bad endpoint string {v!r}")
    return float(v)


def interval_from_dict(d: dict) -> Interval:
    return Interval(
        _endpoint(d["a"]),
        _endpoint(d["b"]),
        bool(d.get("left_closed", False)),
        bool(d.get("right_closed", False)),
    )


def interval_to_dict(iv: Interval) -> dict:
    def enc(v):
        if v == -math.inf:
            return "-inf"
        if v == math.inf:
            return "inf"
        return v

    return {
        "a": enc(iv.a),
        "b": enc(iv.b),
        "left_closed": iv.left_closed,
        "right_closed": iv.right_closed,
    }


@malformed_input_as(GaugeError)
def gauge_from_dict(d: dict) -> GaugeSpec:
    """Build a gauge from its JSON form.

    {"interval": {...}, "kind": "unit"|"exponential"|"power"|"table",
     "params": [...]}.  Table params name a registered construction.
    """
    iv = interval_from_dict(d["interval"])
    kind = d["kind"]
    params = d.get("params", [])
    if kind == "unit":
        return UnitGauge(iv)
    if kind == "exponential":
        return ExponentialGauge(iv, [float(v) for v in params])
    if kind == "power":
        if not params:
            raise GaugeError("power gauge params must be [base, lam_0, ...]")
        return PowerGauge(iv, float(params[0]), [float(v) for v in params[1:]])
    if kind == "table":
        if len(params) != 1 or params[0] not in _TABLE_REGISTRY:
            raise GaugeError(
                f"table gauges in files must name one of {sorted(_TABLE_REGISTRY)}"
            )
        g = _TABLE_REGISTRY[params[0]]()
        return g
    raise GaugeError(f"unknown gauge kind {kind!r}")


def gauge_to_dict(g: GaugeSpec) -> dict:
    d = {"interval": interval_to_dict(g.interval), "kind": g.kind}
    if isinstance(g, ExponentialGauge):
        d["params"] = list(g.lams)
    elif isinstance(g, PowerGauge):
        d["params"] = [g.base] + list(g.lams)
    elif isinstance(g, TableGauge):
        d["params"] = [g.name]
    else:
        d["params"] = []
    return d
