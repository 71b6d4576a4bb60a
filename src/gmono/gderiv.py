"""Gauged derivative chains and cones of generalized monotone functions.

The j-th gauged derivative alternates division by gauges with ordinary
differentiation: f0 = f/w_0 and f{j+1} = (fj)'/w_{j+1}.  Three evaluation
strategies are available:

* ``supplied``        -- the function carries its gauged derivatives;
* ``analytic_chain``  -- exact jet (truncated Taylor) arithmetic from the
                         ordinary derivatives of f and of the gauges;
* ``fd_chain``        -- nested central differences, one Richardson step
                         per level.

Cone membership (derivatives of orders k-1..n nondecreasing) is certified
on grids, never claimed as proof.  Mixtures of positive-part chain
polynomials against a nonnegative measure provide the canonical cone
members; their gauged derivatives follow the mixture of the shifted chain
exactly, with no differencing.
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
)
from .errors import DomainError, PreconditionError, malformed_input_as
from .intervals import GaugeSpec, Interval, ScaleMap, default_grid, transport_gauges
from .measures import MeasureRep
from .wpoly import WPolyHandle, chain_t_two_arg

__all__ = [
    "FunctionRep",
    "ConeSpec",
    "MembershipReport",
    "ComparisonReport",
    "gauged_derivative",
    "cone_membership",
    "mixture_function",
    "compare_from_point",
    "invariance_check",
    "fn_exp",
    "fn_poly",
    "fn_power",
    "fn_exppoly_terms",
    "rem_left_example",
    "fn_from_callable",
    "fn_from_wpoly",
    "function_from_dict",
]

_REAL_LINE = Interval(-math.inf, math.inf)


# ---------------------------------------------------------------------------
# Function representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionRep:
    """A function on an interval with optional derivative data.

    ``jet(x, L)`` returns Taylor coefficients of f at x (ordinary
    derivatives divided by factorials); ``gauged_data(j, x)`` returns the
    j-th gauged derivative directly when the function knows its own chain.
    """

    interval: Interval
    func: Callable[[float], float]
    jet: Optional[Callable[[float, int], Jet]] = None
    gauged_data: Optional[Callable[[int, float], float]] = None
    order: float = 0
    name: str = ""

    def __call__(self, x: float) -> float:
        return self.func(x)


@dataclass(frozen=True)
class ConeSpec:
    """Cone of functions whose gauged derivatives k-1..n are nondecreasing."""

    gauges: GaugeSpec
    k: int
    n: int

    def __post_init__(self):
        if not 1 <= self.k <= self.n + 1:
            raise DomainError(f"need 1 <= k <= n+1, got k={self.k}, n={self.n}")


# ---------------------------------------------------------------------------
# Gauged derivatives
# ---------------------------------------------------------------------------

def _analytic_chain(f: FunctionRep, g: GaugeSpec, j: int, x: float) -> float:
    if f.jet is None:
        raise PreconditionError("analytic chain needs ordinary-derivative jets on f")
    L = j + 1
    fj = f.jet(x, L)
    w0 = g.jet(0, x, L)
    if w0 is None:
        raise PreconditionError("analytic chain needs gauge jets (w_0)")
    cur = jet_div(fj, w0)
    for lvl in range(1, j + 1):
        cur = jet_deriv(cur)
        wl = g.jet(lvl, x, len(cur))
        if wl is None:
            raise PreconditionError(f"analytic chain needs gauge jets (w_{lvl})")
        cur = jet_div(cur, wl)
    return cur[0]


def _fd_chain(
    f: FunctionRep, g: GaugeSpec, j: int, x: float, h0: float
) -> float:
    iv = f.interval

    def rec(level: int, u: float) -> float:
        if level == 0:
            return f.func(u) / g.value(0, u)
        h = max(h0, h0 * abs(u))
        if not (iv.contains_interior(u - h) and iv.contains_interior(u + h)):
            raise DomainError(
                f"fd step {h} leaves the interval near x={u}; use a smaller "
                f"step or the analytic chain"
            )

        def diff(step: float) -> float:
            return (rec(level - 1, u + step) - rec(level - 1, u - step)) / (2 * step)

        d = (4.0 * diff(h / 2) - diff(h)) / 3.0  # one Richardson step
        return d / g.value(level, u)

    return rec(j, x)


def gauged_derivative(
    f: FunctionRep,
    g: GaugeSpec,
    j: int,
    x: float,
    strategy: str = "auto",
    fd_step: float = 1e-6,
) -> float:
    """j-th gauged derivative of f at x.

    ``auto`` prefers supplied data, then the analytic jet chain, then
    nested finite differences.
    """
    if j < 0:
        raise DomainError("order must be >= 0")
    x = float(x)
    f.interval.require(x)
    if strategy == "auto":
        if f.gauged_data is not None:
            strategy = "supplied"
        elif f.jet is not None and g.jet(0, x, 1) is not None and f.order >= j:
            strategy = "analytic_chain"
        else:
            strategy = "fd_chain"
    if strategy == "supplied":
        if f.gauged_data is None:
            raise PreconditionError("no supplied gauged data on this function")
        return f.gauged_data(j, x)
    if strategy == "analytic_chain":
        if f.order < j:
            raise PreconditionError(
                f"insufficient derivative order: have {f.order}, need {j}"
            )
        return _analytic_chain(f, g, j, x)
    if strategy == "fd_chain":
        return _fd_chain(f, g, j, x, fd_step)
    raise DomainError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# Cone membership on grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MembershipReport:
    member: bool
    violations: tuple  # (j, x_right, margin) triples, first pair per order
    orders_checked: tuple
    grid_certified: bool = True

    def __bool__(self):
        return self.member


def cone_membership(
    f: FunctionRep,
    cone: ConeSpec,
    grid: Optional[Sequence[float]] = None,
    tol: float = 1e-8,
    strategy: str = "auto",
) -> MembershipReport:
    """Grid-certified check that f's gauged derivatives k-1..n are
    nondecreasing.

    A decrease smaller than tol*(1 + |value|) between adjacent grid points
    is not a violation (differencing noise must not produce false
    negatives).  The first violating pair per order is reported.
    """
    g = cone.gauges
    if grid is None:
        grid = default_grid(g.interval, 512)
    xs = [float(v) for v in grid]
    if any(b <= a for a, b in zip(xs[:-1], xs[1:])):
        raise DomainError("grid must be strictly increasing")
    violations = []
    orders = tuple(range(cone.k - 1, cone.n + 1))
    for j in orders:
        prev = None
        for x in xs:
            v = gauged_derivative(f, g, j, x, strategy)
            if prev is not None:
                slack = tol * (1.0 + max(abs(prev), abs(v)))
                if v < prev - slack:
                    violations.append((j, x, v - prev))
                    break
            prev = v
    return MembershipReport(
        member=not violations,
        violations=tuple(violations),
        orders_checked=orders,
    )


# ---------------------------------------------------------------------------
# Mixtures of positive parts: the canonical cone members
# ---------------------------------------------------------------------------

class MixtureLevels:
    """h_{level,y}(x) = integral over t in [y, x] of mu(dt) p_{t;level,n}(x).

    One two-argument chain family per level, built on first use.  The
    default y = -inf gives the untruncated mixture of positive parts.
    """

    def __init__(self, mu: MeasureRep, g: GaugeSpec, n: int):
        self.mu = mu
        self.g = g
        self.n = n
        self._fams = {}

    def value(self, level: int, x: float, y: float = -math.inf) -> float:
        fn = self._fams.get(level)
        if fn is None:
            fn = self._fams[level] = chain_t_two_arg(self.g, level, self.n)
        mu = self.mu
        atoms = [(t, mass) for t, mass in mu.atoms if mass != 0.0 and t >= y]
        if atoms and self.g.kind not in ("unit", "exponential"):  # one array call
            vs = fn(np.array([t for t, _ in atoms]), float(x)).tolist()
        else:  # scalar arithmetic, atom by atom
            vs = [fn(t, x) for t, _ in atoms]
        acc = 0.0
        for (_, mass), v in zip(atoms, vs):
            if not math.isfinite(v):
                raise PreconditionError(f"divergent mixture at level {level}")
            acc += mass * v
        if mu.continuous is not None:
            c = mu.continuous.integrate(
                lambda t: fn(t, x) if t >= y else 0.0,
                breakpoints=[v for v in (y, x) if math.isfinite(v)],
            )
            if not math.isfinite(c):
                raise PreconditionError(f"divergent mixture at level {level}")
            acc += c
        return acc

    def mass_below(self, x: float, y: float = -math.inf) -> float:
        """mu([y, x]); for y = -inf the distribution function of mu."""
        mu = self.mu
        acc = math.fsum(m for t, m in mu.atoms if y <= t <= x)
        if mu.continuous is not None:
            acc += mu.continuous.integrate(
                lambda t: 1.0 if y <= t <= x else 0.0,
                breakpoints=[v for v in (y, x) if math.isfinite(v)],
            )
        return acc


def mixture_function(
    mu: MeasureRep,
    g: GaugeSpec,
    i: int,
    n: int,
) -> FunctionRep:
    """h_{i;mu}(x) = integral mu(dt) p+_{t;i,n}(x).

    The s-th gauged derivative is the same mixture one level up, evaluated
    exactly.  Requires mu nonnegative with no mass at a closed right
    endpoint.
    """
    iv = g.interval
    if iv.right_closed and any(x == iv.b and m > 0 for x, m in mu.atoms):
        raise PreconditionError("mixture measure may not charge the right endpoint")
    if not 0 <= i <= n:
        raise DomainError("need 0 <= i <= n")

    levels = MixtureLevels(mu, g, n)

    def value(x: float) -> float:
        return levels.value(i, x)

    def gauged(s: int, x: float) -> float:
        level = i + s
        if level == n + 1:
            # top derivative is the distribution function of mu
            return levels.mass_below(x)
        if level > n:
            raise DomainError(f"mixture derivative order {s} beyond n+1")
        return levels.value(level, x) / g.value(level, x)

    return FunctionRep(
        interval=iv,
        func=value,
        gauged_data=gauged,
        order=0,
        name=f"mixture(i={i},n={n})",
    )


# ---------------------------------------------------------------------------
# Comparison from identical initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    holds: bool
    right_margin: float
    left_margin: float
    failures: tuple


def compare_from_point(
    f: FunctionRep,
    g2: FunctionRep,
    cone: ConeSpec,
    z: float,
    grid: Optional[Sequence[float]] = None,
    tol: float = 1e-8,
) -> ComparisonReport:
    """Check f >= g2 right of z and (-1)^k (f - g2) >= 0 left of z.

    Preconditions (matching initial data at z up to order k-1, and the
    ordered k-th derivatives on each side) are verified first; violations
    raise rather than producing a verdict.
    """
    g, k = cone.gauges, cone.k
    if grid is None:
        grid = default_grid(g.interval, 128)
    xs = [float(v) for v in grid]
    for j in range(k):
        a = gauged_derivative(f, g, j, z)
        b = gauged_derivative(g2, g, j, z)
        if abs(a - b) > 1e-6 * (1.0 + abs(a) + abs(b)):
            raise PreconditionError(
                f"initial data mismatch at order {j}: {a} vs {b}"
            )
    for x in xs:
        fa = gauged_derivative(f, g, k, x)
        fb = gauged_derivative(g2, g, k, x)
        if fa < fb - tol * (1.0 + abs(fa) + abs(fb)):
            raise PreconditionError(
                f"k-th derivative ordering violated at x={x}: {fa} < {fb}"
            )
    failures = []
    right_margin = math.inf
    left_margin = math.inf
    sign = (-1.0) ** k
    for x in xs:
        d = f.func(x) - g2.func(x)
        if x >= z:
            right_margin = min(right_margin, d)
            if d < -tol * (1.0 + abs(f.func(x))):
                failures.append(("right", x, d))
        if x <= z:
            sd = sign * d
            left_margin = min(left_margin, sd)
            if sd < -tol * (1.0 + abs(f.func(x))):
                failures.append(("left", x, sd))
    return ComparisonReport(
        holds=not failures,
        right_margin=right_margin,
        left_margin=left_margin,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Invariance under change of scale
# ---------------------------------------------------------------------------

def invariance_check(
    f: FunctionRep,
    g: GaugeSpec,
    m: ScaleMap,
    j: int,
    grid_tilde: Sequence[float],
    strategy: str = "auto",
) -> float:
    """Max over the grid of |(f o psi)^(j) under transported gauges minus
    f^(j)(psi(x))|."""
    gt = transport_gauges(g, m, n_entries=max(j + 1, 2))
    fc = compose_function(f, m)
    worst = 0.0
    for xt in grid_tilde:
        xt = float(xt)
        lhs = gauged_derivative(fc, gt, j, xt, strategy)
        rhs = gauged_derivative(f, g, j, m.psi(xt), strategy)
        worst = max(worst, abs(lhs - rhs))
    return worst


def compose_function(f: FunctionRep, m: ScaleMap) -> FunctionRep:
    """f o psi on the domain of the scale map, with composed jets."""
    jet = None
    if f.jet is not None and m.psi_jet is not None:
        def jet(x: float, L: int) -> Jet:
            pj = m.psi_jet(x, L)
            fj = f.jet(pj[0], L)
            return jet_compose(fj, pj)

    return FunctionRep(
        interval=m.domain,
        func=lambda x: f.func(m.psi(x)),
        jet=jet,
        order=f.order,
        name=f"{f.name or 'f'}o{m.name or 'psi'}",
    )


# ---------------------------------------------------------------------------
# Built-in function library
# ---------------------------------------------------------------------------

def fn_exp(rate: float = 1.0, scale: float = 1.0,
           interval: Interval = _REAL_LINE) -> FunctionRep:
    def jet(x, L):
        return jet_scale(jet_exp(jet_scale(jet_var(x, L), rate)), scale)

    return FunctionRep(
        interval=interval,
        func=lambda x: scale * math.exp(rate * x),
        jet=jet,
        order=math.inf,
        name=f"{scale}*exp({rate}x)" if (scale, rate) != (1.0, 1.0) else "exp",
    )


def fn_poly(coeffs: Sequence[float], interval: Interval = _REAL_LINE) -> FunctionRep:
    cs = tuple(float(c) for c in coeffs)

    def value(x):
        acc = 0.0
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    def jet(x, L):
        # Taylor-shift the coefficients to the point x.
        out = [0.0] * L
        for d, c in enumerate(cs):
            if c == 0.0:
                continue
            for i in range(min(d, L - 1) + 1):
                out[i] += c * math.comb(d, i) * x ** (d - i)
        return tuple(out)

    return FunctionRep(interval, value, jet=jet, order=math.inf, name="poly")


def fn_power(p: float, interval: Interval = Interval(0.0, math.inf)) -> FunctionRep:
    def jet(x, L):
        return jet_power(jet_var(x, L), p)

    return FunctionRep(
        interval, lambda x: x**p, jet=jet, order=math.inf, name=f"x^{p}"
    )


def fn_exppoly_terms(terms, interval: Interval = _REAL_LINE) -> FunctionRep:
    """sum of c * (x - t)_+^d * exp(r*(x - t)) pieces; t = None means no
    truncation.  Covers the polynomial-exponential generators and their
    positive parts."""
    norm = []
    for term in terms:
        c = float(term.get("coeff", 1.0))
        d = int(term.get("degree", 0))
        r = float(term.get("rate", 0.0))
        t = term.get("truncate_at")
        norm.append((c, d, r, None if t is None else float(t)))

    def value(x):
        acc = 0.0
        for c, d, r, t in norm:
            if t is not None and x < t:
                continue
            u = x - (t if t is not None else 0.0)
            acc += c * u**d * math.exp(r * u)
        return acc

    def jet(x, L):
        out = jet_const(0.0, L)
        for c, d, r, t in norm:
            if t is not None and x < t:
                continue
            u = jet_sub(jet_var(x, L), jet_const(t if t is not None else 0.0, L))
            term = jet_const(c, L)
            if d:
                pw = jet_const(1.0, L)
                for _ in range(d):
                    pw = jet_mul(pw, u)
                term = jet_mul(term, pw)
            if r:
                term = jet_mul(term, jet_exp(jet_scale(u, r)))
            out = tuple(a + b for a, b in zip(out, term))
        return out

    return FunctionRep(interval, value, jet=jet, order=math.inf, name="exppoly")


def rem_left_example(k: int, n: int) -> FunctionRep:
    """Piecewise cone member with non-integer left growth exponent k - 1/2.

    Left branch (-1)^k (1-x)^(k-1/2); right branch its Taylor polynomial of
    degree n+1 at 0.  The gauged (unit) derivatives of orders k..n+1 are
    positive everywhere, so the function is a cone member whose left-end
    growth beats every polynomial of degree k-1 but stays below degree k.
    Derivative orders stop at 170, past which r! overflows a float.
    """
    if not 0 <= k <= n + 1 <= 170:
        raise DomainError(f"need 0 <= k <= n + 1 <= 170, got k={k}, n={n}")
    q = k - 0.5
    sign = (-1.0) ** k

    def g_jet(x: float, L: int) -> Jet:
        one_minus = jet_sub(jet_const(1.0, L), jet_var(x, L))
        return jet_scale(jet_power(one_minus, q), sign)

    gj0 = g_jet(0.0, n + 2)
    pcoeffs = tuple(gj0[: n + 2])  # Taylor coefficients at 0, orders 0..n+1

    def p_value(x: float) -> float:
        acc = 0.0
        for c in reversed(pcoeffs):
            acc = acc * x + c
        return acc

    def value(x: float) -> float:
        if x <= 0:
            return sign * (1.0 - x) ** q
        return p_value(x)

    def jet(x: float, L: int) -> Jet:
        if L > n + 2:
            raise PreconditionError(
                f"left-example derivatives available up to order {n + 1}"
            )
        if x <= 0.0:
            return g_jet(x, L)
        out = [0.0] * L
        for d, c in enumerate(pcoeffs):
            for i in range(min(d, L - 1) + 1):
                out[i] += c * math.comb(d, i) * x ** (d - i)
        return tuple(out)

    return FunctionRep(
        _REAL_LINE, value, jet=jet, order=n + 1, name=f"left_example({k},{n})"
    )


def fn_from_callable(
    func: Callable[[float], float],
    interval: Interval = _REAL_LINE,
    name: str = "",
) -> FunctionRep:
    return FunctionRep(interval, func, name=name)


def fn_from_wpoly(p: WPolyHandle) -> FunctionRep:
    """Wrap a w-polynomial handle; gauged derivatives come from the exact
    chain identities of the handle."""
    return FunctionRep(
        interval=p.gauges.interval,
        func=p.eval,
        gauged_data=lambda s, x: p.gauged_deriv(s, x),
        order=0,
        name=f"wpoly{p.family}",
    )


@malformed_input_as(DomainError)
def function_from_dict(d: dict) -> FunctionRep:
    """Named built-ins for the file interface.

    An optional "gauged_table" block {"xs": [...], "values": [[...], ...]}
    attaches explicit gauged derivatives (rows indexed by order, linearly
    interpolated between the tabulated points).
    """
    name = d["name"]
    if name == "exp":
        f = fn_exp(float(d.get("rate", 1.0)), float(d.get("scale", 1.0)))
    elif name == "poly":
        f = fn_poly([float(c) for c in d["coeffs"]])
    elif name == "power":
        f = fn_power(float(d["exponent"]))
    elif name == "rem_left_example":
        f = rem_left_example(int(d["k"]), int(d["n"]))
    elif name == "exppoly":
        f = fn_exppoly_terms(d["terms"])
    else:
        raise DomainError(f"unknown function name {name!r}")
    table = d.get("gauged_table")
    if table is not None:
        xs = np.asarray(table["xs"], dtype=float)
        rows = [np.asarray(r, dtype=float) for r in table["values"]]
        if any(len(r) != len(xs) for r in rows):
            raise DomainError("gauged_table rows must match xs in length")

        def gauged(j: int, x: float) -> float:
            if j >= len(rows):
                raise PreconditionError(
                    f"gauged_table supplies orders 0..{len(rows) - 1}"
                )
            return float(np.interp(x, xs, rows[j]))

        f = FunctionRep(
            interval=f.interval,
            func=f.func,
            jet=f.jet,
            gauged_data=gauged,
            order=f.order,
            name=f.name,
        )
    return f
