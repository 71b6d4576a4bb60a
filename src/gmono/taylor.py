"""Generalized Taylor expansion at the left endpoint and its truncated
lifting.

For a cone member f, each gauged derivative of order j in [k, n] splits as
f^(j) * w_j = p_j + h_j, where p_j collects the left-endpoint limits
f^(i)(a+) against the left-anchored chain and h_j mixes the positive parts
against the Stieltjes measure of the top derivative.

Truncating the mixture to [y, inf) and re-pinning the lost initial data at
an interior point z with a degree-(k-1) interpolant produces g_y, a sum of
a cone polynomial part P and a mixture part R.  As y decreases to a, g_y
increases to f right of z while (-1)^k (f - g_y) decreases to 0 left of z;
the convergence profile tabulates both sup-gaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, PreconditionError
from .gderiv import ConeSpec, FunctionRep, MixtureLevels, gauged_derivative
from .intervals import default_grid
from .measures import MeasureRep
from .wpoly import chain_az_handle, chain_t_handle, finiteness_set, interpolate

__all__ = [
    "TaylorData",
    "ApproxHandle",
    "taylor_data",
    "taylor_expand",
    "build_approx",
    "convergence_profile",
    "estimate_limits_at_a",
    "dfn_from_derivative",
    "growth_exponent",
]

_CAUCHY_TOL = 1e-8  # relative gap of successive limit estimates at a
_DFN_POINTS = 4096  # grid points of the discretized top derivative


@dataclass(frozen=True)
class TaylorData:
    """Ingredients of the left-endpoint expansion of a cone member."""

    cone: ConeSpec
    f: FunctionRep
    limits_at_a: dict  # i -> f^(i)(a+), for i in [k, n]
    dfn: MeasureRep  # Stieltjes measure of f^(n)

    def __post_init__(self):
        k, n = self.cone.k, self.cone.n
        fs = finiteness_set(self.cone.gauges, n)
        for i in range(k, n + 1):
            v = self.limits_at_a.get(i)
            if v is None or v < 0 or not math.isfinite(v):
                raise PreconditionError(
                    f"limit f^({i})(a+) must be finite and nonnegative, got {v}"
                )
        for j in range(k, n + 1):
            for i in range(j, n + 1):
                if not fs.contains(j, i) and self.limits_at_a[i] > 1e-12:
                    raise PreconditionError(
                        f"f^({i})(a+) must vanish: p_(a;{j},{i}) diverges"
                    )
        object.__setattr__(self, "_fs", fs)

    @property
    def fs(self):
        return self._fs


def estimate_limits_at_a(f: FunctionRep, cone: ConeSpec) -> dict:
    """Estimate f^(i)(a+) for i in [k, n] along a geometric approach to a.

    Requires a Cauchy criterion (successive gaps below _CAUCHY_TOL twice in
    a row); fails loudly otherwise.
    """
    g = cone.gauges
    iv = g.interval
    if iv.left_closed:
        return {
            i: gauged_derivative(f, g, i, iv.a) for i in range(cone.k, cone.n + 1)
        }
    out = {}
    for i in range(cone.k, cone.n + 1):
        prev = None
        hits = 0
        val = None
        for m in range(2, 40):
            if math.isinf(iv.a):
                x = -(2.0**m)
            else:
                hi = min(iv.b, iv.a + 1.0)
                x = iv.a + (hi - iv.a) / 2.0**m
            try:
                v = gauged_derivative(f, g, i, x)
            except DomainError:
                break
            if prev is not None and abs(v - prev) < _CAUCHY_TOL * (1.0 + abs(v)):
                hits += 1
                if hits >= 2:
                    val = v
                    break
            else:
                hits = 0
            prev = v
        if val is None:
            raise PreconditionError(
                f"limit of f^({i}) at a+ did not satisfy the Cauchy criterion"
            )
        out[i] = val
    return out


def dfn_from_derivative(fn_at, interval, window=None) -> MeasureRep:
    """Discretize a nondecreasing top derivative into an atom measure.

    Differences on a dense grid; total variation equals the accumulated
    jump mass by construction (the function is nondecreasing).  ``window``
    bounds the discretized range; approximations built from the result are
    then valid for queries inside it.
    """
    if window is not None:
        lo, hi = window
        xs = np.linspace(lo, hi, _DFN_POINTS)
    else:
        xs = default_grid(interval, _DFN_POINTS)
    vals = [fn_at(float(x)) for x in xs]
    atoms = []
    for i in range(len(xs) - 1):
        d = vals[i + 1] - vals[i]
        if d < -1e-12 * (1.0 + abs(vals[i])):
            raise PreconditionError("top derivative is not nondecreasing")
        if d > 0:
            atoms.append((float(0.5 * (xs[i] + xs[i + 1])), float(d)))
    return MeasureRep(interval, tuple(atoms))


def taylor_data(
    f: FunctionRep,
    cone: ConeSpec,
    limits_at_a: Optional[dict] = None,
    dfn: Optional[MeasureRep] = None,
    window=None,
) -> TaylorData:
    """Assemble TaylorData, estimating what is not supplied.

    A missing top-derivative measure ``dfn`` is recovered from the
    function's own order-n gauged derivative (from its jet or gauged data)
    by differencing inside ``window`` (mandatory when the interval is
    unbounded).
    """
    if limits_at_a is None:
        limits_at_a = estimate_limits_at_a(f, cone)
    if dfn is None:
        if f.jet is None and f.gauged_data is None:
            raise PreconditionError(
                "need the top-derivative measure or an evaluable top derivative"
            )
        g, n = cone.gauges, cone.n
        iv = g.interval
        if window is None and not (
            math.isfinite(iv.a) and math.isfinite(iv.b)
        ):
            raise PreconditionError(
                "discretizing the top derivative on an unbounded interval "
                "needs an explicit window"
            )
        dfn = dfn_from_derivative(
            lambda x: gauged_derivative(f, g, n, x), iv, window=window
        )
    return TaylorData(cone, f, dict(limits_at_a), dfn)


# ---------------------------------------------------------------------------
# The expansion itself
# ---------------------------------------------------------------------------

def taylor_expand(td: TaylorData, j: int, x: float):
    """Split f^(j)(x) w_j(x) into (polynomial part, mixture part).

    Returns (p_j_val, h_j_val); their sum reproduces f^(j) w_j for genuine
    cone members.
    """
    k, n = td.cone.k, td.cone.n
    if not k <= j <= n:
        raise DomainError(f"need k <= j <= n, got j={j}")
    g = td.cone.gauges
    x = float(x)
    p_val = 0.0
    for i in td.fs.F_kn(j):
        c = td.limits_at_a.get(i, 0.0)
        if c == 0.0:
            continue
        h = chain_t_handle(g, g.interval.a, j, i)
        p_val += c * h.eval(x)
    h_val = MixtureLevels(td.dfn, g, n).value(j, x)
    return p_val, h_val


# ---------------------------------------------------------------------------
# Truncated lifting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ApproxHandle:
    """g_y = P + R: polynomial part pinned at z, truncated mixture part."""

    td: TaylorData
    z: float
    y: float
    P: FunctionRep
    R: FunctionRep
    g_y: FunctionRep

    def gauged(self, s: int, x: float) -> float:
        return self.g_y.gauged_data(s, x)


def build_approx(td: TaylorData, z: float, y: float) -> ApproxHandle:
    """Construct the lifted truncation g_y = P_{z,y} + R_{z,y}.

    R is the mixture of positive parts over df^(n) restricted to [y, inf);
    P collects the left-limit terms through the z-anchored chain plus the
    degree-(k-1) interpolant matching f's initial data at z.  Requires
    a < y <= z < b; out-of-range y is rejected, not clamped.
    """
    g = td.cone.gauges
    iv = g.interval
    k, n = td.cone.k, td.cone.n
    if not (iv.a < y <= z < iv.b):
        raise DomainError(f"need a < y <= z < b, got y={y}, z={z}")
    hfam = MixtureLevels(td.dfn, g, n)

    az_terms = []
    for j in td.fs.F_kn(k):
        c = td.limits_at_a.get(j, 0.0)
        if c != 0.0:
            az_terms.append((c, chain_az_handle(g, z, 0, k, j)))

    # Deficit interpolant: c_i = f^(i)(z) - h_{i,y}(z), i < k.
    cs = []
    for i in range(k):
        fi = gauged_derivative(td.f, g, i, z)
        cs.append(fi - hfam.value(i, z, y))
    q = interpolate(g, z, cs)

    def P_value(x: float) -> float:
        return q.eval(x) + math.fsum(c * h.eval(x) for c, h in az_terms)

    def P_gauged(s: int, x: float) -> float:
        acc = q.gauged_deriv(s, x)
        for c, h in az_terms:
            acc += c * h.gauged_deriv(s, x)
        return acc

    def R_value(x: float) -> float:
        return hfam.value(0, x, y)

    def R_gauged(s: int, x: float) -> float:
        if s == n + 1:
            return hfam.mass_below(x, y)
        return hfam.value(s, x, y) / g.value(s, x)

    P = FunctionRep(iv, P_value, gauged_data=P_gauged, name="P_part")
    R = FunctionRep(iv, R_value, gauged_data=R_gauged, name="R_part")

    def gy_value(x: float) -> float:
        return P_value(x) + R_value(x)

    def gy_gauged(s: int, x: float) -> float:
        return P_gauged(s, x) + R_gauged(s, x)

    g_y = FunctionRep(iv, gy_value, gauged_data=gy_gauged, name=f"g_y(y={y})")
    return ApproxHandle(td, float(z), float(y), P, R, g_y)


def convergence_profile(
    td: TaylorData,
    z: float,
    ys: Sequence[float],
    grid: Optional[Sequence[float]] = None,
):
    """Sup-gaps of f - g_y on each side of z for a descending list of y.

    Returns a list of rows (y, sup_gap_right, sup_gap_left); gaps should be
    nonnegative (up to rounding) and nonincreasing as y walks down toward a.
    """
    ys = [float(v) for v in ys]
    if any(b >= a for a, b in zip(ys[:-1], ys[1:])):
        raise DomainError("ys must be strictly decreasing")
    g = td.cone.gauges
    if grid is None:
        grid = default_grid(g.interval, 128)
    xs = [float(v) for v in grid]
    sign = (-1.0) ** td.cone.k
    rows = []
    for y in ys:
        ah = build_approx(td, z, y)
        right = -math.inf
        left = -math.inf
        for x in xs:
            d = td.f.func(x) - ah.g_y.func(x)
            if x >= z:
                right = max(right, d)
            if x <= z:
                left = max(left, sign * d)
        rows.append((y, right, left))
    return rows


def growth_exponent(f: FunctionRep, window: Sequence[float]) -> float:
    """Empirical left-end growth exponent: slope of log|f| against log|x|.

    Diagnostic only; used to compare the growth of a function against its
    lifted approximations near a = -inf.
    """
    xs = [float(x) for x in window]
    lx, lf = [], []
    for x in xs:
        v = abs(f.func(x))
        if v > 0 and abs(x) > 1:
            lx.append(math.log(abs(x)))
            lf.append(math.log(v))
    if len(lx) < 2:
        raise DomainError("window too small for a growth estimate")
    slope, _ = np.polyfit(lx, lf, 1)
    return float(slope)
