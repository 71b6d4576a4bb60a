"""Application engines: the Chebyshev-type integral ratio, martingale
normal domination, the left-tail comparison chain, and the differential
inequality emitter.

The ratio engine works on the arctan gauge pair (w_0 = pi + arctan,
w_1 = 1/(1+x^2)) against the standard Cauchy probability measure.  The
substitution u = arctan x turns the two generator families into (piecewise)
polynomials in u, so the bilinear ratio reduces to exact polynomial
integrals; adaptive quadrature against the Cauchy part, in its tan
substitution, provides the independent route.

The martingale engine compares the exact law of a bounded-difference
(super)martingale sum against the dominating normal through partial
moments of order five; the left-tail engine runs the reflected
order-three comparisons along the binomial / Poisson / normal chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial import Polynomial

from .dual_cone import _interior_point
from .errors import DomainError, PreconditionError
from .gderiv import FunctionRep
from .intervals import (
    ExponentialGauge,
    GaugeSpec,
    Interval,
    PowerGauge,
    TableGauge,
    UnitGauge,
)
from .measures import (
    CauchyPart,
    MeasureRep,
    NormalPart,
    PoissonPart,
    _pointwise,
    lower_partial_moment,
    raw_moment,
)
from .wpoly import finiteness_set, chain_t_handle, chain_az_handle

__all__ = [
    "RatioQuery",
    "rho_function",
    "tau_function",
    "cheb_ratio",
    "cheb_ratio_quadrature",
    "cheb_minimum_scan",
    "MartingaleModel",
    "martingale_dominance",
    "left_tail_chain",
    "diffineq_system",
    "CHEB_CONSTANT",
]

HALF_PI = math.pi / 2.0
CHEB_CONSTANT = 384.0 / 245.0
_MAX_SUPPORT = 200000  # atoms of an exactly enumerated martingale sum
MAX_POWER = 170  # the normal side's power! stays below float overflow
MAX_SUMMANDS = 1000  # and so do the binomial coefficients C(n, j)
MAX_WALK = 1000  # fair-walk steps: 2^-n, an extreme value's mass, is subnormal from 1023
MAX_MC = 1_000_000  # Monte Carlo draws: one float array of that length, 8 MB


# ---------------------------------------------------------------------------
# Chebyshev-type integral ratio (arctan gauges, Cauchy measure)
# ---------------------------------------------------------------------------

def rho_function() -> FunctionRep:
    """rho(x) = (pi + arctan x)(pi/2 + arctan x), the left-limit generator."""
    return FunctionRep(
        Interval(-math.inf, math.inf),
        lambda x: (math.pi + math.atan(x)) * (HALF_PI + math.atan(x)),
        name="rho",
    )


def tau_function(t: float) -> FunctionRep:
    """tau_t(x) = (pi + arctan x)(arctan x - arctan t)_+."""
    v = math.atan(t)
    return FunctionRep(
        Interval(-math.inf, math.inf),
        lambda x: (math.pi + math.atan(x)) * max(math.atan(x) - v, 0.0),
        name=f"tau({t})",
    )


@dataclass(frozen=True)
class RatioQuery:
    """A pair of test functions for the integral association ratio.

    Each entry is "rho", ("tau", t), or a FunctionRep vanishing at -inf.
    The measure defaults to the standard Cauchy law.
    """

    f1: object = "rho"
    f2: object = "rho"


class _UPoly:
    """A generator expressed in u = arctan x: polynomial on [lo, pi/2]."""

    def __init__(self, poly: Polynomial, lo: float):
        self.poly = poly
        self.lo = lo

    @classmethod
    def rho(cls) -> "_UPoly":
        return cls(Polynomial([math.pi, 1.0]) * Polynomial([HALF_PI, 1.0]), -HALF_PI)

    @classmethod
    def tau(cls, t: float) -> "_UPoly":
        v = math.atan(t)
        return cls(Polynomial([math.pi, 1.0]) * Polynomial([-v, 1.0]), v)

    @staticmethod
    def _int_from(poly: Polynomial, lo: float) -> float:
        # Integrate in w = u - lo: no endpoint cancellation near the tip.
        shifted = poly(Polynomial([lo, 1.0]))
        anti = shifted.integ()
        return float(anti(HALF_PI - lo)) / math.pi

    def integral(self) -> float:
        return self._int_from(self.poly, self.lo)

    def product_integral(self, other: "_UPoly") -> float:
        lo = max(self.lo, other.lo)
        return self._int_from(self.poly * other.poly, lo)


def _as_upoly(spec) -> Optional[_UPoly]:
    if spec == "rho":
        return _UPoly.rho()
    if isinstance(spec, tuple) and len(spec) == 2 and spec[0] == "tau":
        return _UPoly.tau(float(spec[1]))
    return None


def _as_callable(spec) -> Callable[[float], float]:
    up = _as_upoly(spec)
    if up is not None:
        if spec == "rho":
            return rho_function().func
        return tau_function(float(spec[1])).func
    if isinstance(spec, FunctionRep):
        return spec.func
    if callable(spec):
        return spec
    raise DomainError(f"cannot interpret ratio operand {spec!r}")


def cheb_ratio(q: RatioQuery) -> float:
    """r(f1, f2) = mu(f1 f2) / (mu(f1) mu(f2)) via the exact substitution
    when both operands are generators, adaptive quadrature otherwise."""
    u1, u2 = _as_upoly(q.f1), _as_upoly(q.f2)
    if u1 is not None and u2 is not None:
        i1 = u1.integral()
        i2 = u2.integral()
        i12 = u1.product_integral(u2)
        if i1 <= 0 or i2 <= 0:
            raise DomainError("degenerate denominator in the ratio")
        return i12 / (i1 * i2)
    return cheb_ratio_quadrature(q)


def cheb_ratio_quadrature(q: RatioQuery) -> float:
    """Independent route: adaptive quadrature against the Cauchy part, in
    its tan substitution, split at the kinks of the tau operands; the three
    integrals are three rows of one, each operand read once per node."""
    f1, f2 = _pointwise(_as_callable(q.f1)), _pointwise(_as_callable(q.f2))
    kinks = [float(spec[1]) for spec in (q.f1, q.f2)
             if isinstance(spec, tuple) and spec[0] == "tau"]

    def rows(xs):
        y1, y2 = f1(xs), f2(xs)
        return np.stack([y1, y2, y1 * y2])

    i1, i2, i12 = CauchyPart().integrate(rows, kinks)
    if i1 <= 0 or i2 <= 0:
        raise DomainError("degenerate denominator in the ratio")
    return i12 / (i1 * i2)


def cheb_minimum_scan(t_grid: Sequence[float]):
    """Minimum of the ratio over all pairs from {rho} u {tau_t: t in grid}.

    Returns (minimum, argmin pair labels, table of diagonal/rho rows).
    """
    ops = ["rho"] + [("tau", float(t)) for t in t_grid]
    labels = ["rho"] + [f"tau({float(t):.6g})" for t in t_grid]
    best = math.inf
    best_pair = None
    for i, a in enumerate(ops):
        for jj in range(i, len(ops)):
            b = ops[jj]
            r = cheb_ratio(RatioQuery(a, b))
            if r < best:
                best = r
                best_pair = (labels[i], labels[jj])
    rows = [(labels[i + 1], cheb_ratio(RatioQuery("rho", op)))
            for i, op in enumerate(ops[1:])]
    return best, best_pair, rows


# ---------------------------------------------------------------------------
# Martingale normal domination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepLaw:
    """Finite conditional step law with bounds and a half-width budget."""

    values: tuple
    probs: tuple
    half_width: float  # s_i

    def __post_init__(self):
        if len(self.values) != len(self.probs) or not self.values:
            raise DomainError("step law needs matching values/probs")
        if abs(math.fsum(self.probs) - 1.0) > 1e-12:
            raise DomainError("step probabilities must sum to 1")
        if any(p < 0 for p in self.probs):
            raise DomainError("step probabilities must be nonnegative")
        c, d = min(self.values), max(self.values)
        if d - c > 2.0 * self.half_width + 1e-12:
            raise DomainError(
                f"bounded-difference condition violated: D-C = {d - c} > "
                f"2*s_i = {2 * self.half_width}"
            )

    def mean(self) -> float:
        return math.fsum(v * p for v, p in zip(self.values, self.probs))


@dataclass(frozen=True)
class MartingaleModel:
    steps: tuple  # of StepLaw
    mode: str = "supermartingale"  # or "martingale"

    def __post_init__(self):
        for st in self.steps:
            mu = st.mean()
            if self.mode == "martingale" and abs(mu) > 1e-12:
                raise DomainError("martingale mode requires mean-zero steps")
            if self.mode == "supermartingale" and mu > 1e-12:
                raise DomainError("supermartingale mode requires mean <= 0 steps")

    def s_total(self) -> float:
        return math.sqrt(math.fsum(st.half_width**2 for st in self.steps))

    def sum_pmf(self) -> dict:
        """Exact law of the sum by pmf convolution."""
        pmf = {0.0: 1.0}
        for st in self.steps:
            nxt = {}
            for x, p in pmf.items():
                for v, q in zip(st.values, st.probs):
                    if q == 0.0:
                        continue
                    key = x + v
                    nxt[key] = nxt.get(key, 0.0) + p * q
            if len(nxt) > _MAX_SUPPORT:
                raise PreconditionError(
                    "support too large for exact enumeration; use Monte Carlo"
                )
            pmf = nxt
        return pmf

    def sum_measure(self) -> MeasureRep:
        pmf = self.sum_pmf()
        return MeasureRep(
            Interval(-math.inf, math.inf), tuple(sorted(pmf.items()))
        )


def _real_grid(t_grid) -> list:
    """The grid's points as floats; DomainError names the first one that
    is not a real number."""
    pts = [float(t) for t in t_grid]
    line = Interval(-math.inf, math.inf)
    for t in pts:
        line.require(t, "t_grid point")
    return pts


def fair_walk(n: int) -> MartingaleModel:
    """n fair +/-1 steps (martingale, s_i = 1), 1 <= n <= MAX_WALK."""
    if not 1 <= n <= MAX_WALK:
        raise DomainError(f"need 1 <= n <= {MAX_WALK} steps, got {n}")
    step = StepLaw((-1.0, 1.0), (0.5, 0.5), 1.0)
    return MartingaleModel((step,) * n, mode="martingale")


@dataclass(frozen=True)
class MartingaleReport:
    holds: bool
    rows: tuple  # (t, walk_value, normal_value, margin)
    s: float
    mean_sum: float
    second_moment_sum: float
    mode: str
    mc_stderr: Optional[float] = None


def martingale_dominance(
    model: MartingaleModel,
    t_grid: Sequence[float],
    power: int = 5,
    mc_samples: int = 0,
    seed: int = 0,
) -> MartingaleReport:
    """Check E (S_n - t)_+^5 <= E (s Z - t)_+^5 on the grid.

    Exact pmf enumeration by default; mc_samples > 0 switches to a seeded
    Monte Carlo fallback whose report refuses a "holds" verdict when any
    margin is within three standard errors of zero.  Every grid point must
    be a real number, 0 <= power <= MAX_POWER and 0 <= mc_samples <= MAX_MC;
    a point whose partial moment leaves float range raises DomainError.
    """
    if not 0 <= power <= MAX_POWER:
        raise DomainError(f"need 0 <= power <= {MAX_POWER}, got {power}")
    if not 0 <= mc_samples <= MAX_MC:
        raise DomainError(f"need 0 <= mc_samples <= {MAX_MC}, got {mc_samples}")
    t_grid = _real_grid(t_grid)
    s = model.s_total()
    if s > 0:
        normal_pm = NormalPart(0.0, s).pm
    else:
        # degenerate comparison law: point mass at 0
        def normal_pm(t, pw):
            return max(-t, 0.0) ** pw if pw else (1.0 if t <= 0 else 0.0)
    if mc_samples:
        rng = np.random.default_rng(seed)
        draws = np.zeros(mc_samples)
        for st in model.steps:
            draws += rng.choice(st.values, size=mc_samples, p=st.probs)
        mean_sum = float(np.mean(draws))
        second = float(np.mean(draws**2))

        def walk_pm(t):
            v = np.maximum(draws - t, 0.0) ** power
            return float(np.mean(v)), float(np.std(v) / math.sqrt(mc_samples))

    else:
        pmf = model.sum_pmf()
        mean_sum = math.fsum(x * p for x, p in pmf.items())
        second = math.fsum(x * x * p for x, p in pmf.items())

        def walk_pm(t):
            return (
                math.fsum(p * (x - t) ** power for x, p in pmf.items() if x > t),
                0.0,
            )

    rows = []
    holds = True
    worst_se = 0.0
    for t in t_grid:
        t = float(t)
        try:
            (wv, se), nv = walk_pm(t), normal_pm(t, power)
        except OverflowError:
            wv = nv = math.inf
        if not (math.isfinite(wv) and math.isfinite(nv)):
            raise DomainError(f"t_grid point {t}: E (X - t)_+^{power} leaves float range")
        margin = nv - wv
        rows.append((t, wv, nv, margin))
        worst_se = max(worst_se, se)
        slack = 3.0 * se
        if margin < -1e-9 * (1.0 + abs(nv)) - slack or (mc_samples and margin < slack):
            holds = False
    if model.mode == "martingale":
        if abs(mean_sum) > 1e-9 or second > s * s + 1e-9:
            holds = False
    else:
        if mean_sum > 1e-9:
            holds = False
    return MartingaleReport(
        holds=holds,
        rows=tuple(rows),
        s=s,
        mean_sum=mean_sum,
        second_moment_sum=second,
        mode=model.mode,
        mc_stderr=worst_se if mc_samples else None,
    )


def path_enumeration_pm(model: MartingaleModel, t: float, power: int = 5) -> float:
    """Literal path-by-path enumeration (oracle; exponential in n)."""
    import itertools

    total = 0.0
    choices = [list(zip(st.values, st.probs)) for st in model.steps]
    for combo in itertools.product(*choices):
        x = math.fsum(v for v, _ in combo)
        p = math.prod(q for _, q in combo)
        if x > t:
            total += p * (x - t) ** power
    return total


# ---------------------------------------------------------------------------
# Left-tail chain: binomial <= Poisson <= normal for reflected order 3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeftChainReport:
    holds: bool
    rows: tuple  # (t, binom, poisson, normal, margin_pois_binom, margin_norm_pois)
    means: tuple
    laws: tuple


def left_tail_chain(
    n: int,
    m=None,
    s=None,
    m_i: Optional[Sequence[float]] = None,
    s_i: Optional[Sequence[float]] = None,
    t_grid: Optional[Sequence[float]] = None,
) -> LeftChainReport:
    """Check the reflected order-3 conditions along the three-law chain.

    The laws: (s/m) Binomial(n, m^2/(n s)) as atoms, (s/m) Poisson(m^2/s),
    and normal(m, sqrt(s)).  Requires 0 < s <= m^2/n.  Per-summand budgets
    (m_i, s_i) may be given instead of totals.  Every grid point must be a
    real number, and 1 <= n <= MAX_SUMMANDS; a point whose partial moment
    leaves float range raises DomainError.
    """
    if not 1 <= n <= MAX_SUMMANDS:
        raise DomainError(f"need 1 <= n <= {MAX_SUMMANDS} summands, got {n}")
    if m is None:
        if m_i is None:
            raise DomainError("need m or m_i")
        m = math.fsum(m_i)
    if s is None:
        if s_i is None:
            raise DomainError("need s or s_i")
        s = math.fsum(s_i)
    m, s = float(m), float(s)
    # Feasibility forces s >= m^2/n (Cauchy-Schwarz on the summands), which
    # is also what keeps the Bernoulli probability m^2/(ns) at most 1.
    if not (s > 0 and m > 0 and s * n >= m * m * (1.0 - 1e-12)):
        raise DomainError(
            f"need s >= m^2/n > 0, got s={s}, m^2/n={m * m / n}"
        )
    p = min(m * m / (n * s), 1.0)
    scale = s / m
    iv = Interval(-math.inf, math.inf)
    binom = MeasureRep(
        iv,
        tuple(
            (scale * j, math.comb(n, j) * p**j * (1 - p) ** (n - j))
            for j in range(n + 1)
        ),
    )
    pois = MeasureRep(iv, continuous=PoissonPart(m * m / s, scale=scale))
    norm = MeasureRep(iv, continuous=NormalPart(m, math.sqrt(s)))
    if t_grid is None:
        t_grid = np.linspace(m - 6 * math.sqrt(s), m + 6 * math.sqrt(s), 41)
    t_grid = _real_grid(t_grid)

    means = tuple(raw_moment(nu, 1) for nu in (binom, pois, norm))
    rows = []
    holds = abs(means[0] - means[1]) < 1e-9 and abs(means[1] - means[2]) < 1e-9
    for t in t_grid:
        t = float(t)
        try:
            vb, vp, vn = (lower_partial_moment(nu, t, 3) for nu in (binom, pois, norm))
        except OverflowError:
            vb = vp = vn = math.inf
        if not all(map(math.isfinite, (vb, vp, vn))):
            raise DomainError(f"t_grid point {t}: E (t - X)_+^3 leaves float range")
        m1 = vp - vb
        m2 = vn - vp
        rows.append((t, vb, vp, vn, m1, m2))
        if m1 < -1e-9 * (1 + abs(vp)) or m2 < -1e-9 * (1 + abs(vn)):
            holds = False
    return LeftChainReport(holds, tuple(rows), means, (binom, pois, norm))


# ---------------------------------------------------------------------------
# Differential inequality emitter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiffIneqSystem:
    inequalities: tuple  # strings, orders k..n+1
    coefficient_table: tuple  # per inequality: tuple of (order, poly-dict)
    generators: tuple  # strings describing the generating elements
    symbolic: bool
    note: str = ""


def _coeff_str(c: dict, var: str) -> str:
    """Render a sparse polynomial-in-var coefficient."""
    bits = []
    for p in sorted(c, reverse=True):
        v = c[p]
        if abs(v) < 1e-12:
            continue
        if p == 0:
            bits.append(f"{v:g}")
        else:
            pow_s = var if p == 1 else f"{var}^{p:g}"
            if abs(v - 1.0) < 1e-12:
                bits.append(pow_s)
            elif abs(v + 1.0) < 1e-12:
                bits.append(f"-{pow_s}")
            else:
                bits.append(f"{v:g}*{pow_s}")
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


def _render_inequality(coeffs: dict, var: str) -> str:
    """coeffs: order -> poly dict (power -> value)."""
    terms = []
    for order in sorted(coeffs, reverse=True):
        poly = {p: v for p, v in coeffs[order].items() if abs(v) > 1e-12}
        if not poly:
            continue
        fname = "f" if order == 0 else f"f^({order})"
        if list(poly) == [0]:
            v = poly[0]
            if abs(v - 1.0) < 1e-12:
                terms.append(fname)
            elif abs(v + 1.0) < 1e-12:
                terms.append(f"-{fname}")
            else:
                terms.append(f"{v:g}*{fname}")
        else:
            terms.append(f"({_coeff_str(poly, var)})*{fname}")
    lhs = " + ".join(terms).replace("+ -", "- ") if terms else "0"
    return f"{lhs} >= 0"


def diffineq_system(g: GaugeSpec, k: int, n: int, s: Optional[float] = None,
                    z: Optional[float] = None) -> DiffIneqSystem:
    """Emit the ordinary-derivative form of the cone inequalities
    E^i f >= 0 for i in [k, n+1], plus the generating elements.

    Symbolic emission covers the exponential (constant coefficients), power
    (rational in x - a), and Stein-type gauge families; other gauges get a
    numeric-only description.  The generators' anchors s and z default to
    0, nudged inside the interval when 0 is not inside it.
    """
    if not 1 <= k <= n + 1:
        raise DomainError("need 1 <= k <= n+1")
    s = _interior_point(g.interval, 0.0) if s is None else s
    z = _interior_point(g.interval, 0.0) if z is None else z
    emitted = _symbolic_operators(g, n + 1)
    if emitted is None:
        return DiffIneqSystem(
            inequalities=tuple(
                f"E^{i} f >= 0  (numeric evaluation only)" for i in range(k, n + 2)
            ),
            coefficient_table=(),
            generators=_generators(g, k, n, s, z),
            symbolic=False,
            note="gauge family without closed-form coefficients",
        )
    var, ops = emitted
    ineqs = []
    table = []
    for i in range(k, n + 2):
        coeffs = ops[i]
        ineqs.append(_render_inequality(coeffs, var))
        table.append((i, tuple(sorted((o, tuple(sorted(c.items()))) for o, c in coeffs.items()))))
    return DiffIneqSystem(
        inequalities=tuple(ineqs),
        coefficient_table=tuple(table),
        generators=_generators(g, k, n, s, z),
        symbolic=True,
    )


def _symbolic_operators(g: GaugeSpec, top: int):
    """Coefficient dicts of E^i f, positive prefactor dropped.

    Returns (variable name, list ops where ops[i] maps derivative order ->
    sparse polynomial in the variable), or None if unsupported.

    Recursion: with E^i f = pos_i * sum_j c_j f^(j) and r_i = (log pos_i)',
    E^(i+1) has coefficients c'_j + r_i c_j + c_(j-1), prefactor
    pos_i / w_(i+1).
    """
    if isinstance(g, (UnitGauge, ExponentialGauge)):
        # pos_i = exp(-sigma_i x) with sigma_i the exponent-parameter sums:
        # r_i = -sigma_i, a constant.
        lam = (lambda j: 0.0) if isinstance(g, UnitGauge) else g.lam
        ops = [{0: {0: 1.0}}]
        sigma = lam(0)
        for i in range(top):
            ops.append(_advance(ops[-1], {0: -sigma}))
            sigma += lam(i + 1)
        return "x", ops
    if isinstance(g, TableGauge) and g.name == "stein":
        # w = (1, 1/phi, phi): pos_i = phi^(m_i), r_i = -m_i x.
        if top > 2:
            return None  # only three Stein gauges exist
        w_exp = {1: -1, 2: 1}
        ops = [{0: {0: 1.0}}]
        m_exp = 0
        for i in range(top):
            ops.append(_advance(ops[-1], {1: -float(m_exp)}))
            m_exp -= w_exp.get(i + 1, 0)
        return "x", ops
    if isinstance(g, PowerGauge):
        # pos_i = u^(e_i) with u = x - base: r_i = e_i / u.
        ops = [{0: {0: 1.0}}]
        e = -(g.lam(0) - 1.0)
        for i in range(top):
            ops.append(_advance(ops[-1], {-1: e}))
            e -= g.lam(i + 1) - 1.0
        return (f"(x-{g.base:g})" if g.base else "x"), ops
    return None


def _advance(coeffs: dict, r: dict) -> dict:
    """One operator step: new c_j = c_j' + r*c_j + c_(j-1)."""
    out = {}

    def add(order, power, val):
        if abs(val) < 1e-15:
            return
        slot = out.setdefault(order, {})
        slot[power] = slot.get(power, 0.0) + val

    for order, poly in coeffs.items():
        for p, v in poly.items():
            if p != 0:
                add(order, p - 1, v * p)  # derivative of the coefficient
            for rp, rv in r.items():
                add(order, p + rp, v * rv)
            add(order + 1, p, v)  # the shift from differentiating f^(order)
    return out


def _generators(g: GaugeSpec, k: int, n: int, s: float, z: float) -> tuple:
    gens = []
    for i in range(k):
        h = chain_t_handle(g, s, 0, i)
        gens.append(f"+/- p_(s;0,{i}): {h.pretty()}")
    fs = finiteness_set(g, n)
    for j in fs.F_kn(k):
        h = chain_az_handle(g, z, 0, k, j)
        gens.append(f"p_(a,z;0:{k}:{j}): {h.pretty()}")
    gens.append(f"p+_(t;0,{n}) family, t in I (nonnegative mixtures)")
    return tuple(gens)
