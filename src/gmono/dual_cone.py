"""Dominance between measure pairs via the finite dual-cone conditions.

A pair (nu1, nu2) of admissible nonnegative measures dominates mod the
cone iff

  (i)   nu1 and nu2 agree (finitely) on the degree < k chain basis at s;
  (ii)  nu1 >= nu2 on the z-anchored second chain, one element per level
        in the finiteness row F_{k,n};
  (iii) nu1 >= nu2 on every positive part p+_{t;0,n}, t in I.

Condition (iii) is certified on a t-grid (atoms + quantiles + an
arctan-uniform fill); for pure-atom measures under unit gauges the margin
is piecewise polynomial in t and the check refines to exact per-piece
minimization.  The worst piece is reported as one more (iii) row, labelled
"(piece min)", on the grid rows' scale sum m (x - t)_+^n / n!.  Any failing
condition yields a counterexample cone member.

There is one checker for every gauge sequence.  Unit gauges (w_j = 1, power
and partial moments) are one instance of it: on an interval iv, call
``check_dominance(nu1, nu2, ConeSpec(UnitGauge(iv), k, n), s=s, z=z)``.

Infinite values follow the extended-sense rules: +inf on nu1's side of an
inequality satisfies it; equality conditions must be finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError, UndefinedMomentError
from .gderiv import ConeSpec, FunctionRep, fn_from_wpoly
from .intervals import UnitGauge
from .measures import MeasureRep, admissibility, gmoment
from .wpoly import (
    DEFAULT_QUAD,
    POSITIVE,
    QuadConfig,
    WPolyHandle,
    chain_az_handle,
    chain_t_handle,
    chain_t_two_arg,
    finiteness_set,
)

__all__ = [
    "ConditionRow",
    "DominanceReport",
    "check_dominance",
    "oracle_equivalence",
    "OracleReport",
    "default_t_grid",
]

DOMINATES = "dominates"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ConditionRow:
    family: str  # "i", "ii", "iii"
    label: str  # basis index or t value
    v1: float
    v2: float
    gap: float
    satisfied: bool


@dataclass(frozen=True)
class DominanceReport:
    verdict: str
    cond_i: tuple
    cond_ii: tuple
    cond_iii: tuple
    witness: Optional[FunctionRep]
    witness_desc: str
    t_grid: tuple
    certification: str  # "grid" or "exact-atoms"
    s: float
    z: float
    tol_eq: float
    branch: str = ""  # admissibility branch label, e.g. the exceptional case

    @property
    def dominates(self) -> bool:
        return self.verdict == DOMINATES

    def rows(self):
        return list(self.cond_i) + list(self.cond_ii) + list(self.cond_iii)


def _tol_eq(value: float, base: float = 1e-9) -> float:
    return base * (1.0 + abs(value))


def _pooled_median(nu1: MeasureRep, nu2: MeasureRep, iv) -> float:
    pts = [x for x, m in nu1.atoms + nu2.atoms if m > 0]
    if pts:
        return _interior_point(iv, float(np.median(pts)))
    if iv.contains_interior(0.0):
        return 0.0
    lo = iv.a if math.isfinite(iv.a) else iv.b - 2.0
    hi = iv.b if math.isfinite(iv.b) else iv.a + 2.0
    return 0.5 * (lo + hi)


def _interior_point(iv, prefer: float) -> float:
    """prefer, nudged strictly inside the interval if it sits on an edge."""
    if iv.contains_interior(prefer):
        return prefer
    lo = iv.a if math.isfinite(iv.a) else min(prefer, iv.b) - 2.0
    hi = iv.b if math.isfinite(iv.b) else max(prefer, iv.a) + 2.0
    shift = 0.25 * (hi - lo)
    if prefer <= iv.a:
        return lo + min(shift, 1.0) if math.isfinite(lo) else prefer + 1.0
    return hi - min(shift, 1.0) if math.isfinite(hi) else prefer - 1.0


def default_t_grid(nu1: MeasureRep, nu2: MeasureRep, iv) -> list:
    """Atoms of both measures, continuous-part quantile proxies, and a
    64-point arctan-uniform fill, clipped to the interval."""
    pts = set()
    for nu in (nu1, nu2):
        for x, m in nu.atoms:
            if m > 0:
                pts.add(float(x))
        c = nu.continuous
        if c is not None:
            center = getattr(c, "mean", getattr(c, "shift", 0.0))
            spread = getattr(c, "sd", None)
            if spread is None:
                lam = getattr(c, "lam", None)
                scale = getattr(c, "scale", 1.0)
                spread = (
                    abs(scale) * (math.sqrt(lam) + 1.0) if lam is not None else 2.0
                )
                if lam is not None:
                    center = getattr(c, "shift", 0.0) + scale * lam
            for q in np.linspace(-4.0, 4.0, 17):
                pts.add(float(center + q * spread))
    lo = iv.a if math.isfinite(iv.a) else -1e3
    hi = iv.b if math.isfinite(iv.b) else 1e3
    base = [x for x in pts if iv.contains(x)]
    span_lo = min(base, default=0.0) - 1.0
    span_hi = max(base, default=0.0) + 1.0
    ta, tb = math.atan(max(lo, span_lo - 8.0)), math.atan(min(hi, span_hi + 8.0))
    for u in np.linspace(ta, tb, 64):
        x = math.tan(u)
        if iv.contains(x):
            pts.add(float(x))
    return sorted(pts)


# ---------------------------------------------------------------------------
# Condition evaluation
# ---------------------------------------------------------------------------

def _ordered_row(family: str, label: str, v1: float, v2: float, tol: float):
    if math.isnan(v1) or math.isnan(v2):
        raise UndefinedMomentError(f"condition ({family}) produced NaN")
    if v1 == math.inf:
        return ConditionRow(family, label, v1, v2, math.inf, True)
    if v2 == math.inf:
        return ConditionRow(family, label, v1, v2, -math.inf, False)
    gap = v1 - v2
    return ConditionRow(family, label, v1, v2, gap, gap >= -_tol_eq(v1, tol))


def _equal_row(family: str, label: str, v1: float, v2: float, tol: float):
    if not (math.isfinite(v1) and math.isfinite(v2)):
        return ConditionRow(family, label, v1, v2, math.nan, False)
    gap = v1 - v2
    return ConditionRow(family, label, v1, v2, gap, abs(gap) <= _tol_eq(v1, tol))


def check_dominance(
    nu1: MeasureRep,
    nu2: MeasureRep,
    cone: ConeSpec,
    s: Optional[float] = None,
    z: Optional[float] = None,
    t_grid: Optional[Sequence[float]] = None,
    tol_eq: float = 1e-9,
    quad: QuadConfig = DEFAULT_QUAD,
) -> DominanceReport:
    """Decide (nu1, nu2) membership in the dual cone, general gauges.

    Finite-mass measures only, although the conditions themselves admit
    infinite measures in the extended sense.
    """
    g, k, n = cone.gauges, cone.k, cone.n
    iv = g.interval
    _mass_gate(nu1, nu2)
    branch = ""
    for tag, nu in (("nu1", nu1), ("nu2", nu2)):
        rep = admissibility(nu, cone)
        if not rep.usable:
            raise PreconditionError(
                f"{tag} is inadmissible ({rep.case}; witness {rep.witness})"
            )
        if rep.case == "exceptional":
            branch = (
                "exceptional (k = n+1 odd, a not in I): conditions apply "
                "to the bounded-below test class"
                if not rep.admissible
                else "exceptional (support bounded away from a)"
            )
    if s is None:
        s = _pooled_median(nu1, nu2, iv)
    if z is None:
        z = s if iv.contains_interior(s) else _pooled_median(nu1, nu2, iv)
    if t_grid is None:
        t_grid = default_t_grid(nu1, nu2, iv)
    t_grid = sorted(float(t) for t in t_grid)

    fs = finiteness_set(g, n, quad)
    pure_atoms = nu1.is_pure_atoms and nu2.is_pure_atoms
    rows = {"i": [], "ii": [], "iii": []}
    first_failure = []  # [(witness, description)] of the first failing row

    def add(row, witness):
        """Record a row; witness(row) is asked for only by the first failure."""
        rows[row.family].append(row)
        if not row.satisfied and not first_failure:
            first_failure.append(witness(row))

    def moments(h):
        return gmoment(nu1, h), gmoment(nu2, h)

    def positive_part(t):
        h = chain_t_handle(g, t, 0, n, part=POSITIVE, quad=quad)
        return fn_from_wpoly(h), f"p+_(t;0,{n}) at t={t:.6g}"

    try:
        for i in range(k):
            h = chain_t_handle(g, s, 0, i, quad=quad)
            label = f"p_(s;0,{i})"
            add(_equal_row("i", label, *moments(h), tol_eq),
                lambda row: _signed_witness(h, row.gap, label))
        for j in fs.F_kn(k):
            h = chain_az_handle(g, z, 0, k, j, quad=quad)
            label = f"p_(a,z;0:{k}:{j})"
            add(_ordered_row("ii", label, *moments(h), tol_eq),
                lambda row: (fn_from_wpoly(h), label))
        fam = chain_t_two_arg(g, 0, n, quad)
        for t in t_grid:
            if pure_atoms:
                v1, v2 = _atom_pm(nu1, fam, t), _atom_pm(nu2, fam, t)
            else:
                v1, v2 = moments(chain_t_handle(g, t, 0, n, part=POSITIVE, quad=quad))
            add(_ordered_row("iii", f"t={t:.17g}", v1, v2, tol_eq),
                lambda row: positive_part(t))
    except UndefinedMomentError:
        return _inconclusive(k, s, z, t_grid, tol_eq)

    certification = "grid"
    if pure_atoms and isinstance(g, UnitGauge):
        extra = _exact_atom_refinement(nu1, nu2, n, iv)
        if extra is not None:
            t_bad, v1, v2 = extra
            row = _ordered_row("iii", f"t={t_bad:.17g} (piece min)", v1, v2, tol_eq)
            add(row, lambda row: positive_part(t_bad))
        certification = "exact-atoms"

    witness, witness_desc = first_failure[0] if first_failure else (None, "")
    return DominanceReport(
        verdict=FAILS if first_failure else DOMINATES,
        cond_i=tuple(rows["i"]),
        cond_ii=tuple(rows["ii"]),
        cond_iii=tuple(rows["iii"]),
        witness=witness,
        witness_desc=witness_desc,
        t_grid=tuple(t_grid),
        certification=certification,
        s=float(s),
        z=float(z),
        tol_eq=tol_eq,
        branch=branch,
    )


def _mass_gate(nu1: MeasureRep, nu2: MeasureRep) -> None:
    for tag, nu in (("nu1", nu1), ("nu2", nu2)):
        if not math.isfinite(nu.total_mass()):
            raise PreconditionError(f"{tag} has infinite total mass")


def _signed_witness(h: WPolyHandle, gap: float, label: str):
    """h, or -h when nu1(h) exceeds nu2(h): a failed equality row's witness."""
    sign = -1.0 if (math.isfinite(gap) and gap > 0) else 1.0
    base = fn_from_wpoly(h)
    fn = FunctionRep(
        interval=base.interval,
        func=lambda x: sign * base.func(x),
        gauged_data=lambda s_, x: sign * base.gauged_data(s_, x),
        name=f"{sign:+g}*{base.name}",
    )
    return fn, f"{'-' if sign < 0 else ''}{label}"


def _atom_pm(nu: MeasureRep, fam, t: float) -> float:
    acc = 0.0
    for x, m in nu.atoms:
        if m > 0 and x >= t:
            v = fam(t, x)
            acc += m * v if math.isfinite(v) else math.inf
    return acc


def _inconclusive(k, s, z, t_grid, tol_eq) -> DominanceReport:
    return DominanceReport(
        verdict=INCONCLUSIVE,
        cond_i=(),
        cond_ii=(),
        cond_iii=(),
        witness=None,
        witness_desc="undefined moment encountered",
        t_grid=tuple(t_grid),
        certification="grid",
        s=float(s),
        z=float(z),
        tol_eq=tol_eq,
    )


def _exact_atom_refinement(nu1, nu2, n, iv):
    """Exact minimization of the piecewise-polynomial margin in t.

    For pure-atom measures under unit gauges the (iii) margin restricted to
    t between consecutive atoms is a degree-n polynomial; minimize each
    piece (and the unbounded end pieces) exactly.  Returns the worst
    (t, v1, v2), or None when there is no piece; v1 and v2 are
    sum m (x - t)_+^n / n!, the p+_{t;0,n} moments of the grid rows.
    """
    knots = sorted({x for x, m in (nu1.atoms + nu2.atoms) if m > 0})
    if not knots:
        return None
    lo_edge = iv.a if math.isfinite(iv.a) else knots[0] - 1e3
    hi_edge = iv.b if math.isfinite(iv.b) else knots[-1]
    edges = [lo_edge] + knots + [hi_edge]
    worst = None
    for a, b in zip(edges[:-1], edges[1:]):
        if not a < b:
            continue
        # margin(t) = sum_{atoms x >= b-} m (x - t)^n difference; on (a, b)
        # the active set is {x >= b} plus possibly x == b itself.
        coeffs = np.zeros(n + 1)
        for x, m, sgn in [(x, m, +1) for x, m in nu1.atoms] + [
            (x, m, -1) for x, m in nu2.atoms
        ]:
            if m == 0 or x < b:
                continue
            if n == 0:
                coeffs[0] += sgn * m
                continue
            # (x - t)^n as a polynomial in t.
            for r in range(n + 1):
                coeffs[r] += sgn * m * math.comb(n, r) * x ** (n - r) * (-1.0) ** r
        poly = np.polynomial.Polynomial(coeffs)
        unbounded_left = a == edges[0] and not math.isfinite(iv.a)
        cands = [0.5 * (a + b), b]
        if math.isfinite(a):
            cands.append(a)
        if n >= 2:
            roots = poly.deriv().roots()
            for r in roots:
                if abs(r.imag) < 1e-9 and r.real < b and (unbounded_left or r.real > a):
                    cands.append(float(r.real))
        if unbounded_left:
            cands.extend(_left_tail_candidates(nu1, nu2, n, knots[0]))
        for t in cands:
            v = float(poly(t))
            if worst is None or v < worst[0]:
                worst = (v, t)
    if worst is None:
        return None
    t = worst[1]

    def moment(nu):
        return math.fsum(
            m * (x - t) ** n for x, m in nu.atoms if m > 0 and x >= t
        ) / math.factorial(n)

    return t, moment(nu1), moment(nu2)


def _left_tail_candidates(nu1, nu2, n, first_knot: float) -> list:
    """Candidate t values capturing the t -> -inf behavior of the margin.

    Left of every atom the margin expands in raw-moment differences D_i
    with weights (-t)^(n-i); the lowest non-vanishing D_i rules the tail.
    When that coefficient is negative the margin eventually dips: return
    deep candidates so the piece minimization catches it.
    """
    scale = 1.0 + sum(m * (1.0 + abs(x)) ** n for x, m in nu1.atoms + nu2.atoms)
    D = []
    for i in range(n + 1):
        d = math.fsum(m * x**i for x, m in nu1.atoms) - math.fsum(
            m * x**i for x, m in nu2.atoms
        )
        D.append(d)
    for i, d in enumerate(D):
        if abs(d) > 1e-12 * scale:
            if d < 0:
                return [first_knot - 4.0**j for j in range(1, 12)]
            return []
    return []


# ---------------------------------------------------------------------------
# Sampled-cone oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReport:
    verdict: str
    trials: int
    soundness_violations: tuple
    worst_margin: float
    witness_gap: Optional[float]

    @property
    def clean(self) -> bool:
        return not self.soundness_violations


def oracle_equivalence(
    nu1: MeasureRep,
    nu2: MeasureRep,
    cone: ConeSpec,
    trials: int = 200,
    seed: int = 0,
    s: Optional[float] = None,
    z: Optional[float] = None,
    tol: float = 1e-7,
    tol_eq: float = 1e-11,
    quad: QuadConfig = DEFAULT_QUAD,
) -> OracleReport:
    """Cross-check the dominance verdict against sampled cone members.

    Samples random nonnegative combinations of the generating elements
    (signed degree < k basis, nonnegative second-chain terms, nonnegative
    positive parts at random anchors) and verifies that a "dominates"
    verdict implies nu1(f) >= nu2(f) for every sample (to ``tol``), and that
    a "fails" verdict carries a witness with nu2(f) - nu1(f) above the
    ``tol_eq`` threshold the verdict was decided on.  Finite-atom measures
    only: sample integrals are exact sums.
    """
    if not (nu1.is_pure_atoms and nu2.is_pure_atoms):
        raise PreconditionError("the sampled-cone oracle needs finite-atom measures")
    g, k, n = cone.gauges, cone.k, cone.n
    iv = g.interval
    if s is None:
        s = _pooled_median(nu1, nu2, iv)
    if z is None:
        z = s
    report = check_dominance(
        nu1, nu2, cone, s=s, z=z, tol_eq=tol_eq, quad=quad
    )
    rng = np.random.default_rng(seed)
    fs = finiteness_set(g, n, quad)
    basis_low = [chain_t_handle(g, s, 0, i, quad=quad) for i in range(k)]
    basis_az = [chain_az_handle(g, z, 0, k, j, quad=quad) for j in fs.F_kn(k)]
    fam = chain_t_two_arg(g, 0, n, quad)
    atoms1 = [(x, m) for x, m in nu1.atoms if m > 0]
    atoms2 = [(x, m) for x, m in nu2.atoms if m > 0]
    locs = [x for x, _ in atoms1 + atoms2]
    lo = min(locs) - 2.0
    hi = max(locs) + 2.0
    # The fixed generators do not depend on the trial: one row per handle,
    # one column per atom, so a trial's fixed part is one product.
    H = np.array(
        [[h.eval(x) for x in locs] for h in basis_low + basis_az]
    ).reshape(-1, len(locs))
    split = len(atoms1)

    violations = []
    worst = math.inf
    for trial in range(trials):
        a_signed = rng.normal(size=k)
        b_pos = rng.exponential(size=len(basis_az))
        n_parts = int(rng.integers(1, 6))
        ts = rng.uniform(lo, hi, size=n_parts)
        c_pos = rng.exponential(size=n_parts)

        vals = np.concatenate([a_signed, b_pos]) @ H
        for col, x in enumerate(locs):
            for coef, t in zip(c_pos, ts):
                if x >= t:
                    vals[col] += coef * fam(t, x)
        m1 = math.fsum(m * v for (_, m), v in zip(atoms1, vals[:split]))
        m2 = math.fsum(m * v for (_, m), v in zip(atoms2, vals[split:]))
        margin = m1 - m2
        worst = min(worst, margin)
        if report.dominates and margin < -tol * (1.0 + abs(m1) + abs(m2)):
            violations.append((trial, margin))

    witness_gap = None
    if report.verdict == FAILS:
        w = report.witness
        w1 = math.fsum(m * w.func(x) for x, m in atoms1)
        w2 = math.fsum(m * w.func(x) for x, m in atoms2)
        witness_gap = w2 - w1
        # Strict on the threshold at which the failing row was decided.
        if not witness_gap > _tol_eq(w1, tol_eq):
            violations.append(("witness-not-strict", witness_gap))
    return OracleReport(
        verdict=report.verdict,
        trials=trials,
        soundness_violations=tuple(violations),
        worst_margin=worst,
        witness_gap=witness_gap,
    )
