"""Dominance between measure pairs via the finite dual-cone conditions.

A pair (nu1, nu2) of admissible nonnegative measures dominates mod the
cone iff

  (i)   nu1 and nu2 agree (finitely) on the degree < k chain basis at s;
  (ii)  nu1 >= nu2 on the z-anchored second chain, one element per level
        in the finiteness row F_{k,n};
  (iii) nu1 >= nu2 on every positive part p+_{t;0,n}, t in I.

Condition (iii) is certified on a t-grid (atoms + quantiles + an
arctan-uniform fill).  The measures' rows over the grid are one batch
(``_grid_rows``): their atoms, with a Poisson part's support as more
atoms, are one call of the two-argument chain family, and a normal part
under unit or exponential gauges takes its moments by translation; other
parts take one handle per t.  For pure-atom measures under unit gauges
the margin is piecewise polynomial in t and the check refines to exact
per-piece minimization (``_piece_min``): each piece's polynomial in local
coordinates gives the candidates, the grid rows' chain family gives their
values, and the candidate lowest on the scale rows are judged on is
reported as one more (iii) row, labelled "(piece min)", on the grid rows'
scale sum m (x - t)_+^n / n!.  Any failing condition yields a
counterexample cone member.

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
from .measures import MeasureRep, NormalPart, PoissonPart, admissibility, gmoment
from .wpoly import (
    POSITIVE,
    WPolyHandle,
    chain_az_handle,
    chain_t_handle,
    chain_t_two_arg,
    finiteness_set,
    translated_chain,
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
    else:
        for t in t_grid:
            iv.require(float(t), "t_grid point")
    t_grid = sorted(float(t) for t in t_grid)

    fs = finiteness_set(g, n)
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
        h = chain_t_handle(g, t, 0, n, part=POSITIVE)
        return fn_from_wpoly(h), f"p+_(t;0,{n}) at t={t:.6g}"

    try:
        for i in range(k):
            h = chain_t_handle(g, s, 0, i)
            label = f"p_(s;0,{i})"
            add(_equal_row("i", label, *moments(h), tol_eq),
                lambda row: _signed_witness(h, row.gap, label))
        for j in fs.F_kn(k):
            h = chain_az_handle(g, z, 0, k, j)
            label = f"p_(a,z;0:{k}:{j})"
            add(_ordered_row("ii", label, *moments(h), tol_eq),
                lambda row: (fn_from_wpoly(h), label))
        fam = chain_t_two_arg(g, 0, n)
        for t, v1, v2 in zip(t_grid, *_grid_rows((nu1, nu2), g, n, fam, t_grid)):
            add(_ordered_row("iii", f"t={t:.17g}", v1, v2, tol_eq),
                lambda row: positive_part(t))
    except UndefinedMomentError:
        return _inconclusive(s, z, t_grid, tol_eq)

    certification = "grid"
    if pure_atoms and isinstance(g, UnitGauge):
        extra = _piece_min((nu1, nu2), fam, n, iv)
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


def _grid_rows(nus: Sequence[MeasureRep], g, n: int, fam, t_grid) -> list:
    """nu(p+_{t;0,n}) at each t of t_grid, one list per measure of nus.

    Every measure whose part has a batch is one row over the whole grid,
    and the discrete parts of all of them are one fam call (``_atoms_pm``):
    a measure's atoms, and the support points (x_k, weight * pmf_k) of a
    Poisson part whose support lies in the gauge interval, are summed as
    one set of atoms.  A normal part under unit or exponential gauges on
    the whole line adds its moments by translation
    (``NormalPart.translated_pm``).  The other measures (a Cauchy or
    density part; a normal part under other gauges or off the line; a
    Poisson support leaving the gauge interval, which gmoment refuses), and
    every t where a row is not finite (a tilt past e^700, an overflowed
    cell), take gmoment of that t's handle.
    """
    iv = g.interval
    normal = any(isinstance(nu.continuous, NormalPart) for nu in nus)
    ring = translated_chain(g, 0, n) if normal else None
    ts = np.array(t_grid, dtype=float)

    def points(nu):
        """nu's atoms and batched Poisson support, or None without a batch."""
        part = nu.continuous
        if isinstance(part, PoissonPart):
            xs, ps = part.support()
            if not (iv.contains(float(xs[0])) and iv.contains(float(xs[-1]))):
                return None
            return nu.atoms + tuple(zip(xs.tolist(), (part.weight * ps).tolist()))
        if part is None or (isinstance(part, NormalPart) and ring is not None
                            and iv.a == -math.inf and iv.b == math.inf):
            return nu.atoms
        return None

    batch = [points(nu) for nu in nus]
    sums = iter(_atoms_pm([p for p in batch if p is not None], fam, ts))
    rows = []
    for nu, p in zip(nus, batch):
        row = np.full(len(ts), math.nan) if p is None else np.array(next(sums))
        if p is not None and isinstance(nu.continuous, NormalPart):
            row += nu.continuous.translated_pm(*ring, ts)
        for i in np.flatnonzero(~np.isfinite(row)).tolist():
            h = chain_t_handle(g, t_grid[i], 0, n, part=POSITIVE)
            row[i] = gmoment(nu, h)
        rows.append(row.tolist())
    return rows


def _atoms_pm(atoms: Sequence, fam, ts: np.ndarray) -> list:
    """For each sequence of atoms (x, m) in atoms, sum m p+_{t;0,n}(x) over
    those of positive mass at each t of ts, +inf where a term is not
    finite: one fam call over (t, atom) for every sequence, then one
    cumulative sum per sequence, which adds its atoms in order."""
    atoms = [[(x, m) for x, m in each if m > 0] for each in atoms]
    vals = fam(ts[:, None], np.array([x for each in atoms for x, _ in each]))
    sums, col = [], 0
    with np.errstate(over="ignore", invalid="ignore"):
        for each in atoms:
            v = vals[:, col:col + len(each)]
            terms = np.where(np.isfinite(v), v * [m for _, m in each], math.inf)
            total = np.cumsum(np.c_[np.zeros(len(ts)), terms], axis=1)[:, -1]
            sums.append(total.tolist())
            col += len(each)
    return sums


def _inconclusive(s, z, t_grid, tol_eq) -> DominanceReport:
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


def _piece_min(nus: Sequence[MeasureRep], fam, n: int, iv):
    """The worst t of the pure-atom margin D(t) = nu1(p+) - nu2(p+) under
    unit gauges, minimized exactly piece by piece: (t, v1, v2), or None
    without atoms.

    On each piece (a, b] below a knot b (an atom; the first piece reaches
    down to the interval's a, and a last one up to a finite b), D is a
    degree-n polynomial in tau = t - b with coefficients
    (-1)^r / r! M_(n-r), M_q = sum_(x >= b) +-m (x - b)^q / q!, all in
    nonnegative powers of x - b.  Candidates are the piece's midpoint and
    ends and the real roots of D' inside it.  An unbounded first piece
    instead takes b - 4^j, j = 1..11, and the roots down to the deepest of
    them, after dropping the orders whose M_q is rounding noise (which
    would put spurious roots near t = -1e16).  Every candidate's (v1, v2)
    comes from one _atoms_pm call, on the grid rows' scale, and the worst
    is the lowest on the scale the rows are judged on, (v1 - v2) /
    (1 + |v1|); the first of them on a tie.
    """
    signed = [(x, s * m) for s, nu in zip((1.0, -1.0), nus)
              for x, m in nu.atoms if m > 0]
    if not signed:
        return None
    x, w = np.array(signed).T
    tops = np.unique(x).tolist()
    if math.isfinite(iv.b) and iv.b > tops[-1]:
        tops.append(iv.b)
    b = np.array(tops)[:, None]
    on = x >= b
    q = np.arange(n + 1)
    fact = np.cumprod(np.r_[1.0, q[1:]])  # q! in floats
    powers = np.where(on, x - b, 0.0)[..., None] ** q / fact
    M = np.einsum("pa,paq->pq", on * w, powers)[:, ::-1]  # column r is M_(n-r)
    noise = 1e-12 * np.einsum("pa,paq->pq", on * np.abs(w), powers)[:, ::-1]
    slope = M[:, 1:] * (-1.0) ** q[1:] / fact[:-1]  # D', from tau^0 up
    deep = 4.0 ** np.arange(1, 12)
    cands = []
    for p, (a, top) in enumerate(zip([iv.a] + tops[:-1], tops)):
        if not a < top:
            continue
        if math.isfinite(a):
            cands += [0.5 * (a + top), top, a]
            floor = a - top
        else:
            cands.append(top)
            floor = -deep[-1]
            slope[p, np.abs(M[p, 1:]) <= noise[p, 1:]] = 0.0
        roots = np.polynomial.polynomial.polyroots(slope[p]) if n else slope[p]
        real = roots.real[(abs(roots.imag) < 1e-9) & (roots.real > floor)
                          & (roots.real < 0.0)]
        cands += (top + real).tolist()
        if not math.isfinite(a):
            cands += (top - deep).tolist()
    if not cands:
        return None
    v1, v2 = _atoms_pm([nu.atoms for nu in nus], fam, np.array(cands))
    a1, a2 = np.array(v1), np.array(v2)
    with np.errstate(invalid="ignore"):  # inf / inf where both sides overflow
        worst = int(np.nanargmin((a1 - a2) / (1.0 + np.abs(a1))))
    return cands[worst], v1[worst], v2[worst]


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
) -> OracleReport:
    """Cross-check the dominance verdict against sampled cone members.

    Samples random nonnegative combinations of the generating elements
    (signed degree < k basis, nonnegative second-chain terms, nonnegative
    positive parts at random anchors in I) and verifies that a "dominates"
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
    report = check_dominance(nu1, nu2, cone, s=s, z=z, tol_eq=tol_eq)
    rng = np.random.default_rng(seed)
    fs = finiteness_set(g, n)
    basis_low = [chain_t_handle(g, s, 0, i) for i in range(k)]
    basis_az = [chain_az_handle(g, z, 0, k, j) for j in fs.F_kn(k)]
    fam = chain_t_two_arg(g, 0, n)
    atoms1 = [(x, m) for x, m in nu1.atoms if m > 0]
    atoms2 = [(x, m) for x, m in nu2.atoms if m > 0]
    locs = [x for x, _ in atoms1 + atoms2]
    # Anchors reach 2 past the atoms but stay in I: above an open a, below b.
    least = iv.a if iv.left_closed else math.nextafter(iv.a, math.inf)
    lo, hi = max(min(locs) - 2.0, least), min(max(locs) + 2.0, iv.b)
    # The fixed generators do not depend on the trial: one row per handle,
    # one column per atom, so every trial's fixed part is one product.
    H = np.array(
        [[h.eval(x) for x in locs] for h in basis_low + basis_az]
    ).reshape(-1, len(locs))
    split = len(atoms1)

    # Draw every trial first (1 to 5 positive parts each); then the p-th
    # positive part of every trial that has one is a single fam call over
    # (trial, atom).
    fixed, ts, c_pos = [], np.zeros((trials, 5)), np.zeros((trials, 5))
    n_parts = np.zeros(trials, dtype=int)
    for trial in range(trials):
        a_signed = rng.normal(size=k)
        b_pos = rng.exponential(size=len(basis_az))
        n_parts[trial] = p = int(rng.integers(1, 6))
        ts[trial, :p] = rng.uniform(lo, hi, size=p)
        c_pos[trial, :p] = rng.exponential(size=p)
        fixed.append(np.concatenate([a_signed, b_pos]))
    vals = np.array(fixed).reshape(trials, len(H)) @ H
    x_at = np.array(locs)
    for p in range(5):
        on = n_parts > p
        if not on.any():
            break
        vals[on] += c_pos[on, p, None] * fam(ts[on, p, None], x_at)

    violations = []
    worst = math.inf
    terms1 = (vals[:, :split] * [m for _, m in atoms1]).tolist()
    terms2 = (vals[:, split:] * [m for _, m in atoms2]).tolist()
    for trial, (row1, row2) in enumerate(zip(terms1, terms2)):
        m1, m2 = math.fsum(row1), math.fsum(row2)
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
