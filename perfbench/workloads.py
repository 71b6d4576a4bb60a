"""Inputs, operations and output checks of the three benchmark workloads.

A workload is a fixed schedule of operation kinds (one "round"), repeated
a number of times that depends only on the run length.  The seed draws the
numbers inside each operation (atom locations and masses, gauge exponents,
law parameters), never which kinds run or how many, so every run does the
same kinds of work in the same order and the share of failed operations
cannot depend on the seed.

Every operation calls the library through module attributes
(``dual_cone.check_dominance``, ``wpoly.finiteness_set``) so that the
traced run's wrappers see the calls.  Every check compares the library's
output against a property or a closed form computed here, never against a
stored copy of an earlier output.  A check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from gmono import dual_cone, wpoly
from gmono.gderiv import ConeSpec
from gmono.intervals import (
    ExponentialGauge,
    Interval,
    TableGauge,
    UnitGauge,
    arctan_cheb_gauges,
)
from gmono.measures import MeasureRep, NormalPart, PoissonPart

R = Interval(-math.inf, math.inf)
G61_LAMS = (0.0, 0.0, 0.0, -1.0, 2.0, 1.0)  # the gauge of the paper's section 6.1

# Row tolerances.  Closed-form chains (ExpPoly) differ from a math.fsum of
# the same terms only by rounding: 1e-12 relative to the summed magnitude.
# Quadrature rows use the library's own equality tolerance, 1e-9 relative,
# which is 100x QUADPACK's requested epsrel of 1e-11.  Panel rows: the
# panel integrator accepts a panel when its order-32 and order-48 fits agree
# to QuadConfig's 1e-10 (absolute plus relative); a row sums at most a few
# dozen panel contributions per level over at most five levels, so 100x
# that, 1e-8 relative, bounds the accumulated error.
TOL_EXACT = 1e-12
TOL_QUAD = 1e-9
TOL_PANEL = 1e-8


@dataclass
class Op:
    """One timed operation: run(args) is timed, check(args, out) is not."""

    kind: str
    args: dict
    run: Callable[[dict], object]
    check: Callable[[dict, object], list]
    # True only for the fixed-input operation that exposes known library
    # faults: its failing check counts as a failed operation, not as an
    # incorrect benchmark result.
    known_fault: bool = False


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


def _measure(atoms) -> MeasureRep:
    return MeasureRep(R, atoms=tuple(atoms))


def _random_atoms(rng: random.Random, count: int, lo=-3.0, hi=3.0) -> list:
    """count atoms with total mass 1, in the order drawn."""
    xs = [rng.uniform(lo, hi) for _ in range(count)]
    ms = [rng.uniform(0.2, 1.0) for _ in range(count)]
    total = math.fsum(ms)
    return [(x, m / total) for x, m in zip(xs, ms)]


def _mean(atoms) -> float:
    return math.fsum(x * m for x, m in atoms) / math.fsum(m for _, m in atoms)


def _suffix_finite(lams, j: int, m: int) -> bool:
    """Finiteness of p_(-inf;j,m) for exponential gauges: every suffix sum
    lam_(i+1) + ... + lam_m, i in [j, m-1], is > 0."""
    lam = lambda s: lams[s] if s < len(lams) else 0.0
    return all(math.fsum(lam(s) for s in range(i + 1, m + 1)) > 0.0 for i in range(j, m))


def _f_kn(lams, k: int, n: int) -> list:
    return [m for m in range(k, n + 1) if _suffix_finite(lams, k, m)]


def _witness_problems(rep, nu1: MeasureRep, nu2: MeasureRep) -> list:
    """A "fails" verdict must carry a witness f with nu2(f) > nu1(f)."""
    if rep.verdict != "fails":
        return []
    if rep.witness is None:
        return ["fails verdict without a witness"]
    f = rep.witness.func
    w1 = math.fsum(m * f(x) for x, m in nu1.atoms if m > 0)
    w2 = math.fsum(m * f(x) for x, m in nu2.atoms if m > 0)
    if not w2 - w1 > 1e-12 * (1.0 + abs(w1) + abs(w2)):
        return [f"witness {rep.witness_desc} is not strict: nu2-nu1 = {w2 - w1!r}"]
    return []


# ---------------------------------------------------------------------------
# atoms-oracle: closed-form chains over atoms, plus the sampled-cone oracle
# ---------------------------------------------------------------------------

def _unit_pm(atoms, t: float, n: int) -> float:
    """sum m (x - t)_+^n / n!, the unit-gauge positive-part moment."""
    return math.fsum(m * (x - t) ** n for x, m in atoms if m > 0 and x >= t) / math.factorial(n)


def _run_atoms(a: dict):
    cone = ConeSpec(a["gauges"], a["k"], a["n"])
    rep = dual_cone.check_dominance(a["nu1"], a["nu2"], cone)
    orc = dual_cone.oracle_equivalence(
        a["nu1"], a["nu2"], cone, trials=a["trials"], seed=a["oracle_seed"]
    )
    return rep, orc


def check_atoms(a: dict, out) -> list:
    rep, orc = out
    nu1, nu2, n = a["nu1"], a["nu2"], a["n"]
    problems = []
    if a["expect"] is not None and rep.verdict != a["expect"]:
        problems.append(f"built pair: verdict {rep.verdict}, expected {a['expect']}")
    if rep.verdict not in ("dominates", "fails"):
        problems.append(f"verdict {rep.verdict} on finite atoms")
    problems += _witness_problems(rep, nu1, nu2)
    # The oracle decides its verdict at tol_eq = 1e-11 but then demands a
    # witness gap above tol = 1e-7, so a pair that fails by less than 1e-7
    # gets a "witness-not-strict" entry although its witness separates the
    # measures.  Seeded pairs land there only now and then; the fixed
    # known-fault operation lands there every time and keeps the entry.
    # Elsewhere strictness is checked as it is stated: a positive gap.
    violations = [v for v in orc.soundness_violations
                  if a["all_rows"] or v[0] != "witness-not-strict"]
    if violations:
        problems.append(f"oracle soundness violations {violations[:3]}")
    if orc.verdict == "fails" and not (orc.witness_gap is not None and orc.witness_gap > 0):
        problems.append(f"oracle fails verdict without a strict witness ({orc.witness_gap!r})")
    if orc.trials != a["trials"]:
        problems.append(f"oracle ran {orc.trials} trials, asked {a['trials']}")
    if isinstance(a["gauges"], UnitGauge):
        # Grid rows come first, one per t in t_grid; the exact-atom
        # refinement appends its piece-minimum row after them.
        rows = rep.cond_iii if a["all_rows"] else rep.cond_iii[: len(rep.t_grid)]
        for row in rows:
            t = float(row.label[2:].split()[0])
            for v, nu in ((row.v1, nu1), (row.v2, nu2)):
                ref = _unit_pm(nu.atoms, t, n)
                if not _close(v, ref, TOL_EXACT):
                    problems.append(f"row {row.label}: {v!r} != sum m(x-t)_+^{n}/{n}! = {ref!r}")
    return problems


def _atoms_op(kind: str, gauges, k: int, n: int, nu1, nu2, expect, oracle_seed: int,
              all_rows: bool = False, known_fault: bool = False) -> Op:
    args = dict(gauges=gauges, k=k, n=n, nu1=_measure(nu1), nu2=_measure(nu2),
                expect=expect, trials=200, oracle_seed=oracle_seed, all_rows=all_rows)
    return Op(kind, args, _run_atoms, check_atoms, known_fault)


def _random_exp_gauge(rng: random.Random, n: int):
    return ExponentialGauge(R, [rng.choice((-1.0, -0.5, 0.0, 0.5, 1.0)) for _ in range(n + 1)])


# Slots of one atoms-oracle round: (kind, gauge, atoms per measure).  Atom
# counts run from 2 to 32 so that a cost growing with the atom count moves
# the tail; the largest slot sets op_tail_ms.
ATOMS_ROUND = (
    ("random", "unit", 3),
    ("random", "exp", 5),
    ("shift", "unit", 4),
    ("mean", "unit", 6),
    ("random", "exp", 2),
    ("random", "unit", 12),
    ("shift", "unit", 8),
    ("random", "exp", 16),
    ("mean", "unit", 24),
    ("random", "unit", 32),
)


def _pick(options, r: int, slot: int):
    """Option for slot `slot` of round r: each slot cycles through all the
    options in turn, so every run covers the same mix of (k, n)."""
    return options[(r + slot) % len(options)]


KN_UP_TO_5 = tuple((k, n) for n in range(1, 6) for k in range(1, n + 1))


def atoms_round(rng: random.Random, r: int) -> list:
    ops = []
    for i, (kind, gauge_kind, count) in enumerate(ATOMS_ROUND):
        oseed = rng.randrange(1 << 30)
        if kind == "shift":
            # A rightward shift dominates under unit gauges with k = 1.
            n = _pick((1, 2, 3, 4, 5), r, i)
            base = _random_atoms(rng, count)
            c = rng.uniform(0.1, 1.0)
            ops.append(_atoms_op("shift", UnitGauge(R), 1, n,
                                 [(x + c, m) for x, m in base], base, "dominates", oseed))
        elif kind == "mean":
            # Atoms against the point mass at their mean (Jensen), k = 2.
            n = _pick((2, 3, 4, 5), r, i)
            spread = _random_atoms(rng, count)
            point = [(_mean(spread), math.fsum(m for _, m in spread))]
            ops.append(_atoms_op("mean", UnitGauge(R), 2, n, spread, point, "dominates", oseed))
        else:
            k, n = _pick(KN_UP_TO_5, r, i)
            g = UnitGauge(R) if gauge_kind == "unit" else _random_exp_gauge(rng, n)
            nu1 = _random_atoms(rng, count)
            nu2 = _random_atoms(rng, count)
            if rng.random() < 0.5:  # match means so that k = 2 can pass (i)
                d = _mean(nu1) - _mean(nu2)
                nu2 = [(x + d, m) for x, m in nu2]
            ops.append(_atoms_op(f"random-{gauge_kind}", g, k, n, nu1, nu2, None, oseed))
    return ops


def atoms_fault_op() -> Op:
    """Fixed inputs, strict checks: fails on every run until two library
    faults are mended.  delta_0 against delta_(1e-8) under unit gauges,
    k = 1, n = 3: nu1 fails to dominate by 1e-8, so (a) the exact-atom
    refinement's row, which reports sum m (x-t)_+^n without the 1/n! of
    the grid rows, differs from the closed form, and (b) the oracle flags
    its own 1e-8 witness as not strict."""
    return _atoms_op("known-fault", UnitGauge(R), 1, 3,
                     [(0.0, 1.0)], [(1e-8, 1.0)], "fails", 1,
                     all_rows=True, known_fault=True)


def atoms_warmup() -> list:
    return [
        _atoms_op("warmup", UnitGauge(R), 2, 3, [(-1.0, 0.5), (1.0, 0.5)], [(0.0, 1.0)], None, 0),
        _atoms_op("warmup", ExponentialGauge(R, [0.5, -0.5, 1.0]), 1, 2,
                  [(-1.0, 0.5), (1.0, 0.5)], [(0.0, 1.0)], None, 0),
    ]


# ---------------------------------------------------------------------------
# continuous-quad: quadrature against normal and scaled-Poisson parts
# ---------------------------------------------------------------------------

def _stirling2(j: int, r: int) -> int:
    return sum((-1) ** i * math.comb(r, i) * (r - i) ** j for i in range(r + 1)) // math.factorial(r)


def _central_moment(nu: MeasureRep, s: float, i: int) -> float:
    """integral (x - s)^i d nu from the closed forms of each part."""
    terms = [m * (x - s) ** i for x, m in nu.atoms]
    c = nu.continuous
    if isinstance(c, NormalPart):
        # E (X-s)^i = sum over even j of C(i,j) (mu-s)^(i-j) sd^j (j-1)!!
        for j in range(0, i + 1, 2):
            dfact = math.prod(range(j - 1, 0, -2))
            terms.append(c.weight * math.comb(i, j) * (c.mean - s) ** (i - j) * c.sd**j * dfact)
    elif isinstance(c, PoissonPart):
        # X = shift + scale N; E N^j = sum_r S(j, r) lam^r (Touchard).
        for j in range(i + 1):
            raw = math.fsum(_stirling2(j, r) * c.lam**r for r in range(j + 1))
            terms.append(c.weight * math.comb(i, j) * (c.shift - s) ** (i - j) * c.scale**j * raw)
    return math.fsum(terms)


def _run_cont(a: dict):
    return dual_cone.check_dominance(a["nu1"], a["nu2"], ConeSpec(a["gauges"], a["k"], a["n"]))


def check_cont(a: dict, rep) -> list:
    problems = []
    if a["expect"] is not None and rep.verdict != a["expect"]:
        problems.append(f"built pair: verdict {rep.verdict}, expected {a['expect']}")
    if rep.verdict not in ("dominates", "fails"):
        problems.append(f"verdict {rep.verdict}")
        return problems
    # Condition (i): levels below k are unit levels in every gauge of this
    # workload, so p_(s;0,i) = (x-s)^i / i! and the rows are central moments.
    if len(rep.cond_i) != a["k"]:
        problems.append(f"{len(rep.cond_i)} condition-i rows, expected {a['k']}")
    for i, row in enumerate(rep.cond_i):
        for v, nu in ((row.v1, a["nu1"]), (row.v2, a["nu2"])):
            ref = _central_moment(nu, rep.s, i) / math.factorial(i)
            if not _close(v, ref, TOL_QUAD):
                problems.append(f"row {row.label}: {v!r} != central moment {ref!r}")
    want = _f_kn(a["lams"], a["k"], a["n"])
    got = [int(r.label.rsplit(":", 1)[1].rstrip(")")) for r in rep.cond_ii]
    if got != want:
        problems.append(f"condition-ii levels {got}, suffix-sum criterion gives {want}")
    return problems


def _cont_op(kind, lams, k, n, nu1, nu2, expect=None) -> Op:
    g = UnitGauge(R) if lams is None else ExponentialGauge(R, lams)
    args = dict(gauges=g, lams=lams or (0.0,) * (n + 1), k=k, n=n,
                nu1=nu1, nu2=nu2, expect=expect)
    return Op(kind, args, _run_cont, check_cont)


def _normal(rng: random.Random) -> NormalPart:
    return NormalPart(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5))


def _poisson(rng: random.Random) -> PoissonPart:
    return PoissonPart(rng.uniform(1.0, 6.0), rng.uniform(0.5, 1.5), rng.uniform(-3.0, 0.0))


CONT_ROUND = (
    "shift-normal", "shift-poisson", "convex", "convex-reversed",
    "g61-normal-atoms", "exp-poisson-atoms", "exp-normal-normal", "unit-poisson-normal",
)


def cont_round(rng: random.Random, r: int) -> list:
    ops = []
    kn_2_to_4 = tuple((k, n) for n in range(2, 5) for k in (1, 2))
    for i, kind in enumerate(CONT_ROUND):
        if kind == "shift-normal":
            c, nu = rng.uniform(0.2, 1.0), _normal(rng)
            ops.append(_cont_op(kind, None, 1, _pick((1, 2, 3, 4, 5), r, i),
                                MeasureRep(R, continuous=NormalPart(nu.mean + c, nu.sd)),
                                MeasureRep(R, continuous=nu), "dominates"))
        elif kind == "shift-poisson":
            c, nu = rng.uniform(0.2, 1.0), _poisson(rng)
            moved = PoissonPart(nu.lam, nu.scale, nu.shift + c)
            ops.append(_cont_op(kind, None, 1, _pick((1, 2, 3, 4, 5), r, i),
                                MeasureRep(R, continuous=moved),
                                MeasureRep(R, continuous=nu), "dominates"))
        elif kind.startswith("convex"):
            # N(mu, sd1) dominates N(mu, sd2) in convex order when sd1 > sd2.
            mu, sd2 = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.0)
            sd1 = sd2 + rng.uniform(0.2, 0.8)
            wide = MeasureRep(R, continuous=NormalPart(mu, sd1))
            narrow = MeasureRep(R, continuous=NormalPart(mu, sd2))
            n = _pick((2, 3, 4, 5), r, i)
            if kind == "convex":
                ops.append(_cont_op(kind, None, 2, n, wide, narrow, "dominates"))
            else:
                ops.append(_cont_op(kind, None, 2, n, narrow, wide, "fails"))
        elif kind == "g61-normal-atoms":
            nu1 = MeasureRep(R, continuous=_normal(rng))
            nu2 = _measure(_random_atoms(rng, 2))
            ops.append(_cont_op(kind, G61_LAMS, 2, 5, nu1, nu2))
        elif kind == "exp-poisson-atoms":
            k, n = _pick(kn_2_to_4, r, i)
            lams = (0.0, 0.0) + tuple(rng.choice((-1.0, -0.5, 0.5, 1.0)) for _ in range(n - 1))
            nu1 = MeasureRep(R, continuous=_poisson(rng))
            nu2 = _measure(_random_atoms(rng, 3))
            ops.append(_cont_op(kind, lams, k, n, nu1, nu2))
        elif kind == "exp-normal-normal":
            k, n = _pick(kn_2_to_4, r, i)
            lams = (0.0, 0.0) + tuple(rng.choice((-1.0, -0.5, 0.5, 1.0)) for _ in range(n - 1))
            ops.append(_cont_op(kind, lams, k, n,
                                MeasureRep(R, continuous=_normal(rng)),
                                MeasureRep(R, continuous=_normal(rng))))
        else:
            k, n = _pick(((1, 1), (1, 2), (2, 2), (1, 3), (2, 3), (1, 4), (2, 4)), r, i)
            ops.append(_cont_op(kind, None, k, n,
                                MeasureRep(R, continuous=_poisson(rng)),
                                MeasureRep(R, continuous=_normal(rng))))
    return ops


def cont_warmup() -> list:
    return [
        _cont_op("warmup", G61_LAMS, 2, 5, MeasureRep(R, continuous=NormalPart(0.0, 1.0)),
                 _measure([(-1.0, 0.5), (1.0, 0.5)])),
        _cont_op("warmup", None, 1, 2, MeasureRep(R, continuous=PoissonPart(2.0, 1.0, -2.0)),
                 _measure([(0.0, 1.0)])),
    ]


# ---------------------------------------------------------------------------
# table-chains: the panel integrator and the divergence probe
# ---------------------------------------------------------------------------

def table_clone(lams) -> TableGauge:
    """The exponential gauge's values with no closed form: forces the panel
    route for every chain."""
    return TableGauge(R, [(lambda x, l=l: math.exp(l * x)) for l in lams], name="clone")


def _run_dominance(a: dict):
    return dual_cone.check_dominance(a["nu1"], a["nu2"], ConeSpec(a["gauges"], a["k"], a["n"]))


def check_arctan(a: dict, rep) -> list:
    """Rows of the arctan pair (w0 = pi + atan, w1 = 1/(1+x^2)), k = n = 1."""
    nu1, nu2 = a["nu1"], a["nu2"]
    w0 = lambda x: math.pi + math.atan(x)
    problems = []
    if rep.verdict not in ("dominates", "fails"):
        return [f"verdict {rep.verdict}"]
    refs = []
    for row in rep.cond_i:
        refs.append((row, lambda nu: math.fsum(m * w0(x) for x, m in nu.atoms)))
    for row in rep.cond_ii:
        z = rep.z
        refs.append((row, lambda nu, z=z: math.fsum(
            m * w0(x) * (math.atan(x) - math.atan(z)) for x, m in nu.atoms)))
    for row, t in zip(rep.cond_iii, rep.t_grid):
        refs.append((row, lambda nu, t=t: math.fsum(
            m * w0(x) * (math.atan(x) - math.atan(t)) for x, m in nu.atoms if x >= t)))
    if [len(rep.cond_i), len(rep.cond_ii), len(rep.cond_iii)] != [1, 1, len(rep.t_grid)]:
        problems.append("arctan rows: expected one (i), one (ii) and one (iii) per t")
    for row, ref in refs:
        for v, nu in ((row.v1, nu1), (row.v2, nu2)):
            want = ref(nu)
            if not _close(v, want, TOL_PANEL):
                problems.append(f"row {row.label}: {v!r} != closed form {want!r}")
    return problems + _witness_problems(rep, nu1, nu2)


def check_clone(a: dict, rep) -> list:
    """Same check on the ExponentialGauge being cloned (closed-form route)."""
    ref = dual_cone.check_dominance(
        a["nu1"], a["nu2"], ConeSpec(ExponentialGauge(R, a["lams"]), a["k"], a["n"])
    )
    problems = []
    if rep.verdict != ref.verdict:
        problems.append(f"clone verdict {rep.verdict}, exponential gauge {ref.verdict}")
    rows, ref_rows = rep.rows(), ref.rows()
    if [r.label for r in rows] != [r.label for r in ref_rows]:
        problems.append("clone rows are labelled unlike the exponential gauge's")
    for row, want in zip(rows, ref_rows):
        if not (_close(row.v1, want.v1, TOL_PANEL) and _close(row.v2, want.v2, TOL_PANEL)):
            problems.append(f"row {row.label}: clone ({row.v1!r}, {row.v2!r}) vs "
                            f"closed form ({want.v1!r}, {want.v2!r})")
    return problems + _witness_problems(rep, a["nu1"], a["nu2"])


def _run_probe(a: dict):
    return wpoly.finiteness_set(ExponentialGauge(R, a["lams"]), a["n"], force_probe=True)


def check_probe(a: dict, fs) -> list:
    lams, n = a["lams"], a["n"]
    want = tuple(tuple(_suffix_finite(lams, j, m) for m in range(j, n + 1)) for j in range(n + 1))
    if fs.method != "probe":
        return [f"finiteness method {fs.method}, expected probe"]
    if fs.table != want:
        return [f"probe table {fs.table} != suffix-sum criterion {want}"]
    return []


def _settled_lams(rng: random.Random, count: int) -> tuple:
    """Exponents whose suffix sums all stay at least 0.5 away from 0, so
    that the divergence probe settles (a sum near 0 is the slow boundary
    between the two sides of the dichotomy)."""
    while True:
        lams = tuple(rng.choice((-1.0, -0.5, 0.5, 1.0, 1.5)) for _ in range(count))
        sums = [math.fsum(lams[i + 1:m + 1]) for m in range(count) for i in range(m)]
        if all(abs(s) >= 0.5 for s in sums):
            return lams


def _arctan_op(rng: random.Random, count: int) -> Op:
    args = dict(gauges=arctan_cheb_gauges(), k=1, n=1,
                nu1=_measure(_random_atoms(rng, count, -2.0, 2.0)),
                nu2=_measure(_random_atoms(rng, count, -2.0, 2.0)))
    return Op("arctan", args, _run_dominance, check_arctan)


def _clone_op(rng: random.Random) -> Op:
    lams = _settled_lams(rng, 3)
    args = dict(gauges=table_clone(lams), lams=lams, k=2, n=2,
                nu1=_measure(_random_atoms(rng, 3, -2.0, 2.0)),
                nu2=_measure(_random_atoms(rng, 3, -2.0, 2.0)))
    return Op("clone", args, _run_dominance, check_clone)


def _probe_op(rng: random.Random, n: int) -> Op:
    return Op("probe", dict(lams=_settled_lams(rng, n + 1), n=n), _run_probe, check_probe)


TABLE_ROUND = ("arctan", "clone", "probe", "arctan")


def table_round(rng: random.Random, r: int) -> list:
    ops = []
    for i, kind in enumerate(TABLE_ROUND):
        if kind == "arctan":
            ops.append(_arctan_op(rng, 2 + i % 2))
        elif kind == "clone":
            ops.append(_clone_op(rng))
        else:
            ops.append(_probe_op(rng, 3))
    return ops


def table_warmup() -> list:
    rng = random.Random(0)
    return [_arctan_op(rng, 2)]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[random.Random, int], list]
    warmup: Callable[[], list]
    # Rounds per 30 s of --seconds: the operation count follows from the
    # run length alone, sized so that a run lasts about --seconds on a
    # 2-vCPU x86 host; no clock decides when a run stops.
    rounds_per_30s: int
    fault_op: Callable[[], Op] = None

    def rounds(self, seconds: int) -> int:
        return max(1, round(seconds * self.rounds_per_30s / 30))

    def ops(self, seed: int, seconds: int) -> list:
        rng = random.Random(seed)
        out = []
        for r in range(self.rounds(seconds)):
            out += self.make_round(rng, r)
            if self.fault_op is not None:
                out.append(self.fault_op())
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("atoms-oracle", atoms_round, atoms_warmup, 50, atoms_fault_op),
        Workload("continuous-quad", cont_round, cont_warmup, 30),
        Workload("table-chains", table_round, table_warmup, 10),
    )
}
