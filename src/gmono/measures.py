"""Nonnegative measures, generalized moments, and admissibility.

A measure is a finite list of atoms plus at most one named component
(normal, scaled/shifted Poisson, standard Cauchy, or a user density with a
declared tail).  Integrals are computed in the extended sense: positive and
negative parts separately, with +inf/-inf legal values and "both infinite"
reported as an error, never as a number.

Partial moments E (X-t)_+^n use closed forms for the named families.  For
the Poisson family two independent derivations are implemented (full-moment
combinatorics minus the finite lower part, and direct truncated summation);
they serve as each other's cross-check.  n = 0 means the survival function
nu([t, inf)), matching the degenerate positive-part polynomial, which is an
indicator rather than the constant 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from scipy import integrate as _si

from .errors import (
    DomainError,
    PreconditionError,
    UndefinedMomentError,
    malformed_input_as,
)
from .intervals import Interval, interval_from_dict, interval_to_dict
from .wpoly import WPolyHandle

__all__ = [
    "MeasureRep",
    "NormalPart",
    "PoissonPart",
    "CauchyPart",
    "DensityPart",
    "AdmissibilityReport",
    "gmoment",
    "partial_moment",
    "reflected",
    "admissibility",
    "raw_moment",
    "central_moment_about",
    "measure_from_dict",
    "measure_to_dict",
]

_REAL_LINE = Interval(-math.inf, math.inf)


def _finite(*vals: float) -> bool:
    return all(math.isfinite(v) for v in vals)


def _phi(z: float) -> float:
    return math.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)


def _quad(f, a, b, limit=200) -> float:
    """scipy.quad with divergence surfacing.

    A nonzero convergence flag on a nonnegative-type integrand is treated
    as divergence (+inf) rather than trusted as a number; measure-side
    integrands here are smooth densities times chain polynomials, for which
    quadpack failures mean non-integrable growth, not oscillation.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = _si.quad(
            f, a, b, epsabs=1e-12, epsrel=1e-11, limit=limit, full_output=1
        )
    val, abserr = out[0], out[1]
    ier = 0 if len(out) == 3 else 1
    if ier != 0 or not math.isfinite(val):
        return math.inf
    if abserr > 1e-6 * (1.0 + abs(val)):
        return math.inf
    return val


def _quad_pieces(f, lo, hi, breakpoints, weight, limit=200) -> float:
    """weight * the integral of f over [lo, hi], one _quad per piece between
    the breakpoints inside it; inf as soon as a piece is."""
    edges = [lo] + sorted(p for p in breakpoints if lo < p < hi) + [hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v = _quad(f, a, b, limit)
        if not math.isfinite(v):
            return math.inf
        total += v
    return weight * total


# ---------------------------------------------------------------------------
# Named components
# ---------------------------------------------------------------------------

class _Component:
    weight: float = 1.0

    def mass(self) -> float:
        return self.weight

    def pm(self, t: float, n: int) -> float:
        """Upper partial moment E (X-t)_+^n (survival function for n=0)."""
        raise NotImplementedError

    def raw_moment(self, r: int) -> float:
        raise NotImplementedError

    def integrate(self, f: Callable[[float], float], breakpoints=()) -> float:
        """integral f dmu over the component (sign-carrying f allowed)."""
        raise NotImplementedError

    def reflected(self) -> "_Component":
        raise NotImplementedError


@dataclass(frozen=True)
class NormalPart(_Component):
    mean: float
    sd: float
    weight: float = 1.0

    def __post_init__(self):
        if not (_finite(self.mean, self.sd) and self.sd > 0 and self.weight >= 0):
            raise DomainError(
                "normal component needs a finite mean, finite sd > 0, weight >= 0"
            )

    def pm(self, t: float, n: int) -> float:
        c = (t - self.mean) / self.sd
        # M_i = E[Z^i 1{Z > c}]: M_0 = 1-Phi(c), M_1 = phi(c),
        # M_i = c^(i-1) phi(c) + (i-1) M_(i-2).  M_0 as erfc keeps the
        # upper tail relatively accurate where 1 - Phi(c) would cancel to 0.
        M = [0.5 * math.erfc(c / math.sqrt(2.0)), _phi(c)]
        for i in range(2, n + 1):
            M.append(c ** (i - 1) * _phi(c) + (i - 1) * M[i - 2])
        if n == 0:
            return self.weight * M[0]
        acc = 0.0
        for i in range(n + 1):
            acc += math.comb(n, i) * (-c) ** (n - i) * M[i]
        return self.weight * self.sd**n * acc

    def raw_moment(self, r: int) -> float:
        # m_r = mean*m_(r-1) + (r-1)*sd^2*m_(r-2)
        m = [1.0, self.mean]
        for k in range(2, r + 1):
            m.append(self.mean * m[k - 1] + (k - 1) * self.sd**2 * m[k - 2])
        return self.weight * m[r]

    def integrate(self, f, breakpoints=()) -> float:
        return _quad_pieces(
            lambda x: f(x) * _phi((x - self.mean) / self.sd) / self.sd,
            self.mean - 12 * self.sd, self.mean + 12 * self.sd,
            breakpoints, self.weight,
        )

    def reflected(self) -> "NormalPart":
        return NormalPart(-self.mean, self.sd, self.weight)


@dataclass(frozen=True)
class PoissonPart(_Component):
    """Law of shift + scale * N with N ~ Poisson(lam).

    scale may be negative (reflected chains); shift/scale make laws like
    (s/m) * Poisson(m^2/s) representable natively.
    """

    lam: float
    scale: float = 1.0
    shift: float = 0.0
    weight: float = 1.0

    def __post_init__(self):
        if not (_finite(self.lam, self.scale, self.shift) and self.lam > 0
                and self.scale != 0 and self.weight >= 0):
            raise DomainError(
                "poisson component needs finite lam > 0, scale != 0 and shift, "
                "weight >= 0"
            )

    def _pmf_iter(self):
        # Deterministic sweep to lam + 12 sqrt(lam) + 60, past which the
        # neglected mass is below float resolution.
        lam = self.lam
        kmax = int(lam + 12.0 * math.sqrt(lam) + 60.0)
        p = math.exp(-lam)
        for k in range(kmax + 1):
            yield k, p
            p *= lam / (k + 1)

    def support_point(self, k: int) -> float:
        return self.shift + self.scale * k

    def pm(self, t: float, n: int) -> float:
        return self.pm_by_summation(t, n)

    def pm_by_summation(self, t: float, n: int) -> float:
        """Direct truncated summation; the tail is bounded by neglected
        mass times the polynomial factor and kept below ~1e-12."""
        acc = 0.0
        for k, p in self._pmf_iter():
            x = self.support_point(k)
            if n == 0:
                if x >= t:
                    acc += p
            elif x > t:
                acc += p * (x - t) ** n
        return self.weight * acc

    def pm_closed_form(self, t: float, n: int) -> float:
        """Full-moment combinatorics minus the finite lower part.

        E(X-t)_+^n = E(X-t)^n - sum_{x_k < t} pmf(k) (x_k - t)^n, and the
        full moment expands binomially in the Poisson raw moments (Touchard
        recursion).  The subtracted sum is finite on the side the support
        escapes from.
        """
        if n == 0:
            return self.pm_by_summation(t, 0)
        full = 0.0
        m = _poisson_raw_moments(self.lam, n)
        for i in range(n + 1):
            full += (
                math.comb(n, i) * self.scale**i * (self.shift - t) ** (n - i) * m[i]
            )
        lower = 0.0
        for k, p in self._pmf_iter():
            x = self.support_point(k)
            if x < t:
                lower += p * (x - t) ** n
        return self.weight * (full - lower)

    def raw_moment(self, r: int) -> float:
        m = _poisson_raw_moments(self.lam, r)
        acc = 0.0
        for i in range(r + 1):
            acc += math.comb(r, i) * self.scale**i * self.shift ** (r - i) * m[i]
        return self.weight * acc

    def integrate(self, f, breakpoints=()) -> float:
        acc = 0.0
        for k, p in self._pmf_iter():
            acc += p * f(self.support_point(k))
        return self.weight * acc

    def reflected(self) -> "PoissonPart":
        return PoissonPart(self.lam, -self.scale, -self.shift, self.weight)


def _poisson_raw_moments(lam: float, r: int) -> list:
    # Touchard: m_{k+1} = lam * sum_i C(k, i) m_i.
    m = [1.0]
    for k in range(r):
        m.append(lam * math.fsum(math.comb(k, i) * m[i] for i in range(k + 1)))
    return m


@dataclass(frozen=True)
class CauchyPart(_Component):
    """Standard Cauchy: density 1/(pi (1 + x^2)); no moments of order >= 1."""

    weight: float = 1.0

    def pm(self, t: float, n: int) -> float:
        if n == 0:
            return self.weight * (0.5 - math.atan(t) / math.pi)
        return math.inf

    def raw_moment(self, r: int) -> float:
        if r == 0:
            return self.weight
        raise UndefinedMomentError("standard Cauchy has no moments of order >= 1")

    def integrate(self, f, breakpoints=()) -> float:
        # Substitute x = tan(u): finite-range integral, exact weight du/pi.
        return _quad_pieces(
            lambda u: f(math.tan(u)) / math.pi, -math.pi / 2, math.pi / 2,
            [math.atan(p) for p in breakpoints], self.weight,
        )

    def reflected(self) -> "CauchyPart":
        return self


@dataclass(frozen=True)
class DensityPart(_Component):
    """User-supplied density with a declared tail behavior.

    tail_decay_hint: ("exponential", rate) or ("polynomial", q) meaning the
    density is O(|x|^-q); moments of order > q - 2 are refused rather than
    guessed.  support bounds the density (may be infinite).
    """

    pdf: Callable[[float], float]
    tail_decay_hint: Optional[tuple] = None
    support: tuple = (-math.inf, math.inf)
    weight: float = 1.0

    def _safe_order(self) -> float:
        if self.support[0] > -math.inf and self.support[1] < math.inf:
            return math.inf
        if self.tail_decay_hint is None:
            return -1  # nothing is safe without a hint
        kind, val = self.tail_decay_hint
        if kind == "exponential":
            return math.inf
        if kind == "polynomial":
            return val - 2.0
        raise DomainError(f"unknown tail hint {self.tail_decay_hint!r}")

    def _check_order(self, n: float) -> None:
        if n > self._safe_order():
            raise PreconditionError(
                f"moment of order {n} refused: density tail hint "
                f"{self.tail_decay_hint} does not guarantee convergence"
            )

    def pm(self, t: float, n: int) -> float:
        self._check_order(n)
        lo = max(t, self.support[0])
        hi = self.support[1]
        if n == 0:
            f = lambda x: self.pdf(x)
        else:
            f = lambda x: self.pdf(x) * (x - t) ** n
        v = _quad(f, lo, hi, limit=400)
        if not math.isfinite(v):
            return math.inf
        return self.weight * v

    def raw_moment(self, r: int) -> float:
        self._check_order(r)
        pos = _quad(
            lambda x: max(self.pdf(x) * x**r, 0.0),
            self.support[0], self.support[1], limit=400,
        )
        neg = _quad(
            lambda x: max(-self.pdf(x) * x**r, 0.0),
            self.support[0], self.support[1], limit=400,
        )
        return self.weight * _ext_sum(pos, neg)

    def integrate(self, f, breakpoints=()) -> float:
        return _quad_pieces(
            lambda x: f(x) * self.pdf(x), *self.support, breakpoints,
            self.weight, limit=400,
        )

    def reflected(self) -> "DensityPart":
        pdf = self.pdf
        lo, hi = self.support
        return DensityPart(
            lambda x: pdf(-x), self.tail_decay_hint, (-hi, -lo), self.weight
        )


# ---------------------------------------------------------------------------
# MeasureRep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeasureRep:
    """Nonnegative measure: finite atoms plus an optional named component."""

    interval: Interval = _REAL_LINE
    atoms: tuple = ()
    continuous: Optional[_Component] = None

    def __post_init__(self):
        norm = []
        for x, mass in self.atoms:
            if not mass >= 0:
                raise DomainError(f"atom mass {mass} is not >= 0")
            if not self.interval.contains(x):
                raise DomainError(f"atom location {x} outside {self.interval}")
            norm.append((float(x), float(mass)))
        object.__setattr__(self, "atoms", tuple(norm))

    @property
    def is_pure_atoms(self) -> bool:
        return self.continuous is None

    def total_mass(self) -> float:
        m = math.fsum(w for _, w in self.atoms)
        if self.continuous is not None:
            m += self.continuous.mass()
        return m

    def plus(self, other: "MeasureRep") -> "MeasureRep":
        if self.continuous is not None and other.continuous is not None:
            raise DomainError("cannot merge two named components")
        return MeasureRep(
            self.interval,
            self.atoms + other.atoms,
            self.continuous or other.continuous,
        )

    def scaled(self, s: float) -> "MeasureRep":
        if s < 0:
            raise DomainError("measures are nonnegative")
        atoms = tuple((x, s * m) for x, m in self.atoms)
        cont = None
        if self.continuous is not None:
            cont = replace(self.continuous, weight=self.continuous.weight * s)
        return MeasureRep(self.interval, atoms, cont)


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def _ext_sum(pos: float, neg: float) -> float:
    """pos - neg with the extended-sense convention."""
    if math.isinf(pos) and math.isinf(neg):
        raise UndefinedMomentError(
            "integral undefined: positive and negative parts both infinite"
        )
    if math.isinf(pos):
        return math.inf
    if math.isinf(neg):
        return -math.inf
    return pos - neg


def gmoment(nu: MeasureRep, p, breakpoints: Sequence[float] = ()) -> float:
    """nu(p) in the extended sense; p is a WPolyHandle or a callable.

    Positive and negative parts are integrated separately; the value may be
    +inf or -inf, and UndefinedMomentError signals that both parts diverge.
    """
    f = p.eval if isinstance(p, WPolyHandle) else p
    if isinstance(p, WPolyHandle) and p.tag == "chain_t":
        breakpoints = tuple(breakpoints) + (p.family[1],)
    pos = 0.0
    neg = 0.0
    for x, mass in nu.atoms:
        if mass == 0.0:
            continue
        v = f(x)
        if v > 0:
            pos += mass * v if math.isfinite(v) else math.inf
        elif v < 0:
            neg += mass * (-v) if math.isfinite(v) else math.inf
    if nu.continuous is not None:
        bps = [b for b in breakpoints if math.isfinite(b)]
        vpos = nu.continuous.integrate(lambda x: max(f(x), 0.0), bps)
        vneg = nu.continuous.integrate(lambda x: max(-f(x), 0.0), bps)
        if not math.isfinite(vpos):
            pos = math.inf
        else:
            pos += vpos
        if not math.isfinite(vneg):
            neg = math.inf
        else:
            neg += vneg
    return _ext_sum(pos, neg)


def partial_moment(nu: MeasureRep, t: float, n: int) -> float:
    """E (X - t)_+^n; for n = 0 the survival function nu([t, inf))."""
    if n < 0:
        raise DomainError("order must be >= 0")
    acc = 0.0
    for x, mass in nu.atoms:
        if n == 0:
            if x >= t:
                acc += mass
        elif x > t:
            acc += mass * (x - t) ** n
    if nu.continuous is not None:
        c = nu.continuous.pm(t, n)
        if not math.isfinite(c):
            return math.inf
        acc += c
    return acc


def lower_partial_moment(nu: MeasureRep, t: float, n: int) -> float:
    """E (t - X)_+^n = the reflected upper partial moment at -t."""
    return partial_moment(reflected(nu), -t, n)


def raw_moment(nu: MeasureRep, r: int) -> float:
    acc = math.fsum(mass * x**r for x, mass in nu.atoms)
    if nu.continuous is not None:
        acc += nu.continuous.raw_moment(r)
    return acc


def central_moment_about(nu: MeasureRep, s: float, r: int) -> float:
    """integral (x - s)^r d nu, expanded binomially in raw moments."""
    return math.fsum(
        math.comb(r, i) * (-s) ** (r - i) * raw_moment(nu, i) for i in range(r + 1)
    )


def reflected(nu: MeasureRep) -> MeasureRep:
    """Pushforward under x -> -x."""
    atoms = tuple((-x, m) for x, m in nu.atoms)
    cont = nu.continuous.reflected() if nu.continuous is not None else None
    return MeasureRep(nu.interval.reflected(), atoms, cont)


# ---------------------------------------------------------------------------
# Admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    case: str
    witness: Optional[str] = None
    note: str = ""
    # In the exceptional branch the full-cone answer can be negative while
    # the bounded-below test class still admits the measure; the dominance
    # checker may proceed for that class with the branch labeled.
    admissible_for_bounded_class: Optional[bool] = None

    @property
    def usable(self) -> bool:
        return self.admissible or bool(self.admissible_for_bounded_class)


def _moment_basis_point(iv: Interval) -> float:
    if iv.contains(0.0):
        return 0.0
    lo = iv.a if math.isfinite(iv.a) else iv.b - 2.0
    hi = iv.b if math.isfinite(iv.b) else iv.a + 2.0
    return 0.5 * (lo + hi)


def admissibility(nu: MeasureRep, cone) -> AdmissibilityReport:
    """Characterize membership in the admissible set for the cone's test
    class, by the finite spanning checks.

    Branches: k <= n (spanning set of the degree-<=k nonnegative-leading
    polynomials), k = n+1 with k even or a in I (finiteness on a basis of
    degree <= k-1), and the exceptional branch (k = n+1 odd, a not in I)
    where additionally the support must stay away from the left endpoint.
    """
    from .gderiv import ConeSpec  # local import to avoid a cycle

    if not isinstance(cone, ConeSpec):
        raise DomainError("admissibility needs a ConeSpec")
    g, k, n = cone.gauges, cone.k, cone.n
    iv = g.interval
    s = _moment_basis_point(iv)
    exceptional = (k == n + 1) and (k % 2 == 1) and not iv.left_closed

    def finite_both_signs(i: int):
        h = WPolyHandle(g, ("chain_t", s, 0, i))
        try:
            v = gmoment(nu, h)
        except UndefinedMomentError:
            return False, h
        return math.isfinite(v), h

    if k <= n:
        case = "k<=n"
        for i in range(k):
            ok, h = finite_both_signs(i)
            if not ok:
                return AdmissibilityReport(
                    False, case, witness=f"degree-{i} basis polynomial"
                )
        hk = WPolyHandle(g, ("chain_t", s, 0, k))
        try:
            vk = gmoment(nu, hk)
        except UndefinedMomentError:
            vk = None
        if vk is None or vk == -math.inf:
            return AdmissibilityReport(
                False, case, witness=f"degree-{k} nonnegative-leading polynomial"
            )
        return AdmissibilityReport(True, case)

    if not exceptional:
        case = "even-k-or-a-in-I"
        for i in range(k):
            ok, h = finite_both_signs(i)
            if not ok:
                return AdmissibilityReport(
                    False, case, witness=f"degree-{i} basis polynomial"
                )
        return AdmissibilityReport(True, case)

    case = "exceptional"
    for i in range(k):
        ok, h = finite_both_signs(i)
        if not ok:
            return AdmissibilityReport(
                False, case, witness=f"degree-{i} basis polynomial"
            )
    # Support must avoid (a, a~) for some a~ in I (full-cone test class).
    inf_support = _support_infimum(nu)
    bounded_away = inf_support > iv.a
    if not bounded_away:
        return AdmissibilityReport(
            False,
            case,
            witness="support reaches the left endpoint",
            note="admissible for the bounded-below test class per the "
            "degree-(k-1) finiteness check, but not for the full cone",
            admissible_for_bounded_class=True,
        )
    return AdmissibilityReport(
        True,
        case,
        note="support bounded away from a; full-cone admissibility holds",
        admissible_for_bounded_class=True,
    )


def _support_infimum(nu: MeasureRep) -> float:
    vals = [x for x, m in nu.atoms if m > 0]
    lo = min(vals) if vals else math.inf
    c = nu.continuous
    if c is None:
        return lo
    if isinstance(c, (NormalPart, CauchyPart)):
        return -math.inf
    if isinstance(c, PoissonPart):
        return min(lo, c.shift) if c.scale > 0 else -math.inf
    if isinstance(c, DensityPart):
        return min(lo, c.support[0])
    return -math.inf


# ---------------------------------------------------------------------------
# JSON (de)serialization
# ---------------------------------------------------------------------------

@malformed_input_as(DomainError)
def measure_from_dict(d: dict) -> MeasureRep:
    iv = interval_from_dict(d["interval"]) if "interval" in d else _REAL_LINE
    atoms = tuple((float(x), float(m)) for x, m in d.get("atoms", []))
    cont = None
    c = d.get("continuous")
    if c is not None:
        fam = c["family"]
        w = float(c.get("weight", 1.0))
        if fam == "normal":
            cont = NormalPart(float(c["mean"]), float(c["sd"]), w)
        elif fam == "poisson":
            cont = PoissonPart(
                float(c["lam"]),
                float(c.get("scale", 1.0)),
                float(c.get("shift", 0.0)),
                w,
            )
        elif fam == "cauchy_std":
            cont = CauchyPart(w)
        else:
            raise DomainError(f"unknown measure family {fam!r}")
    return MeasureRep(iv, atoms, cont)


def measure_to_dict(nu: MeasureRep) -> dict:
    d = {
        "interval": interval_to_dict(nu.interval),
        "atoms": [[x, m] for x, m in nu.atoms],
    }
    c = nu.continuous
    if isinstance(c, NormalPart):
        d["continuous"] = {
            "family": "normal", "mean": c.mean, "sd": c.sd, "weight": c.weight,
        }
    elif isinstance(c, PoissonPart):
        d["continuous"] = {
            "family": "poisson", "lam": c.lam, "scale": c.scale,
            "shift": c.shift, "weight": c.weight,
        }
    elif isinstance(c, CauchyPart):
        d["continuous"] = {"family": "cauchy_std", "weight": c.weight}
    elif c is not None:
        raise DomainError("user densities are not serializable")
    return d
