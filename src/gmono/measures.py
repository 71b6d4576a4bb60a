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
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    PreconditionError,
    UndefinedMomentError,
    malformed_input_as,
)
from .intervals import Interval, interval_from_dict, interval_to_dict
from .wpoly import ExpPoly, WPolyHandle, XRing

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


def _erfc(v):
    """math.erfc at a float, or at each element of an array."""
    return np.array([math.erfc(e) for e in np.ravel(v).tolist()]).reshape(np.shape(v))


def _upper_z_moments(c, n: int) -> list:
    """M_i = E[Z^i 1{Z > c}] for i <= n, Z standard normal, at a float c or
    at each element of an array of them.

    M_0 = 1 - Phi(c), M_1 = phi(c), M_i = c^(i-1) phi(c) + (i-1) M_(i-2).
    M_0 as erfc keeps the upper tail relatively accurate where 1 - Phi(c)
    would cancel to 0.
    """
    phi = np.exp(-0.5 * c * c) / math.sqrt(2.0 * math.pi)
    M = [0.5 * _erfc(c / math.sqrt(2.0)), phi]
    for i in range(2, n + 1):
        M.append(c ** (i - 1) * phi + (i - 1) * M[i - 2])
    return M[:n + 1]


def _normal_raw_moments(mean, sd: float, r: int) -> list:
    # m_r = mean*m_(r-1) + (r-1)*sd^2*m_(r-2)
    m = [1.0, mean]
    for k in range(2, r + 1):
        m.append(mean * m[k - 1] + (k - 1) * sd**2 * m[k - 2])
    return m


def _normal_region_moment(mean, sd: float, d: int, lo: float, hi: float):
    """E[Y^d 1{lo <= Y < hi}] for Y ~ N(mean, sd^2), with lo = -inf or
    hi = inf, at a float mean or at each element of an array of them: the
    upper region expands Y = mean + sd Z over the truncated moments of Z,
    and the lower one is the upper region of -Y."""
    if lo == -math.inf and hi == math.inf:
        return _normal_raw_moments(mean, sd, d)[d]
    if hi == math.inf:
        M = _upper_z_moments((lo - mean) / sd, d)
        return sum(math.comb(d, i) * mean ** (d - i) * sd**i * M[i]
                   for i in range(d + 1))
    return (-1) ** d * _normal_region_moment(-mean, sd, d, -hi, math.inf)


def _tilted_moment(poly: ExpPoly, mean, sd: float, lo: float, hi: float,
                   log_scale=0.0):
    """e^log_scale E[poly(Y) 1{lo <= Y < hi}] for Y ~ N(mean, sd^2), at a
    float mean or at each element of an array of them (log_scale
    broadcasts with it), with lo = -inf or hi = inf.

    Exponential tilting: c y^d e^(ry) against N(mean, sd^2) is
    c e^(r mean + (r sd)^2/2) y^d against N(mean + r sd^2, sd^2), whose
    moment over the region is closed-form.  nan where a term's factor,
    e^log_scale included, passes e^700.
    """
    total = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for (d, r), c in poly.terms.items():
            tilt = log_scale + r * mean + 0.5 * (r * sd) ** 2
            factor = np.where(tilt > 700.0, np.nan, np.exp(tilt))
            total = total + c * factor * _normal_region_moment(
                mean + r * sd**2, sd, d, lo, hi)
    return total


def _normal_tail_moment(c: float, n: int) -> float:
    """J_n(c) = E (Z - c)_+^n for Z standard normal and n >= 1.

    J_0 = 1 - Phi(c), J_1 = phi(c) - c J_0 and J_n = (n-1) J_(n-2) - c J_(n-1).
    For c < 1 the recurrence runs forward; for c <= 0 no term cancels.  For
    c >= 1 it cancels forward, so it runs backward, as the continued
    fraction r_(k-1) = 1 / (c + k r_k) for the ratios r_k = h_k / h_(k-1) of
    the Hermite probability integrals h_k = J_k / k!, which satisfy
    k h_k = h_(k-2) - c h_(k-1) with h_(-1) = phi(c).  Started at r = 0 from
    level N, its error shrinks like exp(-2c sqrt(N)); N = n + 16 + 484/c^2
    puts it below rounding.
    """
    if c < 1.0:
        q = 0.5 * math.erfc(c / math.sqrt(2.0))
        prev, cur = q, _phi(c) - c * q
        for k in range(2, n + 1):
            prev, cur = cur, (k - 1) * prev - c * cur
        return cur
    r = 0.0
    ratios = []
    for k in range(n + 16 + math.ceil(484.0 / (c * c)), 0, -1):
        r = 1.0 / (c + k * r)  # r_(k-1)
        if k <= n + 1:
            ratios.append(r)
    return math.factorial(n) * math.prod(ratios) * _phi(c)


# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (qk21) in doubles: its
# nodes, its weights, and those of the 10-point Gauss rule it extends.
_XGK = np.array([0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
                 0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
                 0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
                 0.14887433898163122, 0.0])
_WGK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                 0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                 0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                 0.14773910490133849, 0.1494455540029169])
_WG = np.zeros(11)  # 0 at the Kronrod nodes the Gauss rule lacks
_WG[1::2] = [0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
             0.26926671930999635, 0.29552422471475287]
_NODES = np.concatenate([-_XGK[:-1], _XGK])
_WK, _WG = (np.concatenate([w[:-1], w]) for w in (_WGK, _WG))
_EPSABS, _EPSREL = 1e-12, 1e-11
_BUDGET = 400  # subintervals of one integral, all its pieces together


def _kronrod(F, lo, hi, c, side):
    """The 21-point estimate of the integral over each interval [lo, hi]
    and QUADPACK's error estimate for it, (rows, intervals) each, from one
    F call; and F's leading shape.  side = +-1 maps x = c + side (1 - s)/s."""
    half = 0.5 * (hi - lo)
    s = (lo + half)[:, None] + half[:, None] * _NODES
    inv, mapped = 1.0 / s, (side != 0.0)[:, None]
    x = np.where(mapped, c[:, None] + side[:, None] * (inv - 1.0), s)
    y = np.asarray(F(x.ravel()), dtype=float)
    lead = y.shape[:-1]
    y = y.reshape(-1, *s.shape) * np.where(mapped, inv * inv, 1.0)
    k, g = y @ _WK, y @ _WG
    asc = np.abs(y - 0.5 * k[..., None]) @ _WK
    # fmin reads the 0/0 of a constant integrand (asc = 0) as 1.
    err = half * asc * np.fmin(1.0, (200.0 * np.abs(k - g) / asc) ** 1.5)
    return k * half, err, lead


def _integrate(F, a: float, b: float, breaks=(), weight: float = 1.0):
    """weight times the integral of F over [a, b], split at the breaks
    inside it: a float per row of F (one row, or several such as gmoment's
    two signs), in F's leading shape.  Adaptive Gauss-Kronrod 10/21: each
    round reads all new intervals in one F call, and each row whose
    estimate is above tol = max(1e-12, 1e-11 |v|) bisects every interval
    above tol / P, P intervals.  A row whose value is not finite, or that
    has not converged within _BUDGET subintervals, reads +inf: on these
    integrands that is non-integrable growth.  An infinite end maps as in
    QUADPACK's qagi, x = c +- (1 - s)/s over s in (0, 1]."""
    edges = [a] + sorted(p for p in breaks if a < p < b) + [b]
    # A round costs about as much for 42 nodes as for 21: each finite piece
    # starts as two halves, and (-inf, inf) is cut at 0.
    edges = sorted(edges + [0.5 * (u + v) if math.isfinite(u) else 0.0
                            for u, v in zip(edges[:-1], edges[1:])
                            if math.isfinite(u) == math.isfinite(v)])
    ivs = np.array([(0.0, 1.0, v, -1.0) if math.isinf(u) else
                    (0.0, 1.0, u, 1.0) if math.isinf(v) else (u, v, 0.0, 0.0)
                    for u, v in zip(edges[:-1], edges[1:])]).T  # lo, hi, c, side
    with np.errstate(all="ignore"):
        vals, errs, lead = _kronrod(F, *ivs)
        while True:
            total = vals.sum(axis=1)
            tol = np.maximum(_EPSABS, _EPSREL * np.abs(total))
            short = np.isfinite(total) & (errs.sum(axis=1) > tol)
            pick = (errs[short] > tol[short, None] / ivs.shape[1]).any(axis=0)
            if not short.any() or ivs.shape[1] + pick.sum() > _BUDGET:
                break
            new = np.repeat(ivs[:, pick], 2, axis=1)  # two halves of each
            new[1, ::2] = new[0, 1::2] = 0.5 * (new[0, ::2] + new[1, ::2])
            v, e, _ = _kronrod(F, *new)
            ivs = np.concatenate([ivs[:, ~pick], new], axis=1)
            vals = np.concatenate([vals[:, ~pick], v], axis=1)
            errs = np.concatenate([errs[:, ~pick], e], axis=1)
    done = np.isfinite(total) & ~short
    return np.where(done, weight * total, math.inf).reshape(lead).tolist()


def _pointwise(f):
    """The array form of a scalar function, called once per point."""
    return lambda xs: np.fromiter(map(f, np.asarray(xs, float).tolist()), float, len(xs))


def _signs(f):
    """The two-row integrand (f+, f-) of an array function f, on one read."""
    return lambda xs: np.maximum(np.multiply.outer([1.0, -1.0], f(xs)), 0.0)


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

    def integrate(self, f: Callable[[np.ndarray], np.ndarray], breakpoints=()):
        """integral f dmu over the component (sign-carrying f allowed): f maps
        an array of points to rows of values, each a float, +inf if divergent."""
        raise NotImplementedError

    def integrate_ring(self, ring: XRing, iv: Interval) -> Optional[float]:
        """The integral of a handle's ring in x (gauge interval iv) in
        closed form, or None where the component has none for it; gmoment
        then integrates the handle's values."""
        return None

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
        if n == 0:
            return self.weight * (0.5 * math.erfc(c / math.sqrt(2.0)))
        return self.weight * self.sd**n * _normal_tail_moment(c, n)

    def raw_moment(self, r: int) -> float:
        return self.weight * _normal_raw_moments(self.mean, self.sd, r)[r]

    def integrate(self, f, breakpoints=()):
        c = 1.0 / (math.sqrt(2.0 * math.pi) * self.sd)
        pdf = lambda xs: c * np.exp(-0.5 * ((xs - self.mean) / self.sd) ** 2)
        return _integrate(lambda xs: f(xs) * pdf(xs), self.mean - 12 * self.sd,
                          self.mean + 12 * self.sd, breakpoints, self.weight)

    def integrate_ring(self, ring: XRing, iv: Interval) -> Optional[float]:
        """``_tilted_moment`` of the ring over its region.  None off the
        whole line or where a tilt factor leaves float range."""
        if not (iv.a == -math.inf and iv.b == math.inf):
            return None
        v = float(self.weight * _tilted_moment(ring.poly, self.mean, self.sd,
                                               *ring.region))
        return v if math.isfinite(v) else None

    def translated_pm(self, sigma: float, base: ExpPoly, ts: np.ndarray) -> np.ndarray:
        """The integral of p+_t at each t of ts, for a chain with
        p_t(x) = e^(sigma t) base(x - t) (``wpoly.translated_chain``): base
        against Y = X - t ~ N(mean - t, sd^2) over y >= 0, one
        ``_tilted_moment`` over the whole array.  nan where a tilt factor,
        e^(sigma t) included, passes e^700."""
        return self.weight * _tilted_moment(base, self.mean - ts, self.sd, 0.0,
                                            math.inf, sigma * ts)

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
        # Deterministic sweep over lam -/+ (12 sqrt(lam) + 60), outside which
        # the neglected mass is below float resolution.  The first term is in
        # float range where exp(-lam) underflows; kmin = 0 up to lam ~ 250.
        lam = self.lam
        kmin = max(0, int(lam - 12.0 * math.sqrt(lam) - 60.0))
        kmax = int(lam + 12.0 * math.sqrt(lam) + 60.0)
        p = math.exp(kmin * math.log(lam) - lam - math.lgamma(kmin + 1))
        for k in range(kmin, kmax + 1):
            yield k, p
            p *= lam / (k + 1)

    def support_point(self, k: int) -> float:
        return self.shift + self.scale * k

    def support(self) -> tuple:
        """The sweep's support points and pmf values, as two arrays."""
        ks, ps = zip(*self._pmf_iter())
        return self.shift + self.scale * np.array(ks, dtype=float), np.array(ps)

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

    def integrate(self, f, breakpoints=()):
        """Per row of f, pmf times f summed in the sweep's order (cumsum)."""
        xs, ps = self.support()
        return (self.weight * np.cumsum(f(xs) * ps, axis=-1)[..., -1]).tolist()

    def integrate_ring(self, ring: XRing, iv: Interval) -> Optional[float]:
        """The sweep of integrate over the same support and pmf, with the
        ring evaluated at every support point at once.  None where the
        support leaves iv or the ring is not finite on it (a term past
        e^700), so that integrate raises or signs the divergence."""
        xs, ps = self.support()
        if not (iv.contains(float(xs[0])) and iv.contains(float(xs[-1]))):
            return None
        lo, hi = ring.region
        inside = (xs >= lo) & (xs < hi)
        vals = np.zeros(len(xs))
        vals[inside] = ring.poly.eval_many(xs[inside])
        if ring.anchor is not None:
            vals[xs == ring.anchor] = 0.0
        if not np.all(np.isfinite(vals)):
            return None
        return self.weight * math.fsum((ps * vals).tolist())

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

    def integrate(self, f, breakpoints=()):
        # Substitute x = tan(u): finite-range integral, exact weight du/pi.
        return _integrate(lambda us: f(np.tan(us)) / math.pi, -math.pi / 2, math.pi / 2,
                          [math.atan(p) for p in breakpoints], self.weight)

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
        return self.integrate(lambda xs: np.where(xs >= t, (xs - t) ** n, 0.0), [t])

    def raw_moment(self, r: int) -> float:
        self._check_order(r)
        return _ext_sum(*self.integrate(_signs(lambda xs: xs**r)))

    def integrate(self, f, breakpoints=()):
        return _integrate(lambda xs: f(xs) * _pointwise(self.pdf)(xs), *self.support,
                          breakpoints, self.weight)

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
    A callable p is read one point at a time.  Atoms are point evaluations,
    one read over the atoms of nonzero mass.  A normal or Poisson part
    integrates a handle whose chain is a ring in x (``WPolyHandle.x_ring``:
    unit and exponential gauges) exactly, through its ``integrate_ring``.
    Every other pair (Cauchy and density parts; table and power gauges;
    interp handles and plain callables) goes through the part's
    ``integrate`` with both signs as two rows of one read of p, and with
    the anchor of a chain handle (t, or z) as a breakpoint: a part of p_t
    is cut off at t, and p_(a,z) can change sign at z.
    Condition (iii) of the dominance check calls this only for the parts
    its grid batch does not cover (``dual_cone._grid_rows``).
    """
    f = p.values if isinstance(p, WPolyHandle) else _pointwise(p)
    if isinstance(p, WPolyHandle) and p.tag in ("chain_t", "chain_az"):
        breakpoints = tuple(breakpoints) + (p.family[1],)  # t, or z
    pos = 0.0
    neg = 0.0
    atoms = [(x, mass) for x, mass in nu.atoms if mass != 0.0]
    xs = [x for x, _ in atoms]
    vals = f(xs).tolist() if xs else []
    for (_, mass), v in zip(atoms, vals):
        if v > 0:
            pos += mass * v if math.isfinite(v) else math.inf
        elif v < 0:
            neg += mass * (-v) if math.isfinite(v) else math.inf
    part = nu.continuous
    if part is not None:
        ring = p.x_ring() if isinstance(p, WPolyHandle) else None
        v = None if ring is None else part.integrate_ring(ring, p.gauges.interval)
        if v is not None:
            vpos, vneg = max(v, 0.0), max(-v, 0.0)
        else:
            vpos, vneg = part.integrate(_signs(f), breakpoints)
        pos += vpos if math.isfinite(vpos) else math.inf
        neg += vneg if math.isfinite(vneg) else math.inf
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
    if k <= n:
        case = "k<=n"
    elif k % 2 == 1 and not iv.left_closed:  # k = n + 1
        case = "exceptional"
    else:
        case = "even-k-or-a-in-I"

    def moment(i: int) -> Optional[float]:
        try:
            return gmoment(nu, WPolyHandle(g, ("chain_t", s, 0, i)))
        except UndefinedMomentError:
            return None

    for i in range(k):
        v = moment(i)
        if v is None or not math.isfinite(v):
            return AdmissibilityReport(
                False, case, witness=f"degree-{i} basis polynomial"
            )
    if case == "k<=n":
        vk = moment(k)
        if vk is None or vk == -math.inf:
            return AdmissibilityReport(
                False, case, witness=f"degree-{k} nonnegative-leading polynomial"
            )
        return AdmissibilityReport(True, case)
    if case == "even-k-or-a-in-I":
        return AdmissibilityReport(True, case)
    # Support must avoid (a, a~) for some a~ in I (full-cone test class).
    if not _support_infimum(nu) > iv.a:
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
