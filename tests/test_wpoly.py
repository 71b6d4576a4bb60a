"""w-polynomial chains, finiteness sets, interpolation.

Oracles: unit-gauge closed forms, the exponential-gauge closed form, direct
adaptive quadrature of the defining recursion (scipy), and the independent
Chebyshev/panel numeric route through a table-gauge clone.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad as squad

from gmono import (
    DomainError,
    ExponentialGauge,
    GaugeError,
    InconclusiveError,
    Interval,
    PowerGauge,
    PreconditionError,
    TableGauge,
    UnitGauge,
    arctan_cheb_gauges,
    chain_az_handle,
    chain_t_handle,
    finiteness_set,
    interpolate,
    stein_gauges,
)
from gmono import wpoly
from gmono.wpoly import FULL, NEGATIVE, POSITIVE, chain_t_two_arg

R = Interval(-math.inf, math.inf)
G61 = ExponentialGauge(R, [0.0, 0.0, 0.0, -1.0, 2.0, 1.0])


def table_clone(lams, interval=R):
    """Same values as an exponential gauge but with no closed form: forces
    the generic numeric route."""
    return TableGauge(
        interval, [(lambda x, l=l: math.exp(l * x)) for l in lams]
    )


def quad_chain(g, t, j, m, x, w=None):
    """Direct adaptive quadrature of the defining recursion (oracle); w(j, x)
    stands in for g.value where the gauge is wanted at a closed base."""
    w = w or g.value
    if j == m:
        return w(m, x)
    inner = lambda u: quad_chain(g, t, j + 1, m, u, w)
    val, _ = squad(inner, t, x, epsabs=1e-12, epsrel=1e-12, limit=200)
    return w(j, x) * val


def quad_chain_rel(g, t, j, m, x):
    """The nested quadrature to a relative tolerance only, for chain values
    far below 1 (near a finite left endpoint they reach 1e-19)."""
    if j == m:
        return g.value(m, x)
    inner = lambda u: quad_chain_rel(g, t, j + 1, m, u)
    val, _ = squad(inner, t, x, epsabs=0.0, epsrel=1e-13, limit=200)
    return g.value(j, x) * val


def quad_chain_az(g, z, i, k, j, x, w=None):
    """p_{a,z;i:k:j} by the same nested quadrature, from p_{a;k,j}."""
    if i == k:
        return quad_chain(g, g.interval.a, k, j, x, w)
    inner = lambda u: quad_chain_az(g, z, i + 1, k, j, u, w)
    val, _ = squad(inner, z, x, epsabs=1e-12, epsrel=1e-12, limit=200)
    return (w or g.value)(i, x) * val


class TestChainTValues:
    def test_unit_closed_form(self):
        h = chain_t_handle(UnitGauge(R), 0.0, 0, 3)
        assert h.eval(2.0) == pytest.approx(8.0 / 6.0, rel=1e-12)

    def test_exponential_neginf(self):
        # lam = (1, 1): p_{-inf;0,1}(x) = e^(2x); quadrature oracle agrees.
        g = ExponentialGauge(R, [1.0, 1.0])
        h = chain_t_handle(g, -math.inf, 0, 1)
        assert h.eval(0.0) == pytest.approx(1.0, rel=1e-12)
        oracle, _ = squad(lambda u: math.exp(u), -np.inf, 0.3, epsabs=1e-13)
        assert h.eval(0.3) == pytest.approx(math.exp(0.3) * oracle, rel=1e-10)

    def test_arctan_gauge_value(self):
        # (pi + atan x)(atan x - atan t) at t=0, x=1 -> 5 pi^2/16.
        h = chain_t_handle(arctan_cheb_gauges(), 0.0, 0, 1)
        expected = 5.0 * math.pi**2 / 16.0
        assert h.eval(1.0) == pytest.approx(expected, rel=1e-12)
        oracle = quad_chain(arctan_cheb_gauges(), 0.0, 0, 1, 1.0)
        assert h.eval(1.0) == pytest.approx(oracle, rel=1e-10)

    def test_unit_neginf_divergent(self):
        h = chain_t_handle(UnitGauge(R), -math.inf, 0, 2)
        assert h.eval(0.0) == math.inf

    def test_vanishing_at_anchor(self):
        for g in (UnitGauge(R), G61, arctan_cheb_gauges()):
            m = 1 if g is arctan_cheb_gauges() else 3
            h = chain_t_handle(g, 0.5, 0, 1)
            assert h.eval(0.5) == 0.0

    def test_61_pt05_display(self):
        # Exact chain vs the displayed closed form for the 6.1 gauges.
        def display(t, x):
            return (
                math.exp(2 * t)
                / 24.0
                * (
                    4 * (1 - math.exp(t - x))
                    + (math.exp(2 * (x - t)) - 1)
                    - 12 * (math.exp(x - t) - 1)
                    + 6 * (1 + x - t) * (x - t)
                )
            )

        # The two-argument family is the positive part; the handle gives
        # the chain on both sides of t.
        fam = chain_t_two_arg(G61, 0, 5)
        for t, x in [(0.0, 1.0), (-1.0, 2.0), (0.5, 0.7), (2.0, -3.0)]:
            want = display(t, x)
            assert chain_t_handle(G61, t, 0, 5).eval(x) == pytest.approx(
                want, rel=1e-10, abs=1e-14)
            assert fam(t, x) == (
                pytest.approx(want, rel=1e-10, abs=1e-14) if x >= t else 0.0)

    def test_two_arg_matches_handles(self):
        fam = chain_t_two_arg(G61, 0, 5)
        for t in (-1.0, 0.3):
            h = chain_t_handle(G61, t, 0, 5, part=POSITIVE)
            for x in (-2.0, 0.0, 1.7):
                assert fam(t, x) == pytest.approx(h.eval(x), rel=1e-12, abs=1e-15)

    def test_closed_vs_cheb_recursion(self):
        # The generic numeric route must reproduce the closed forms.
        lams = [0.0, 0.0, 0.0, -1.0, 2.0, 1.0]
        tg = table_clone(lams)
        for (j, m) in [(0, 5), (1, 4), (2, 5)]:
            he = chain_t_handle(G61, 0.0, j, m)
            ht = chain_t_handle(tg, 0.0, j, m)
            for x in np.linspace(-2.0, 2.0, 9):
                assert ht.eval(float(x)) == pytest.approx(
                    he.eval(float(x)), rel=1e-8, abs=1e-12
                )

    def test_closed_vs_cheb_randomized(self):
        rng = np.random.default_rng(2024)
        rng_az = np.random.default_rng(2025)
        for _ in range(6):
            lams = [float(v) for v in rng.uniform(-1.2, 1.2, size=5)]
            ge = ExponentialGauge(R, lams)
            tg = table_clone(lams)
            t = float(rng.uniform(-1.5, 1.5))
            j = int(rng.integers(0, 3))
            m = j + int(rng.integers(1, 3))
            he = chain_t_handle(ge, t, j, m)
            ht = chain_t_handle(tg, t, j, m)
            for x in (t - 1.7, t + 0.4, t + 2.2):
                assert ht.eval(x) == pytest.approx(
                    he.eval(x), rel=1e-8, abs=1e-11
                ), (lams, t, j, m, x)
            # The second chain from z = t: the clone descends from the
            # numeric start p_(a;k,k) = w_k, the exponential gauge in
            # closed form.
            k = int(rng_az.integers(1, 5))
            i = int(rng_az.integers(0, k))
            he = chain_az_handle(ge, t, i, k, k)
            ht = chain_az_handle(tg, t, i, k, k)
            for x in (t - 1.7, t + 0.4, t + 2.2):
                assert ht.eval(x) == pytest.approx(
                    he.eval(x), rel=1e-8, abs=1e-11
                ), (lams, t, i, k, x)

    def test_table_route_near_and_far_from_anchor(self):
        # Interior-anchored panel route against the closed forms.  The first
        # query at t - 8 fixes a wide working interval that the near-anchor
        # queries reuse; there p_{t;0,5} is ~1e-13, and a running integral
        # from the left edge minus its value at t cancels to the wrong sign.
        tg = table_clone([0.0, 0.0, 0.0, -1.0, 2.0, 1.0])
        for t in (0.0, 0.3, -1.2):
            for (j, m) in [(0, 5), (1, 4), (2, 5)]:
                he = chain_t_handle(G61, t, j, m)
                ht = chain_t_handle(tg, t, j, m)
                for x, rel in [(t - 8.0, 1e-10), (t - 5.0, 1e-10),
                               (t - 0.01, 1e-3), (t + 0.01, 1e-3)]:
                    exact, got = he.eval(x), ht.eval(x)
                    assert math.copysign(1.0, got) == math.copysign(1.0, exact)
                    assert got == pytest.approx(exact, rel=rel), (t, j, m, x)
                # x = t + 16 widens the positive part's interval to t - 8.5.
                pos = chain_t_handle(tg, t, j, m, part=POSITIVE)
                assert pos.eval(t + 16.0) > 0.0
                near = pos.eval(t + 0.01)
                assert near >= 0.0
                assert near == pytest.approx(he.eval(t + 0.01), rel=1e-3)

    def test_anchor_domain(self):
        with pytest.raises(DomainError):
            chain_t_handle(UnitGauge(Interval(0.0, 1.0)), -1.0, 0, 2)

    def test_61_left_anchored_row(self):
        # the displayed row (p_(-inf;2,j): j in [2,5]) = (1, inf, e^x/2,
        # e^(2x)/6)
        vals = {
            2: lambda x: 1.0,
            4: lambda x: math.exp(x) / 2.0,
            5: lambda x: math.exp(2.0 * x) / 6.0,
        }
        assert chain_t_handle(G61, -math.inf, 2, 3).eval(0.7) == math.inf
        for j, ref in vals.items():
            h = chain_t_handle(G61, -math.inf, 2, j)
            for x in (-1.0, 0.0, 0.7):
                assert h.eval(x) == pytest.approx(ref(x), rel=1e-12)


LAMBDA = st.floats(-1.2, 1.2)


def ring_rounding(poly, u):
    """A closed form's own rounding at u: eps times the sum of its terms'
    magnitudes there (inf where a term's exponent passes 700, past which
    ExpPoly's values are +-inf)."""
    if any(r * u > 700.0 for _, r in poly.terms):
        return math.inf
    return 2.3e-16 * math.fsum(abs(c * u**d * math.exp(r * u))
                               for (d, r), c in poly.terms.items())


def closed_form_within(h, x, tol):
    """Whether the closed form's own rounding at x is below a thousandth
    of tol: where its terms cancel by more than that, the closed form
    cannot meet tol."""
    return ring_rounding(h.x_ring().poly, x) <= 1e-3 * tol


def descent_rounding(g, j, m, u_t, u):
    """The rounding of the closed-form descent of p_{t;j,m} from u_t in the
    ring's variable, at u: eps times the descent carried out on the
    magnitudes of its terms, each level's constant being the sum of its
    antiderivative's term magnitudes at u_t (inf past float range, or
    where a term of that constant, e^(r u_t) below e^-700, underflows)."""
    power = isinstance(g, PowerGauge)
    rate = (lambda s: g.lam(s) - 1.0) if power else (
        (lambda s: 0.0) if isinstance(g, UnitGauge) else g.lam)
    ring = wpoly.ExpPoly.exponential(rate(m))
    try:
        for lvl in range(m - 1, j - 1, -1):
            anti = ring.mul_exp(1.0 if power else 0.0).antiderivative()
            anti = wpoly.ExpPoly({k: abs(c) for k, c in anti.terms.items()})
            if u_t > -math.inf:
                if any(r * u_t < -700.0 for _, r in anti.terms):
                    return math.inf
                anti._add_term(0, 0.0, ring_rounding(anti, u_t) / 2.3e-16)
            ring = anti.mul_exp(rate(lvl))
    except OverflowError:  # a magnitude past float range
        return math.inf
    return (m - j + 1) * ring_rounding(ring, u)


def family_rounding(g, j, m, t, x):
    """The rounding of chain_t_two_arg's closed form of p_{t;j,m}(x): the
    translated base's descent from 0 at u_x - u_t times e^(sigma u_t), or
    for u_t = -inf the descent from there."""
    u_t, u_x = wpoly._ring_u(g, t), wpoly._ring_u(g, x)
    if u_t == -math.inf:
        return descent_rounding(g, j, m, u_t, u_x)
    sigma, _ = wpoly.translated_chain(g, j, m)
    if sigma * u_t > 700.0:
        return math.inf  # the family's e^(sigma u_t) is +inf past e^700
    return math.exp(sigma * u_t) * descent_rounding(g, j, m, 0.0, u_x - u_t)


def two_arg_rounding(g, j, m, t, x):
    """The rounding of both closed forms of p_{t;j,m}(x): the family's
    and the handle's descent from u_t."""
    return family_rounding(g, j, m, t, x) + descent_rounding(
        g, j, m, wpoly._ring_u(g, t), wpoly._ring_u(g, x))


def near_tiny_rate(lams, j, m):
    """Whether lam_i + ... + lam_l for some j <= i <= l <= m, or that sum
    less 1 (a power gauge's rate in u), lies in (1e-16, 1e-11]: a ring
    rounds a rate within wpoly._TINY_RATE = 1e-12 of 0 to 0 in some of its
    terms, so two closed forms may differ by about that rate times |u|."""
    sums = [math.fsum(lams[i:l + 1]) for i in range(j, m + 1) for l in range(i, m + 1)]
    return any(1e-16 < abs(v) <= 1e-11 or 1e-16 < abs(v - 1.0) <= 1e-11 for v in sums)


class TestTwoArgBroadcast:
    """chain_t_two_arg on arrays equals its scalar calls, cell by cell,
    and the per-t handles' positive parts."""

    # Largest |batched - handle| / (1 + |handle|) at the compared cells
    # over 3,000 examples per kind: unit 2.7e-15, table 6.9e-15,
    # exponential 1.0e-14, power 3.1e-13.
    TOL = {"unit": 1e-12, "table": 1e-12, "exponential": 1e-12, "power": 5e-12}

    def check_cells(self, g, kind, j, m, lams, ts, xs):
        # Fresh families, so that a table gauge's evaluators see the same
        # queries in the same (row-major) order on both sides.
        got = chain_t_two_arg(g, j, m)(ts[:, None], xs[None, :])
        one = chain_t_two_arg(g, j, m)
        assert got.shape == (len(ts), len(xs))
        tol = self.TOL[kind]
        for (r, c), v in np.ndenumerate(got):
            t, x = float(ts[r]), float(xs[c])
            scalar = one(t, x)
            assert isinstance(scalar, float)
            if x < t:
                assert v == 0.0 and scalar == 0.0
                continue
            if math.isinf(scalar) or math.isnan(scalar):
                assert v == scalar or (math.isnan(v) and math.isnan(scalar)), (t, x)
            else:
                assert abs(v - scalar) <= 1e-12 * (1.0 + abs(scalar)), (t, x, v, scalar)
            if max(abs(t), abs(x)) > 5.0:
                continue  # far out a handle's ring in x cancels or overflows
            handle = chain_t_handle(g, t, j, m, part=POSITIVE)
            want = handle.eval(x)
            closed = kind != "table" and handle._full_evaluator()._exact is not None
            if closed and (kind != "unit" and near_tiny_rate(lams, j, m) or not (math.isfinite(want) and (
                    two_arg_rounding(g, j, m, t, x) <= 0.1 * tol * (1.0 + abs(want))))):
                # A rate at the ring's cut-off, terms that cancel (a small
                # rate, or an anchor far below x in u) or leave float range
                # (e^(sigma u_t) past e^700 for t within 1e-250 of a power
                # gauge's base): the two closed forms cannot be held to
                # tol against each other.
                continue
            if math.isinf(want) or math.isnan(want):
                assert v == want or (math.isnan(v) and math.isnan(want)), (t, x)
            else:
                assert abs(v - want) <= tol * (1.0 + abs(want)), (t, x, v, want)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_batched_equals_scalar(self, data):
        draw = data.draw
        kind = draw(st.sampled_from(("unit", "exponential", "table")))
        m = draw(st.integers(1, 4))
        j = draw(st.integers(0, m - 1))
        lams = [draw(LAMBDA) for _ in range(m + 1)]
        g = {"unit": lambda: UnitGauge(R),
             "exponential": lambda: ExponentialGauge(R, lams),
             "table": lambda: table_clone(lams)}[kind]()
        # Closed forms also get cells far out, where exp(r*x) or the
        # anchor's exp(sigma*t) overflows and the value is +-inf.
        near = st.floats(-3.0, 3.0)
        cell = near if kind == "table" else st.one_of(near, st.floats(-1000.0, 1000.0))
        ts = draw(st.lists(cell, min_size=1, max_size=6))
        xs = draw(st.lists(cell, min_size=1, max_size=6))
        sigma = math.fsum(lams[j:m + 1])
        if kind == "exponential" and sigma != 0.0:
            # An anchor whose exp(sigma*t) is past the cut-off of 700 but
            # still in float range, and points on either side of it.
            t_over = 705.0 / sigma
            ts.append(t_over)
            xs += [t_over + 0.5, t_over - 0.5]
        self.check_cells(g, kind, j, m, lams, np.array(ts), np.array(xs))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_power_batched_equals_scalar(self, data):
        draw = data.draw
        m = draw(st.integers(1, 4))
        j = draw(st.integers(0, m - 1))
        lams = [draw(LAMBDA) for _ in range(m + 1)]
        g = PowerGauge(Interval(0.0, math.inf), draw(st.sampled_from((0.0, -1.0))), lams)
        # Anchors in [a, 3), t = a being u = -inf when base = a, and
        # points in I.
        ts = draw(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=6))
        xs = draw(st.lists(st.floats(0.0, 5.0, exclude_min=True), min_size=1, max_size=6))
        self.check_cells(g, "power", j, m, lams, np.array(ts), np.array(xs))

    @pytest.mark.parametrize("g, top", [
        (UnitGauge(R), 3), (ExponentialGauge(R, [0.5, -1.0, 0.0, 1.0]), 3),
        (PowerGauge(Interval(0.0, math.inf), 0.0, [1.5, 0.0, -1.0, 2.0]), 3),
        (table_clone([0.5, -1.0, 0.0, 1.0]), 3), (arctan_cheb_gauges(), 1),
    ], ids=["unit", "exponential", "power", "clone", "arctan_cheb"])
    def test_no_per_t_chain(self, monkeypatch, g, top):
        # Every route is one array pass: no per-anchor chain evaluator is
        # built, for array calls or for a call on one cell.
        built = []
        monkeypatch.setattr(wpoly, "_chain_t", lambda *a: built.append(a))
        monkeypatch.setattr(wpoly, "_Descent", lambda *a: built.append(a))
        ts, xs = np.linspace(0.5, 2.5, 5), np.linspace(0.25, 3.0, 6)
        for j, m in [(0, top), (top - 1, top), (top, top), (0, 0)]:
            fam = chain_t_two_arg(g, j, m)
            fam(ts[:, None], xs[None, :])
            fam(float(ts[0]), float(xs[-1]))
        assert built == []

    @pytest.mark.parametrize("g", [
        UnitGauge(Interval(0.0, math.inf)),
        ExponentialGauge(Interval(0.0, math.inf), [0.5, -1.0, 1.0]),
        PowerGauge(Interval(0.0, math.inf), -1.0, [0.5, -1.0, 1.0]),
        table_clone([0.5, -1.0, 1.0], Interval(0.0, math.inf)),
    ], ids=["unit", "exponential", "power", "table"])
    def test_anchor_below_a_raises(self, g):
        fam = chain_t_two_arg(g, 0, 2)
        for t in (-0.5, np.array([1.0, -1e-9])):
            with pytest.raises(DomainError, match="anchor"):
                fam(t, 1.0)
        # t = a at the open a: a closed form still gives it, a table
        # gauge has no anchor there.
        if isinstance(g, TableGauge):
            with pytest.raises(DomainError, match="anchor"):
                fam(np.array([0.0]), np.array([1.0]))
        else:
            want = chain_t_handle(g, 0.0, 0, 2, part=POSITIVE).eval(1.0)
            assert fam(0.0, 1.0) == pytest.approx(want, rel=1e-12)

    def test_power_anchor_at_the_closed_base(self):
        # t = base = a is u = -inf: those cells are the left-anchored ring,
        # as the handle at t = a gives them, x = a included.
        g = PowerGauge(Interval(0.0, math.inf, left_closed=True), 0.0, [1.0, 2.0, 3.0])
        xs = np.array([0.0, 1e-3, 0.5, 1.0, 2.0, 7.5])
        for j, m in [(0, 2), (1, 2), (0, 1), (2, 2), (0, 0)]:
            fam = chain_t_two_arg(g, j, m)
            got = fam(np.array([0.0, 1.0])[:, None], xs[None, :])
            for x, v in zip(xs.tolist(), got[0].tolist()):
                want = chain_t_handle(g, 0.0, j, m, part=POSITIVE).eval(x)
                assert v == pytest.approx(want, rel=1e-13, abs=0.0), (j, m, x)
                assert fam(0.0, x) == v

    @pytest.mark.parametrize("g", [table_clone([0.5, -1.0, 1.0]), arctan_cheb_gauges()],
                             ids=["clone", "arctan_cheb"])
    def test_single_level_is_the_gauge(self, g):
        ts, xs = np.array([-2.0, 0.0, 1.5]), np.array([-3.0, -1.0, 0.0, 2.0])
        for m in (0, 1):
            got = chain_t_two_arg(g, m, m)(ts[:, None], xs[None, :])
            want = np.where(xs[None, :] >= ts[:, None], g.values(m, xs)[None, :], 0.0)
            assert np.array_equal(got, want)

    def test_one_level_broadcast_matches_per_t_handles(self, monkeypatch):
        # p_{t;0,1} = w_0(x) (atan x - atan t) as one broadcast: bit for
        # bit the per-t evaluators' positive parts, with no per-t chain.
        g = arctan_cheb_gauges()
        ts = np.linspace(-4.0, 4.0, 33)
        xs = np.r_[np.linspace(-5.0, 5.0, 41), ts[::4]]  # and cells with x = t
        built = []
        real = wpoly._chain_t
        monkeypatch.setattr(wpoly, "_chain_t", lambda *a: built.append(a) or real(*a))
        got = chain_t_two_arg(g, 0, 1)(ts[:, None], xs[None, :])
        assert built == []
        monkeypatch.undo()
        assert np.all(got[xs[None, :] < ts[:, None]] == 0.0)
        for (r, c), v in np.ndenumerate(got):
            t, x = float(ts[r]), float(xs[c])
            assert v == chain_t_handle(g, t, 0, 1, part=POSITIVE).eval(x), (t, x)

    def test_one_level_broadcast_edge_cells(self):
        # W(t) = -inf below -5 makes those anchors diverge (+inf, x = t
        # too); elsewhere x = t is 0 without evaluating w_0, and w_0(1) = 0
        # raises what value() raises.
        g = TableGauge(R, [lambda x: 0.0 if x == 1.0 else 2.0, lambda x: 1.0],
                       antiderivs=[None, lambda x: -math.inf if x < -5.0 else x])
        ts, xs = np.array([-6.0, 0.0, 1.0]), np.array([-6.0, 0.0, 2.0])
        got = chain_t_two_arg(g, 0, 1)(ts[:, None], xs[None, :])
        want = [[chain_t_handle(g, t, 0, 1, part=POSITIVE).eval(x) for x in xs]
                for t in ts]
        assert got.tolist() == want == [[math.inf] * 3, [0.0, 0.0, 4.0], [0.0, 0.0, 2.0]]
        assert chain_t_two_arg(g, 0, 1)(np.array([1.0]), np.array([1.0]))[0] == 0.0
        with pytest.raises(GaugeError):
            chain_t_two_arg(g, 0, 1)(np.array([0.0]), np.array([1.0]))
        with pytest.raises(GaugeError):
            chain_t_handle(g, 0.0, 0, 1).eval(1.0)

    def test_one_level_zero_gauge_left_of_every_anchor(self):
        # Cells with x < t are 0 without a check of w_0 there: w_0(-6) = 0
        # left of both anchors does not raise.
        g = TableGauge(R, [lambda x: 0.0 if x == -6.0 else 2.0, lambda x: 1.0],
                       antiderivs=[None, lambda x: x])
        got = chain_t_two_arg(g, 0, 1)(np.array([[-1.0], [0.0]]),
                                      np.array([[-6.0, 0.0, 1.0]]))
        assert got.tolist() == [[0.0, 2.0, 4.0], [0.0, 0.0, 2.0]]

    @pytest.mark.parametrize(
        "g", [UnitGauge(R), ExponentialGauge(R, [0.0, 0.0, 0.5, -1.0, 1.0])],
        ids=["unit", "exponential"])
    def test_closed_form_call_memory(self, g):
        # A closed-form call over a (t, x) grid holds at most 7 arrays of
        # the grid's size at its peak: it runs on the grid's on-cells
        # without broadcast copies of t and x, and eval_many keeps two
        # buffers besides its sum.
        fam = chain_t_two_arg(g, 0, 4)
        ts, xs = np.linspace(-9.0, 3.0, 100)[:, None], np.linspace(-3.0, 3.0, 200)
        fam(ts, xs)
        tracemalloc.start()
        try:
            out = fam(ts, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * out.nbytes


class TestClosedVsTableProperty:
    """The closed form against a TableGauge clone (the panel route, and
    the left-endpoint route in u = log(x - a) at a finite open a), where
    the closed form is well conditioned."""

    @given(st.data())
    @settings(max_examples=12, deadline=None)
    def test_interior_anchor(self, data):
        draw = data.draw
        m = draw(st.integers(1, 4))
        j = draw(st.integers(0, m - 1))
        lams = [draw(LAMBDA) for _ in range(m + 1)]
        t = draw(st.floats(-2.0, 2.0))
        x = t + draw(st.floats(-2.0, 2.5))
        he = chain_t_handle(ExponentialGauge(R, lams), t, j, m)
        want = he.eval(x)
        assume(closed_form_within(he, x, 1e-8 * abs(want) + 1e-11))
        got = chain_t_handle(table_clone(lams), t, j, m).eval(x)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-11), (lams, t, j, m, x)

    @given(st.data())
    @settings(max_examples=12, deadline=None)
    def test_left_anchor_on_half_line(self, data):
        draw = data.draw
        pos = Interval(0.0, math.inf)
        m = draw(st.integers(1, 3))
        j = draw(st.integers(0, m - 1))
        lams = [draw(LAMBDA) for _ in range(m + 1)]
        x = draw(st.floats(0.05, 3.0))
        he = chain_t_handle(ExponentialGauge(pos, lams), 0.0, j, m)
        want = he.eval(x)
        assume(closed_form_within(he, x, 1e-8 * abs(want)))
        got = chain_t_handle(table_clone(lams, pos), 0.0, j, m).eval(x)
        assert got == pytest.approx(want, rel=1e-8), (lams, j, m, x)

    @pytest.mark.xfail(strict=True, reason="a small rate's terms c/r cancel near "
                       "the anchor; the closed form is 0.58% off here")
    def test_small_rate_near_anchor(self):
        # p_{0;0,1}(x) = (e^(rx) - 1)/r with r = 1e-7, at x = 1e-7; the
        # table clone gives it to 3e-11.
        exact = math.expm1(1e-14) / 1e-7
        got = chain_t_handle(ExponentialGauge(R, [0.0, 1e-7]), 0.0, 0, 1).eval(1e-7)
        assert got == pytest.approx(exact, rel=1e-8)


class TestTransferSweep:
    """Chains composed from per-panel transfer matrices: the batched table
    route of chain_t_two_arg and the probe's window sweeps."""

    LAMS61 = [0.0, 0.0, 0.0, -1.0, 2.0, 1.0]

    @pytest.mark.parametrize("t", [0.0, 1.0])
    @pytest.mark.parametrize("d", [1e-4, 1e-3])
    def test_batched_table_route_near_anchor(self, t, d):
        # p_{t;0,5}(x) is (x - t)^5/120 * prod w_l(t) to first order; its
        # next term is (x - t)/3 relative on these gauges.
        fam = chain_t_two_arg(table_clone(self.LAMS61), 0, 5)
        got = fam(np.array([t]), np.array([t + d]))[0]
        lead = d**5 / 120.0 * math.prod(math.exp(l * t) for l in self.LAMS61)
        assert got > 0.0
        assert got == pytest.approx(lead, rel=1e-3)

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_sweep_matches_closed_form(self, data):
        draw = data.draw
        m = draw(st.integers(1, 4))
        j = draw(st.integers(0, m - 1))
        lams = [draw(LAMBDA) for _ in range(m + 1)]
        ts = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
        ds = draw(st.lists(st.floats(0.0, 6.0), min_size=len(ts), max_size=len(ts)))
        ts, xs = np.array(ts), np.array(ts) + np.array(ds)
        got = chain_t_two_arg(table_clone(lams), j, m)(ts, xs)
        g = ExponentialGauge(R, lams)
        for t, x, v in zip(ts.tolist(), xs.tolist(), got.tolist()):
            he = chain_t_handle(g, t, j, m)
            want = he.eval(x)
            tol = 1e-10 * (1.0 + abs(want))
            if closed_form_within(he, x, tol):
                assert abs(v - want) <= tol, (lams, j, m, t, x, v, want)

    def test_probe_tables_match_the_criterion(self):
        # Exponents from a grid of halves: a suffix sum is 0 (the slow
        # boundary of the dichotomy) or at least 0.5 away from it.
        rng = np.random.default_rng(12)
        for make, count in [(lambda lams: ExponentialGauge(R, lams), 60),
                            (lambda lams: PowerGauge(Interval(1.0, 3.0), 1.0, lams), 30)]:
            for _ in range(count):
                lams = [float(v) for v in rng.choice([-1.0, -0.5, 0.5, 1.0, 1.5], size=4)]
                g = make(lams)
                fs, analytic = finiteness_set(g, 3, force_probe=True), finiteness_set(g, 3)
                for mm in range(4):
                    for jj in range(mm):
                        sums = [math.fsum(lams[i + 1:mm + 1]) for i in range(jj, mm)]
                        if all(abs(v) >= 0.5 for v in sums):
                            assert fs.contains(jj, mm) == analytic.contains(jj, mm), (
                                lams, jj, mm)

    @pytest.mark.parametrize("lam3", [-0.7, -1.5])
    def test_probe_pair_outlives_a_breakdown_of_other_levels(self, lam3):
        # p_(a;0,1) under lam_1 = 0.01 settles only at window 7 (x near
        # -1024), where w_3 = exp(lam3 x) has left float range: the pair
        # goes on with its own levels instead of being inconclusive.
        g = ExponentialGauge(R, [0.0, 0.01, 1.0, lam3])
        assert finiteness_set(g, 3, force_probe=True).table == finiteness_set(g, 3).table

    def test_probe_builds_each_window_once(self, monkeypatch):
        builds = []
        init = wpoly.PanelChain.__init__

        def counting(chain, *args, **kwargs):
            init(chain, *args, **kwargs)
            builds.append((type(chain).__name__, chain.lo, chain.hi))

        monkeypatch.setattr(wpoly.PanelChain, "__init__", counting)
        for lams in ([0.5, 1.0, -0.5, 1.5, 1.0, 0.5], self.LAMS61):
            builds.clear()
            fs = finiteness_set(ExponentialGauge(R, lams), 5, force_probe=True)
            assert fs.method == "probe"
            assert builds and all(kind == "PanelChain" for kind, _, _ in builds)
            assert len(set(builds)) == len(builds), builds


class TestPowerGaugeClosedForm:
    """Power gauges are exponential gauges in u = log(x - base): one ring
    holds their chains, logarithmic terms (some lam_j = 0) included."""

    LAMS = (-0.5, 0.0, 0.5, 1.0, 2.5)

    @staticmethod
    def close(got, want):
        return abs(got - want) <= 1e-9 * (1.0 + abs(want))

    def test_log_term_reproducers(self):
        # t interior, x below t on (0, inf): (x - 1) - ln x.
        g = PowerGauge(Interval(0.0, math.inf), 0.0, [1.0, 0.0, 1.0])
        assert chain_t_handle(g, 1.0, 0, 2).eval(0.3) == pytest.approx(
            0.50397280432594, rel=1e-13
        )
        # t = a, a finite and open above the base: x ln(x/a) - (x - a).
        g = PowerGauge(Interval(0.5, math.inf), 0.0, [1.0, 1.0, 0.0])
        assert chain_t_handle(g, 0.5, 0, 2).eval(1.5) == pytest.approx(
            0.64791843300216, rel=1e-13
        )

    @pytest.mark.parametrize("base", [0.0, -0.5], ids=["base=a", "base<a"])
    def test_chains_match_nested_quadrature(self, base):
        rng = np.random.default_rng(2026)
        iv = Interval(0.0, math.inf)
        seen = set()
        for _ in range(8):
            lams = [float(v) for v in rng.choice(self.LAMS, size=4)]
            seen.update(lams)
            g = PowerGauge(iv, base, lams)
            fs = finiteness_set(g, 3)
            j = int(rng.integers(0, 2))
            m = j + int(rng.integers(1, 3))
            for t in (iv.a, float(rng.uniform(0.4, 1.6))):
                h = chain_t_handle(g, t, j, m)
                for x in (0.15, 1.1, 2.7):
                    if t == iv.a and not fs.contains(j, m):
                        assert h.eval(x) == math.inf
                        continue
                    want = quad_chain(g, t, j, m, x)
                    assert self.close(h.eval(x), want), (lams, t, j, m, x)
            # The second chain, (k, j) in the finiteness set.
            k = int(rng.integers(1, 3))
            jj = max(m for m in fs.F_kn(k) if m <= k + 1)
            z = float(rng.uniform(0.4, 1.6))
            h = chain_az_handle(g, z, k - 1, k, jj)
            for x in (0.15, 1.1, 2.7):
                want = quad_chain_az(g, z, k - 1, k, jj, x)
                assert self.close(h.eval(x), want), (lams, z, k, jj, x)
        assert seen == set(self.LAMS)

    def test_closed_base_is_the_limit(self):
        # [0, 5] with base 0 (every lam >= 1): at x = base the ring sits at
        # u = -inf and must give the chain's limit, not NaN.
        lams = [1.0, 2.5, 1.0, 1.5]
        g = PowerGauge(Interval(0.0, 5.0, left_closed=True), 0.0, lams)
        w = lambda j, x: x ** (g.lam(j) - 1.0)  # 0.0 ** 0.0 == 1.0
        for t, j, m in [(1.3, 0, 2), (1.3, 1, 3), (0.0, 0, 3), (2.0, 0, 1)]:
            h = chain_t_handle(g, t, j, m)
            for x in (0.0, 0.6, 3.1):
                want = quad_chain(g, t, j, m, x, w)
                got = h.eval(x)
                assert math.isfinite(got) and self.close(got, want), (t, j, m, x)
        h = chain_az_handle(g, 1.3, 0, 1, 3)
        for x in (0.0, 0.6, 3.1):
            assert self.close(h.eval(x), quad_chain_az(g, 1.3, 0, 1, 3, x, w)), x

    def test_pretty_keeps_placeholder(self):
        # The ring is in u = log(x - base), so it is not printed as if in x.
        g = PowerGauge(Interval(0.0, math.inf), 0.0, [1.5, 2.0])
        assert chain_t_handle(g, 1.0, 0, 1).pretty() == "<chain_t(1.0, 0, 1):full>"
        assert chain_t_handle(g, 1.0, 0, 1).x_ring() is None


class TestXRing:
    """A handle's chain as an ExpPoly in x, for the exact moment routes."""

    def test_only_closed_forms_in_x(self):
        g = ExponentialGauge(R, [0.5, -1.0, 1.0])
        assert chain_t_handle(g, 0.3, 0, 2).x_ring() is not None
        assert chain_az_handle(g, 0.3, 0, 1, 2).x_ring() is not None
        assert chain_t_handle(table_clone([0.5, -1.0, 1.0]), 0.3, 0, 2).x_ring() is None
        assert interpolate(g, 0.0, [1.0, 2.0]).x_ring() is None

    def test_region_and_anchor(self):
        g = ExponentialGauge(R, [0.5, -1.0, 1.0])
        for part, region in [(FULL, (-math.inf, math.inf)),
                             (POSITIVE, (0.3, math.inf)),
                             (NEGATIVE, (-math.inf, 0.3))]:
            h = chain_t_handle(g, 0.3, 0, 2, part=part)
            ring = h.x_ring()
            assert ring.region == region and ring.anchor == 0.3
            for x in (-1.0, 0.29, 0.31, 2.0):
                lo, hi = ring.region
                want = ring.poly.eval(x) if lo <= x < hi else 0.0
                assert h.eval(x) == want
        assert chain_t_handle(g, 0.3, 2, 2).x_ring().anchor is None
        assert chain_az_handle(g, 0.3, 0, 1, 2).x_ring().anchor == 0.3

    def test_eval_many_is_eval(self):
        # Term by term in eval's order, with its overflow rule: past
        # e^700 the value is +-inf by the dominant term's sign.  In the
        # second input two overflowing terms of opposite signs tie on r*x,
        # and the higher degree decides.
        xs = np.concatenate([[0.0, -0.0, 1.0, 351.0, -701.0, -800.0, 1e3, -1e3],
                             np.linspace(-300.0, 300.0, 601)])
        for terms in ({(0, 1.0): 1.0, (3, 2.0): -3.0, (1, -1.0): 0.5, (5, 0.0): 0.25,
                       (2, 2.5): 7.0},
                      {(3, 2.0): -1.0, (1, 2.0): 2.0, (0, -1.0): 1.0}):
            p = wpoly.ExpPoly(terms)
            got = p.eval_many(xs)
            want = np.array([p.eval(float(x)) for x in xs])
            assert np.array_equal(np.isinf(got), np.isinf(want))
            assert np.all(got[np.isinf(got)] == want[np.isinf(want)])
            fin = np.isfinite(want)
            assert np.all(np.abs(got[fin] - want[fin]) <= 1e-14 * np.abs(want[fin]))

    def test_terms_past_float_range(self):
        # At |x| = 1e308, x^d overflows: the term joins the dominant-term
        # rule by its log-magnitude, signed c (sign x)^d, or is 0 below
        # e^-745; eval_many hands those cells to eval.  Other values keep
        # their term-by-term arithmetic.
        inf = math.inf
        xs = [1e308, -1e308, 1e200, -1e200]
        for terms, want in [
            # G61's p_(0;0,3) = x^2/2 - x + 1 - e^-x.
            ({(2, 0.0): 0.5, (1, 0.0): -1.0, (0, 0.0): 1.0, (0, -1.0): -1.0},
             [inf, -inf, inf, -inf]),
            ({(3, 0.0): 1.0, (0, 0.0): -5.0}, [inf, -inf, inf, -inf]),
            ({(3, -1.0): 2.0, (1, 0.0): 1.0}, [1e308, -inf, 1e200, -inf]),
        ]:
            p = wpoly.ExpPoly(terms)
            assert [p.eval(x) for x in xs] == want, terms
            assert p.eval_many(np.array(xs)).tolist() == want, terms
        p = wpoly.ExpPoly({(3, -1.0): 2.0, (1, 0.0): 1.0})
        assert p.eval(2.0) == 2.0 * 2.0**3 * math.exp(-2.0) + 2.0


class TestFiniteOpenLeftEndpoint:
    """A chain anchored at a finite open a runs as the chain anchored at
    u = -inf under x = a + e^u, on a table clone with no closed form."""

    LAMS = [0.5, -1.0, 1.0, 0.3]

    @pytest.mark.parametrize("a", [0.0, 1.0, -2.0])
    def test_left_chain_matches_nested_quadrature(self, a):
        iv = Interval(a, math.inf)
        g, tg = ExponentialGauge(iv, self.LAMS), table_clone(self.LAMS, iv)
        steps = [(1e-3, 1e-9), (0.5, 1e-9), (2.0, 1e-9)]
        if a == 0.0:
            steps.append((1e-6, 1e-12))
        for j, m in [(1, 2), (0, 2), (1, 3), (0, 3), (2, 3)]:
            h = chain_t_handle(tg, a, j, m)
            for d, rel in steps:
                want = quad_chain_rel(g, a, j, m, a + d)
                assert h.eval(a + d) == pytest.approx(want, rel=rel), (j, m, d)

    @pytest.mark.parametrize("a", [0.0, 1.0, -2.0])
    def test_second_chain_matches_closed_form(self, a):
        iv = Interval(a, math.inf)
        g, tg = ExponentialGauge(iv, self.LAMS), table_clone(self.LAMS, iv)
        xs = [a + d for d in (1e-6, 1e-3, 0.6, 2.0)]
        for i, k, j in [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3)]:
            for order in (xs, xs[::-1]):
                he = chain_az_handle(g, a + 1.2, i, k, j)
                ht = chain_az_handle(tg, a + 1.2, i, k, j)
                for x in order:
                    want = he.eval(x)
                    assert abs(ht.eval(x) - want) <= 1e-9 * (1.0 + abs(want)), (
                        i, k, j, x)

    def test_underflowing_gauge_and_the_float_floor(self):
        # w_1 = exp(-1/x) underflows to 0.0 near a = 0; the transported
        # gauge passes that on to the integrator as w_1 itself does.
        g = TableGauge(Interval(0.0, math.inf), [
            lambda x: 1.0, lambda x: math.exp(-1.0 / x), lambda x: 1.0])
        assert chain_t_handle(g, 0.0, 1, 2).eval(1.0) == pytest.approx(
            math.exp(-1.0), rel=1e-12)
        want, _ = squad(lambda y: math.exp(-1.0 / y), 0.0, 1.0, epsrel=1e-13)
        assert chain_t_handle(g, 0.0, 0, 1).eval(1.0) == pytest.approx(want, rel=1e-10)
        # Within 4 ulp(a) of a = 1, a + e^u no longer resolves from a.
        h = chain_t_handle(table_clone(self.LAMS, Interval(1.0, math.inf)), 1.0, 1, 2)
        with pytest.raises(InconclusiveError):
            h.eval(1.0 + 2.0 * math.ulp(1.0))

    def test_gauge_singular_at_a(self):
        # w_1 = x^-1.5 overflows near a = 0, where the integrand w_1(x) * x
        # it feeds stays small: the cut stays where w_1 is in float range.
        iv = Interval(0.0, math.inf)
        g = TableGauge(iv, [lambda x: 1.0, lambda x: x**-1.5, lambda x: 1.0])
        h = chain_t_handle(g, 0.0, 0, 2)
        for x in (1e-6, 1e-3, 0.5, 2.0):
            assert h.eval(x) == pytest.approx(quad_chain_rel(g, 0.0, 0, 2, x), rel=1e-12)
        # w_1 = x^-8 overflows at the deepest cut; the next one is used.
        # p_{0;0,2}(x) = x/8.
        g = TableGauge(iv, [lambda x: 1.0, lambda x: x**-8, lambda x: x**7])
        h = chain_t_handle(g, 0.0, 0, 2)
        for x in (1e-6, 1e-3, 0.5, 2.0):
            assert h.eval(x) == pytest.approx(quad_chain_rel(g, 0.0, 0, 2, x), rel=1e-10)

    def test_fast_gauge_far_from_a(self):
        # p_{0;0,1}(x) = e^x - 1 for w_1 = exp: the cover reaches at most 1
        # past the query in x, not e^0.5 times it, where exp overflows.
        g = TableGauge(Interval(0.0, math.inf), [lambda x: 1.0, math.exp])
        xs = (300.0, 450.0, 500.0)
        for x in xs:
            assert chain_t_handle(g, 0.0, 0, 1).eval(x) == pytest.approx(
                math.expm1(x), rel=1e-12)
        h = chain_t_handle(g, 0.0, 0, 1)  # each query grows the cover
        assert [h.eval(x) for x in xs] == pytest.approx(
            [math.expm1(x) for x in xs], rel=1e-12)

    def test_cover_reuse_keeps_relative_accuracy(self):
        # After a query at 500 the cover's top panel spans x from about 67
        # to 501, and e^450 is far below that panel's largest value: 450 is
        # read over the sub-panel from the panel's lower edge, not off an
        # interpolant of the whole panel (which was 7.8e-7 off relative).
        g = TableGauge(Interval(0.0, math.inf), [lambda x: 1.0, math.exp])
        h = chain_t_handle(g, 0.0, 0, 1)
        for x in (500.0, 450.0, 300.0, 500.0, 450.0):
            assert h.eval(x) == pytest.approx(math.expm1(x), rel=1e-12), x

    def test_probe_failure_rebuilds_only_its_panels(self, monkeypatch):
        # The queries grow one cover, and each read is a sub-panel of its
        # own: no panel or sub-panel is built twice at one order.
        built = []
        ends = wpoly.PanelChain._ends

        def counted(self, a, b, back, order):
            built.extend((self, order, lo, hi) for lo, hi in zip(a.tolist(), b.tolist()))
            return ends(self, a, b, back, order)

        monkeypatch.setattr(wpoly.PanelChain, "_ends", counted)
        g = TableGauge(Interval(0.0, math.inf), [lambda x: 1.0, math.exp])
        h = chain_t_handle(g, 0.0, 0, 1)
        for x in (500.0, 450.0, 300.0):
            assert h.eval(x) == pytest.approx(math.expm1(x), rel=1e-12), x
        assert len(built) == len(set(built))

    def test_float_range_breakdown_is_inconclusive(self):
        # w_1 = x^-40 overflows below x = e^-17.7, short of every cut that
        # would leave a tail below the tolerance: no value is guessed.
        g = TableGauge(Interval(0.0, math.inf), [
            lambda x: 1.0, lambda x: x**-40, lambda x: x**39])
        h = chain_t_handle(g, 0.0, 0, 2)
        with pytest.raises(InconclusiveError, match="float range"):
            h.eval(0.5)


class TestPanelChain:
    @pytest.mark.parametrize("order", [32, 48])
    def test_cumulative_matrix_matches_chebint(self, order):
        # Column k: the per-panel chebint/chebval integral of node k's
        # Lagrange basis function from -1 to every node.
        cheb = np.polynomial.chebyshev
        nodes = wpoly._cheb_nodes(order)
        q = wpoly._cheb_cumulative(order)
        for k in range(order + 1):
            ic = cheb.chebint(wpoly._cheb_coeffs(np.eye(order + 1)[k]))
            col = cheb.chebval(nodes, ic) - cheb.chebval(-1.0, ic)
            assert np.max(np.abs(q[:, k] - col)) <= 1e-14

    def test_interior_anchor_is_exact_zero(self):
        # Panels on both sides of the anchor: p_{t;0,1} for the arctan pair
        # is w_0(x) * (atan x - atan t), negative left of t.
        g = arctan_cheb_gauges()
        for t in (0.3, -0.7, 1.234567):
            pc = wpoly.PanelChain(g, [0, 1], wpoly._panel_breaks(t - 3.0, t + 2.0),
                                  anchor=t)
            assert pc.eval(t) == 0.0
            for x in (t - 2.5, t - 1e-3, t + 1e-3, t + 1.5):
                want = (math.pi + math.atan(x)) * (math.atan(x) - math.atan(t))
                assert pc.eval(x) == pytest.approx(want, rel=1e-10, abs=1e-15)

    def test_backward_panels_invert_forward_ones(self):
        # Left of the anchor each panel matrix is T(b_{k+1}, b_k), the
        # inverse of the forward T(b_k, b_{k+1}), with entries of sign
        # (-1)^(c - r), so that products of them do not cancel either.
        lams = [0.5, -1.0, 1.0, 0.3]
        g, t = table_clone(lams), 0.4
        pc = wpoly.PanelChain(g, range(4), wpoly._panel_breaks(t - 3.0, t + 2.0),
                              anchor=t)
        at = int(np.searchsorted(pc.breaks, t))
        fwd = wpoly.PanelChain(g, range(4), pc.breaks[:at + 1])
        assert at >= 2 and np.array_equal(fwd.breaks, pc.breaks[:at + 1])
        upper = np.triu(np.ones((4, 4), dtype=bool), 1)
        sign = (-1.0) ** np.subtract.outer(np.arange(4), np.arange(4))
        for back, ahead in zip(pc.mats[:at], fwd.mats):
            assert np.all(back[upper] * sign[upper] > 0.0)
            assert np.max(np.abs(back @ ahead - np.eye(4))) <= 1e-12
        h = chain_t_handle(ExponentialGauge(R, lams), t, 0, 3)
        for x in (t - 2.9, t - 1.0, t - 1e-3, t + 1e-3, t + 1.9):
            want = h.eval(x)
            assert abs(pc.eval(x) - want) <= 1e-10 * (1.0 + abs(want)), x

    def test_alternating_queries_grow_one_cover(self, monkeypatch):
        # Queries on alternating sides of the anchor add panels to the one
        # cover instead of replacing it around each query.
        builds = []

        class Counting(wpoly.PanelChain):
            def __init__(self, *args, **kwargs):
                builds.append(kwargs.get("anchor"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(wpoly, "PanelChain", Counting)
        xs = [s * float(v) for v in np.linspace(3.0, 0.5, 10) for s in (1.0, -1.0)]
        alternating = chain_t_handle(table_clone([1.0, 1.0, 1.0]), 0.0, 0, 2)
        got = {x: alternating.eval(x) for x in xs}
        assert builds == [0.0]
        ascending = chain_t_handle(table_clone([1.0, 1.0, 1.0]), 0.0, 0, 2)
        for x in sorted(xs):
            want = ascending.eval(x)
            assert abs(got[x] - want) <= 1e-12 * (1.0 + abs(want)), x


class TestTransferReads:
    """Every numeric chain value is a transfer product ending at x: the
    cover's column at the edge of x's panel, times row 0 of T(e, x) over
    the sub-panel between them."""

    LAMS61 = [0.0, 0.0, 0.0, -1.0, 2.0, 1.0]

    def test_61_clone_near_the_anchor(self):
        # p_{0;0,5} on the table clone of the section 6.1 gauges, against
        # 60-digit references: an interpolant over the whole panel gave
        # -6.35e-22 at -1e-4 and 0.0 at 1e-4.
        want = {-1e-4: -8.33305556548e-23, 1e-4: 8.33361112103e-23,
                1e-3: 8.33611210342e-18, -1e-3: -8.33055654737e-18}
        for order in (list(want), list(want)[::-1]):
            h = chain_t_handle(table_clone(self.LAMS61), 0.0, 0, 5)
            for x in order:
                assert h.eval(x) == pytest.approx(want[x], rel=1e-9), x
        h = chain_t_handle(table_clone(self.LAMS61), 0.0, 0, 5)
        assert h.values(list(want)) == pytest.approx(list(want.values()), rel=1e-9)

    @pytest.mark.parametrize("g, t, j, m", [
        (table_clone(LAMS61), 0.0, 0, 5),
        (table_clone(LAMS61), -0.7, 1, 4),
        (table_clone([0.5, -1.0, 1.0, 0.3]), 0.4, 0, 3),
        (arctan_cheb_gauges(), 0.3, 0, 1),
        (table_clone([0.5, -1.0, 1.0, 0.3], Interval(0.0, math.inf)), 0.2, 0, 3),
        (table_clone([0.5, -1.0, 1.0, 0.3], Interval(-2.0, math.inf)), -1.5, 0, 2),
        (table_clone([0.5, -1.0, 1.0, 0.3], Interval(0.0, math.inf, True)), 0.0, 0, 3),
    ], ids=["61", "61-inner", "clone", "arctan", "open-a", "open-a-2", "closed-a"])
    def test_scalar_handles_are_the_two_arg_family(self, g, t, j, m):
        # The family's cells from one cover with x as a break, the handle's
        # value from its own cover, queried far from the anchor first.
        fam = chain_t_two_arg(g, j, m)
        h = chain_t_handle(g, t, j, m)
        for x in [t] + (t + np.geomspace(2.5, 1e-9, 15)).tolist():
            want = fam(t, x)
            assert abs(h.eval(x) - want) <= 1e-13 * abs(want), x

    @pytest.mark.parametrize("make", [
        lambda: chain_t_handle(UnitGauge(R), 0.3, 0, 3),
        lambda: chain_t_handle(G61, 0.0, 0, 5, part=POSITIVE),
        lambda: chain_t_handle(PowerGauge(Interval(1.0, 6.0), 1.0, [0.5, -1.0, 2.0]),
                               1.0, 0, 2),
        lambda: chain_t_handle(arctan_cheb_gauges(), 0.3, 0, 1),
        lambda: chain_t_handle(arctan_cheb_gauges(), -math.inf, 0, 1),
        lambda: chain_t_handle(table_clone([0.0, 0.0, 0.0, -1.0, 2.0, 1.0]), 0.0, 0, 5),
        lambda: chain_t_handle(table_clone([1.0, 1.0, 1.0]), 0.2, 0, 2, part=NEGATIVE),
        lambda: chain_t_handle(table_clone([0.5, -1.0, 1.0, 0.3]), -math.inf, 1, 3),
        lambda: chain_t_handle(table_clone([0.5, -1.0, 1.0, 0.3],
                                           Interval(0.0, math.inf)), 0.0, 0, 2),
        lambda: chain_az_handle(table_clone([0.5, -1.0, 1.0, 0.3]), 0.6, 0, 1, 3),
        lambda: chain_az_handle(G61, 0.0, 0, 2, 5),
        lambda: interpolate(table_clone([1.0, 0.5, -0.5]), 0.1, [1.0, -2.0, 0.5]),
    ], ids=["unit", "exponential", "power", "one-level", "one-level-left",
            "panel", "panel-negative", "left-frame", "left-frame-open-a",
            "second-chain-sum", "second-chain-closed", "interp"])
    def test_values_are_eval_bit_for_bit(self, make):
        h = make()
        a = max(h.gauges.interval.a, -2.5)
        xs = (a + np.geomspace(1e-5, 4.5, 40)).tolist() + [h.family[1]] * math.isfinite(
            h.family[1])
        xs = [x for x in xs if h.gauges.interval.contains(x)]
        batch = h.values(xs)
        single = [h.eval(x) for x in xs]
        assert [v.hex() for v in batch.tolist()] == [v.hex() for v in single]
        fresh = make()  # one point at a time first, then the batch
        single = [fresh.eval(x) for x in xs]
        assert [v.hex() for v in fresh.values(xs).tolist()] == [v.hex() for v in single]

    @pytest.mark.parametrize("iv", [R, Interval(0.0, math.inf),
                                    Interval(0.0, math.inf, True)],
                             ids=["R", "open-a", "closed-a"])
    def test_second_chain_sum_is_the_closed_form(self, iv):
        # p_{a,z;i:k:j} = sum over c in k..j of p_{a;c,j}(z)/w_c(z) p_{z;i,c}.
        lams = [0.5, -1.0, 1.0, 0.3, 1.5]
        g, ge = table_clone(lams, iv), ExponentialGauge(iv, lams)
        fs = finiteness_set(ge, 4)
        lo = max(iv.a, -3.0)
        xs = np.linspace(lo + 1e-3, 3.0, 17).tolist()
        seen = 0
        for i, k, j in [(0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 4), (1, 3, 4), (0, 1, 4)]:
            if not fs.contains(k, j):
                continue
            seen += 1
            for z in (lo + 0.5, 1.2):
                got = chain_az_handle(g, z, i, k, j).values(xs)
                he = chain_az_handle(ge, z, i, k, j)
                for x, v in zip(xs, got.tolist()):
                    want = he.eval(x)
                    assert abs(v - want) <= 1e-10 * (1.0 + abs(want)), (i, k, j, z, x)
        assert seen >= 3

    def test_chen_split_coefficients_share_the_start_probe(self, monkeypatch):
        # p_(a;1,4) probes, and the coefficient chains p_(a;2,4) and
        # p_(a;3,4) read its windows instead of building their own.
        windows = []
        extend = wpoly._WindowSweep._extend
        monkeypatch.setattr(wpoly._WindowSweep, "_extend",
                            lambda sweep: windows.append(sweep) or extend(sweep))
        lams = [0.5, -1.0, 1.0, 0.3, 1.5]
        h = chain_az_handle(table_clone(lams), 0.6, 0, 1, 4)
        assert len(windows) == 3 and len(set(map(id, windows))) == 1
        want = chain_az_handle(ExponentialGauge(R, lams), 0.6, 0, 1, 4)
        for x in (-1.0, 1.0, 2.5):
            assert h.eval(x) == pytest.approx(want.eval(x), rel=1e-10, abs=1e-10)

    def test_one_level_reads_both_sides_of_its_anchor(self):
        # p_{t;0,1}(x) = w_0(x) (W(x) - W(t)), W the antiderivative of w_1,
        # signed left of t and exactly 0 at t, from one _one_level_cells call.
        g, t = arctan_cheb_gauges(), 0.3
        h = chain_t_handle(g, t, 0, 1)
        anti = g.antideriv(1)
        xs = [-4.0, -1.0, -0.25, 0.0, 0.29, 0.3, 0.31, 2.0]
        want = [g.value(0, x) * (anti(x) - anti(t)) for x in xs]
        assert [v.hex() for v in h.values(xs).tolist()] == [v.hex() for v in want]
        assert [h.eval(x).hex() for x in xs] == [v.hex() for v in want]
        assert h.eval(t) == 0.0 and all(v < 0.0 for v in want[:5])


class TestParts:
    def test_positive_part_indicator(self):
        h = chain_t_handle(UnitGauge(R), 1.0, 0, 2, part=POSITIVE)
        assert h.eval(0.0) == 0.0
        assert h.eval(3.0) == pytest.approx(2.0)

    def test_positive_part_nonnegative_everywhere(self):
        for g in (UnitGauge(R), G61):
            for t in (-1.0, 0.0, 2.0):
                h = chain_t_handle(g, t, 0, 4, part=POSITIVE)
                for x in np.linspace(-4, 4, 17):
                    assert h.eval(float(x)) >= 0.0

    def test_degenerate_positive_part(self):
        # p+_{t;m,m} = w_m * 1{x >= t}, right-closed at t.
        h = chain_t_handle(G61, 0.5, 4, 4, part=POSITIVE)
        assert h.eval(0.5) == pytest.approx(math.e)
        assert h.eval(0.49) == 0.0

    def test_negative_part(self):
        h = chain_t_handle(UnitGauge(R), 1.0, 0, 2, part=NEGATIVE)
        assert h.eval(0.0) == pytest.approx(0.5)
        assert h.eval(1.0) == 0.0

    def test_inf_times_zero_convention(self):
        # Divergent chain at finite t = a not in I... realized with a = -inf:
        # the positive part of a divergent chain is still 0 left of t; with
        # t = -inf there is no left side, so check the negative part is 0.
        h = chain_t_handle(UnitGauge(R), -math.inf, 0, 2, part=NEGATIVE)
        assert h.eval(0.0) == 0.0
        hp = chain_t_handle(UnitGauge(R), -math.inf, 0, 2, part=POSITIVE)
        assert hp.eval(0.0) == math.inf


class TestChainDerivatives:
    GAUGES = [UnitGauge(R), G61]

    def test_gauged_derivative_normalization(self):
        # (m-j)-th gauged derivative under shifted gauges is identically 1.
        for g in self.GAUGES:
            h = chain_t_handle(g, 0.3, 1, 4)
            for x in (-1.0, 0.5, 2.0):
                assert h.gauged_deriv(3, x) == pytest.approx(1.0, rel=1e-10)

    def test_chain_derivative_identity_fd(self):
        # Finite-difference derivative of p/w_j matches p at the next level.
        rng = np.random.default_rng(7)
        for g in self.GAUGES:
            for _ in range(4):
                t = float(rng.uniform(-1, 1))
                j = int(rng.integers(0, 2))
                m = j + int(rng.integers(1, 3))
                h = chain_t_handle(g, t, j, m)
                nxt = chain_t_handle(g, t, j + 1, m)
                for x in (t + 0.7, t - 0.9):
                    step = 1e-5
                    fd = (
                        h.eval(x + step) / g.value(j, x + step)
                        - h.eval(x - step) / g.value(j, x - step)
                    ) / (2 * step)
                    assert fd == pytest.approx(nxt.eval(x), rel=1e-6, abs=1e-7)

    def test_vanishing_derivatives_at_anchor(self):
        for g in self.GAUGES:
            h = chain_t_handle(g, 0.4, 0, 3)
            for i in range(3):
                assert h.gauged_deriv(i, 0.4) == pytest.approx(0.0, abs=1e-12)
            assert h.gauged_deriv(3, 0.4) == pytest.approx(1.0)


class TestChainAZ:
    def test_unit_neginf_k_eq_j(self):
        # p_{-inf,0;0:k:k}(x) = (x-z)^k/k! with z=0, k=2, x=3 -> 4.5.
        val = chain_az_handle(UnitGauge(R), 0.0, 0, 2, 2).eval(3.0)
        assert val == pytest.approx(4.5, rel=1e-12)

    def test_61_values(self):
        # (x^2/2, (e^x-1-x)/2, (e^(2x)-1-2x)/24) at j in {2, 4, 5}.
        x = 1.0
        assert chain_az_handle(G61, 0.0, 0, 2, 2).eval(x) == pytest.approx(
            0.5, rel=1e-10
        )
        assert chain_az_handle(G61, 0.0, 0, 2, 4).eval(x) == pytest.approx(
            (math.e - 2.0) / 2.0, rel=1e-10
        )
        assert chain_az_handle(G61, 0.0, 0, 2, 5).eval(x) == pytest.approx(
            (math.exp(2.0) - 3.0) / 24.0, rel=1e-10
        )

    def test_unit_finite_a(self):
        # a=0, i=0, k=1, j=2, z=1: p(x) = (x^2 - z^2)/2; at x=2 -> 3/2.
        g = UnitGauge(Interval(0.0, math.inf))
        got = chain_az_handle(g, 1.0, 0, 1, 2).eval(2.0)
        assert got == pytest.approx(1.5, rel=1e-12)
        # quadrature oracle: integrate p_{0;1,2}(u) = u from z to x.
        oracle, _ = squad(lambda u: u, 1.0, 2.0)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_vanishes_at_z(self):
        for j in (2, 4, 5):
            assert chain_az_handle(G61, 0.0, 0, 2, j).eval(0.0) == 0.0
        # Exactly zero, not the rounding residue of the closed form there.
        g = ExponentialGauge(Interval(0.0, math.inf), [0.5, -1.0, 1.0, 0.3])
        assert chain_az_handle(g, 1.8, 0, 1, 2).eval(1.8) == 0.0

    def test_power_log_term_is_exact(self):
        # w_1 = 1/x: integrating it from z gives ln(x/z), a polynomial term
        # in u = log(x - base).
        g = PowerGauge(Interval(1.0, 5.0), 0.0, [1.0, 0.0, 2.0])
        h = chain_az_handle(g, 2.8, 0, 1, 1)
        assert h.eval(1.2) == pytest.approx(math.log(1.2 / 2.8), abs=1e-10)

    def test_k_eq_j_is_the_first_chain_at_z(self, monkeypatch):
        # p_{a;k,k} = w_k, so p_{a,z;i:k:k} = p_{z;i,k}: for the arctan pair
        # that is the one-level antiderivative route, with no panel cover.
        builds = []
        init = wpoly.PanelChain.__init__

        def counting(chain, *args, **kwargs):
            builds.append(chain)
            init(chain, *args, **kwargs)

        monkeypatch.setattr(wpoly.PanelChain, "__init__", counting)
        h = chain_az_handle(arctan_cheb_gauges(), 0.3, 0, 1, 1)
        for x in (-1.7, 0.05, 2.4):
            want = (math.pi + math.atan(x)) * (math.atan(x) - math.atan(0.3))
            assert abs(h.eval(x) - want) <= 1e-15 * (1.0 + abs(want)), x
        assert not builds
        g = table_clone([0.5, -1.0, 1.0])
        az, t = chain_az_handle(g, 0.7, 0, 2, 2), chain_t_handle(g, 0.7, 0, 2)
        for x in (-1.0, 0.5, 2.0):
            assert az.eval(x) == t.eval(x)

    def test_outside_finiteness_rejected(self):
        with pytest.raises(PreconditionError):
            chain_az_handle(G61, 0.0, 0, 2, 3)  # (2,3) diverges

    def test_unit_closed_form_general(self):
        # (p_a,unit,1): a=0, i=0, k=2, j=3, z=1.
        g = UnitGauge(Interval(0.0, math.inf))
        z, k, j_ = 1.0, 2, 3

        def closed(x):
            tot = (x - 0.0) ** j_
            for gam in range(k):
                tot -= math.comb(j_, gam) * z ** (j_ - gam) * (x - z) ** gam
            return tot / math.factorial(j_)

        for x in (0.5, 1.0, 2.5):
            assert chain_az_handle(g, z, 0, k, j_).eval(x) == pytest.approx(
                closed(x), rel=1e-10, abs=1e-12
            )

    def test_numeric_route_matches(self):
        tg = table_clone([0.0, 0.0, 0.0, -1.0, 2.0, 1.0])
        for j in (4, 5):
            ha = chain_az_handle(G61, 0.0, 0, 2, j)
            hb = chain_az_handle(tg, 0.0, 0, 2, j)
            for x in (-1.0, 0.5, 1.5):
                assert hb.eval(x) == pytest.approx(ha.eval(x), rel=1e-7, abs=1e-10)

    def test_gauged_derivs(self):
        # Derivative levels cross from the z-anchored into the a-anchored
        # chain: s=2 gives p_{a;2,5}/w_2 = e^(2x)/6.
        h = chain_az_handle(G61, 0.0, 0, 2, 5)
        for x in (-0.5, 1.0):
            assert h.gauged_deriv(2, x) == pytest.approx(
                math.exp(2 * x) / 6.0, rel=1e-10
            )
        assert h.gauged_deriv(6, 1.0) == 0.0


class TestFinitenessSet:
    def test_61_row(self):
        fs = finiteness_set(G61, 5)
        assert fs.F_kn(2) == [2, 4, 5]
        assert fs.method == "analytic"

    def test_unit_neginf(self):
        fs = finiteness_set(UnitGauge(R), 5)
        for m in range(6):
            assert fs.column(m) == [m]

    def test_unit_a_in_I(self):
        fs = finiteness_set(UnitGauge(Interval(0.0, 10.0, left_closed=True)), 3)
        assert fs.column(3) == [0, 1, 2, 3]
        assert fs.method == "a in I"

    def test_column_contiguity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            lams = rng.uniform(-1.5, 1.5, size=6)
            fs = finiteness_set(ExponentialGauge(R, lams), 5)
            for m in range(6):
                col = fs.column(m)
                assert col == list(range(fs.j_m(m), m + 1))
                assert m in col

    def test_arctan_probe_takes_w1_as_arrays(self):
        # A count, not a time: the probe reads w_1 through its array entry
        # only, and finds the table the point-by-point entry gives.
        g = arctan_cheb_gauges()
        calls = []

        def w1(x):
            calls.append(x)
            return g.funcs[1](x)

        funcs = [g.funcs[0], w1]
        fast = TableGauge(R, funcs, g.jets, g.antiderivs, g.arrays)
        fs = finiteness_set(fast, 1, force_probe=True)
        assert calls == []
        ref = finiteness_set(TableGauge(R, funcs, g.jets, g.antiderivs), 1,
                             force_probe=True)
        assert calls
        assert fs.method == ref.method == "probe"
        assert fs.table == ref.table == ((True, True), (True,))

    def test_probe_agrees_with_analytic(self):
        fs = finiteness_set(G61, 5)
        fsp = finiteness_set(G61, 5, force_probe=True)
        for j in range(6):
            for m in range(j, 6):
                assert fsp.contains(j, m) == fs.contains(j, m)
        assert fsp.method == "probe"

    def test_power_gauge_criterion(self):
        # w_j = (x-a)^(lam_j - 1) on (0, inf): same suffix-sum criterion.
        g = PowerGauge(Interval(0.0, math.inf), 0.0, [1.0, -0.5, 2.0])
        fs = finiteness_set(g, 2)
        assert fs.contains(1, 2)  # suffix sum 2 > 0
        assert fs.contains(0, 2)  # suffix sums 1.5 and 2, both > 0
        assert not fs.contains(0, 1)  # integrating u^(-1.5) from 0 diverges
        fsp = finiteness_set(g, 2, force_probe=True)
        for j in range(3):
            for m in range(j, 3):
                assert fsp.contains(j, m) == fs.contains(j, m)
        # The probe against the analytic tables on finite open left
        # endpoints: base = a on four intervals, and a base below a.
        rng = np.random.default_rng(9)
        for (a, b), base in [((1.0, 3.0), 1.0), ((1.0, math.inf), 1.0),
                             ((-2.0, 5.0), -2.0), ((100.0, math.inf), 100.0),
                             ((0.0, math.inf), -0.5)]:
            for _ in range(8):
                lams = [float(v) for v in rng.choice(
                    [-1.0, -0.5, 0.5, 1.0, 1.5, 2.0], size=4)]
                g = PowerGauge(Interval(a, b), base, lams)
                fsp = finiteness_set(g, 3, force_probe=True)
                assert fsp.table == finiteness_set(g, 3).table, (a, b, lams)


    def test_cancelling_suffix_sum_follows_the_descent(self):
        # -0.3 + 0.1 + 0.2 sums to 2.8e-17 in floats: the chain's descent
        # counts that rate as 0, and p_(a;1,4) diverges.
        for g in (ExponentialGauge(R, [0, 0, -0.3, 0.1, 0.2]),
                  PowerGauge(Interval(0.0, math.inf), 0.0, [1, 1, -0.3, 0.1, 0.2])):
            fs = finiteness_set(g, 4)
            assert fs.F_kn(1) == [1]
            assert chain_t_handle(g, g.interval.a, 1, 4)._full_evaluator().divergent

    @pytest.mark.parametrize("g, n", [
        (UnitGauge(R), 3),
        (G61, 5),
        (PowerGauge(Interval(0.0, math.inf), 0.0, [1.0, -0.5, 2.0, 0.5]), 3),
        (arctan_cheb_gauges(), 1),
        (table_clone([0.5, -1.0, 1.0, 0.3]), 3),
        (stein_gauges(), 1),
        # W(-inf) is NaN: the probe decides, and the chain is finite.
        (TableGauge(R, [lambda x: 1.0, lambda x: 1.0 / (1.0 + abs(x)) ** 2],
                    antiderivs=[None, lambda x: x / (1.0 + abs(x))]), 1),
        # W = log raises at a = 0: the probe decides, and the chain diverges.
        (TableGauge(Interval(0.0, math.inf), [lambda x: 1.0, lambda x: 1.0 / x],
                    antiderivs=[None, math.log]), 1),
    ], ids=["unit", "exponential", "power", "arctan_cheb", "clone", "stein",
            "nan-at-a", "raises-at-a"])
    def test_table_is_every_handles_divergence(self, g, n):
        fs = finiteness_set(g, n)
        a = g.interval.a
        for m in range(n + 1):
            for j in range(m + 1):
                h = chain_t_handle(g, a, j, m)
                assert fs.contains(j, m) == (not h._full_evaluator().divergent), (j, m)

    def test_one_level_rule_needs_a_number_at_a(self):
        # W(-inf) = -inf/inf is NaN, and log(0) raises: both chains take
        # the probe, which finds the first finite and the second divergent.
        g = TableGauge(R, [lambda x: 1.0, lambda x: (1.0 + x * x) ** -1.5],
                       antiderivs=[None, lambda x: x / math.sqrt(1.0 + x * x)])
        v = chain_t_handle(g, -math.inf, 0, 1).eval(1.0)
        assert math.isfinite(v) and v > 1.0
        g = TableGauge(Interval(0.0, math.inf), [lambda x: 1.0, lambda x: 1.0 / x],
                       antiderivs=[None, math.log])
        assert chain_t_handle(g, 0.0, 0, 1).eval(1.0) == math.inf

    def test_arctan_table_needs_no_probe(self, monkeypatch):
        # W = atan has the number -pi/2 at -inf: the table reads the
        # handles' one-level rule and opens no probe window.
        calls = []
        real = wpoly._probe_left_chain
        monkeypatch.setattr(wpoly, "_probe_left_chain",
                            lambda *a: calls.append(a) or real(*a))
        fs = finiteness_set(arctan_cheb_gauges(), 1)
        assert calls == []
        assert fs.method == "analytic" and fs.table == ((True, True), (True,))

    def test_table_is_the_chains_divergence(self):
        # Decimal exponents whose suffix sums cancel to rounding noise.
        rng = np.random.default_rng(151)
        choices = [-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3, 0.6]
        for case in range(60):
            lams = [float(v) for v in rng.choice(choices, size=6)]
            kind = case % 3
            if kind == 0:
                g = UnitGauge(R if case % 2 else Interval(-1.0, 2.0))
            elif kind == 1:
                g = ExponentialGauge(R if case % 2 else Interval(-1.0, 2.0), lams)
            else:
                base = 0.5 if case % 2 else 0.25
                g = PowerGauge(Interval(0.5, math.inf), base, [v + 1.0 for v in lams])
            fs = finiteness_set(g, 5)
            for m in range(6):
                for j in range(m + 1):
                    h = chain_t_handle(g, g.interval.a, j, m)
                    assert fs.contains(j, m) == (not h._full_evaluator().divergent), (
                        case, lams, j, m)


class TestInterpolate:
    def test_unit_taylor(self):
        p = interpolate(UnitGauge(R), 0.0, (1.0, 2.0, 3.0))
        for x in (-1.0, 0.0, 2.0):
            assert p.eval(x) == pytest.approx(1 + 2 * x + 1.5 * x * x, rel=1e-12)

    def test_zero_coefficients(self):
        p = interpolate(UnitGauge(R), 0.0, (0.0, 0.0, 0.0))
        assert p.eval(1.7) == 0.0

    def test_stein_degree_zero(self):
        from gmono import stein_gauges

        p = interpolate(stein_gauges(), 0.0, (2.5,))
        for x in (-1.0, 0.4):
            assert p.eval(x) == pytest.approx(2.5)  # c0 * w_0 = c0

    def test_derivative_reproduction(self):
        rng = np.random.default_rng(11)
        for g in (UnitGauge(R), G61, arctan_cheb_gauges()):
            kmax = 1 if g.kind == "table" else 3
            c = rng.uniform(-2, 2, size=kmax + 1)
            z = 0.25
            p = interpolate(g, z, c)
            for s, cs in enumerate(c):
                assert p.gauged_deriv(s, z) == pytest.approx(cs, abs=1e-8)

    def test_basis_reconstruction_random(self):
        # Re-expand from gauged derivatives at t and reproduce coefficients.
        rng = np.random.default_rng(5)
        g = G61
        t = 0.6
        coeffs = rng.uniform(0, 2, size=4)
        p = interpolate(g, t, coeffs)
        recovered = [p.gauged_deriv(s, t) for s in range(4)]
        assert np.allclose(recovered, coeffs, atol=1e-8)

    @pytest.mark.parametrize("g, k", [(UnitGauge(R), 3), (G61, 3),
                                      (arctan_cheb_gauges(), 1)],
                             ids=["unit", "exponential", "arctan_cheb"])
    def test_gauged_deriv_is_the_basis_sum(self, g, k):
        # The s-th gauged derivative of sum_l c_l p_{z;0,l} is
        # sum_l c_l p_{z;s,l} / w_s, the l < s terms dropped.
        c, z = [0.75, -1.5, 2.0, 0.5][: k + 1], 0.25
        p = interpolate(g, z, c)
        for s in range(k + 2):
            for x in (-1.3, z, 0.9, 2.4):
                if s == k + 1 and g.kind == "table":
                    continue  # arctan_cheb has no level k + 1
                terms = [cl * chain_t_handle(g, z, s, l).eval(x)
                         for l, cl in enumerate(c) if l >= s]
                want = math.fsum(terms) / g.value(s, x)
                assert p.gauged_deriv(s, x).hex() == want.hex(), (s, x)

    def test_gauged_deriv_outside_the_interval_raises(self):
        g = PowerGauge(Interval(0.0, math.inf), 0.0, [1.0, 0.5, 2.0])
        p = interpolate(g, 1.0, [1.0, 2.0])
        for s in range(3):  # s = 2 is the zero polynomial
            with pytest.raises(DomainError):
                p.gauged_deriv(s, -1.0)


class TestMemoization:
    def test_cache_hit_returns_same(self):
        h = chain_t_handle(G61, 0.0, 0, 5)
        v1 = h.eval(1.3)
        v2 = h.eval(1.3)
        assert v1 == v2

    def test_panel_route_repeat_after_cover_growth(self):
        # Values are not memoized: a far query grows the panel cover, and
        # the grown cover must give the first point's value again.
        h = chain_t_handle(table_clone([0.0, 0.0, 0.0, -1.0, 2.0, 1.0]), 0.0, 0, 5)
        v1 = h.eval(0.7)
        ev = h._full_evaluator()
        before = ev._panel.hi
        h.eval(9.0)
        assert ev._panel.hi > before
        v2 = h.eval(0.7)
        assert abs(v2 - v1) <= 1e-12 * (1.0 + abs(v1))

    def test_concurrent_evaluation(self):
        # Handles are immutable; concurrent reads (which may build the
        # evaluator) must agree with serial evaluation.
        from concurrent.futures import ThreadPoolExecutor

        h = chain_t_handle(G61, 0.0, 0, 5)
        xs = list(np.linspace(-2, 2, 64)) * 4
        serial = [h.eval(x) for x in xs]
        h2 = chain_t_handle(G61, 0.0, 0, 5)
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(h2.eval, xs))
        assert serial == parallel
