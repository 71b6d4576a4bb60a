"""w-polynomial chains, finiteness sets, interpolation.

Oracles: unit-gauge closed forms, the exponential-gauge closed form, direct
adaptive quadrature of the defining recursion (scipy), and the independent
Chebyshev/panel numeric route through a table-gauge clone.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad as squad

from gmono import (
    DomainError,
    ExponentialGauge,
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
    wpoly_eval,
    wpoly_eval_az,
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

        fam = chain_t_two_arg(G61, 0, 5)
        for t, x in [(0.0, 1.0), (-1.0, 2.0), (0.5, 0.7), (2.0, -3.0)]:
            assert fam(t, x) == pytest.approx(display(t, x), rel=1e-10, abs=1e-14)

    def test_two_arg_matches_handles(self):
        fam = chain_t_two_arg(G61, 0, 5)
        for t in (-1.0, 0.3):
            h = chain_t_handle(G61, t, 0, 5)
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
            pc = wpoly.PanelChain(
                g, [0], wpoly._panel_breaks(t - 3.0, t + 2.0, None),
                lambda xs: g.values(1, xs), anchor=t,
            )
            assert pc.eval(t) == 0.0
            for x in (t - 2.5, t - 1e-3, t + 1e-3, t + 1.5):
                want = (math.pi + math.atan(x)) * (math.atan(x) - math.atan(t))
                assert pc.eval(x) == pytest.approx(want, rel=1e-10, abs=1e-15)

    def test_alternating_queries_grow_one_cover(self, monkeypatch):
        # Queries on alternating sides of the anchor grow the working
        # interval instead of replacing it around each query.
        builds = []

        class Counting(wpoly.PanelChain):
            def __init__(self, *args, **kwargs):
                builds.append(kwargs.get("anchor"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(wpoly, "PanelChain", Counting)
        xs = [s * float(v) for v in np.linspace(3.0, 0.5, 10) for s in (1.0, -1.0)]
        alternating = chain_t_handle(table_clone([1.0, 1.0, 1.0]), 0.0, 0, 2)
        got = {x: alternating.eval(x) for x in xs}
        assert len(builds) <= 2
        ascending = chain_t_handle(table_clone([1.0, 1.0, 1.0]), 0.0, 0, 2)
        for x in sorted(xs):
            want = ascending.eval(x)
            assert abs(got[x] - want) <= 1e-12 * (1.0 + abs(want)), x


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
        val = wpoly_eval_az(0.0, 0, 2, 2, UnitGauge(R), 3.0)
        assert val == pytest.approx(4.5, rel=1e-12)

    def test_61_values(self):
        # (x^2/2, (e^x-1-x)/2, (e^(2x)-1-2x)/24) at j in {2, 4, 5}.
        x = 1.0
        assert wpoly_eval_az(0.0, 0, 2, 2, G61, x) == pytest.approx(0.5, rel=1e-10)
        assert wpoly_eval_az(0.0, 0, 2, 4, G61, x) == pytest.approx(
            (math.e - 2.0) / 2.0, rel=1e-10
        )
        assert wpoly_eval_az(0.0, 0, 2, 5, G61, x) == pytest.approx(
            (math.exp(2.0) - 3.0) / 24.0, rel=1e-10
        )

    def test_unit_finite_a(self):
        # a=0, i=0, k=1, j=2, z=1: p(x) = (x^2 - z^2)/2; at x=2 -> 3/2.
        g = UnitGauge(Interval(0.0, math.inf))
        got = wpoly_eval_az(1.0, 0, 1, 2, g, 2.0)
        assert got == pytest.approx(1.5, rel=1e-12)
        # quadrature oracle: integrate p_{0;1,2}(u) = u from z to x.
        oracle, _ = squad(lambda u: u, 1.0, 2.0)
        assert got == pytest.approx(oracle, rel=1e-12)

    def test_vanishes_at_z(self):
        for j in (2, 4, 5):
            assert wpoly_eval_az(0.0, 0, 2, j, G61, 0.0) == 0.0
        # Exactly zero, not the rounding residue of the closed form there.
        g = ExponentialGauge(Interval(0.0, math.inf), [0.5, -1.0, 1.0, 0.3])
        assert wpoly_eval_az(1.8, 0, 1, 2, g, 1.8) == 0.0

    def test_power_log_term_is_exact(self):
        # w_1 = 1/x: integrating it from z gives ln(x/z), a polynomial term
        # in u = log(x - base).
        g = PowerGauge(Interval(1.0, 5.0), 0.0, [1.0, 0.0, 2.0])
        h = chain_az_handle(g, 2.8, 0, 1, 1)
        assert h.eval(1.2) == pytest.approx(math.log(1.2 / 2.8), abs=1e-10)

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
            assert wpoly_eval_az(z, 0, k, j_, g, x) == pytest.approx(
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


class TestMemoization:
    def test_cache_hit_returns_same(self):
        h = chain_t_handle(G61, 0.0, 0, 5)
        v1 = h.eval(1.3)
        v2 = h.eval(1.3)
        assert v1 == v2

    def test_panel_route_repeat_after_cover_growth(self):
        # Values are not memoized: a far query grows the panel cover, and
        # the rebuilt cover must give the first point's value again.
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
