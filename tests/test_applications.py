"""Application engines: integral ratio, martingale domination, left-tail
chain, differential inequality emission."""

import math

import numpy as np
import pytest

from gmono import DomainError, ExponentialGauge, Interval, UnitGauge, stein_gauges
from gmono.applications import (
    CHEB_CONSTANT,
    MAX_MC,
    MAX_WALK,
    MartingaleModel,
    RatioQuery,
    StepLaw,
    cheb_minimum_scan,
    cheb_ratio,
    cheb_ratio_quadrature,
    diffineq_system,
    fair_walk,
    left_tail_chain,
    martingale_dominance,
    path_enumeration_pm,
    rho_function,
    tau_function,
)
from gmono.gderiv import ConeSpec, cone_membership
from gmono.intervals import arctan_cheb_gauges
from gmono.measures import PoissonPart

R = Interval(-math.inf, math.inf)


class TestChebRatio:
    def test_rho_rho_exact(self):
        r = cheb_ratio(RatioQuery("rho", "rho"))
        assert abs(r - CHEB_CONSTANT) < 1e-12

    def test_rho_rho_quadrature(self):
        r = cheb_ratio_quadrature(RatioQuery("rho", "rho"))
        assert abs(r - CHEB_CONSTANT) < 1e-8

    def test_two_routes_agree(self):
        for q in (
            RatioQuery("rho", ("tau", 0.5)),
            RatioQuery(("tau", -1.0), ("tau", 2.0)),
        ):
            assert cheb_ratio(q) == pytest.approx(
                cheb_ratio_quadrature(q), rel=1e-8
            )

    def test_quadrature_goes_through_the_cauchy_part(self, monkeypatch):
        # The quadrature route integrates against CauchyPart, one
        # measures._quad call per piece: three integrals, each split at
        # the kink 0.5.
        from gmono import measures

        calls = []
        real = measures._quad

        def counted(*args, **kwargs):
            calls.append(args[1:3])
            return real(*args, **kwargs)

        monkeypatch.setattr(measures, "_quad", counted)
        q = RatioQuery("rho", ("tau", 0.5))
        assert cheb_ratio_quadrature(q) == pytest.approx(cheb_ratio(q), rel=1e-12)
        assert len(calls) == 6

    def test_limits(self):
        assert cheb_ratio(RatioQuery("rho", ("tau", -1e9))) == pytest.approx(
            CHEB_CONSTANT, abs=1e-6
        )
        assert cheb_ratio(RatioQuery("rho", ("tau", 1e9))) == pytest.approx(
            18.0 / 7.0, abs=1e-6
        )
        assert cheb_ratio(
            RatioQuery(("tau", -1e9), ("tau", -1e9))
        ) == pytest.approx(CHEB_CONSTANT, abs=1e-6)

    def test_tau_tau_right_limit_grows(self):
        assert cheb_ratio(RatioQuery(("tau", 50.0), ("tau", 50.0))) > 100.0

    def test_monotone_in_t(self):
        us = np.linspace(-math.pi / 2 + 0.01, math.pi / 2 - 0.01, 33)
        vals = [cheb_ratio(RatioQuery("rho", ("tau", math.tan(u)))) for u in us]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_scale_invariance(self):
        # positive scaling of either argument leaves the ratio fixed
        base = cheb_ratio_quadrature(RatioQuery("rho", ("tau", 0.3)))
        tau = tau_function(0.3)
        scaled = cheb_ratio_quadrature(
            RatioQuery("rho", lambda x: 7.25 * tau.func(x))
        )
        assert scaled == pytest.approx(base, rel=1e-10)

    def test_generators_in_cone(self):
        g = arctan_cheb_gauges()
        cone = ConeSpec(g, 1, 1)
        grid = np.linspace(-30, 30, 101)
        for f in (rho_function(), tau_function(-0.7)):
            rep = cone_membership(f, cone, grid=grid, tol=1e-7, strategy="fd_chain")
            assert rep.member, f.name


class TestChebMinimumScan:
    def test_grid_scan(self):
        ts = [math.tan(u) for u in np.linspace(-math.pi / 2 + 0.01,
                                               math.pi / 2 - 0.01, 33)]
        best, pair, rows = cheb_minimum_scan(ts)
        assert abs(best - CHEB_CONSTANT) < 1e-4
        assert pair == ("rho", "rho")  # rho is the left-limit member
        assert all(b[1] > a[1] for a, b in zip(rows, rows[1:]))

    def test_singleton_grid(self):
        best, pair, rows = cheb_minimum_scan([0.0])
        assert best == pytest.approx(CHEB_CONSTANT, abs=1e-12)
        assert cheb_ratio(RatioQuery("rho", ("tau", 0.0))) > best
        assert cheb_ratio(RatioQuery(("tau", 0.0), ("tau", 0.0))) > best


class TestMartingale:
    def test_fair_walk_exact_value(self):
        model = fair_walk(5)
        # 32-path enumeration: (1/32)(5^5 + 5*3^5 + 10*1^5) = 4350/32
        oracle = path_enumeration_pm(model, 0.0)
        assert oracle == pytest.approx(4350.0 / 32.0, abs=1e-12)
        rep = martingale_dominance(model, [0.0])
        assert rep.rows[0][1] == pytest.approx(oracle, abs=1e-12)
        assert rep.s == pytest.approx(math.sqrt(5.0))

    def test_fair_walk_dominated_on_grid(self):
        rep = martingale_dominance(fair_walk(5), np.linspace(-8, 8, 41))
        assert rep.holds
        assert all(r[3] >= 0 for r in rep.rows)

    @pytest.mark.parametrize("n", [0, -1, MAX_WALK + 1])
    def test_fair_walk_outside_its_range(self, n):
        with pytest.raises(DomainError):
            fair_walk(n)

    @pytest.mark.parametrize("mc", [-5, MAX_MC + 1])
    def test_mc_samples_outside_their_range(self, mc):
        with pytest.raises(DomainError):
            martingale_dominance(fair_walk(4), [0.0], mc_samples=mc)

    def test_degenerate_n0(self):
        model = MartingaleModel(steps=(), mode="martingale")
        rep = martingale_dominance(model, [-1.0, 0.0, 1.0])
        assert rep.s == 0.0
        # normal side degenerates with s = 0; walk pm of S_0 = 0
        assert rep.rows[1][1] == 0.0

    def test_martingale_second_moment_equality_case(self):
        model = fair_walk(6)
        rep = martingale_dominance(model, [0.0])
        assert rep.second_moment_sum == pytest.approx(6.0)
        assert rep.s**2 == pytest.approx(6.0)
        assert rep.holds

    def test_supermartingale_negative_drift(self):
        step = StepLaw((-1.0, 0.5), (0.5, 0.5), 0.75)
        model = MartingaleModel((step,) * 4, mode="supermartingale")
        rep = martingale_dominance(model, np.linspace(-6, 6, 25))
        assert rep.holds

    def test_random_bounded_difference_models(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(1, 9))
            steps = []
            for _ in range(n):
                c = -float(rng.uniform(0.2, 1.5))
                d = float(rng.uniform(0.2, 1.5))
                p = d / (d - c)  # mean zero two-point law
                steps.append(StepLaw((c, d), (p, 1 - p), (d - c) / 2.0))
            model = MartingaleModel(tuple(steps), mode="martingale")
            rep = martingale_dominance(model, np.linspace(-6, 6, 21))
            assert rep.holds

    def test_bounded_difference_violation_rejected(self):
        with pytest.raises(Exception):
            StepLaw((-2.0, 2.0), (0.5, 0.5), 1.0)

    def test_monte_carlo_fallback_is_honest(self):
        model = fair_walk(5)
        rep = martingale_dominance(model, [12.0], mc_samples=20000, seed=5)
        # margin at t = 12 is ~0 on both sides: must refuse "holds"
        assert rep.mc_stderr is not None

    def test_convolution_matches_paths(self):
        rng = np.random.default_rng(3)
        steps = tuple(
            StepLaw((-1.0, float(rng.uniform(0.5, 1.0))), (0.6, 0.4), 1.0)
            for _ in range(5)
        )
        model = MartingaleModel(steps, mode="supermartingale")
        for t in (-1.0, 0.0, 2.0):
            a = martingale_dominance(model, [t]).rows[0][1]
            b = path_enumeration_pm(model, t)
            assert a == pytest.approx(b, abs=1e-12)


class TestMartingaleInputs:
    @pytest.mark.parametrize("kwargs", [
        dict(t_grid=[math.nan]),
        dict(t_grid=[-math.inf, 0.0]),
        dict(t_grid=[0.0], power=-1),
        dict(t_grid=[0.0], power=171),
    ], ids=["nan-point", "minus-inf-point", "negative-power", "power-past-cap"])
    def test_bad_inputs_are_domain_errors(self, kwargs):
        with pytest.raises(DomainError):
            martingale_dominance(fair_walk(4), **kwargs)


class TestLeftTailChain:
    def test_acceptance_configuration(self):
        rep = left_tail_chain(10, m=2.0, s=0.4)
        assert rep.holds
        assert rep.means == pytest.approx((2.0, 2.0, 2.0))
        worst = min(min(r[4], r[5]) for r in rep.rows)
        assert worst >= -1e-9

    def test_poisson_routes_match(self):
        pp = PoissonPart(10.0, scale=0.2)
        for t in np.linspace(-1, 6, 41):
            assert pp.pm_closed_form(float(t), 3) == pytest.approx(
                pp.pm_by_summation(float(t), 3), abs=1e-10, rel=1e-10
            )

    def test_far_tails(self):
        rep = left_tail_chain(10, m=2.0, s=0.4, t_grid=[-50.0, 60.0])
        t_lo = rep.rows[0]
        assert t_lo[1] == 0.0 and t_lo[2] == pytest.approx(0.0, abs=1e-15)
        t_hi = rep.rows[1]
        # leading term (t - m)^3 with matched means and variances
        lead = (60.0 - 2.0) ** 3
        assert t_hi[3] == pytest.approx(lead, rel=0.01)

    def test_per_summand_budgets(self):
        rep = left_tail_chain(
            10, m_i=[0.2] * 10, s_i=[0.04] * 10,
            t_grid=np.linspace(0.0, 4.0, 11),
        )
        assert rep.holds

    def test_constraint_violations(self):
        with pytest.raises(Exception):
            left_tail_chain(10, m=2.0, s=0.1)  # s < m^2/n: infeasible

    @pytest.mark.parametrize("kwargs", [
        dict(n=0, m=2.0, s=0.4),
        dict(n=1001, m=2.0, s=0.4),
        dict(n=10, m=2.0, s=0.4, t_grid=[0.0, math.nan]),
        dict(n=10, m=2.0, s=0.4, t_grid=[math.inf]),
    ], ids=["no-summands", "summands-past-cap", "nan-point", "inf-point"])
    def test_bad_inputs_are_domain_errors(self, kwargs):
        with pytest.raises(DomainError):
            left_tail_chain(**kwargs)

    def test_random_configurations(self):
        rng = np.random.default_rng(9)
        count = 0
        while count < 20:
            n = int(rng.integers(2, 12))
            m = float(rng.uniform(0.5, 4.0))
            s = float(rng.uniform(1.0, 6.0)) * (m * m / n)
            rep = left_tail_chain(
                n, m=m, s=s,
                t_grid=np.linspace(m - 5 * math.sqrt(s), m + 5 * math.sqrt(s), 11),
            )
            worst = min(min(r[4], r[5]) for r in rep.rows)
            assert worst >= -1e-9, (n, m, s)
            count += 1


class TestDiffIneq:
    def test_61_system_verbatim(self):
        g = ExponentialGauge(R, [0, 0, 0, -1, 2, 1])
        sys = diffineq_system(g, 2, 5)
        assert sys.symbolic
        assert sys.inequalities == (
            "f^(2) >= 0",
            "f^(3) >= 0",
            "f^(4) + f^(3) >= 0",
            "f^(5) - f^(3) >= 0",
            "f^(6) - 2*f^(5) - f^(4) + 2*f^(3) >= 0",
        )

    def test_61_k1_includes_first_order(self):
        g = ExponentialGauge(R, [0, 0, 0, -1, 2, 1])
        sys = diffineq_system(g, 1, 5)
        assert sys.inequalities[0] == "f^(1) >= 0"
        assert len(sys.inequalities) == 6

    def test_stein_system(self):
        sys = diffineq_system(stein_gauges(), 1, 1)
        assert sys.inequalities == ("f^(1) >= 0", "f^(2) + (-x)*f^(1) >= 0")

    def test_unit_system(self):
        sys = diffineq_system(UnitGauge(R), 1, 2)
        assert sys.inequalities == ("f^(1) >= 0", "f^(2) >= 0", "f^(3) >= 0")

    def test_generators_listed(self):
        g = ExponentialGauge(R, [0, 0, 0, -1, 2, 1])
        sys = diffineq_system(g, 2, 5)
        gens = "\n".join(sys.generators)
        assert "p_(a,z;0:2:2)" in gens
        assert "p_(a,z;0:2:4)" in gens
        assert "p_(a,z;0:2:5)" in gens
        assert "p+_(t;0,5)" in gens

    def test_numeric_fallback(self):
        sys = diffineq_system(arctan_cheb_gauges(), 1, 1)
        assert not sys.symbolic
        assert "numeric" in sys.inequalities[0]
