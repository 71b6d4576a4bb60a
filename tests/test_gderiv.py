"""Gauged derivative chains, cone membership, mixtures, comparison,
invariance."""

import math

import numpy as np
import pytest

from gmono import (
    ExponentialGauge,
    Interval,
    PowerGauge,
    PreconditionError,
    TableGauge,
    UnitGauge,
    arctan_cheb_gauges,
    stein_gauges,
    tan_map,
)
from gmono.gderiv import (
    ConeSpec,
    cone_membership,
    compare_from_point,
    fn_exp,
    fn_exppoly_terms,
    fn_from_callable,
    fn_poly,
    gauged_derivative,
    invariance_check,
    mixture_function,
    rem_left_example,
)
from gmono import wpoly
from gmono.measures import MeasureRep, NormalPart
from gmono.wpoly import POSITIVE, chain_t_handle

R = Interval(-math.inf, math.inf)
GU = UnitGauge(R)
G61 = ExponentialGauge(R, [0.0, 0.0, 0.0, -1.0, 2.0, 1.0])


class TestGaugedDerivative:
    def test_unit_recovers_ordinary(self):
        f = fn_exp()
        assert gauged_derivative(f, GU, 4, 0.0) == pytest.approx(1.0)
        assert gauged_derivative(f, GU, 2, 1.0) == pytest.approx(math.e)

    def test_stein_composition(self):
        # E^2 f = f'' - x f' for the OU gauge triple.
        f = fn_poly([0.0, 0.0, 1.0])
        assert gauged_derivative(f, stein_gauges(), 2, 1.0) == pytest.approx(0.0)
        for x in (-1.0, 0.5, 2.0):
            assert gauged_derivative(f, stein_gauges(), 2, x) == pytest.approx(
                2.0 - 2.0 * x * x
            )

    def test_61_chain(self):
        # e^(-2x)(f^(5) - f^(3)) at 0 for f = e^(2x): 32 - 8 = 24.
        f = fn_exp(rate=2.0)
        assert gauged_derivative(f, G61, 5, 0.0) == pytest.approx(24.0)
        # and the displayed j=4 form e^(-x)(f'''' + f''')
        assert gauged_derivative(f, G61, 4, 0.3) == pytest.approx(
            math.exp(-0.3) * (16 + 8) * math.exp(0.6)
        )

    def test_fd_matches_analytic(self):
        f = fn_exp()
        for j in range(3):
            a = gauged_derivative(f, GU, j, 0.4, "analytic_chain")
            b = gauged_derivative(f, GU, j, 0.4, "fd_chain", fd_step=1e-4)
            assert b == pytest.approx(a, rel=1e-6)

    @pytest.mark.parametrize("g, levels, xs", [
        (arctan_cheb_gauges(), 2, (-1.7, 0.4, 2.5)),
        (PowerGauge(Interval(0.0, math.inf), 0.0, [1.5, 2.0, 0.5]), 3,
         (0.3, 1.0, 2.5)),
    ], ids=["arctan_cheb", "power"])
    def test_gauge_jets_match_fd(self, g, levels, xs):
        # The gauges' own jets against differences of their values.
        f = fn_exp(0.3)
        for j in range(levels):
            for x in xs:
                a = gauged_derivative(f, g, j, x, "analytic_chain")
                b = gauged_derivative(f, g, j, x, "fd_chain", fd_step=1e-3)
                assert b == pytest.approx(a, rel=1e-6), (j, x)

    def test_fd_convergence_order(self):
        # One Richardson step: halving h must cut the error by >= 2^1.8.
        f = fn_exp()
        for j in (2, 3):
            exact = math.exp(0.5)
            e1 = abs(
                gauged_derivative(f, GU, j, 0.5, "fd_chain", fd_step=0.2) - exact
            )
            e2 = abs(
                gauged_derivative(f, GU, j, 0.5, "fd_chain", fd_step=0.1) - exact
            )
            order = math.log2(e1 / e2)
            assert order >= 1.8

    def test_supplied_strategy(self):
        f = fn_from_callable(lambda x: x)
        f2 = f.__class__(
            interval=f.interval,
            func=f.func,
            gauged_data=lambda j, x: [x, 1.0, 0.0][j],
        )
        assert gauged_derivative(f2, GU, 1, 5.0) == 1.0

    def test_insufficient_order(self):
        f = rem_left_example(1, 2)  # derivatives up to order n+1 = 3
        with pytest.raises(PreconditionError):
            gauged_derivative(f, GU, 5, 0.5, "analytic_chain")


class TestConeMembership:
    def test_convex_function(self):
        rep = cone_membership(
            fn_poly([0.0, 0.0, 1.0]), ConeSpec(GU, 2, 2), np.linspace(-3, 3, 65)
        )
        assert rep.member

    def test_decreasing_function_fails(self):
        rep = cone_membership(
            fn_poly([0.0, -1.0]), ConeSpec(GU, 1, 1), np.linspace(-3, 3, 65)
        )
        assert not rep.member
        j, x, margin = rep.violations[0]
        assert j == 0 and margin < 0

    def test_rem_left_example_member(self):
        # Oracle: the displayed derivative formula is positive for orders
        # in [k, n+1]; check the signs directly, then the membership API.
        f = rem_left_example(1, 2)
        for j in (1, 2, 3):
            for x in np.linspace(-4, 4, 33):
                d = f.jet(float(x), j + 1)[j] * math.factorial(j)
                assert d > 0
        rep = cone_membership(f, ConeSpec(GU, 1, 2), np.linspace(-4, 4, 129))
        assert rep.member

    def test_exponential_gauge_member(self):
        # p_(a,z;0:k:j) built functions are cone members.
        f = fn_exppoly_terms(
            [
                {"coeff": 1 / 24, "degree": 0, "rate": 2.0},
                {"coeff": -1 / 24, "degree": 0, "rate": 0.0},
                {"coeff": -1 / 12, "degree": 1, "rate": 0.0},
            ]
        )  # (e^(2x) - 1 - 2x)/24
        rep = cone_membership(f, ConeSpec(G61, 2, 5), np.linspace(-2, 2, 65))
        assert rep.member

    def test_interpolants_in_top_cone(self):
        # Any degree <= n interpolant has a constant n-th gauged derivative,
        # hence lies in the k = n+1 cone.
        from gmono.wpoly import interpolate
        from gmono.gderiv import fn_from_wpoly

        rng = np.random.default_rng(8)
        for g in (GU, G61):
            c = [float(v) for v in rng.normal(size=4)]
            p = fn_from_wpoly(interpolate(g, 0.3, c))
            rep = cone_membership(
                p, ConeSpec(g, 4, 3), np.linspace(-3, 3, 65)
            )
            assert rep.member

    def test_positive_parts_in_k1_cone(self):
        from gmono.wpoly import POSITIVE, chain_t_handle
        from gmono.gderiv import fn_from_wpoly

        for g in (GU, G61):
            for t in (-1.0, 0.5):
                h = fn_from_wpoly(chain_t_handle(g, t, 0, 3, part=POSITIVE))
                rep = cone_membership(
                    h, ConeSpec(g, 1, 3), np.linspace(-3, 3, 65)
                )
                assert rep.member

    def test_bounding_polynomial_sign_pattern(self):
        # The degree-(k-1) interpolant of a cone member's data at z bounds
        # it with the parity-of-k sign pattern.
        from gmono.wpoly import interpolate

        f = fn_exp()
        z = 0.5
        for k in (1, 2, 3):
            c = [gauged_derivative(f, GU, i, z) for i in range(k)]
            p = interpolate(GU, z, c)
            for x in np.linspace(-3, 3, 25):
                d = f.func(float(x)) - p.eval(float(x))
                if x >= z:
                    assert d >= -1e-10
                else:
                    assert (-1.0) ** k * d >= -1e-10

    def test_tolerance_absorbs_noise(self):
        rng = np.random.default_rng(0)
        noise = 1e-12

        def wobbling(x):
            return x + noise * math.sin(1e6 * x)

        rep = cone_membership(
            fn_from_callable(wobbling),
            ConeSpec(GU, 1, 0),
            np.linspace(-1, 1, 65),
            tol=1e-8,
        )
        assert rep.member


class TestMixtures:
    def test_single_atom(self):
        mu = MeasureRep(R, atoms=[(0.0, 1.0)])
        h = mixture_function(mu, GU, 0, 2)
        for x in (-1.0, 0.5, 2.0):
            assert h.func(x) == pytest.approx(max(x, 0.0) ** 2 / 2.0)

    def test_two_atoms_order_one(self):
        mu = MeasureRep(R, atoms=[(-1.0, 1.0), (1.0, 2.0)])
        h = mixture_function(mu, GU, 0, 1)
        for x in (-2.0, 0.0, 3.0):
            expected = max(x + 1, 0.0) + 2.0 * max(x - 1, 0.0)
            assert h.func(x) == pytest.approx(expected)

    def test_mixture_in_every_cone(self):
        # Mixtures of positive parts land in the cone for every k <= n+1.
        rng = np.random.default_rng(4)
        mu = MeasureRep(
            R, atoms=[(float(rng.uniform(-2, 2)), float(rng.uniform(0, 1)))
                      for _ in range(5)]
        )
        for g in (GU, G61):
            h = mixture_function(mu, g, 0, 3)
            for k in range(1, 5):
                rep = cone_membership(h, ConeSpec(g, k, 3), np.linspace(-4, 4, 65))
                assert rep.member, (g.kind, k)

    def test_derivative_chain_identity(self):
        # D_i h_i = h_{i+1}: finite differences of h_i/w_i against the
        # mixture one level up.
        mu = MeasureRep(R, atoms=[(-0.5, 0.7), (0.8, 0.3)])
        for g in (GU, G61):
            h0 = mixture_function(mu, g, 0, 3)
            h1 = mixture_function(mu, g, 1, 3)
            for x in (-1.3, 0.1, 1.9):
                step = 1e-5
                fd = (
                    h0.func(x + step) / g.value(0, x + step)
                    - h0.func(x - step) / g.value(0, x - step)
                ) / (2 * step)
                assert fd == pytest.approx(h1.func(x), rel=1e-5, abs=1e-6)

    def test_h_over_w_nondecreasing(self):
        mu = MeasureRep(R, atoms=[(-1.0, 0.4), (0.5, 0.6)])
        for g in (GU, G61):
            h = mixture_function(mu, g, 1, 3)
            grid = np.linspace(-3, 3, 41)
            vals = [h.func(float(x)) / g.value(1, float(x)) for x in grid]
            assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_right_endpoint_mass_rejected(self):
        iv = Interval(0.0, 1.0, left_closed=True, right_closed=True)
        mu = MeasureRep(iv, atoms=[(1.0, 1.0)])
        with pytest.raises(PreconditionError):
            mixture_function(mu, UnitGauge(iv), 0, 2)

    @pytest.mark.parametrize("g, n", [
        (arctan_cheb_gauges(), 1),
        (TableGauge(R, [(lambda x, l=l: math.exp(l * x)) for l in (0.5, -1.0, 1.0)]), 2),
    ], ids=["arctan_cheb", "clone"])
    def test_one_pass_per_value(self, monkeypatch, g, n):
        # Under a table gauge a value takes all its atoms in one array
        # call: one one-level pass or one swept cover, not one per atom.
        calls = []
        for name in ("_one_level_cells", "_swept_chain"):
            real = getattr(wpoly, name)
            monkeypatch.setattr(wpoly, name,
                                lambda *a, real=real: calls.append(a) or real(*a))
        atoms = [(-1.0, 0.5), (0.25, 0.3), (1.5, 0.2)]
        h = mixture_function(MeasureRep(R, atoms=atoms), g, 0, n)
        for x in (-0.5, 0.7, 2.0):
            calls.clear()
            v = h.func(x)
            assert len(calls) == 1
            want = sum(mass * chain_t_handle(g, t, 0, n, part=POSITIVE).eval(x)
                       for t, mass in atoms)
            assert v == pytest.approx(want, rel=1e-10, abs=1e-14), x

    def test_top_derivative_is_the_distribution_function(self):
        # Order n + 1 of h_(0;mu) is mu((-inf, x]), atoms and normal part.
        mu = MeasureRep(R, atoms=[(-1.0, 0.25), (0.5, 0.5)],
                        continuous=NormalPart(0.0, 1.0, 0.25))
        h = mixture_function(mu, GU, 0, 2)
        for x in (-2.0, -1.0, 0.0, 0.7):
            want = (0.25 * (x >= -1.0) + 0.5 * (x >= 0.5)
                    + 0.25 * 0.5 * math.erfc(-x / math.sqrt(2.0)))
            assert h.gauged_data(3, x) == pytest.approx(want, rel=1e-12), x


class TestCompareFromPoint:
    def test_even_k(self):
        rep = compare_from_point(
            fn_poly([0.0, 0.0, 1.0]), fn_poly([0.0]), ConeSpec(GU, 2, 2), 0.0,
            np.linspace(-3, 3, 33),
        )
        assert rep.holds and rep.right_margin >= 0 and rep.left_margin >= 0

    def test_odd_k_sign_flip(self):
        rep = compare_from_point(
            fn_poly([0.0, 0.0, 0.0, 1.0]), fn_poly([0.0]), ConeSpec(GU, 3, 3), 0.0,
            np.linspace(-3, 3, 33),
        )
        assert rep.holds  # x^3 >= 0 right of 0, and -(x^3) >= 0 left of 0

    def test_random_integrated_pair(self):
        # Build f by integrating a nonnegative k-th derivative from shared
        # initial data; the conclusion then holds by construction.
        base = fn_poly([1.0, 2.0])  # shares value/slope with f below
        f = fn_poly([1.0, 2.0, 0.0, 0.5])  # f'' = 3x: not nonneg... use x^2
        f = fn_poly([1.0, 2.0, 0.25])  # f'' = 0.5 >= 0 = g''
        rep = compare_from_point(
            f, base, ConeSpec(GU, 2, 2), 0.0, np.linspace(-2, 2, 21)
        )
        assert rep.holds

    def test_precondition_violation_raises(self):
        with pytest.raises(PreconditionError):
            compare_from_point(
                fn_poly([1.0]), fn_poly([0.0]), ConeSpec(GU, 2, 2), 0.0,
                np.linspace(-1, 1, 11),
            )


class TestInvariance:
    def test_identity_map(self):
        from gmono import identity_map

        res = invariance_check(
            fn_poly([0.0, 0.0, 1.0]), GU, identity_map(R), 2,
            np.linspace(-1, 1, 11),
        )
        assert res < 1e-10

    def test_tan_map_x_squared(self):
        res = invariance_check(
            fn_poly([0.0, 0.0, 1.0]), GU, tan_map(), 1, np.linspace(-1.2, 1.2, 32)
        )
        assert res < 1e-6

    def test_tan_map_exp_orders(self):
        for j in (1, 2, 3):
            res = invariance_check(
                fn_exp(), GU, tan_map(), j, np.linspace(-1.2, 1.2, 32)
            )
            assert res < 1e-5, j

    def test_affine_map_exp(self):
        from gmono import affine_map

        res = invariance_check(
            fn_exp(), GU, affine_map(R, 2.0, 1.0), 2, np.linspace(-2, 2, 17)
        )
        assert res < 1e-6

    def test_nonunit_gauges_through_tan(self):
        res = invariance_check(
            fn_exp(), ExponentialGauge(R, [0.5, -0.5]), tan_map(), 1,
            np.linspace(-1.0, 1.0, 17),
        )
        assert res < 1e-6
