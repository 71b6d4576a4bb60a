"""Measures, generalized moments, partial moments, admissibility.

Oracles: brute quadrature/summation for the closed-form partial moments,
direct finite sums for atoms, symmetry identities for reflection.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad as squad

from gmono import (
    DomainError,
    ExponentialGauge,
    Interval,
    PreconditionError,
    UndefinedMomentError,
    UnitGauge,
)
from gmono.dual_cone import check_dominance
from gmono.gderiv import ConeSpec
from gmono.intervals import TableGauge, arctan_cheb_gauges
from gmono.measures import (
    CauchyPart,
    DensityPart,
    MeasureRep,
    NormalPart,
    PoissonPart,
    admissibility,
    central_moment_about,
    gmoment,
    lower_partial_moment,
    measure_from_dict,
    measure_to_dict,
    partial_moment,
    raw_moment,
    reflected,
)
from gmono.wpoly import (
    FULL,
    NEGATIVE,
    POSITIVE,
    chain_az_handle,
    chain_t_handle,
    finiteness_set,
)

R = Interval(-math.inf, math.inf)
GU = UnitGauge(R)


class TestGmoment:
    def test_atom_is_point_evaluation(self):
        nu = MeasureRep(R, atoms=[(0.0, 1.0)])
        p = chain_t_handle(GU, -1.0, 0, 3)
        assert gmoment(nu, p) == pytest.approx(p.eval(0.0))

    def test_normal_second_moment(self):
        # E Z^2/2 = 1/2 for p = p_(0;0,2) = x^2/2.
        nu = MeasureRep(R, continuous=NormalPart(0.0, 1.0))
        p = chain_t_handle(GU, 0.0, 0, 2)
        assert gmoment(nu, p) == pytest.approx(0.5, abs=1e-9)

    def test_cauchy_against_rho(self):
        # substitution oracle gives 7 pi^2/12 for the left-limit generator.
        nu = MeasureRep(R, continuous=CauchyPart())
        rho = lambda x: (math.pi + math.atan(x)) * (math.pi / 2 + math.atan(x))
        assert gmoment(nu, rho) == pytest.approx(7 * math.pi**2 / 12, rel=1e-9)

    def test_undefined_moment(self):
        nu = MeasureRep(R, continuous=CauchyPart())
        with pytest.raises(UndefinedMomentError):
            gmoment(nu, lambda x: x)

    def test_one_sided_infinite(self):
        nu = MeasureRep(R, continuous=CauchyPart())
        assert gmoment(nu, lambda x: abs(x)) == math.inf

    @given(
        st.lists(
            st.tuples(
                st.floats(-5, 5), st.floats(0, 3)
            ),
            min_size=1,
            max_size=5,
        ),
        st.lists(
            st.tuples(st.floats(-5, 5), st.floats(0, 3)),
            min_size=1,
            max_size=5,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_additive_over_mixtures(self, a1, a2):
        nu1 = MeasureRep(R, atoms=a1)
        nu2 = MeasureRep(R, atoms=a2)
        p = chain_t_handle(GU, 0.0, 0, 2)
        lhs = gmoment(nu1.plus(nu2), p)
        rhs = gmoment(nu1, p) + gmoment(nu2, p)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestPartialMoments:
    def test_atom_cases(self):
        nu = MeasureRep(R, atoms=[(1.0, 1.0)])
        assert partial_moment(nu, 0.0, 3) == pytest.approx(1.0)
        nu2 = MeasureRep(R, atoms=[(-1.0, 0.5), (1.0, 0.5)])
        assert partial_moment(nu2, -2.0, 2) == pytest.approx(0.5 * 1 + 0.5 * 9)

    def test_normal_order_one_at_zero(self):
        nu = MeasureRep(R, continuous=NormalPart(0.0, 1.0))
        assert partial_moment(nu, 0.0, 1) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-12
        )

    def test_normal_against_quadrature(self):
        part = NormalPart(0.7, 1.3)
        phi = lambda x: math.exp(-((x - 0.7) ** 2) / (2 * 1.3**2)) / (
            1.3 * math.sqrt(2 * math.pi)
        )
        for t in np.linspace(-3, 4, 8):
            for n in range(6):
                oracle, _ = squad(
                    lambda x: (x - t) ** n * phi(x), t, 0.7 + 14 * 1.3,
                    epsabs=1e-13,
                )
                assert part.pm(float(t), n) == pytest.approx(
                    oracle, rel=1e-9, abs=1e-12
                )

    @pytest.mark.parametrize("c, n, want", [
        # E (Z - c)_+^n to 25 digits: phi(c) n! e^(c^2/4) D_(-n-1)(c) at
        # 40-digit precision (mpmath.pcfd).
        (6.0, 3, 2.203935446348358185748716e-11),
        (6.0, 5, 9.550364347214163125210407e-12),
        (10.0, 3, 4.19843552058853132707025e-26),
        (10.0, 5, 7.589854276131698023747304e-27),
        (20.0, 2, 1.359912914707380877759857e-91),
        (3.0, 5, 0.000171128379868473980687318),
        (2.0, 8, 0.04907056829323998142348189),
        (1.0, 5, 0.2304364391266969595769897),
        (1.5, 1, 0.0293067937626046286073585),
        (0.5, 3, 0.290773484789945118404301),
        (0.0, 3, 0.7978845608028653558798921),
        (-2.0, 5, 142.0089392541498356945937),
        (-6.0, 3, 234.0000000000220393544635),
    ])
    def test_normal_upper_tail_against_reference(self, c, n, want):
        # Far in the upper tail the binomial sum over E[Z^i 1{Z > c}]
        # cancels (9.8e-7 relative at c = 10, n = 5).
        assert NormalPart(0.0, 1.0).pm(c, n) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_normal_upper_tail_survival(self):
        # 1 - Phi(c) cancels to 0 beyond c ~ 8.3; the survival function
        # itself is representable far past that.  References: Q(c) to 17
        # digits (erfc(c/sqrt 2)/2 at 30-digit precision).
        for mean, sd, t, q in [(0.0, 1.0, 8.5, 9.4795348222033184e-18),
                               (0.0, 1.0, 10.0, 7.6198530241605261e-24),
                               (1.0, 2.0, 41.0, 2.7536241186062337e-89)]:
            assert NormalPart(mean, sd).pm(t, 0) == pytest.approx(q, rel=1e-13, abs=0.0)

    def test_poisson_two_routes_agree(self):
        pp = PoissonPart(10.0, scale=0.2)
        for t in np.linspace(-1.0, 6.0, 29):
            for n in range(1, 6):
                a = pp.pm_by_summation(float(t), n)
                b = pp.pm_closed_form(float(t), n)
                assert a == pytest.approx(b, rel=1e-10, abs=1e-10)

    def test_poisson_reflected_routes(self):
        pp = PoissonPart(10.0, scale=-0.2, shift=0.0)
        for t in np.linspace(-6.0, 1.0, 15):
            a = pp.pm_by_summation(float(t), 3)
            b = pp.pm_closed_form(float(t), 3)
            assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_poisson_large_lam(self):
        # exp(-lam) is subnormal at 745 and 0.0 at 800: the pmf sweep starts
        # near the mass, not at k = 0.
        for lam in (745.0, 800.0):
            assert PoissonPart(lam).pm_by_summation(0.0, 0) == pytest.approx(
                1.0, rel=0.0, abs=1e-12)
        pp = PoissonPart(800.0)
        a, b = pp.pm_by_summation(800.0, 1), pp.pm_closed_form(800.0, 1)
        assert a == pytest.approx(b, rel=1e-10)
        assert a == pytest.approx(11.2826, rel=1e-5)

    @pytest.mark.parametrize("lam", [0.5, 6.0, 100.0])
    def test_poisson_pmf_sweep_is_the_plain_recurrence(self, lam):
        p, want = math.exp(-lam), []
        for k in range(int(lam + 12.0 * math.sqrt(lam) + 60.0) + 1):
            want.append((k, p))
            p *= lam / (k + 1)
        assert list(PoissonPart(lam)._pmf_iter()) == want

    def test_survival_convention_n0(self):
        nu = MeasureRep(R, atoms=[(0.0, 0.25)], continuous=NormalPart(0.0, 1.0))
        assert partial_moment(nu, 0.0, 0) == pytest.approx(0.25 + 0.5)

    def test_monotone_and_convex_in_t(self):
        nu = MeasureRep(
            R, atoms=[(-1.0, 0.3)], continuous=NormalPart(0.5, 0.8)
        )
        ts = np.linspace(-4, 4, 33)
        vals = [partial_moment(nu, float(t), 2) for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        for i in range(1, len(ts) - 1):
            assert vals[i] <= 0.5 * (vals[i - 1] + vals[i + 1]) + 1e-10

    def test_total_moment_limit(self):
        nu = MeasureRep(R, atoms=[(-1.0, 0.5), (2.0, 0.5)])
        full = raw_moment(nu, 3) - 3 * (-50.0) * raw_moment(nu, 2)  # not used
        t = -50.0
        pm = partial_moment(nu, t, 3)
        direct = sum(m * (x - t) ** 3 for x, m in nu.atoms)
        assert pm == pytest.approx(direct)

    def test_cauchy_divergent_tail(self):
        nu = MeasureRep(R, continuous=CauchyPart())
        assert partial_moment(nu, 0.0, 1) == math.inf

    def test_density_refuses_unsafe_order(self):
        part = DensityPart(
            pdf=lambda x: 1.0 / (math.pi * (1 + x * x)),
            tail_decay_hint=("polynomial", 2.0),
        )
        with pytest.raises(PreconditionError):
            part.pm(0.0, 2)


def _exp_handles(draw, n: int, g):
    """A random chain_t (any part) or chain_az handle of g's levels 0..n."""
    t = draw(st.floats(-3.0, 3.0))
    kind = draw(st.sampled_from((FULL, POSITIVE, NEGATIVE, "az")))
    if kind == "az":
        k = draw(st.integers(0, n))
        j = draw(st.integers(k, n))
        assume(finiteness_set(g, n).contains(k, j))
        return chain_az_handle(g, t, draw(st.integers(0, k)), k, j)
    j = draw(st.integers(0, n))
    return chain_t_handle(g, t, j, draw(st.integers(j, n)), part=kind)


class TestExactRingMoments:
    """Normal and Poisson parts integrate closed-form chains in x exactly
    (WPolyHandle.x_ring with the part's integrate_ring)."""

    def test_tilted_normal_tie_dominates(self):
        # E e^(5X) for X ~ N(0.3, 1.3^2) against one atom of that mass at 0:
        # the (i) equality row ties exactly.  Quadrature on mean +- 12 sd
        # lost 1.9e-8 of it (the tilted mean is 8.75) and reported "fails".
        g = ExponentialGauge(R, [5.0, 0.0, 0.0])
        closed = math.exp(5 * 0.3 + (5 * 1.3) ** 2 / 2)
        nu1 = MeasureRep(R, continuous=NormalPart(0.3, 1.3))
        nu2 = MeasureRep(R, atoms=[(0.0, closed)])
        rep = check_dominance(nu1, nu2, ConeSpec(g, 1, 1))
        assert rep.verdict == "dominates"
        v = gmoment(nu1, chain_t_handle(g, rep.s, 0, 0))
        assert v == pytest.approx(closed, rel=1e-15, abs=0.0)

    def test_unit_gauge_normal_moments(self):
        # p_(t;0,3)^+ = (x - t)_+^3 / 6 and p_(t;0,3)^- against N(0.7, 1.3^2).
        # The ring is expanded in powers of x, so its rounding is on the
        # scale of its terms, not of a far tail's small value.
        part = NormalPart(0.7, 1.3, 2.0)
        nu = MeasureRep(R, continuous=part)
        for t in (-4.0, 0.2, 6.0):
            up = gmoment(nu, chain_t_handle(GU, t, 0, 3, part=POSITIVE))
            assert up == pytest.approx(part.pm(t, 3) / 6, rel=1e-13, abs=1e-13)
            low = gmoment(nu, chain_t_handle(GU, t, 0, 3, part=NEGATIVE))
            want = -reflected(nu).continuous.pm(-t, 3) / 6
            assert low == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_normal_off_the_whole_line_still_raises(self):
        # The normal support leaves (0, inf): the quadrature path evaluates
        # the chain there and the gauge interval refuses the point.
        g = ExponentialGauge(Interval(0.0, math.inf), [0.5, 1.0])
        h = chain_t_handle(g, 4.0, 0, 1)
        assert h.x_ring() is not None
        with pytest.raises(DomainError, match="point -4.0 outside interval"):
            gmoment(MeasureRep(R, continuous=NormalPart(0.0, 1.0)), h)

    def test_poisson_anchor_on_the_support(self):
        # The chain is exactly 0 at its anchor, a support point here; a
        # bare gauge level (j = m) keeps its value there.
        g = ExponentialGauge(R, [0.5, -1.0, 0.3])
        part = PoissonPart(2.5, 1.0, -1.0)
        for j, m in [(0, 2), (1, 2), (2, 2)]:
            for kind in (FULL, POSITIVE, NEGATIVE):
                h = chain_t_handle(g, 1.0, j, m, part=kind)
                ring = h.x_ring()
                assert (ring.anchor is None) == (j == m)
                want = part.integrate(h.eval)
                got = part.integrate_ring(ring, g.interval)
                assert got == pytest.approx(want, rel=1e-14, abs=1e-300)

    def test_negative_part_anchored_at_minus_inf_is_zero(self):
        g = ExponentialGauge(R, [0.5, 1.0])
        h = chain_t_handle(g, -math.inf, 0, 1, part=NEGATIVE)
        for part in (NormalPart(0.3, 1.1), PoissonPart(2.0, -1.0)):
            assert gmoment(MeasureRep(R, continuous=part), h) == 0.0

    def test_poisson_past_float_range_falls_back(self):
        # e^(20 x) overflows on the sweep's upper support points: the exact
        # route declines without a RuntimeWarning and gmoment signs the
        # divergence as the scalar sweep does.
        g = ExponentialGauge(R, [20.0])
        h = chain_t_handle(g, 0.0, 0, 0)
        part = PoissonPart(3.0)
        assert part.integrate_ring(h.x_ring(), g.interval) is None
        assert gmoment(MeasureRep(R, continuous=part), h) == math.inf

    def test_quadrature_route_values_each_node_once(self):
        # A Cauchy part has no exact route: both sign passes share one
        # value per node, and the result is the two passes' difference.
        nu = MeasureRep(R, continuous=CauchyPart())
        seen = []

        def f(x):
            seen.append(x)
            return math.atan(x) * math.exp(-x * x)

        v = gmoment(nu, f)
        assert len(seen) == len(set(seen))
        pos = nu.continuous.integrate(lambda x: max(f(x), 0.0))
        neg = nu.continuous.integrate(lambda x: max(-f(x), 0.0))
        assert v == pos - neg

    @pytest.mark.parametrize("mean, sd", [(-0.0116, 0.784), (0.01, 0.5)])
    def test_quadrature_breaks_at_z(self, mean, sd):
        # On the unit table clone, p_(a,z;0:1:1) = p_(z;0,1) = x - z changes
        # sign at z = 0; without z as a breakpoint quadrature was off by
        # 3.4e-5 and -4.0e-5 here and reported success.
        g = TableGauge(R, [lambda x: 1.0, lambda x: 1.0])
        h = chain_az_handle(g, 0.0, 0, 1, 1)
        assert h.x_ring() is None
        v = gmoment(MeasureRep(R, continuous=NormalPart(mean, sd)), h)
        assert abs(v - mean) <= 1e-12

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_exact_route_matches_integrate(self, data):
        draw = data.draw
        n = draw(st.integers(0, 3))
        lams = [draw(st.sampled_from((-1.0, -0.5, 0.0, 0.5, 1.0)))
                for _ in range(n + 1)]
        g = ExponentialGauge(R, lams)
        h = _exp_handles(draw, n, g)
        if draw(st.booleans()):
            part = NormalPart(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5, 1.2)),
                              draw(st.floats(0.1, 2.0)))
        else:
            part = PoissonPart(draw(st.floats(0.5, 6.0)),
                               draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(0.5, 1.5)),
                               draw(st.floats(-3.0, 3.0)), draw(st.floats(0.1, 2.0)))
        got = part.integrate_ring(h.x_ring(), g.interval)
        want = part.integrate(h.eval, [h.family[1]])
        assert abs(got - want) <= 1e-9 * (1.0 + abs(got))


class TestReflection:
    def test_atoms(self):
        nu = MeasureRep(R, atoms=[(2.0, 1.0)])
        assert reflected(nu).atoms == ((-2.0, 1.0),)

    def test_normal(self):
        nu = MeasureRep(R, continuous=NormalPart(1.5, 2.0))
        r = reflected(nu)
        assert r.continuous.mean == -1.5 and r.continuous.sd == 2.0

    def test_involution(self):
        nu = MeasureRep(R, atoms=[(2.0, 1.0), (-0.5, 0.25)])
        assert reflected(reflected(nu)).atoms == nu.atoms

    def test_lower_partial_is_reflected_upper(self):
        nu = MeasureRep(R, atoms=[(0.5, 1.0), (-1.0, 2.0)])
        for t in (-2.0, 0.0, 1.0):
            direct = sum(m * max(t - x, 0.0) ** 3 for x, m in nu.atoms)
            assert lower_partial_moment(nu, t, 3) == pytest.approx(direct)

    def test_cauchy_is_symmetric(self):
        nu = MeasureRep(R, continuous=CauchyPart())
        assert reflected(nu).continuous is nu.continuous

    def test_density_lower_partial(self):
        # Uniform on [0, 1]: E (0.5 - X)_+^2 = (1/2)^3 / 3.
        nu = MeasureRep(R, continuous=DensityPart(pdf=lambda x: 1.0,
                                                  support=(0.0, 1.0)))
        assert reflected(nu).continuous.support == (-1.0, 0.0)
        assert lower_partial_moment(nu, 0.5, 2) == pytest.approx(1.0 / 24.0,
                                                                 rel=1e-12)


class TestAdmissibility:
    def test_cauchy_rejected_k2(self):
        nu = MeasureRep(R, continuous=CauchyPart())
        rep = admissibility(nu, ConeSpec(GU, 2, 3))
        assert not rep.admissible
        assert "degree-1" in rep.witness

    def test_normal_accepted(self):
        nu = MeasureRep(R, continuous=NormalPart(0.0, 1.0))
        for n in range(1, 6):
            for k in range(1, n + 1):
                assert admissibility(nu, ConeSpec(GU, k, n)).admissible

    def test_even_k_equals_n_plus_1(self):
        nu = MeasureRep(R, continuous=NormalPart(0.0, 1.0))
        rep = admissibility(nu, ConeSpec(GU, 2, 1))
        assert rep.admissible and rep.case == "even-k-or-a-in-I"

    def test_exceptional_support_reaching_a(self):
        # Mass accumulating at the open left endpoint: the structural check
        # needs a representation whose support actually reaches a (a finite
        # atom list is always bounded away), so use a density on (0, 1).
        iv = Interval(0.0, 1.0)
        nu = MeasureRep(
            iv,
            continuous=DensityPart(
                pdf=lambda x: 0.5 / math.sqrt(x) if 0 < x < 1 else 0.0,
                support=(0.0, 1.0),
            ),
        )
        rep = admissibility(nu, ConeSpec(UnitGauge(iv), 1, 0))
        assert not rep.admissible and rep.case == "exceptional"
        assert "left endpoint" in rep.witness

    def test_exceptional_bounded_away(self):
        iv = Interval(0.0, 1.0)
        nu = MeasureRep(iv, atoms=[(0.5, 1.0)])
        rep = admissibility(nu, ConeSpec(UnitGauge(iv), 1, 0))
        assert rep.admissible and rep.case == "exceptional"

    def test_arctan_gauges_cauchy_admissible(self):
        # Bounded generators: even the Cauchy law is admissible for k=n=1.
        nu = MeasureRep(R, continuous=CauchyPart())
        rep = admissibility(nu, ConeSpec(arctan_cheb_gauges(), 1, 1))
        assert rep.admissible


class TestMomentsHelpers:
    def test_central_moment_binomial_expansion(self):
        nu = MeasureRep(R, atoms=[(1.0, 0.5), (3.0, 0.5)])
        direct = sum(m * (x - 2.0) ** 3 for x, m in nu.atoms)
        assert central_moment_about(nu, 2.0, 3) == pytest.approx(direct)

    def test_normal_raw_moments(self):
        part = NormalPart(0.0, 1.0)
        assert part.raw_moment(4) == pytest.approx(3.0)
        assert part.raw_moment(6) == pytest.approx(15.0)

    def test_poisson_raw_moments(self):
        pp = PoissonPart(3.0)
        # E N = 3, E N^2 = 3 + 9 = 12, E N^3 = lam(1 + 3 lam + lam^2) ...
        assert pp.raw_moment(1) == pytest.approx(3.0)
        assert pp.raw_moment(2) == pytest.approx(12.0)
        oracle = sum(
            k**3 * math.exp(-3.0) * 3.0**k / math.factorial(k) for k in range(80)
        )
        assert pp.raw_moment(3) == pytest.approx(oracle, rel=1e-12)

    def test_cauchy_raw_moments(self):
        nu = MeasureRep(R, continuous=CauchyPart(weight=0.4))
        assert raw_moment(nu, 0) == 0.4
        with pytest.raises(UndefinedMomentError):
            raw_moment(nu, 1)

    def test_density_raw_moments(self):
        nu = MeasureRep(R, continuous=DensityPart(pdf=lambda x: 1.0,
                                                  support=(0.0, 1.0)))
        for r in range(4):
            assert raw_moment(nu, r) == pytest.approx(1.0 / (r + 1), rel=1e-12)


class TestSerialization:
    def test_round_trip(self):
        nu = MeasureRep(
            R, atoms=[(0.0, 1.0), (1.5, 0.25)], continuous=NormalPart(1.0, 2.0)
        )
        d = measure_to_dict(nu)
        nu2 = measure_from_dict(d)
        assert nu2.atoms == nu.atoms
        assert nu2.continuous == nu.continuous

    def test_poisson_round_trip(self):
        nu = MeasureRep(R, continuous=PoissonPart(10.0, scale=0.2, shift=-1.0))
        assert measure_from_dict(measure_to_dict(nu)).continuous == nu.continuous
