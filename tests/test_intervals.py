"""Interval, gauge and change-of-scale behavior."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gmono import (
    DomainError,
    ExponentialGauge,
    GaugeError,
    Interval,
    PowerGauge,
    TableGauge,
    UnitGauge,
    arctan_cheb_gauges,
    default_grid,
    gauge_eval,
    gauge_from_dict,
    identity_map,
    shift,
    stein_gauges,
    tan_map,
    transport_gauges,
)
from gmono.intervals import gauge_to_dict

R = Interval(-math.inf, math.inf)


class TestInterval:
    def test_order_required(self):
        with pytest.raises(DomainError):
            Interval(1.0, 1.0)
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)

    def test_closed_needs_finite(self):
        with pytest.raises(DomainError):
            Interval(-math.inf, 0.0, left_closed=True)
        with pytest.raises(DomainError):
            Interval(0.0, math.inf, right_closed=True)

    def test_membership(self):
        iv = Interval(0.0, 1.0, left_closed=True)
        assert iv.contains(0.0)
        assert not iv.contains(1.0)
        assert iv.contains(0.5)
        assert not iv.contains(-0.1)

    def test_default_grid_interior(self):
        iv = Interval(0.0, 1.0)
        g = default_grid(iv, 16)
        assert len(g) == 16
        assert g.min() > 0.0 and g.max() < 1.0

    def test_default_grid_infinite(self):
        g = default_grid(R, 64)
        assert len(g) == 64
        assert np.all(np.isfinite(g))
        assert g[0] < -15 and g[-1] > 15


class TestGaugeEval:
    def test_unit(self):
        assert gauge_eval(UnitGauge(R), 3, 7.2) == 1.0

    def test_exponential_spec_value(self):
        g = ExponentialGauge(R, [0, 0, 0, -1, 2, 1])
        assert gauge_eval(g, 3, 0.0) == 1.0
        assert gauge_eval(g, 4, 0.5) == pytest.approx(math.e)

    def test_power_spec_value(self):
        g = PowerGauge(Interval(0.0, math.inf), 0.0, [2.0])
        assert gauge_eval(g, 0, 3.0) == pytest.approx(3.0)

    def test_outside_interval(self):
        g = UnitGauge(Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            gauge_eval(g, 0, 2.0)

    def test_bad_table_value(self):
        g = TableGauge(R, [lambda x: -1.0])
        with pytest.raises(GaugeError):
            gauge_eval(g, 0, 0.0)

    def test_positive_on_compact_grid(self):
        for g in (
            ExponentialGauge(R, [0.5, -2.0, 1.0]),
            arctan_cheb_gauges(),
            stein_gauges(),
        ):
            for j in range(2):
                for x in np.linspace(-5, 5, 41):
                    v = gauge_eval(g, j, float(x))
                    assert math.isfinite(v) and v > 0


class TestGaugeValues:
    XS = np.linspace(-6.0, 6.0, 97)

    @staticmethod
    def scalar(g, j, xs):
        return np.array([g.value_lenient(j, float(x)) for x in xs])

    def test_table_bit_identical(self):
        for g in (arctan_cheb_gauges(), stein_gauges(),
                  TableGauge(R, [lambda x: math.exp(1.5 * x)])):
            for j in range(len(g.funcs)):
                assert np.array_equal(g.values(j, self.XS), self.scalar(g, j, self.XS))

    def test_closed_forms_within_two_ulp(self):
        cases = [
            (UnitGauge(R), self.XS),
            (ExponentialGauge(R, [0.0, 1.0, -2.5, 40.0]), self.XS),
            (PowerGauge(Interval(0.0, math.inf), 0.0, [0.5, 2.5, -1.3]),
             np.linspace(1e-6, 50.0, 97)),
        ]
        for g, xs in cases:
            for j in range(4):
                got, want = g.values(j, xs), self.scalar(g, j, xs)
                assert np.all(np.abs(got - want) <= 2 * np.spacing(want)), (g, j)

    @pytest.mark.parametrize("g, x, error", [
        (TableGauge(R, [lambda x: -1.0]), 0.0, GaugeError),
        (TableGauge(R, [lambda x: math.nan]), 0.0, GaugeError),
        (TableGauge(R, [lambda x: math.inf]), 0.0, GaugeError),
        (ExponentialGauge(R, [2.0]), 400.0, OverflowError),
        (PowerGauge(Interval(0.0, math.inf), 0.0, [-400.0]), 1e-2, OverflowError),
        (PowerGauge(Interval(0.0, math.inf), 0.0, [2.0]), 0.0, DomainError),
        (PowerGauge(Interval(0.0, math.inf), 0.0, [2.0]), -1.0, DomainError),
    ], ids=["table-negative", "table-nan", "table-inf", "exp-overflow",
            "power-overflow", "power-at-base", "power-below-base"])
    def test_same_error_as_scalar(self, g, x, error):
        with pytest.raises(error):
            g.value_lenient(0, x)
        with pytest.raises(error):
            g.values(0, [1.0, x])

    def test_underflow_is_zero(self):
        g = ExponentialGauge(R, [1.0])
        assert g.values(0, [-800.0])[0] == 0.0 == g.value_lenient(0, -800.0)

    # Wide draws: numpy's arctan and exp differ from libm's in the last bit
    # at about 0.1% and 4% of such points.
    WIDE = np.random.default_rng(31).uniform(-1e4, 1e4, 20000)
    NEAR = np.random.default_rng(32).uniform(-37.0, 37.0, 20000)

    def test_arctan_cheb_array_entries_bit_identical(self):
        g = arctan_cheb_gauges()
        assert all(f is not None for f in g.arrays)
        for xs in (self.WIDE, self.NEAR):
            for j in range(2):
                assert np.array_equal(g.values(j, xs), self.scalar(g, j, xs))

    def test_stein_array_entries(self):
        # Bit for bit against the scalar path, and within 2 ulp of the
        # same formulas under libm's exp.
        g = stein_gauges()
        c = 1.0 / math.sqrt(2.0 * math.pi)
        libm = [lambda x: 1.0, lambda x: math.exp(x * x / 2.0) / c,
                lambda x: c * math.exp(-x * x / 2.0)]
        for j in range(3):
            got = g.values(j, self.NEAR)
            assert np.array_equal(got, self.scalar(g, j, self.NEAR))
            want = np.array([libm[j](x) for x in self.NEAR.tolist()])
            assert np.all(np.abs(got - want) <= 2 * np.spacing(want)), j

    @pytest.mark.parametrize("x", [37.5, -40.0, 1e3])
    def test_stein_inverse_density_out_of_float_range(self, x):
        # 1/phi is +inf once x^2/2 > 700: both paths raise GaugeError there.
        g = stein_gauges()
        with pytest.raises(GaugeError):
            g.value_lenient(1, x)
        with pytest.raises(GaugeError):
            g.values(1, [0.0, x])
        assert math.isfinite(g.values(1, [37.4])[0])
        assert g.values(2, [x])[0] == g.value_lenient(2, x)

    def test_shift_keeps_array_entries(self):
        for g in (arctan_cheb_gauges(), stein_gauges()):
            s = g.shifted(1)
            assert s.arrays == g.arrays[1:]
            assert np.array_equal(s.values(0, self.XS), g.values(1, self.XS))

    def test_user_closure_sees_python_floats_one_at_a_time(self):
        seen = []

        def w(x):
            seen.append(x)
            return 1.0 + x * x

        g = TableGauge(R, [w])
        assert g.arrays == (None,)
        got = g.values(0, self.XS)
        assert [type(x) for x in seen] == [float] * len(self.XS)
        assert np.array_equal(got, 1.0 + self.XS * self.XS)


class TestShift:
    def test_unit_shift(self):
        g = UnitGauge(R)
        assert shift(g, 5) is g

    def test_exponential_shift(self):
        g = ExponentialGauge(R, [0, 0, 0, -1, 2, 1])
        s = shift(g, 2)
        assert s.lams == (0.0, -1.0, 2.0, 1.0)
        assert shift(g, 0) is g

    @given(st.integers(0, 4), st.integers(0, 4))
    def test_shift_composition(self, i, j):
        g = ExponentialGauge(R, [0.3, -0.7, 1.1, 0.0, 2.0])
        left = shift(shift(g, i), j)
        right = shift(g, i + j)
        for idx in range(3):
            for x in (-1.0, 0.25, 2.0):
                assert left.value(idx, x) == pytest.approx(right.value(idx, x))


class TestTransport:
    def test_tan_transports_unit(self):
        # Unit gauges through psi = tan: wt_0 = 1, wt_j = sec^2.
        gt = transport_gauges(UnitGauge(R), tan_map(), n_entries=4)
        for x in np.linspace(-1.2, 1.2, 9):
            assert gt.value(0, float(x)) == pytest.approx(1.0)
            assert gt.value(2, float(x)) == pytest.approx(1.0 / math.cos(x) ** 2)

    def test_identity_no_change(self):
        g = ExponentialGauge(R, [1.0, -0.5])
        gt = transport_gauges(g, identity_map(R), n_entries=3)
        for j in range(2):
            for x in (-2.0, 0.0, 1.5):
                assert gt.value(j, x) == pytest.approx(g.value(j, x))

    def test_affine_substitution(self):
        # w_0 = 1, w_1 = e^x, psi(x) = 2x: wt_1 = 2 e^(2x).
        from gmono import affine_map

        g = ExponentialGauge(R, [0.0, 1.0])
        m = affine_map(R, 2.0, 0.0)
        gt = transport_gauges(g, m, n_entries=2)
        for x in (-1.0, 0.3, 2.0):
            assert gt.value(1, x) == pytest.approx(2.0 * math.exp(2.0 * x))

    def test_round_trip_recovers_gauges(self):
        # Transport through tan, then back through arctan.
        g = ExponentialGauge(R, [0.4, -0.3, 0.9])
        fwd = tan_map()
        gt = transport_gauges(g, fwd, n_entries=3)
        from gmono import ScaleMap

        back = ScaleMap(
            R,
            fwd.domain,
            psi=math.atan,
            psi_prime=lambda x: 1.0 / (1.0 + x * x),
            psi_inverse=math.tan,
            name="atan",
        )
        gtt = transport_gauges(gt, back, n_entries=3)
        for j in range(3):
            for x in np.linspace(-3, 3, 13):
                assert gtt.value(j, float(x)) == pytest.approx(
                    g.value(j, float(x)), rel=1e-10
                )

    def test_domain_mismatch_rejected(self):
        g = UnitGauge(Interval(0.0, 1.0))
        with pytest.raises(DomainError):
            transport_gauges(g, tan_map())


class TestScaleMap:
    def test_check_passes_for_tan(self):
        tan_map().check(np.linspace(-1.4, 1.4, 11))

    def test_jets_match_fd(self):
        m = tan_map()
        j = m.psi_jet(0.3, 4)
        h = 1e-6
        d1 = (m.psi(0.3 + h) - m.psi(0.3 - h)) / (2 * h)
        assert j[1] == pytest.approx(d1, rel=1e-8)


class TestSerialization:
    def test_round_trip(self):
        g = ExponentialGauge(R, [0, 0, 0, -1, 2, 1])
        d = gauge_to_dict(g)
        g2 = gauge_from_dict(d)
        assert isinstance(g2, ExponentialGauge)
        assert g2.lams == g.lams

    def test_infinite_endpoints(self):
        d = {
            "interval": {"a": "-inf", "b": "inf"},
            "kind": "table",
            "params": ["arctan_cheb"],
        }
        g = gauge_from_dict(d)
        assert g.value(0, 0.0) == pytest.approx(math.pi)

    @pytest.mark.parametrize("name", ["arctan_cheb", "stein"])
    def test_table_gauge_keeps_its_interval(self, name):
        # A registered table gauge is defined on the real line; a file that
        # names another interval for it is rejected, not silently widened.
        for iv in ({"a": 0, "b": 1}, {"a": "-inf", "b": 0}, {"a": 0, "b": "inf"}):
            with pytest.raises(GaugeError, match="defined on"):
                gauge_from_dict({"interval": iv, "kind": "table", "params": [name]})

    def test_unknown_kind(self):
        with pytest.raises(GaugeError):
            gauge_from_dict({"interval": {"a": 0, "b": 1}, "kind": "nope"})
