"""The file-schema readers on arbitrary JSON: a gauge, measure or function
file either reads or raises a GmonoError, which the CLI reports as an input
error (exit 2).  Any other exception would surface as an internal error."""

import math

from hypothesis import given, settings, strategies as st

from gmono import GmonoError, gauge_from_dict
from gmono.gderiv import function_from_dict
from gmono.measures import measure_from_dict

# Values json.load can produce, non-finite floats and huge integers included.
NUMBERS = st.one_of(
    st.integers(-30, 30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([10**400, -(10**400)]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), NUMBERS, st.text(max_size=6),
    st.sampled_from(["-inf", "inf", "Infinity"]),
)
JSON = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=10,
)


def some(*options):
    """One of the given strategies, or any JSON value in their place."""
    return st.one_of(*options, JSON)


INTERVAL = some(st.fixed_dictionaries(
    {"a": some(NUMBERS, st.just("-inf")), "b": some(NUMBERS, st.just("inf"))},
    optional={"left_closed": JSON, "right_closed": JSON},
))
GAUGE = some(st.fixed_dictionaries(
    {"interval": INTERVAL,
     "kind": some(st.sampled_from(["unit", "exponential", "power", "table"]))},
    optional={"params": some(st.lists(NUMBERS, max_size=5),
                             st.sampled_from([["arctan_cheb"], ["stein"]]))},
))
PART_KEYS = ("mean", "sd", "lam", "scale", "shift", "weight")
MEASURE = some(st.fixed_dictionaries(
    {},
    optional={
        "interval": INTERVAL,
        "atoms": some(st.lists(st.lists(NUMBERS, min_size=2, max_size=2), max_size=4)),
        "continuous": some(st.fixed_dictionaries(
            {"family": some(st.sampled_from(["normal", "poisson", "cauchy_std"]))},
            optional={key: some(NUMBERS) for key in PART_KEYS},
        )),
    },
))
TERM = some(st.fixed_dictionaries({}, optional={
    key: some(NUMBERS) for key in ("coeff", "degree", "rate", "truncate_at")
}))
FUNCTION = some(st.fixed_dictionaries(
    {"name": some(st.sampled_from(
        ["exp", "poly", "power", "rem_left_example", "exppoly"]))},
    optional={
        **{key: some(NUMBERS) for key in ("rate", "scale", "exponent", "k", "n")},
        "coeffs": some(st.lists(NUMBERS, max_size=4)),
        "terms": some(st.lists(TERM, max_size=3)),
        "gauged_table": some(st.fixed_dictionaries({
            "xs": some(st.lists(NUMBERS, max_size=4)),
            "values": some(st.lists(st.lists(NUMBERS, max_size=4), max_size=3)),
        })),
    },
))


def reads_or_rejects(reader, d):
    try:
        reader(d)
    except GmonoError:
        pass


@settings(max_examples=300, deadline=None)
@given(GAUGE)
def test_gauge_from_dict(d):
    reads_or_rejects(gauge_from_dict, d)


@settings(max_examples=300, deadline=None)
@given(MEASURE)
def test_measure_from_dict(d):
    reads_or_rejects(measure_from_dict, d)


@settings(max_examples=300, deadline=None)
@given(FUNCTION)
def test_function_from_dict(d):
    reads_or_rejects(function_from_dict, d)


def test_measure_parts_reject_non_finite_parameters():
    for c in ({"family": "poisson", "lam": math.inf},
              {"family": "poisson", "lam": 1.0, "scale": math.nan},
              {"family": "poisson", "lam": 1.0, "shift": -math.inf},
              {"family": "normal", "mean": math.nan, "sd": 1.0},
              {"family": "normal", "mean": 0.0, "sd": math.inf},
              {"family": "normal", "mean": 0.0, "sd": 1.0, "weight": math.nan}):
        try:
            measure_from_dict({"continuous": c})
        except GmonoError:
            continue
        raise AssertionError(f"accepted {c}")
