"""The benchmark tracer's patch points stay where it looks for them.

``perfbench/tracing.py`` wraps library functions and methods by replacing
``owner.__dict__[name]``; an attribute that moves to a base class or out
of a module would make a traced run fail, and no test here runs one.
"""

import pytest

from gmono import dual_cone, intervals, measures, wpoly

PATCH_POINTS = [
    (intervals.GaugeSpec, "values"),
    *[(cls, "value") for cls in (intervals.UnitGauge, intervals.ExponentialGauge,
                                  intervals.PowerGauge, intervals.TableGauge)],
    *[(cls, "integrate") for cls in (measures.NormalPart, measures.PoissonPart,
                                      measures.CauchyPart, measures.DensityPart)],
    (wpoly.WPolyHandle, "eval"),
    (wpoly.WPolyHandle, "__call__"),
    (wpoly.ExpPoly, "eval"),
    (wpoly.PanelChain, "__init__"),
    (wpoly.PanelChain, "eval"),
    (wpoly, "_probe_left_chain"),
    *[(dual_cone, name) for name in ("gmoment", "admissibility", "chain_t_two_arg",
                                     "check_dominance", "oracle_equivalence")],
    (measures, "gmoment"),
]


@pytest.mark.parametrize(
    "owner, name", PATCH_POINTS, ids=[f"{o.__name__}.{n}" for o, n in PATCH_POINTS]
)
def test_patch_point_is_own_attribute(owner, name):
    assert name in owner.__dict__
    assert callable(owner.__dict__[name])
