"""The benchmark tracer's patch points stay where it looks for them.

``perfbench/tracing.py`` wraps library functions and methods by replacing
``owner.__dict__[name]``; an attribute that moves to a base class or out
of a module would make a traced run fail, and no test here runs one.
"""

import math
import sys

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


def test_interior_cover_passes_its_anchor_by_keyword(monkeypatch):
    # wpoly.panel_build.per_chain counts the builds that pass anchor= as a
    # keyword, per chain evaluator found as the caller's ``self``.
    builds = []
    init = wpoly.PanelChain.__init__

    def recording(chain, *args, **kwargs):
        builds.append((kwargs.get("anchor"), sys._getframe(1).f_locals.get("self")))
        init(chain, *args, **kwargs)

    monkeypatch.setattr(wpoly.PanelChain, "__init__", recording)
    g = intervals.TableGauge(intervals.Interval(-math.inf, math.inf),
                             [lambda x: 1.0, math.exp, lambda x: 1.0])
    h = wpoly.chain_t_handle(g, 0.5, 0, 2)
    for x in (1.0, -3.0, 9.0):
        h.eval(x)
    assert builds == [(0.5, h._full_evaluator())]
