"""Quick test of the benchmark itself (outside tier-1's testpaths).

    python3 -m pytest -q perfbench/test_perfbench.py

Runs one round of every workload and shows that its checks pass, then
feeds each check a deliberately perturbed output (a row value or a
verdict) and shows that the check rejects it.  Finally runs the command
itself for a handful of operations, traced and untraced.
"""

from __future__ import annotations

import dataclasses
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402


def _bump_row(rep, family: str, index: int = 0, rel: float = 1e-6):
    """The report with one row's v1 moved by rel (relative, plus rel absolute)."""
    rows = list(getattr(rep, f"cond_{family}"))
    row = rows[index]
    rows[index] = dataclasses.replace(row, v1=row.v1 * (1.0 + rel) + rel)
    return dataclasses.replace(rep, **{f"cond_{family}": tuple(rows)})


def _flip(rep):
    other = "fails" if rep.verdict == "dominates" else "dominates"
    return dataclasses.replace(rep, verdict=other)


@pytest.fixture(scope="module")
def rounds():
    """One round of each workload, run and checked."""
    out = {}
    for name, w in W.WORKLOADS.items():
        ops = w.make_round(random.Random(5), 0)
        if w.fault_op is not None:
            ops.append(w.fault_op())
        out[name] = [(op, op.run(op.args)) for op in ops]
    return out


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_checks_pass_on_one_round(rounds, name):
    for op, out in rounds[name]:
        problems = op.check(op.args, out)
        if op.known_fault:
            assert problems, "the known-fault operation passed: mark it mended"
        else:
            assert problems == [], (op.kind, problems)


def test_atoms_checks_reject_perturbed_outputs(rounds):
    ran = rounds["atoms-oracle"]
    op, (rep, orc) = next((o, r) for o, r in ran if o.kind == "shift")
    assert op.check(op.args, (rep, orc)) == []
    assert op.check(op.args, (_flip(rep), orc))  # built pair must dominate
    assert op.check(op.args, (_bump_row(rep, "iii", 0), orc))  # unit (iii) row
    bad_oracle = dataclasses.replace(orc, soundness_violations=((0, -1.0),))
    assert op.check(op.args, (rep, bad_oracle))
    op, (rep, orc) = next((o, r) for o, r in ran if o.kind.startswith("random")
                          and r[0].verdict == "fails")
    assert op.check(op.args, (rep, orc)) == []
    weak = dataclasses.replace(rep, witness=dataclasses.replace(rep.witness, func=lambda x: 0.0))
    assert op.check(op.args, (weak, orc))  # a witness that separates nothing


def test_known_fault_op_shows_both_faults():
    op = W.atoms_fault_op()
    problems = op.check(op.args, op.run(op.args))
    assert any("(piece min)" in p for p in problems)
    assert any("witness-not-strict" in p for p in problems)
    assert len(problems) == 3  # the oracle entry and the row's v1 and v2


def test_continuous_checks_reject_perturbed_outputs(rounds):
    ran = dict((op.kind, (op, out)) for op, out in rounds["continuous-quad"])
    op, rep = ran["shift-normal"]
    assert op.check(op.args, _flip(rep))
    op, rep = ran["convex-reversed"]
    assert op.check(op.args, _flip(rep))
    for kind in ("g61-normal-atoms", "shift-poisson"):
        op, rep = ran[kind]
        assert op.check(op.args, rep) == []
        assert op.check(op.args, _bump_row(rep, "i", len(rep.cond_i) - 1))
    op, rep = ran["g61-normal-atoms"]
    assert op.check(op.args, dataclasses.replace(rep, cond_ii=rep.cond_ii[:-1]))


def test_table_checks_reject_perturbed_outputs(rounds):
    ran = rounds["table-chains"]
    op, rep = next((o, r) for o, r in ran if o.kind == "arctan")
    for family in ("i", "ii", "iii"):
        assert op.check(op.args, _bump_row(rep, family, 0, rel=1e-6))
    op, rep = next((o, r) for o, r in ran if o.kind == "clone")
    assert op.check(op.args, _bump_row(rep, "iii", 0, rel=1e-6))
    assert op.check(op.args, _flip(rep))
    op, fs = next((o, r) for o, r in ran if o.kind == "probe")
    table = [list(row) for row in fs.table]
    table[0][-1] = not table[0][-1]
    flipped = dataclasses.replace(fs, table=tuple(tuple(r) for r in table))
    assert op.check(op.args, flipped)


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_command_prints_end_to_end_metrics():
    res = _run("atoms-oracle", 0)
    assert res["correct"] is True
    rounds = W.WORKLOADS["atoms-oracle"].rounds(1)
    assert res["attempted"] == rounds * (len(W.ATOMS_ROUND) + 1)
    assert res["failed"] == rounds  # the known-fault operation, once a round
    assert set(res["metrics"]) == {"ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s",
                                   "peak_rss_mb"}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    detail = json.loads((HERE / "results" / "atoms-oracle-seed3-trace0.json").read_text())
    assert detail["tracing_loaded"] is False  # no wrapper in the untraced run


# Layers each workload bypasses: they must read zero in its traced run.
BYPASSED = {
    "atoms-oracle": ("wpoly.panel_build.calls", "measures.integrate.calls",
                     "intervals.values.calls", "wpoly.probe.calls"),
    "continuous-quad": ("wpoly.panel_build.calls", "wpoly.probe.calls",
                        "dual_cone.oracle.calls"),
    "table-chains": ("measures.integrate.calls", "wpoly.exppoly_eval.calls",
                     "dual_cone.oracle.calls"),
}
USED = {
    "atoms-oracle": ("wpoly.two_arg.calls", "dual_cone.oracle.trials"),
    "continuous-quad": ("measures.integrate.calls", "measures.integrand.calls"),
    "table-chains": ("wpoly.panel_build.calls", "wpoly.probe.windows"),
}


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_run_reports_every_layer(name):
    import tracing

    res = _run(name, 1)
    assert res["correct"] is True
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(metrics) == set(tracing.METRICS)
    assert all(metrics[k] == 0 for k in BYPASSED[name]), metrics
    assert all(metrics[k] > 0 for k in USED[name]), metrics
    assert metrics["dual_cone.rows"] > 0 and metrics["cli.import_ms"] > 0
