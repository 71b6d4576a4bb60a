"""Command-line front end.

Subcommands: wpoly, cone-check, taylor, dominate, cheb, martingale,
left-chain, diffineq, selftest.  Exit codes: 0 for holds/dominates/member,
1 for fails, 2 for input errors, 3 for inconclusive, 4 for an internal
error (an unexpected exception; its traceback goes to stderr).  Reports are
reproducible given identical inputs and seed; JSON output carries the
schema tag "gmono/1" and 17-significant-digit numbers, text output rounds
to 6.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import acceptance
from .applications import (
    MAX_MC,
    MAX_POWER,
    MAX_SUMMANDS,
    MAX_WALK,
    RatioQuery,
    cheb_minimum_scan,
    cheb_ratio,
    cheb_ratio_quadrature,
    diffineq_system,
    fair_walk,
    left_tail_chain,
    martingale_dominance,
)
from .dual_cone import check_dominance
from .errors import DomainError, GmonoError, InconclusiveError
from .gderiv import ConeSpec, cone_membership, function_from_dict
from .intervals import default_grid, gauge_from_dict
from .measures import measure_from_dict
from .taylor import convergence_profile, taylor_data
from .wpoly import chain_az_handle, chain_t_handle, finiteness_set

SCHEMA = "gmono/1"

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4

FORMATS = ("text", "json", "csv")
# GMONO_CONFIG's keys and the RunConfig fields they set.
_CONFIG_KEYS = {"tol_eq": "tol_eq", "grid": "grid", "seed": "seed", "format": "fmt"}


def _is_a(v, kind) -> bool:
    """isinstance, with a JSON true/false counting as no number."""
    return isinstance(v, kind) and not isinstance(v, bool)


@dataclass(frozen=True)
class RunConfig:
    tol_eq: float = 1e-9
    grid: int = 512
    seed: int = 0
    fmt: str = "text"

    def __post_init__(self):
        tol = self.tol_eq
        if not (_is_a(tol, (int, float)) and math.isfinite(tol) and tol > 0):
            raise ValueError(f"tol_eq must be finite and positive, got {tol!r}")
        if not _is_a(self.grid, int) or self.grid < 2:
            raise ValueError(f"grid size must be an integer >= 2, got {self.grid!r}")
        if not _is_a(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.fmt not in FORMATS:
            raise ValueError(f"format must be one of {', '.join(FORMATS)}, "
                             f"got {self.fmt!r}")


def _num(v: float, fmt: str) -> object:
    if fmt == "json":
        return v
    if isinstance(v, float) and math.isfinite(v):
        return float(f"{v:.6g}")
    return v


def _emit(payload: dict, cfg: RunConfig) -> None:
    _print_guarded(lambda: _write(payload, cfg))


def _print_guarded(write: Callable[[], None]) -> None:
    """Run write() and flush stdout, surviving a closed stdout."""
    try:
        write()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early (``gmono ... | head``).  Drop the
        # rest of the output and let the command return its own exit code;
        # fd 1 goes to devnull so the interpreter's final flush succeeds.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


def _write(payload: dict, cfg: RunConfig) -> None:
    payload = {"schema": SCHEMA, **payload}
    if cfg.fmt == "json":
        print(json.dumps(payload, sort_keys=True, allow_nan=True))
    elif cfg.fmt == "csv":
        rows = payload.get("rows")
        if rows:
            print(",".join(str(c) for c in payload.get("columns", [])))
            for r in rows:
                print(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                               for v in r))
        else:
            for k in sorted(payload):
                print(f"{k},{payload[k]}")
    else:
        for k, v in payload.items():
            if k == "rows":
                cols = payload.get("columns", [])
                if cols:
                    print("  " + "  ".join(f"{c:>14}" for c in cols))
                for r in v:
                    print("  " + "  ".join(
                        f"{x:14.6g}" if isinstance(x, float) else f"{x!s:>14}"
                        for x in r
                    ))
            elif k != "columns":
                print(f"{k}: {_num(v, cfg.fmt) if isinstance(v, float) else v}")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(
            _input_error(f"cannot read {path}: {exc}")
        )


def _input_error(msg: str) -> int:
    print(f"input error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def _parse_grid_spec(spec: str) -> np.ndarray:
    """lo:hi:count or a comma list."""
    try:
        if ":" in spec:
            lo, hi, count = spec.split(":")
            return np.linspace(float(lo), float(hi), int(count))
        return np.array([float(v) for v in spec.split(",")])
    except ValueError as exc:
        raise DomainError(f"bad grid spec {spec!r}: {exc}") from exc


def _int_in(lo: int, hi: int) -> Callable[[str], int]:
    """An argparse type: an integer in [lo, hi]."""

    def parse(spec: str) -> int:
        v = int(spec)
        if not lo <= v <= hi:
            raise argparse.ArgumentTypeError(
                f"need an integer >= {lo} and <= {hi}, got {v}")
        return v

    return parse


def _parse_floats(spec: str, sep: str, what: str, count=None) -> list:
    """The numbers of a sep-separated spec, count of them if given."""
    try:
        vals = [float(v) for v in spec.split(sep)]
    except ValueError as exc:
        raise DomainError(f"bad {what} {spec!r}: {exc}") from exc
    if count is not None and len(vals) != count:
        raise DomainError(f"bad {what} {spec!r}: expected {count} numbers")
    return vals


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_wpoly(args, cfg: RunConfig) -> int:
    g = gauge_from_dict(_load_json(args.gauges))
    xs = _parse_grid_spec(args.x)
    if args.family == "t":
        h = chain_t_handle(g, args.t, args.j, args.m, part=args.part)
        label = f"p_({args.t};{args.j},{args.m})[{args.part}]"
    else:
        h = chain_az_handle(g, args.z, args.i, args.k, args.jj)
        label = f"p_(a,{args.z};{args.i}:{args.k}:{args.jj})"
    rows = list(zip(xs.tolist(), h.values(xs).tolist()))
    _emit(
        {"op": "wpoly", "poly": label, "columns": ["x", "value"], "rows": rows},
        cfg,
    )
    return EXIT_OK


def _cmd_cone_check(args, cfg: RunConfig) -> int:
    g = gauge_from_dict(_load_json(args.gauges))
    f = function_from_dict(_load_json(args.function))
    cone = ConeSpec(g, args.k, args.n)
    grid = default_grid(g.interval, cfg.grid)
    tol = 1e-8 if args.tol is None else args.tol
    rep = cone_membership(f, cone, grid=grid, tol=tol)
    _emit(
        {
            "op": "cone-check",
            "member": rep.member,
            "certification": "grid",
            "orders_checked": list(rep.orders_checked),
            "violations": [list(v) for v in rep.violations],
        },
        cfg,
    )
    return EXIT_OK if rep.member else EXIT_FAILS


def _cmd_taylor(args, cfg: RunConfig) -> int:
    g = gauge_from_dict(_load_json(args.gauges))
    f = function_from_dict(_load_json(args.function))
    cone = ConeSpec(g, args.k, args.n)
    ys = _parse_floats(args.ys, ",", "--ys list")
    if args.window:
        lo, hi = _parse_floats(args.window, ":", "--window", count=2)
    else:
        lo, hi = min(ys) - 2.0, args.z + 3.0
    td = taylor_data(f, cone, window=(lo, hi))
    grid = np.linspace(lo, hi, min(cfg.grid, 128))
    rows = convergence_profile(td, args.z, ys, grid)
    ok = all(r[1] >= -1e-9 and r[2] >= -1e-9 for r in rows)
    _emit(
        {
            "op": "taylor",
            "columns": ["y", "sup_gap_right", "sup_gap_left"],
            "rows": [list(r) for r in rows],
            "holds": ok,
        },
        cfg,
    )
    return EXIT_OK if ok else EXIT_FAILS


def _cmd_dominate(args, cfg: RunConfig) -> int:
    g = gauge_from_dict(_load_json(args.gauges))
    nu1 = measure_from_dict(_load_json(args.nu1))
    nu2 = measure_from_dict(_load_json(args.nu2))
    cone = ConeSpec(g, args.k, args.n)
    t_grid = None
    if args.t_grid not in (None, "auto"):
        t_grid = _parse_grid_spec(args.t_grid)
    rep = check_dominance(
        nu1, nu2, cone, s=args.s, z=args.z, t_grid=t_grid,
        tol_eq=cfg.tol_eq,
    )
    payload = {
        "op": "dominate",
        "verdict": rep.verdict,
        "certification": rep.certification,
        "branch": rep.branch,
        "s": rep.s,
        "z": rep.z,
        "witness": rep.witness_desc,
        "columns": ["condition", "label", "nu1", "nu2", "gap", "satisfied"],
        "rows": [
            [r.family, r.label, r.v1, r.v2, r.gap, r.satisfied]
            for r in rep.rows()
        ],
    }
    _emit(payload, cfg)
    if rep.verdict == "dominates":
        return EXIT_OK
    if rep.verdict == "fails":
        return EXIT_FAILS
    return EXIT_INCONCLUSIVE


def _cmd_cheb(args, cfg: RunConfig) -> int:
    def op(tag):
        if tag == "rho":
            return "rho"
        if tag.startswith("tau:"):
            (t,) = _parse_floats(tag[4:], ",", "tau parameter", 1)
            if math.isfinite(t):
                return ("tau", t)
        raise SystemExit(_input_error(f"bad pair member {tag!r}"))

    if args.scan is not None:
        if args.scan < 0:
            raise DomainError(f"--scan needs a grid size >= 0, got {args.scan}")
        ts = [math.tan(u) for u in np.linspace(
            -math.pi / 2 + 0.01, math.pi / 2 - 0.01, args.scan
        )]
        best, pair, rows = cheb_minimum_scan(ts)
        _emit(
            {
                "op": "cheb-scan",
                "minimum": best,
                "argmin": list(pair),
                "columns": ["pair", "ratio"],
                "rows": [[lbl, r] for lbl, r in rows],
            },
            cfg,
        )
        return EXIT_OK
    q = RatioQuery(op(args.pair[0]), op(args.pair[1]))
    exact = cheb_ratio(q)
    quad = cheb_ratio_quadrature(q)
    payload = {
        "op": "cheb",
        "ratio": exact,
        "ratio_quadrature": quad,
        "pair": list(args.pair),
    }
    payload["ratio_full"] = f"{exact:.17g}"
    if args.pair == ["rho", "rho"]:
        payload["exact_fraction"] = "384/245"
    _emit(payload, cfg)
    return EXIT_OK


def _cmd_martingale(args, cfg: RunConfig) -> int:
    model = fair_walk(args.fair_walk)
    grid = _parse_grid_spec(args.t_grid)
    rep = martingale_dominance(
        model, grid, power=args.power, mc_samples=args.mc, seed=cfg.seed
    )
    _emit(
        {
            "op": "martingale",
            "holds": rep.holds,
            "mode": rep.mode,
            "s": rep.s,
            "mean_sum": rep.mean_sum,
            "second_moment_sum": rep.second_moment_sum,
            "columns": ["t", "walk", "normal", "margin"],
            "rows": [list(r) for r in rep.rows],
        },
        cfg,
    )
    return EXIT_OK if rep.holds else EXIT_FAILS


def _cmd_left_chain(args, cfg: RunConfig) -> int:
    grid = _parse_grid_spec(args.t_grid) if args.t_grid else None
    rep = left_tail_chain(args.n, m=args.m, s=args.s, t_grid=grid)
    _emit(
        {
            "op": "left-chain",
            "holds": rep.holds,
            "means": list(rep.means),
            "columns": ["t", "binomial", "poisson", "normal",
                        "pois-binom", "norm-pois"],
            "rows": [list(r) for r in rep.rows],
        },
        cfg,
    )
    return EXIT_OK if rep.holds else EXIT_FAILS


def _cmd_diffineq(args, cfg: RunConfig) -> int:
    g = gauge_from_dict(_load_json(args.gauges))
    sys_ = diffineq_system(g, args.k, args.n)
    _emit(
        {
            "op": "diffineq",
            "symbolic": sys_.symbolic,
            "inequalities": list(sys_.inequalities),
            "generators": list(sys_.generators),
            "note": sys_.note,
        },
        cfg,
    )
    return EXIT_OK


def _cmd_selftest(args, cfg: RunConfig) -> int:
    ok = acceptance.run_all(lambda line: _print_guarded(lambda: print(line)))
    return EXIT_OK if ok else EXIT_FAILS


def _cmd_finiteness(args, cfg: RunConfig) -> int:
    g = gauge_from_dict(_load_json(args.gauges))
    fs = finiteness_set(g, args.n, force_probe=args.probe)
    rows = [
        [j, m, fs.contains(j, m)]
        for j in range(args.n + 1)
        for m in range(j, args.n + 1)
    ]
    _emit(
        {
            "op": "finiteness",
            "method": fs.method,
            "columns": ["j", "m", "finite"],
            "rows": rows,
        },
        cfg,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gmono",
        description="Generalized monotone cones, w-polynomials, and "
        "dual-cone dominance checks.",
    )
    ap.add_argument("--format", choices=FORMATS, default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--tol", type=float, default=None, help="tol_eq override")
    ap.add_argument("--grid", type=int, default=None, help="default grid size")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wpoly", help="evaluate a chain polynomial")
    p.add_argument("--gauges", required=True)
    p.add_argument("--family", choices=["t", "az"], default="t")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--part", choices=["full", "positive", "negative"],
                   default="full")
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--jj", type=int, default=1)
    p.add_argument("--x", required=True, help="lo:hi:count or comma list")
    p.set_defaults(fn=_cmd_wpoly)

    p = sub.add_parser("cone-check", help="grid-certified cone membership")
    p.add_argument("--gauges", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    # SUPPRESS keeps a global --tol given before the subcommand (default 1e-8).
    p.add_argument("--tol", type=float, default=argparse.SUPPRESS)
    p.set_defaults(fn=_cmd_cone_check)

    p = sub.add_parser("taylor", help="truncated-lifting convergence table")
    p.add_argument("--gauges", required=True)
    p.add_argument("--function", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--ys", required=True, help="comma list, decreasing")
    p.add_argument("--window", default=None, help="lo:hi evaluation window")
    p.set_defaults(fn=_cmd_taylor)

    p = sub.add_parser("dominate", help="dual-cone dominance check")
    p.add_argument("--nu1", required=True)
    p.add_argument("--nu2", required=True)
    p.add_argument("--gauges", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--z", type=float, default=None)
    p.add_argument("--t-grid", default="auto")
    p.set_defaults(fn=_cmd_dominate)

    p = sub.add_parser("cheb", help="integral association ratio")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--pair", nargs=2, metavar=("F1", "F2"),
                       help="rho or tau:T")
    which.add_argument("--scan", type=int, default=None,
                       help="grid size for the minimum scan")
    p.set_defaults(fn=_cmd_cheb)

    p = sub.add_parser("martingale", help="normal domination of a fair walk")
    p.add_argument("--fair-walk", type=_int_in(1, MAX_WALK), required=True,
                   metavar="N")
    p.add_argument("--t-grid", default="-8:8:41")
    p.add_argument("--power", type=_int_in(0, MAX_POWER), default=5)
    p.add_argument("--mc", type=_int_in(0, MAX_MC), default=0)
    p.set_defaults(fn=_cmd_martingale)

    p = sub.add_parser("left-chain", help="binomial/Poisson/normal chain")
    p.add_argument("--n", type=_int_in(1, MAX_SUMMANDS), required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t-grid", default=None)
    p.set_defaults(fn=_cmd_left_chain)

    p = sub.add_parser("diffineq", help="differential inequality system")
    p.add_argument("--gauges", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=_cmd_diffineq)

    p = sub.add_parser("finiteness", help="finiteness set of the left chain")
    p.add_argument("--gauges", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--probe", action="store_true")
    p.set_defaults(fn=_cmd_finiteness)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=_cmd_selftest)
    return ap


def _config_from(args) -> RunConfig:
    """The GMONO_CONFIG file's settings, overridden by the global flags."""
    base = {}
    path = os.environ.get("GMONO_CONFIG")
    if path:
        with open(path) as fh:
            base = json.load(fh)
        if not isinstance(base, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        unknown = sorted(set(base) - set(_CONFIG_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys {unknown}; allowed: "
                             f"{', '.join(_CONFIG_KEYS)}")
    merged = {_CONFIG_KEYS[k]: v for k, v in base.items()}
    flags = {"tol_eq": args.tol, "grid": args.grid, "seed": args.seed,
             "fmt": args.format}
    merged.update((k, v) for k, v in flags.items() if v is not None)
    return RunConfig(**merged)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        cfg = _config_from(args)
    except (ValueError, OSError) as exc:
        return _input_error(str(exc))
    try:
        return args.fn(args, cfg)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    except InconclusiveError as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except GmonoError as exc:
        return _input_error(str(exc))
    except Exception:
        traceback.print_exc()
        print("internal error", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
