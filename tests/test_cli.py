"""CLI behavior: subcommands, exit codes, output determinism."""

import json
import math
import os
import subprocess
import sys

import pytest

import gmono
from gmono.cli import main

GAUGES_UNIT = {"interval": {"a": "-inf", "b": "inf"}, "kind": "unit", "params": []}
GAUGES_61 = {
    "interval": {"a": "-inf", "b": "inf"},
    "kind": "exponential",
    "params": [0, 0, 0, -1, 2, 1],
}
NU_SPREAD = {"interval": {"a": "-inf", "b": "inf"},
             "atoms": [[-1.0, 0.5], [1.0, 0.5]]}
NU_POINT = {"interval": {"a": "-inf", "b": "inf"}, "atoms": [[0.0, 1.0]]}


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, payload in [
        ("gu", GAUGES_UNIT),
        ("g61", GAUGES_61),
        ("nu1", NU_SPREAD),
        ("nu2", NU_POINT),
        ("fexp", {"name": "exp"}),
        ("fneg", {"name": "poly", "coeffs": [0.0, -1.0]}),
    ]:
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


class TestExitCodes:
    def test_dominates_is_zero(self, files):
        code = main([
            "dominate", "--nu1", files["nu1"], "--nu2", files["nu2"],
            "--gauges", files["gu"], "--k", "2", "--n", "2",
            "--s", "0", "--z", "0",
        ])
        assert code == 0

    def test_fails_is_one(self, files):
        code = main([
            "dominate", "--nu1", files["nu2"], "--nu2", files["nu1"],
            "--gauges", files["gu"], "--k", "2", "--n", "2",
            "--s", "0", "--z", "0",
        ])
        assert code == 1

    def test_cancelling_exponents_decide(self, files, tmp_path):
        # -0.3 + 0.1 + 0.2 is 2.8e-17 in floats: the finiteness row must
        # agree with the chains, which count that rate as 0.
        gauges = tmp_path / "cancel.json"
        gauges.write_text(json.dumps({
            "interval": {"a": "-inf", "b": "inf"}, "kind": "exponential",
            "params": [0, 0, -0.3, 0.1, 0.2],
        }))
        code = main([
            "dominate", "--nu1", files["nu1"], "--nu2", files["nu2"],
            "--gauges", str(gauges), "--k", "1", "--n", "4",
        ])
        assert code in (0, 1)

    def test_table_gauge_self_dominance_is_zero(self, files, tmp_path):
        # arctan_cheb has no closed-form chains: the divergence probe gives
        # the finiteness set, and condition ii's p_(a,z;0:1:1) = p_(z;0,1)
        # takes the table's antiderivative.
        gauges = tmp_path / "arctan.json"
        gauges.write_text(json.dumps({
            "interval": {"a": "-inf", "b": "inf"},
            "kind": "table", "params": ["arctan_cheb"],
        }))
        code = main([
            "dominate", "--nu1", files["nu1"], "--nu2", files["nu1"],
            "--gauges", str(gauges), "--k", "1", "--n", "1",
        ])
        assert code == 0

    def test_closed_stdout_keeps_exit_code(self, files):
        # `gmono ... | head`: the reader is gone before the report is written.
        src = os.path.dirname(os.path.dirname(os.path.abspath(gmono.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        commands = [
            ["--format", "json", "dominate", "--nu1", files["nu1"],
             "--nu2", files["nu2"], "--gauges", files["gu"], "--k", "2", "--n", "2"],
            ["selftest"],  # one line per criterion, not one report
        ]
        for argv in commands:
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = subprocess.run(
                    [sys.executable, "-c",
                     "import sys; from gmono.cli import main; sys.exit(main())",
                     *argv],
                    stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300,
                )
            finally:
                os.close(write_end)
            assert proc.returncode == 0, (argv, proc.stderr.decode())
            assert b"Traceback" not in proc.stderr
            assert b"BrokenPipeError" not in proc.stderr

    def test_import_loads_no_scipy(self):
        # scipy is loaded by the quadrature routes only, not by the import.
        src = os.path.dirname(os.path.dirname(os.path.abspath(gmono.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, gmono.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_input_error_is_two(self, files, tmp_path):
        bad = tmp_path / "missing.json"
        code = main([
            "dominate", "--nu1", str(bad), "--nu2", files["nu1"],
            "--gauges", files["gu"], "--k", "2", "--n", "2",
        ])
        assert code == 2

    def test_poisson_support_outside_the_gauge_interval_is_two(self, tmp_path, capsys):
        # Support points 3 - k reach below the gauge interval (0, inf).
        gauges = tmp_path / "gpos.json"
        gauges.write_text(json.dumps(
            {"interval": {"a": 0, "b": "inf"}, "kind": "unit", "params": []}))
        nu = tmp_path / "pois.json"
        nu.write_text(json.dumps({"continuous": {
            "family": "poisson", "lam": 2.0, "scale": -1.0, "shift": 3.0}}))
        atom = tmp_path / "atom.json"
        atom.write_text(json.dumps({"atoms": [[1.0, 1.0]]}))
        code = main([
            "dominate", "--nu1", str(nu), "--nu2", str(atom),
            "--gauges", str(gauges), "--k", "1", "--n", "2",
        ])
        assert code == 2
        assert "point 0.0 outside interval" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        # a table gauge whose params are an object, not a one-name list
        ("gauges", {"interval": {"a": "-inf", "b": "inf"}, "kind": "table",
                    "params": {"name": "arctan_cheb"}}),
        # an atom mass that is not a number
        ("nu1", {"interval": {"a": "-inf", "b": "inf"}, "atoms": [[0, "x"]]}),
        # a measure file whose top level is an array, not an object
        ("nu1", [1, 2]),
        # a non-finite Poisson rate (json writes it as Infinity)
        ("nu1", {"continuous": {"family": "poisson", "lam": math.inf}}),
        # an atom mass that is NaN, not an infinite total mass
        ("nu1", {"atoms": [[0.0, math.nan]]}),
        # an exppoly term that is not an object
        ("function", {"name": "exppoly", "terms": [5]}),
    ], ids=["table-params-object", "atom-mass-string", "measure-top-level-array",
            "poisson-lam-infinity", "atom-mass-nan", "exppoly-term-number"])
    def test_malformed_file_content_is_two(self, files, tmp_path, capsys, bad):
        which, payload = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        paths = {"nu1": files["nu1"], "nu2": files["nu2"], "gauges": files["gu"]}
        paths[which] = str(path)
        if which == "function":
            argv = ["cone-check", "--gauges", files["gu"], "--function",
                    str(path), "--k", "1", "--n", "1"]
        else:
            argv = ["dominate", "--nu1", paths["nu1"], "--nu2", paths["nu2"],
                    "--gauges", paths["gauges"], "--k", "1", "--n", "1"]
        assert main(argv) == 2
        assert "infinite total mass" not in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["1:2", "a,b"])
    @pytest.mark.parametrize("command", ["dominate", "wpoly"])
    def test_malformed_grid_spec_is_two(self, files, command, spec):
        if command == "dominate":
            argv = ["dominate", "--nu1", files["nu1"], "--nu2", files["nu2"],
                    "--gauges", files["gu"], "--k", "1", "--n", "1",
                    "--t-grid", spec]
        else:
            argv = ["wpoly", "--gauges", files["gu"], "--family", "t", "--t", "0",
                    "--j", "0", "--m", "2", "--x", spec]
        assert main(argv) == 2

    @pytest.mark.parametrize("lo, spec", [
        ("-inf", ["--t-grid", "nan"]),
        ("-inf", ["--t-grid", "inf"]),
        ("-inf", ["--t-grid=nan,0"]),
        (0, ["--t-grid=-5,-1,1"]),
    ], ids=["nan", "inf", "nan-and-zero", "left-of-a"])
    def test_t_grid_outside_the_interval_is_two(self, tmp_path, capsys, lo, spec):
        iv = {"a": lo, "b": "inf"}
        paths = {}
        for name, payload in [
            ("gauges", {"interval": iv, "kind": "unit", "params": []}),
            ("nu1", {"interval": iv, "atoms": [[0.5, 0.5], [1.5, 0.5]]}),
            ("nu2", {"interval": iv, "atoms": [[1.0, 1.0]]}),
        ]:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(payload))
        code = main(["dominate", "--nu1", str(paths["nu1"]), "--nu2",
                     str(paths["nu2"]), "--gauges", str(paths["gauges"]),
                     "--k", "1", "--n", "1", *spec])
        captured = capsys.readouterr()
        assert code == 2
        assert "t_grid point" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["martingale", "--fair-walk", "4", "--t-grid", "nan"],
        ["martingale", "--fair-walk", "4", "--t-grid=-inf,0"],
        ["left-chain", "--n", "10", "--m", "2", "--s", "0.4", "--t-grid", "nan"],
        ["left-chain", "--n", "10", "--m", "2", "--s", "0.4", "--t-grid", "inf"],
    ], ids=["martingale-nan", "martingale-minus-inf", "left-chain-nan",
            "left-chain-inf"])
    def test_non_finite_t_grid_point_is_two(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "t_grid point" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["left-chain", "--n", "0", "--m", "2", "--s", "0.4"],
        ["martingale", "--fair-walk", "4", "--power", "-1"],
        ["left-chain", "--n", "1001", "--m", "2", "--s", "0.4"],
        ["martingale", "--fair-walk", "4", "--power", "171"],
    ], ids=["left-chain-no-summands", "martingale-negative-power",
            "left-chain-past-cap", "martingale-power-past-cap"])
    def test_out_of_range_count_is_two(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "need an integer >=" in captured.err and captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["left-chain", "--n", "1000", "--m", "2", "--s", "0.4"],
        ["martingale", "--fair-walk", "4", "--power", "170"],
    ], ids=["left-chain", "martingale"])
    def test_count_at_its_cap_runs(self, capsys, argv):
        # One past each cap overflowed a float (exit 4) before the cap.
        code = main(["--format", "json", *argv])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["holds"] is True
        assert all(math.isfinite(v) for row in payload["rows"] for v in row)

    @pytest.mark.parametrize("argv", [
        ["cheb"],
        ["cheb", "--pair", "rho", "rho", "--scan", "3"],
        ["cheb", "--pair", "rho", "tau:x"],
        ["cheb", "--pair", "rho", "tau:nan"],
        ["cheb", "--pair", "tau:inf", "rho"],
        ["cheb", "--scan", "-3"],
    ], ids=["neither", "both", "bad-tau", "nan-tau", "inf-tau", "negative-scan"])
    def test_bad_cheb_arguments_are_two(self, argv):
        assert main(argv) == 2

    @pytest.mark.parametrize("extra", [["--ys=a"], ["--ys=-1", "--window", "3"],
                                       ["--ys=-1", "--window", "a:1"]])
    def test_bad_taylor_spec_is_two(self, files, extra):
        assert main(["taylor", "--gauges", files["gu"], "--function",
                     files["fexp"], "--k", "1", "--n", "2", *extra]) == 2

    def test_unexpected_exception_is_four(self, files, monkeypatch, capsys):
        # An internal crash must not read as 1 ("fails").
        def crash(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(gmono.cli, "finiteness_set", crash)
        assert main(["finiteness", "--gauges", files["gu"], "--n", "2"]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and "RuntimeError: injected" in err

    def test_undefined_moment_is_three(self, files, monkeypatch, capsys):
        def undefined(*args, **kwargs):
            raise gmono.UndefinedMomentError("injected")

        monkeypatch.setattr(gmono.dual_cone, "gmoment", undefined)
        code = main(["--format", "json", "dominate", "--nu1", files["nu1"],
                     "--nu2", files["nu2"], "--gauges", files["gu"],
                     "--k", "2", "--n", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 3
        assert payload["verdict"] == "inconclusive" and payload["rows"] == []

    def test_inconclusive_error_is_three(self, files, monkeypatch, capsys):
        def undecided(*args, **kwargs):
            raise gmono.InconclusiveError("injected")

        monkeypatch.setattr(gmono.cli, "finiteness_set", undecided)
        assert main(["finiteness", "--gauges", files["gu"], "--n", "2"]) == 3
        assert "inconclusive: injected" in capsys.readouterr().err

    def test_table_gauge_too_short_for_n_is_two(self, tmp_path, capsys):
        # arctan_cheb has levels 0 and 1 only: n = 3 is an input error, not
        # an inconclusive probe.
        gauges = tmp_path / "arctan.json"
        gauges.write_text(json.dumps({
            "interval": {"a": "-inf", "b": "inf"},
            "kind": "table", "params": ["arctan_cheb"],
        }))
        assert main(["finiteness", "--gauges", str(gauges), "--n", "3"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_member_zero_nonmember_one(self, files):
        assert main([
            "cone-check", "--gauges", files["gu"], "--function",
            files["fexp"], "--k", "1", "--n", "2",
        ]) == 0
        assert main([
            "cone-check", "--gauges", files["gu"], "--function",
            files["fneg"], "--k", "1", "--n", "1",
        ]) == 1


class TestChebCommand:
    def test_rho_rho_prints_fraction(self, files, capsys):
        code = main(["--format", "json", "cheb", "--pair", "rho", "rho"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["schema"] == "gmono/1"
        assert out["exact_fraction"] == "384/245"
        assert abs(out["ratio"] - 384.0 / 245.0) < 1e-12
        # 17-significant-digit reproduction of the constant
        assert f"{out['ratio']:.11f}".startswith("1.56734693878")

    def test_scan(self, capsys):
        code = main(["--format", "json", "cheb", "--scan", "9"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert abs(out["minimum"] - 384.0 / 245.0) < 1e-4


class TestDeterminism:
    def test_byte_identical_json(self, files, capsys):
        argv = [
            "--format", "json", "--seed", "11",
            "dominate", "--nu1", files["nu1"], "--nu2", files["nu2"],
            "--gauges", files["g61"], "--k", "2", "--n", "3",
            "--s", "0", "--z", "0",
        ]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == "gmono/1"

    def test_report_reparses(self, files, capsys):
        main([
            "--format", "json",
            "martingale", "--fair-walk", "4", "--t-grid=-2:2:9",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True
        assert len(payload["rows"]) == 9


class TestSubcommands:
    def test_wpoly_value(self, files, capsys):
        code = main([
            "--format", "json", "wpoly", "--gauges", files["g61"],
            "--family", "az", "--z", "0", "--i", "0", "--k", "2",
            "--jj", "5", "--x", "1",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        val = out["rows"][0][1]
        assert val == pytest.approx((math.exp(2) - 3) / 24, rel=1e-10)

    def test_wpoly_t_chain_positive_part(self, files, capsys):
        # p+_(0;0,2)(x) = x^2/2 right of the anchor and 0 left of it.
        code = main([
            "--format", "json", "wpoly", "--gauges", files["gu"],
            "--family", "t", "--t", "0", "--j", "0", "--m", "2",
            "--part", "positive", "--x=-1,0.5,2",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["rows"] == [[-1.0, 0.0], [0.5, 0.125], [2.0, 2.0]]

    def test_taylor_profile(self, files, capsys):
        code = main([
            "--format", "csv", "taylor", "--gauges", files["gu"],
            "--function", files["fexp"], "--k", "1", "--n", "2",
            "--z", "0", "--ys=-1,-2,-4,-8",
        ])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0].split(",") == ["y", "sup_gap_right", "sup_gap_left"]
        assert len(lines) == 5

    def test_left_chain(self, capsys):
        code = main([
            "left-chain", "--n", "10", "--m", "2", "--s", "0.4",
            "--t-grid", "0:4:9",
        ])
        assert code == 0

    def test_diffineq(self, files, capsys):
        code = main(["diffineq", "--gauges", files["g61"], "--k", "2", "--n", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "f^(6) - 2*f^(5) - f^(4) + 2*f^(3) >= 0" in out

    def test_diffineq_interval_without_zero_inside(self, tmp_path, capsys):
        # The generators' anchors default to a point inside (0, inf).
        gauges = tmp_path / "power.json"
        gauges.write_text(json.dumps({
            "interval": {"a": 0, "b": "inf"}, "kind": "power",
            "params": [0, 1, 0, 1],
        }))
        code = main(["diffineq", "--gauges", str(gauges), "--k", "1", "--n", "2"])
        assert code == 0
        assert "f^(2) + (x^-1)*f^(1) >= 0" in capsys.readouterr().out

    def test_finiteness_probe_on_finite_left_endpoint(self, tmp_path, capsys):
        gauges = tmp_path / "power.json"
        gauges.write_text(json.dumps({
            "interval": {"a": 1, "b": 3}, "kind": "power",
            "params": [1, 1.5, 2, -0.5, 1],
        }))
        tables = []
        for probe in ([], ["--probe"]):
            code = main(["--format", "json", "finiteness", "--gauges", str(gauges),
                         "--n", "3"] + probe)
            assert code == 0
            tables.append(json.loads(capsys.readouterr().out))
        assert [t["method"] for t in tables] == ["analytic", "probe"]
        assert tables[1]["rows"] == tables[0]["rows"]
        finite = {(j, m) for j, m, fin in tables[0]["rows"] if fin}
        assert [j for j in range(3) if (j, 2) in finite] == [2]
        assert [j for j in range(4) if (j, 3) in finite] == [0, 1, 2, 3]

    def test_finiteness(self, files, capsys):
        code = main([
            "--format", "json", "finiteness", "--gauges", files["g61"],
            "--n", "5",
        ])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        table = {(j, m): fin for j, m, fin in out["rows"]}
        assert table[(2, 3)] is False and table[(2, 4)] is True

    def test_bad_config_rejected(self, files):
        for argv in (
            ["--tol", "-1", "cheb", "--pair", "rho", "rho"],
            ["--tol", "nan", "cheb", "--pair", "rho", "rho"],
            ["--tol", "inf", "cheb", "--pair", "rho", "rho"],
            ["--jobs", "2", "cheb", "--pair", "rho", "rho"],  # no such flag
            ["--quad-abs", "1e-8", "cheb", "--pair", "rho", "rho"],  # retired
            ["--quad-rel", "1e-8", "cheb", "--pair", "rho", "rho"],  # retired
        ):
            assert main(argv) == 2, argv

    @pytest.mark.parametrize("content", [
        '{"tol_eq": "abc"}',
        '{"tol_eq": NaN}',
        '{"tol_eq": Infinity}',
        "[1, 2]",
        '{"format": "xml"}',
        '{"grid": 1}',
        '{"grid": 2.5}',
        '{"grid": true}',
        '{"seed": "0"}',
        '{"seed": -1}',
        '{"quad_abs": -1}',
        '{"quad_abs": 1e-10}',  # a retired key is refused, not ignored
        "{not json",
    ])
    def test_bad_config_file_rejected(self, tmp_path, monkeypatch, capsys, content):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(content)
        monkeypatch.setenv("GMONO_CONFIG", str(cfgfile))
        assert main(["cheb", "--pair", "rho", "rho"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_config_path_that_is_a_directory_is_two(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GMONO_CONFIG", str(tmp_path))
        assert main(["cheb", "--pair", "rho", "rho"]) == 2

    def test_missing_config_file_is_two(self, tmp_path, monkeypatch, capsys):
        # A mistyped path must not silently drop the user's settings.
        monkeypatch.setenv("GMONO_CONFIG", str(tmp_path / "no-such.json"))
        assert main(["cheb", "--pair", "rho", "rho"]) == 2
        assert "input error" in capsys.readouterr().err
        monkeypatch.setenv("GMONO_CONFIG", "")  # empty means unset
        assert main(["cheb", "--pair", "rho", "rho"]) == 0

    def test_python_m_gmono_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(gmono.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "gmono", *argv],
                                  capture_output=True, text=True, env=env,
                                  timeout=300)

        proc = run("cheb", "--pair", "rho", "rho")
        assert proc.returncode == 0, proc.stderr
        assert "384/245" in proc.stdout
        proc = run("--quad-abs", "1e-8", "cheb", "--pair", "rho", "rho")
        assert proc.returncode == 2

    def test_cheb_text_prints_full_constant(self, capsys):
        main(["cheb", "--pair", "rho", "rho"])
        out = capsys.readouterr().out
        assert "1.5673469387755" in out
        assert "384/245" in out

    def test_function_with_gauged_table(self, files, tmp_path, capsys):
        import numpy as np
        from gmono.gderiv import function_from_dict

        xs = list(np.linspace(-5, 5, 201))
        spec = {
            "name": "poly",
            "coeffs": [0.0, 1.0],
            "gauged_table": {
                "xs": xs,
                "values": [[x for x in xs], [1.0] * len(xs)],
            },
        }
        f = function_from_dict(spec)
        assert f.gauged_data(1, 0.37) == 1.0
        assert f.gauged_data(0, 2.0) == pytest.approx(2.0)

    def test_selftest_exits_zero(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 11

    def test_dominate_json_zero_mean_gap(self, files, capsys):
        main([
            "--format", "json",
            "dominate", "--nu1", files["nu1"], "--nu2", files["nu2"],
            "--gauges", files["gu"], "--k", "2", "--n", "2",
            "--s", "0", "--z", "0",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "dominates"
        mean_rows = [r for r in payload["rows"] if r[0] == "i"]
        assert all(abs(r[4]) < 1e-12 for r in mean_rows)

    def test_config_env_file(self, files, tmp_path, capsys, monkeypatch):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"format": "json", "tol_eq": 1e-6,
                                       "grid": 64, "seed": 3}))
        monkeypatch.setenv("GMONO_CONFIG", str(cfgfile))
        assert main(["cheb", "--pair", "rho", "rho"]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["schema"] == "gmono/1"

    @pytest.mark.parametrize("argv, tol", [
        (["--tol", "1e-3", "cone-check"], 1e-3),
        (["cone-check", "--tol", "1e-3"], 1e-3),
        (["cone-check"], 1e-8),
    ])
    def test_cone_check_tol_reaches_membership(self, files, monkeypatch, argv, tol):
        from gmono import cli

        seen = []
        real = cli.cone_membership

        def capture(*args, **kwargs):
            seen.append(kwargs["tol"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "cone_membership", capture)
        code = main(argv + ["--gauges", files["gu"], "--function", files["fexp"],
                            "--k", "1", "--n", "2"])
        assert code == 0
        assert seen == [tol]
