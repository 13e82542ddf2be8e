import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equicut
from equicut.cli import parse_instance, run
from equicut.errors import ParseError, ValidationError

UNIFORM_DENSITY = {"kind": "piecewise_constant", "breakpoints": [0, 1], "values": [1]}
UNIFORM2 = {
    "players": [
        {"name": "alice", "density": UNIFORM_DENSITY},
        {"name": "bob", "density": UNIFORM_DENSITY},
    ]
}
DISJOINT2 = {
    "players": [
        {
            "name": "left",
            "density": {
                "kind": "piecewise_constant",
                "breakpoints": [0, 0.5, 1],
                "values": [2, 0],
            },
        },
        {
            "name": "right",
            "density": {
                "kind": "piecewise_constant",
                "breakpoints": [0, 0.5, 1],
                "values": [0, 2],
            },
        },
    ]
}


def write(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseInstance:
    def test_names_and_densities(self, tmp_path):
        ifile = parse_instance(write(tmp_path, UNIFORM2))
        assert ifile.names == ("alice", "bob")
        assert len(ifile.densities) == 2
        assert ifile.sigma is None
        assert ifile.tol is None
        assert ifile.warnings == ()

    def test_sigma_and_tol(self, tmp_path):
        doc = dict(UNIFORM2, sigma=[1, 0], tol=1e-6)
        ifile = parse_instance(write(tmp_path, doc))
        assert ifile.sigma == (1, 0)
        assert ifile.tol == 1e-6

    def test_bad_sigma(self, tmp_path):
        with pytest.raises(ValidationError):
            parse_instance(write(tmp_path, dict(UNIFORM2, sigma=[0, 0])))

    def test_bad_tol(self, tmp_path):
        with pytest.raises(ParseError):
            parse_instance(write(tmp_path, dict(UNIFORM2, tol=-1)))

    def test_non_finite_tol(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(UNIFORM2)[:-1] + ', "tol": Infinity}')
        with pytest.raises(ParseError, match="finite"):
            parse_instance(str(path))

    def test_missing_players(self, tmp_path):
        with pytest.raises(ParseError):
            parse_instance(write(tmp_path, {"players": []}))

    def test_json_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"players": [\n  {"name" "x"}]}')
        with pytest.raises(ParseError) as err:
            parse_instance(str(path))
        assert ":2:" in str(err.value)

    def test_field_context_in_errors(self, tmp_path):
        doc = {"players": [{"name": "a", "density": {"kind": "nope"}}]}
        with pytest.raises(ParseError) as err:
            parse_instance(write(tmp_path, doc))
        assert "players[0]" in str(err.value)

    def test_domain_errors_become_validation_errors(self, tmp_path):
        doc = {
            "players": [
                {
                    "name": "a",
                    "density": {
                        "kind": "piecewise_constant",
                        "breakpoints": [0, 1],
                        "values": [-1],
                    },
                }
            ]
        }
        with pytest.raises(ValidationError) as err:
            parse_instance(write(tmp_path, doc))
        assert "players[0]" in str(err.value)

    def test_duplicate_names_rejected(self, tmp_path):
        doc = {
            "players": [
                {"name": "a", "density": UNIFORM_DENSITY},
                {"name": "a", "density": UNIFORM_DENSITY},
            ]
        }
        with pytest.raises(ParseError):
            parse_instance(write(tmp_path, doc))

    def test_normalization_warning(self, tmp_path):
        doc = {
            "players": [
                {
                    "name": "a",
                    "density": {
                        "kind": "piecewise_constant",
                        "breakpoints": [0, 1],
                        "values": [2],
                    },
                }
            ]
        }
        ifile = parse_instance(write(tmp_path, doc))
        assert len(ifile.warnings) == 1
        assert "factor 2" in ifile.warnings[0]

    def test_missing_name_gets_default(self, tmp_path):
        doc = {"players": [{"density": UNIFORM_DENSITY}]}
        assert parse_instance(write(tmp_path, doc)).names == ("player1",)


class TestSolveCommand:
    def test_text_output(self, tmp_path, capsys):
        code = run(["solve", write(tmp_path, UNIFORM2)])
        out = capsys.readouterr().out
        assert code == 0
        assert "status         converged" in out
        assert "alice" in out and "bob" in out

    def test_json_output(self, tmp_path, capsys):
        code = run(["solve", write(tmp_path, UNIFORM2), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["cuts"] == pytest.approx([0.5], abs=1e-9)
        assert payload["value"] == pytest.approx(0.5, abs=1e-9)
        assert payload["status"] == "converged"
        assert payload["fairness"]["proportional_ok"] is True

    def test_csv_output(self, tmp_path, capsys):
        code = run(["solve", write(tmp_path, UNIFORM2), "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert lines[0] == "value,gap,status,residual_norm,iterations,cuts"
        assert len(lines) == 2

    def test_sigma_flag_overrides(self, tmp_path, capsys):
        code = run(["solve", write(tmp_path, UNIFORM2), "--sigma", "1,0", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["sigma"] == [1, 0]
        assert payload["pieces"][0]["player"] == "bob"

    def test_tol_resolution_order(self, tmp_path, capsys):
        path = write(tmp_path, dict(UNIFORM2, tol=1e-6))
        run(["solve", path, "--format", "json"])
        assert json.loads(capsys.readouterr().out)["tol"] == 1e-6
        run(["solve", path, "--tol", "1e-7", "--format", "json"])
        assert json.loads(capsys.readouterr().out)["tol"] == 1e-7

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, DISJOINT2)
        outputs = []
        for _ in range(2):
            run(["solve", path, "--format", "json"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_warnings_go_to_stderr(self, tmp_path, capsys):
        doc = {
            "players": [
                {"name": "a", "density": dict(UNIFORM_DENSITY, values=[3])},
                {"name": "b", "density": UNIFORM_DENSITY},
            ]
        }
        run(["solve", write(tmp_path, doc), "--format", "json"])
        captured = capsys.readouterr()
        assert "normalized by factor 3" in captured.err
        assert "warning" not in captured.out


    @pytest.mark.parametrize(
        "density",
        [
            {"kind": "piecewise_constant", "breakpoints": [0, 5e-324, 1], "values": [1, 0]},
            {"kind": "piecewise_linear", "breakpoints": [0, 5e-324, 1], "values": [0, 1, 1]},
        ],
    )
    def test_non_finite_piece_table_is_load_error(self, tmp_path, capsys, density):
        doc = {"players": [{"name": "a", "density": density}, UNIFORM2["players"][1]]}
        code = run(["solve", write(tmp_path, doc)])
        err = capsys.readouterr().err
        assert code == 1
        assert "players[0] (a): density" in err
        assert "overflow" in err


class TestSweepCommand:
    def test_disjoint_ranking(self, tmp_path, capsys):
        code = run(["sweep", write(tmp_path, DISJOINT2), "--format", "json"])
        rows = json.loads(capsys.readouterr().out)
        assert code == 0
        assert rows[0]["sigma"] == [0, 1]
        assert rows[0]["value"] == pytest.approx(1.0, abs=1e-9)
        assert rows[1]["sigma"] == [1, 0]
        assert rows[1]["value"] == pytest.approx(0.0, abs=1e-9)

    def test_csv_row_per_order(self, tmp_path, capsys):
        code = run(["sweep", write(tmp_path, UNIFORM2), "--format", "csv"])
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert len(lines) == 3
        assert lines[0].startswith("sigma,")

    def test_parallel_flag_is_gone(self, tmp_path, capsys):
        assert run(["sweep", write(tmp_path, UNIFORM2), "--parallel"]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "--parallel" in err


class TestTolFlag:
    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_bad_tol_is_input_error(self, tmp_path, capsys, command, tol):
        code = run([command, write(tmp_path, UNIFORM2), "--tol", tol])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--tol must be a positive finite number" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_flag_overrides_file_tol(self, tmp_path, capsys, command):
        path = write(tmp_path, dict(UNIFORM2, tol=1e-6))
        assert run([command, path, "--tol", "1e-3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        if command == "solve":
            assert payload["tol"] == 1e-3
        else:
            # the looser tolerance stops the bisection sooner
            assert all(row["iterations"] == 10 for row in payload)


class TestTolFloor:
    """A tolerance below the spacing of doubles near 1 cannot be resolved by
    the bisection, so it is refused up front instead of ending best-effort."""

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    @pytest.mark.parametrize("tol", ["1e-300", "1e-17", "2e-16"])
    def test_flag_below_epsilon_is_input_error(self, tmp_path, capsys, command, tol):
        code = run([command, write(tmp_path, UNIFORM2), "--tol", tol])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert f"--tol {float(tol)!r} is below what double precision resolves" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_file_tol_below_epsilon_is_input_error(self, tmp_path, capsys, command):
        code = run([command, write(tmp_path, dict(UNIFORM2, tol=1e-300))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert '"tol" 1e-300 is below what double precision resolves' in captured.err

    @pytest.mark.parametrize("command", ["solve", "sweep"])
    def test_epsilon_itself_is_accepted(self, tmp_path, capsys, command):
        code = run([command, write(tmp_path, UNIFORM2), "--tol", repr(sys.float_info.epsilon)])
        assert code in (0, 2)
        assert "error" not in capsys.readouterr().err


class TestVerifyCommand:
    def test_lopsided_cut_reported(self, tmp_path, capsys):
        code = run(["verify", write(tmp_path, UNIFORM2), "--cuts", "0.25", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["fairness"]["equitable_gap"] == pytest.approx(0.5, abs=1e-12)
        assert payload["fairness"]["proportional_ok"] is False
        for row in payload["matrix"]:
            assert row == pytest.approx([0.25, 0.75], abs=1e-12)

    def test_wrong_cut_count_is_input_error(self, tmp_path, capsys):
        code = run(["verify", write(tmp_path, UNIFORM2), "--cuts", "0.2,0.4"])
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestResidualCommand:
    def test_balanced_cuts_give_zero(self, tmp_path, capsys):
        code = run(["residual", write(tmp_path, UNIFORM2), "--cuts", "0.5", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["max_norm"] == pytest.approx(0.0, abs=1e-12)
        assert payload["cuts"] == pytest.approx([0.5], abs=1e-12)

    def test_sphere_point_accepted(self, tmp_path, capsys):
        r = 0.7071067811865476
        code = run(["residual", write(tmp_path, UNIFORM2), "--sphere", f"{r},{-r}", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["residual"][0] == pytest.approx(-1.0, abs=1e-12)

    def test_off_sphere_rejected(self, tmp_path, capsys):
        code = run(["residual", write(tmp_path, UNIFORM2), "--sphere", "0.5,0.5"])
        assert code == 1

    def test_needs_exactly_one_of_cuts_or_sphere(self, tmp_path):
        path = write(tmp_path, UNIFORM2)
        assert run(["residual", path]) == 1
        assert run(["residual", path, "--cuts", "0.5", "--sphere", "1,0"]) == 1


class TestOracleCommand:
    def test_uniform_pair(self, tmp_path, capsys):
        code = run(["oracle", write(tmp_path, UNIFORM2), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["cuts"] == pytest.approx([0.5], abs=1e-9)
        assert payload["gap"] <= 1e-9

    def test_resolution_floor_is_input_error(self, tmp_path):
        assert run(["oracle", write(tmp_path, UNIFORM2), "--resolution", "1e-6"]) == 1


class TestRandomCommand:
    def test_round_trips_through_parser(self, tmp_path, capsys):
        out_path = tmp_path / "random.json"
        code = run(["random", "--players", "4", "--seed", "3", "--out", str(out_path)])
        assert code == 0
        ifile = parse_instance(str(out_path))
        assert len(ifile.densities) == 4

    def test_deterministic_for_seed(self, capsys):
        outputs = []
        for _ in range(2):
            run(["random", "--players", "3", "--seed", "12"])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_linear_kind(self, tmp_path, capsys):
        out_path = tmp_path / "linear.json"
        run(["random", "--players", "2", "--kind", "piecewise_linear", "--seed", "5",
             "--out", str(out_path)])
        ifile = parse_instance(str(out_path))
        assert all(d.kind == "piecewise_linear" for d in ifile.densities)

    def test_generated_instances_solve(self, tmp_path, capsys):
        out_path = tmp_path / "solve_me.json"
        run(["random", "--players", "3", "--seed", "21", "--out", str(out_path)])
        capsys.readouterr()
        code = run(["solve", str(out_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert len(payload["cuts"]) == 2

    @pytest.mark.parametrize("kind", ["piecewise_constant", "piecewise_linear"])
    @pytest.mark.parametrize("seed", ["7", "21"])
    def test_output_is_normalized(self, tmp_path, capsys, kind, seed):
        out_path = tmp_path / "normalized.json"
        run(["random", "--players", "3", "--kind", kind, "--seed", seed, "--out", str(out_path)])
        assert parse_instance(str(out_path)).warnings == ()
        code = run(["solve", str(out_path), "--format", "json"])
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert "warning" not in captured.err

    @pytest.mark.parametrize("players", ["0", "-2"])
    def test_no_players_refused(self, tmp_path, capsys, players):
        out_path = tmp_path / "empty.json"
        code = run(["random", "--players", players, "--out", str(out_path)])
        assert code == 1
        assert "--players must be at least 1" in capsys.readouterr().err
        assert not out_path.exists()


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run([]) == 1

    def test_unknown_command(self, capsys):
        assert run(["bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_argument(self, capsys):
        assert run(["solve"]) == 1

    def test_nonexistent_file(self, capsys):
        assert run(["solve", "/no/such/file.json"]) == 1
        assert "error" in capsys.readouterr().err



SRC = str(Path(equicut.__file__).resolve().parent.parent)

#: Runs the CLI commands given as JSON argv lists in a fresh interpreter,
#: each of which must exit 0, then prints whether numpy got imported.
NUMPY_PROBE = """
import json, sys
import equicut, equicut.cli
for argv in json.loads(sys.argv[1]):
    assert equicut.cli.run(argv) == 0, argv
print(json.dumps("numpy" in sys.modules))
"""


class TestNumpyStaysOffTheCliPath:
    """numpy costs most of the package's import time, so only the commands
    that need it (sweep, oracle) may load it, and only when they run."""

    def numpy_loaded(self, commands) -> bool:
        path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_PROBE, json.dumps(commands)],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_solve_verify_residual_random_leave_numpy_unloaded(self, tmp_path):
        path = write(tmp_path, UNIFORM2)
        assert not self.numpy_loaded([
            ["solve", path, "--format", "json"],
            ["verify", path, "--cuts", "0.5", "--format", "json"],
            ["residual", path, "--cuts", "0.5"],
            ["random", "--players", "2", "--out", str(tmp_path / "random.json")],
        ])

    def test_sweep_and_oracle_load_numpy_when_run(self, tmp_path):
        path = write(tmp_path, UNIFORM2)
        assert self.numpy_loaded([["sweep", path, "--format", "json"]])
        assert self.numpy_loaded([["oracle", path, "--format", "json"]])
