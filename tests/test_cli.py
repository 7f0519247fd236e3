import csv
import json
import math
import os

import pytest

from carentropy import CapacityError, cli
from carentropy.cli import RunConfig, _unexpected_violations, build_parser, main

LN2 = math.log(2.0)


def run(args, tmp_path, name="out.json"):
    path = tmp_path / name
    code = main(args + ["--output", str(path)])
    return code, path


class TestViolationBound:
    """Triangle and MONO-SSA gaps below -2 ln 2 are unexpected for any state."""

    @staticmethod
    def row(trial, triangle=None, mono_ssa=None):
        return {
            "trial": trial, "ssa_gap": -0.1, "ssa_verdict": "holds",
            "triangle_gap": triangle, "triangle_verdict": "violated" if triangle else "",
            "mono_ssa_gap": mono_ssa, "mono_ssa_verdict": "violated" if mono_ssa else "",
        }

    @pytest.mark.parametrize("kind", ["triangle", "mono_ssa"])
    def test_flags_only_beyond_two_ln_two(self, kind):
        config = RunConfig("verify", 3, 2, 0, "json", None, suite="all")
        rows = [self.row(0, **{kind: -2 * LN2}), self.row(1, **{kind: -2 * LN2 - 1e-6})]
        problems = _unexpected_violations(config, rows)
        assert len(problems) == 1
        assert problems[0].startswith(f"trial 1: {kind} violation exceeds 2 ln 2")


class TestVerify:
    def test_ssa_suite_no_violations(self, tmp_path):
        code, path = run(
            ["verify", "--suite", "ssa", "--sites", "3", "--trials", "50", "--seed", "7"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["ssa"]["violations"] == 0
        assert payload["unexpected"] == []
        assert len(payload["trials"]) == 50

    def test_even_mono_ssa_no_violations(self, tmp_path):
        code, path = run(
            ["verify", "--suite", "mono-ssa", "--even", "--sites", "3",
             "--trials", "50", "--seed", "11"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["summary"]["mono_ssa"]["violations"] == 0

    def test_triangle_unrestricted_reports_bounded_magnitude(self, tmp_path):
        code, path = run(
            ["verify", "--suite", "triangle", "--sites", "3", "--trials", "50",
             "--seed", "3"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(path.read_text())
        stats = payload["summary"]["triangle"]
        assert stats["violations"] >= 0
        assert -stats["min_gap"] <= 2 * LN2 + 1e-9

    def test_fixed_regions(self, tmp_path):
        code, path = run(
            ["verify", "--suite", "ssa", "--sites", "3", "--trials", "5",
             "--seed", "1", "--I", "1,2", "--J", "2,3"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert all(t["I"] == "1,2" and t["J"] == "2,3" for t in payload["trials"])

    def test_csv_format(self, tmp_path):
        code, path = run(
            ["verify", "--suite", "ssa", "--sites", "3", "--trials", "5",
             "--seed", "1", "--format", "csv"],
            tmp_path,
            name="out.csv",
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("trial,seed,sites,I,J,K,parity,ssa_gap")
        assert len(lines) == 6

    def test_usage_error_exit_two(self):
        for argv in (
            ["verify", "--suite", "nonsense"],
            ["verify", "--trials", "-1"],
            ["table1", "--sites", "2"],
            ["table1", "--sites", "1"],
            ["verify", "--tolerance", "1e-3"],
            ["counterexample", "--I="],
            ["counterexample", "--K=", "--I=", "--J", "3"],
            ["verify", "--format", "text"],
            ["counterexample", "--format", "text"],
            ["verify", "--suite", "mono-ssa", "--I", "1", "--J", "2"],
            ["verify", "--suite", "mono-ssa", "--I", "1", "--J", "2", "--K", "2,3"],
            ["verify", "--suite", "triangle", "--I", "1,2", "--J", "2"],
            ["verify", "--suite", "all", "--sites", "3", "--I", "1,2", "--J", "2", "--trials", "3"],
            ["verify", "--suite", "all", "--sites", "3", "--I", "1", "--J", "2", "--K", "1,3"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    def test_bad_region_exit_two(self):
        assert main(["verify", "--I", "1,x", "--J", "2"]) == 2
        # a --K off the lattice, even when it meets no disjointness check
        argv = ["verify", "--suite", "ssa", "--sites", "3", "--trials", "1",
                "--I", "1,2", "--J", "2,3", "--K", "9"]
        assert main(argv) == 2

    def test_domain_error_in_command_exit_two(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise CapacityError("x")

        monkeypatch.setattr(cli, "violation_demo", refuse)
        code, _ = run(["counterexample"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err == "error: x\n"

    @pytest.mark.parametrize(
        "args",
        [["verify", "--suite", "ssa", "--trials", "2"], ["counterexample"]],
    )
    def test_unwritable_output_exit_two(self, tmp_path, capsys, args):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(args + ["--output", str(blocker / "report.json")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: cannot write the report:")


class TestCounterexample:
    def test_default_values(self, tmp_path):
        code, path = run(["counterexample", "--seed", "7"], tmp_path)
        assert code == 0
        payload = json.loads(path.read_text())
        assert abs(payload["gaps"]["mono_ssa"] + LN2) <= 1e-9
        assert abs(payload["gaps"]["triangle"] + LN2) <= 1e-9
        assert payload["gaps"]["ssa"] <= 1e-9
        assert payload["verdicts"]["mono_ssa"] == "violated"
        assert max(payload["residuals"].values()) <= 1e-9
        assert payload["recipe"]["rho1_density"]["re"] == [[0.5, 0.5], [0.5, 0.5]]

    def test_two_site_tracial_partner(self, tmp_path):
        code, path = run(
            ["counterexample", "--rhoJ", "tracial", "--J", "3,4", "--seed", "7"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert abs(payload["entropies"]["KJ"] - 2 * LN2) <= 1e-9

    @pytest.mark.parametrize("fmt, densities", [("csv", 0), ("json", 4)])
    def test_densities_built_only_for_json(self, tmp_path, monkeypatch, fmt, densities):
        calls = []
        payload = cli._complex_matrix_payload
        monkeypatch.setattr(cli, "_complex_matrix_payload", lambda m: calls.append(m) or payload(m))
        code, _ = run(["counterexample", "--seed", "7", "--format", fmt], tmp_path, name=f"o.{fmt}")
        assert code == 0
        assert len(calls) == densities

    def test_csv_row(self, tmp_path):
        code, path = run(
            ["counterexample", "--K", "2,4", "--I", "1", "--J=", "--format", "csv"],
            tmp_path,
            name="out.csv",
        )
        assert code == 0
        (row,) = csv.DictReader(path.read_text().splitlines())
        assert (row["trial"], row["sites"], row["parity"]) == ("0", "4", "noneven")
        assert (row["K"], row["I"], row["J"]) == ("2,4", "1", "")
        assert (row["ssa_verdict"], row["triangle_verdict"], row["mono_ssa_verdict"]) == (
            "holds", "violated", "violated",
        )

    def test_overlapping_regions_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", "--K", "1", "--I", "1", "--J", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("empty", ["K", "I"])
    def test_empty_region_named(self, capsys, empty):
        with pytest.raises(SystemExit) as exc:
            main(["counterexample", f"--{empty}="])
        assert exc.value.code == 2
        assert f"--{empty} must name at least one site" in capsys.readouterr().err


class TestTable1:
    def test_text_table(self, tmp_path):
        code, path = run(
            ["table1", "--trials", "20", "--seed", "7", "--format", "text"],
            tmp_path, name="t.txt",
        )
        assert code == 0
        text = path.read_text()
        assert "SSA         holds" in text
        assert "violated in general, holds for every even state" in text
        assert "FAILED" not in text

    def test_json_cells(self, tmp_path):
        code, path = run(
            ["table1", "--trials", "20", "--seed", "7", "--format", "json"],
            tmp_path,
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["conforms"] is True
        assert set(payload["suites"]) == {
            "ssa_all_states", "triangle_even_states", "mono_ssa_even_states",
            "triangle_noneven_counterexample", "mono_ssa_noneven_counterexample",
            "ssa_on_counterexample_state",
        }


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "--suite", "all", "--sites", "3", "--trials", "25", "--seed", "13"],
            ["table1", "--trials", "15", "--seed", "13"],
            ["counterexample", "--seed", "13"],
        ],
    )
    def test_byte_identical_reruns(self, tmp_path, args):
        _, path1 = run(args, tmp_path, name="first.json")
        _, path2 = run(args, tmp_path, name="second.json")
        assert path1.read_bytes() == path2.read_bytes()


class TestParserReuse:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_usage_error_leaves_parser_intact(self, tmp_path):
        args = ["counterexample", "--K", "1,3", "--I", "2", "--J", "4",
                "--rhoJ", "random", "--seed", "5"]
        build_parser.cache_clear()  # the next call is a first call
        _, first = run(args, tmp_path, name="first.json")
        with pytest.raises(SystemExit):
            main(["counterexample", "--rhoJ", "nonsense"])
        _, again = run(args, tmp_path, name="again.json")
        assert first.read_bytes() == again.read_bytes()


class TestNegativeSeed:
    @pytest.mark.parametrize(
        "argv",
        [["verify"], ["table1"], ["counterexample"], ["counterexample", "--rhoJ", "random"]],
        ids=["verify", "table1", "counterexample", "counterexample-random-rhoJ"],
    )
    def test_usage_error_names_the_option(self, capsys, argv):
        # numpy's SeedSequence once refused it as "expected non-negative integer",
        # and the tracial counterexample, which draws nothing, ran
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed must be a non-negative integer" in capsys.readouterr().err


class TestEnvironmentOverrides:
    def test_outdir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CARENTROPY_OUTDIR", str(tmp_path))
        code = main(
            ["verify", "--suite", "ssa", "--sites", "3", "--trials", "3",
             "--seed", "1", "--output", "nested/report.json"]
        )
        assert code == 0
        assert os.path.exists(tmp_path / "nested" / "report.json")
