"""The one ``RunConfig`` that ``carentropy.cli.main`` builds and what each command reads of it."""

import dataclasses
import json

import pytest

from carentropy import Region, cli
from carentropy.cli import TABLE1_CAMPAIGNS, TABLE1_COUNTEREXAMPLE, RunConfig, main


def test_config_payload_renders_region_sites_without_output_path():
    regions = {"K": Region((2, 4)), "I": Region((1,)), "J": Region()}
    config = RunConfig("counterexample", 4, 1, 7, "json", "out.json", regions=regions, rhoJ="tracial")
    assert cli._config_payload(config) == {
        "command": "counterexample", "sites": 4, "trials": 1, "seed": 7,
        "output_format": "json", "even": False,
        "regions": {"K": (2, 4), "I": (1,), "J": ()}, "rhoJ": "tracial",
    }


@pytest.mark.parametrize(
    "argv, regions",
    [
        (["verify", "--sites", "4", "--I", "3,1", "--J", "2"], {"I": (1, 3), "J": (2,)}),
        (["counterexample", "--K", "2,4", "--J="], {"K": (2, 4), "I": (1,), "J": ()}),
        (["table1"], None),
    ],
)
def test_commands_receive_regions(monkeypatch, argv, regions):
    seen = []
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda config: seen.append(config) or 0)
    assert main(argv) == 0
    (config,) = seen
    if regions is None:
        assert config.regions is None
    else:
        assert all(type(r) is Region for r in config.regions.values())
        assert {name: r.sites for name, r in config.regions.items()} == regions


def test_table1_campaigns_derive_from_its_config(monkeypatch, tmp_path):
    configs = []
    run_suite = cli._run_suite
    monkeypatch.setattr(cli, "_run_suite", lambda c: configs.append(c) or run_suite(c))
    assert main(["table1", "--trials", "3", "--sites", "4", "--output", str(tmp_path / "t")]) == 0
    assert [(c.suite, c.even) for c in configs] == [(s, e) for _, s, e, _ in TABLE1_CAMPAIGNS]
    table = configs[0]
    assert (table.command, table.sites, table.trials) == ("table1", 4, 3)
    assert all(c == dataclasses.replace(table, seed=c.seed, suite=c.suite, even=c.even)
               for c in configs)
    assert len({c.seed for c in configs}) == 3


def test_counterexample_verdicts_decide_both_exit_codes(monkeypatch, tmp_path):
    # one verdict off what TABLE1_COUNTEREXAMPLE expects fails counterexample and table1 alike
    demo = cli.violation_demo

    def ssa_flipped(*args, **kwargs):
        report = demo(*args, **kwargs)
        return dataclasses.replace(report, verdicts=dict(report.verdicts, ssa="violated"))

    monkeypatch.setattr(cli, "violation_demo", ssa_flipped)
    assert main(["counterexample", "--output", str(tmp_path / "c.json")]) == 1
    assert main(["table1", "--trials", "2", "--output", str(tmp_path / "t.json")]) == 1
    suites = json.loads((tmp_path / "t.json").read_text())["suites"]
    assert [suites[name]["conforms"] for name, _, _ in TABLE1_COUNTEREXAMPLE] == [True, True, False]
