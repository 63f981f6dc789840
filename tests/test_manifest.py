import json
import math

import pytest

from sparsegap.cli import _run_experiment, main
from sparsegap.manifest import ExperimentReport, build_manifest
from test_golden import CASES

FIELDS = ("kind", "params", "master_seed", "summary", "trials", "manifest")
ZERO_ROWS = {"gap": {"pairs": 0}, "equivalence": {"trials": 0}, "stats-sweep": {"s_values": []},
             "weak-rank": {"trials": 0}}  # the change to a config of each experiment that leaves no rows


def indent2(report: ExperimentReport) -> str:
    """The reference encoding: json's Python encoder with indent=2."""
    return json.dumps({k: getattr(report, k) for k in FIELDS}, sort_keys=True, indent=2) + "\n"


def report_with(trials, summary=None) -> ExperimentReport:
    return ExperimentReport(kind="gap", params={"s": 3, "dictionary": {"kind": "x", "m": 4}},
                            master_seed=7, columns=("pair",), trials=trials,
                            summary=summary or {"n": len(trials)},
                            manifest={"tool_version": "0", "timestamp": "now"})


class TestToJson:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_golden_configs(self, name):
        cfg = CASES[name]
        report = _run_experiment(cfg, cfg["seed"])
        report.manifest = build_manifest("sparsegap experiment", cfg, report.params["dictionary"],
                                         cfg["seed"], "0")
        assert report.trials
        assert report.to_json() == indent2(report)

    def test_no_rows(self):
        report = report_with([])
        assert report.to_json() == indent2(report)
        assert '"trials": []\n}\n' in report.to_json()

    def test_one_row(self):
        report = report_with([{"pair": 0}])
        assert report.to_json() == indent2(report)

    def test_awkward_strings_and_values(self):
        awkward = ['"},\n      {"', "}, {", "{", "}", "\\", '"', "x\\n      y", "ünïcödé ∑ 𝔘",
                   "},\n    {\n      ", "\t\r\x00"]
        rows = [{"pair": i, "text": text, "b": None, "a": [math.nan, math.inf, -math.inf][i % 3],
                 "flag": i % 2 == 0, "z": -0.0}
                for i, text in enumerate(awkward)]
        rows += [{"only": None}, {'"},\n      {"': 1, "pair": 99, "{": "}"}]
        report = report_with(rows, summary={'"},\n      {"': math.nan, "keys": awkward})
        assert report.to_json() == indent2(report)


class TestRowKeys:
    """Every experiment's rows hold exactly its report's columns, in order, and a run without rows still writes them."""

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_row_keys_are_the_columns_in_order(self, name):
        report = _run_experiment(CASES[name], CASES[name]["seed"])
        assert report.trials
        assert all(list(row) == list(report.columns) for row in report.trials)

    @pytest.mark.parametrize("name", ["gap-delta0", "equivalence-spikes-sines", "stats-sweep", "weak-rank"])
    def test_zero_rows_write_the_header_and_an_empty_list(self, name, tmp_path):
        columns = _run_experiment(CASES[name], CASES[name]["seed"]).columns
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**CASES[name], **ZERO_ROWS[CASES[name]["experiment"]]}))
        assert main(["experiment", "--config", str(path), "--out", str(tmp_path / "run"), "--format", "both"]) == 0
        assert (tmp_path / "run.csv").read_text() == ",".join(columns) + "\n"
        text = (tmp_path / "run.json").read_text()
        assert text.endswith('"trials": []\n}\n') and json.loads(text)["trials"] == []
