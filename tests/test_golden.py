"""Golden reports: fixed-seed experiments must reproduce their stored reports.

Each case is run through ``cli.main`` and its JSON and CSV outputs are
compared with ``tests/data/golden/<case>.json``.  Every non-float value
must match exactly and every float within GOLDEN_REL_TOL relative; the
manifest's ``timestamp`` and ``command_line`` are ignored.  A refactor
that claims unchanged reports is checked here.

Regenerate (only when a report is meant to change, and say why):
``PYTHONPATH=src python tests/test_golden.py``.  It rewrites a case only
if the case is new, its config changed, or its run no longer matches the
stored file as this test requires, and prints which it wrote and kept.
"""

import csv
import io
import json
import math
import sys
from pathlib import Path

import pytest

from sparsegap.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
GOLDEN_REL_TOL = 1e-12
IGNORED_MANIFEST_KEYS = ("timestamp", "command_line")

CASES = {
    "gap-delta0": {
        "experiment": "gap", "dictionary": {"kind": "spikes-sines", "m": 16}, "seed": 5,
        "s": 3, "t": 4, "delta": 0, "pairs": 4, "trials_per_pair": 3,
    },
    "gap-delta2": {
        "experiment": "gap",
        "dictionary": {"kind": "random-tight", "m": 8, "n_atoms": 24, "seed": 3}, "seed": 11,
        "s": 3, "t": 4, "delta": 2, "pairs": 4, "trials_per_pair": 2,
    },
    "equivalence-spikes-sines": {
        "experiment": "equivalence", "dictionary": {"kind": "spikes-sines", "m": 16}, "seed": 2,
        "s_set": [0, 5, 9], "t_set": [16, 20, 27], "trials": 6,
    },
    "equivalence-random-unit": {
        "experiment": "equivalence",
        "dictionary": {"kind": "random-unit", "m": 6, "n_atoms": 12, "seed": 4}, "seed": 8,
        "s_set": [1, 2, 3], "t_set": [3, 7, 10, 11], "trials": 5,
    },
    "stats-sweep": {
        "experiment": "stats-sweep",
        "dictionary": {"kind": "random-tight", "m": 6, "n_atoms": 16, "seed": 2}, "seed": 3,
        "s_values": [1, 3, 6, 9], "trials_per_s": 3,
    },
    "gap-random-unit": {  # a frame that is not tight, and a vacuous overlap bound
        "experiment": "gap",
        "dictionary": {"kind": "random-unit", "m": 8, "n_atoms": 20, "seed": 2}, "seed": 7,
        "s": 2, "t": 3, "delta": 1, "pairs": 3, "trials_per_pair": 2,
    },
    "equivalence-random-tight": {
        "experiment": "equivalence",
        "dictionary": {"kind": "random-tight", "m": 6, "n_atoms": 14, "seed": 5}, "seed": 9,
        "s_set": [0, 4], "t_set": [2, 7, 11], "trials": 4,
    },
    "stats-sweep-spikes-sines": {  # N = 2m, and s = 12 > m, where no s atoms are independent
        "experiment": "stats-sweep", "dictionary": {"kind": "spikes-sines", "m": 8}, "seed": 4,
        "s_values": [4, 8, 12], "trials_per_s": 3,
    },
}


def run_case(config: dict, work: Path) -> dict:
    """Exit status, JSON report and CSV text of one experiment config."""
    path = work / "config.json"
    path.write_text(json.dumps(config))
    code = main(["experiment", "--config", str(path), "--out", str(work / "run"), "--format", "both"])
    report = json.loads((work / "run.json").read_text())
    for key in IGNORED_MANIFEST_KEYS:
        report["manifest"].pop(key)
    return {"exit_status": code, "report": report, "csv": (work / "run.csv").read_text()}


def assert_matches(actual, expected, where="") -> None:
    """Exact equality except floats, which may differ by GOLDEN_REL_TOL relative."""
    if isinstance(expected, float) and isinstance(actual, float):
        assert math.isclose(actual, expected, rel_tol=GOLDEN_REL_TOL, abs_tol=0.0) or (
            math.isnan(actual) and math.isnan(expected)), f"{where}: {actual!r} != {expected!r}"
        return
    assert type(actual) is type(expected), f"{where}: {actual!r} != {expected!r}"
    if isinstance(expected, dict):
        assert actual.keys() == expected.keys(), f"{where}: keys differ"
        for key in expected:
            assert_matches(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), f"{where}: lengths differ"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{where}[{i}]")
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


def csv_cells(text: str) -> list[list]:
    """CSV rows with every cell that parses as a float turned into one."""
    def cell(value):
        try:
            return float(value)
        except ValueError:
            return value
    return [[cell(v) for v in row] for row in csv.reader(io.StringIO(text))]


def assert_golden(name: str, actual: dict) -> None:
    """The stored case ``name`` has the config of CASES and ``actual``'s run (from run_case) matches it."""
    expected = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert expected["config"] == CASES[name]
    assert actual["exit_status"] == expected["exit_status"]
    assert_matches(actual["report"], expected["report"], "report")
    assert_matches(csv_cells(actual["csv"]), csv_cells(expected["csv"]), "csv")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    assert_golden(name, run_case(CASES[name], tmp_path))


def test_assert_matches_catches_changes():
    assert_matches({"a": [1.0, "x", True]}, {"a": [1.0 + 1e-15, "x", True]})
    for changed in ({"a": [1.0 + 1e-9, "x", True]}, {"a": [1.0, "y", True]},
                    {"a": [1.0, "x", 1]}, {"a": [1.0, "x"]}, {"b": [1.0, "x", True]}):
        with pytest.raises(AssertionError):
            assert_matches(changed, {"a": [1.0, "x", True]})


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name, config in CASES.items():
        with tempfile.TemporaryDirectory() as work:
            actual = run_case(config, Path(work))
        try:  # a case whose run still matches is kept, so its last bits do not drift from host to host
            assert_golden(name, actual)
            print(f"kept {name}.json", file=sys.stderr)
        except (OSError, ValueError, KeyError, AssertionError):  # new, config changed, or no longer matching
            golden = {"config": config, **actual}
            (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
            print(f"wrote {name}.json", file=sys.stderr)
