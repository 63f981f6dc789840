import csv
import functools
import io
import json
import inspect
import math
import os
import re
import runpy
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsegap import __version__, cli, dictionary
from sparsegap.cli import main
from sparsegap.dictionary import Dictionary, _finalize, save_dictionary
from test_golden import CASES

GAP = {"experiment": "gap", "dictionary": {"kind": "spikes-sines", "m": 16}, "seed": 5,
       "s": 4, "t": 4, "delta": 0, "pairs": 3, "trials_per_pair": 3}
SPIKES_8 = {"kind": "spikes-sines", "m": 8}
TIGHT_8_32 = {"kind": "random-tight", "m": 8, "n_atoms": 32, "seed": 0}
# the benchmark's workload definitions, run from their file: bench/ is not a package, and nothing is written there
BENCH_WORKLOADS = runpy.run_path(str(Path(__file__).parents[1] / "bench" / "workloads.py"))


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDictCommand:
    def test_build_and_report(self, tmp_path, capsys):
        out = tmp_path / "d.sgdict"
        code, stdout, _ = run(["dict", "--kind", "spikes-sines", "--m", "16",
                               "--out", str(out)], capsys)
        assert code == 0
        assert "coherence mu = 0.25" in stdout
        assert out.exists() and (tmp_path / "d.sgdict.bin").exists()

    def test_weak_incoherence_constant(self, capsys):
        code, stdout, _ = run(["dict", "--kind", "spikes-sines", "--m", "16"], capsys)
        assert code == 0
        margin = float(re.search(r"^tightness margin = (\S+)  ", stdout, re.M).group(1))
        assert 0 <= margin <= dictionary.TIGHTNESS_TOL  # spikes-sines is tight
        assert f"  coherence constant mu log N = {0.25 * math.log(32):.12g}\n" in stdout  # mu = 1/sqrt(16)

    def test_inspect_round_trips_metrics(self, tmp_path, capsys):
        out = tmp_path / "d.sgdict"
        _, built, _ = run(["dict", "--kind", "random-tight", "--m", "8",
                           "--n-atoms", "32", "--seed", "7", "--out", str(out)], capsys)
        code, inspected, _ = run(["dict", "--inspect", str(out)], capsys)
        assert code == 0
        built_metrics = [l for l in built.splitlines() if not l.startswith("wrote")]
        assert inspected.splitlines() == built_metrics

    @pytest.mark.parametrize("atoms,message", [
        (np.eye(3) * (1 - 1e-6), "atom norms"),
        (np.ones((2, 4)) * [[1], [0]], "span"),
        (np.eye(3) * (1 - 5e-9), "redundancy"),  # norms within 1e-8, but the stored rho = 1 is not 1 - 1e-8
        (np.diag([1, math.nan, 1]), "payload holds a non-finite value"),  # not an SVD that fails to converge
        (np.diag([1, math.inf, 1]), "payload holds a non-finite value"),  # not numpy's RuntimeWarning first
        (np.diag([1, complex(0, -math.inf), 1]), "payload holds a non-finite value"),
    ], ids=["norm", "span", "redundancy", "nan", "inf-real", "minus-inf-imaginary"])
    def test_inspect_rejects_invalid_atoms(self, tmp_path, capsys, atoms, message):
        out = tmp_path / "d.sgdict"
        save_dictionary(Dictionary(atoms=atoms.astype(complex), coherence=0.0, redundancy=1.0), out)
        code, stdout, err = run(["dict", "--inspect", str(out)], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1 and message in err

    @pytest.mark.parametrize("changes", [{"coherence": 0.9}, {"redundancy": 4.5},
                                         {"payload": "../d.sgdict.bin"}])
    def test_tampered_file_is_usage_error(self, tmp_path, capsys, changes):
        out = tmp_path / "d.sgdict"
        run(["dict", "--kind", "random-tight", "--m", "8", "--n-atoms", "32",
             "--out", str(out)], capsys)
        meta = json.loads(out.read_text())
        out.write_text(json.dumps({**meta, **changes}))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "gap", "dictionary": {"path": str(out)},
                                   "s": 2, "t": 2, "delta": 0, "pairs": 1,
                                   "trials_per_pair": 1}))
        for argv in (["dict", "--inspect", str(out)], ["experiment", "--config", str(cfg)]):
            code, stdout, err = run(argv, capsys)
            assert code == 2
            assert err.startswith("error:") and stdout == ""


def _break_payload(out):
    (out.parent / "d.sgdict.bin").unlink()


def _payload_is_directory(out):
    (out.parent / "d.sgdict.bin").unlink()
    (out.parent / "d.sgdict.bin").mkdir()


def _drop_metadata_key(key):
    def drop(out):
        meta = json.loads(out.read_text())
        del meta[key]
        out.write_text(json.dumps(meta))
    return drop


class TestUnreadableDictionary:
    """Every command that reads an sgdict-1 file reports a bad one as a usage error."""

    @pytest.mark.parametrize("breakage", [
        _break_payload, _payload_is_directory, _drop_metadata_key("m"),
        _drop_metadata_key("provenance"),
    ], ids=["payload-missing", "payload-is-directory", "no-m", "no-provenance"])
    def test_usage_error(self, tmp_path, capsys, breakage):
        out = tmp_path / "d.sgdict"
        run(["dict", "--kind", "spikes-sines", "--m", "4", "--out", str(out)], capsys)
        breakage(out)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "gap", "dictionary": {"path": str(out)},
                                   "s": 1, "t": 1, "delta": 0, "pairs": 1,
                                   "trials_per_pair": 1}))
        for argv in (["dict", "--inspect", str(out)], ["bounds", "--dict", str(out), "--s-max", "2"],
                     ["experiment", "--config", str(cfg)]):
            code, stdout, err = run(argv, capsys)
            assert code == 2, argv
            assert stdout == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_metadata_path_is_directory(self, tmp_path, capsys):
        code, stdout, err = run(["dict", "--inspect", str(tmp_path)], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1 and err.startswith("error: ")


class TestBoundsCommand:
    def test_sweep_row_count_and_reduction(self, capsys):
        code, stdout, _ = run(["bounds", "--mu", "0.125", "--m", "16", "--n-atoms", "64",
                               "--s-max", "16", "--delta", "0"], capsys)
        assert code == 0
        rows = json.loads(stdout)["rows"]
        assert len(rows) == 16
        first = rows[0]
        assert first["generic_up_rhs"] == first["donoho_elad_rhs"] == 8.0

    def test_delta_exceeding_s_flagged(self, capsys):
        code, stdout, _ = run(["bounds", "--mu", "0.2", "--m", "8", "--n-atoms", "32",
                               "--s-min", "1", "--s-max", "3", "--delta", "2"], capsys)
        assert code == 0
        rows = json.loads(stdout)["rows"]
        assert rows[0]["error"] is not None  # delta=2 > s=1
        assert rows[2]["error"] is None

    def test_fixed_t(self, capsys):
        code, stdout, _ = run(["bounds", "--mu", "0.125", "--m", "16", "--n-atoms", "64",
                               "--s-max", "4", "--t", "6", "--delta", "0"], capsys)
        assert code == 0
        rows = json.loads(stdout)["rows"]
        assert [r["s"] for r in rows] == [1, 2, 3, 4]
        assert all(r["t"] == 6 and r["donoho_elad_lhs"] == r["s"] + 6 for r in rows)

    def test_schema_of_error_and_boundary_rows(self, capsys):
        columns = ["s", "t", "delta", "mu", "m", "n_atoms", "donoho_elad_lhs", "donoho_elad_rhs",
                   "strong_gap_rhs", "overlap_rhs", "overlap_vacuous", "t_threshold", "generic_up_rhs",
                   "weak_gap_rhs", "weak_gap_simplified_rhs", "error"]
        # N = 2m: no weak gap; s = 1 < delta: an error row; s = delta = 2: no t threshold
        args = ["bounds", "--mu", "0.2", "--m", "8", "--n-atoms", "16", "--s-max", "2", "--delta", "2"]
        code, csv_out, _ = run(args + ["--format", "csv"], capsys)
        assert code == 0
        header, error_line, _ = csv_out.splitlines()
        assert header == ",".join(columns)
        assert error_line == "1,1,2,0.2,8,16" + "," * 10 + '"delta exceeds min(s, t)"'  # nine empty cells
        code, json_out, _ = run(args, capsys)
        error_row, boundary_row = json.loads(json_out)["rows"]
        assert error_row == {**dict.fromkeys(columns), "s": 1, "t": 1, "delta": 2, "mu": 0.2, "m": 8,
                             "n_atoms": 16, "error": "delta exceeds min(s, t)"}
        assert sorted(boundary_row) == sorted(columns)
        assert sorted(k for k, v in boundary_row.items() if v is None) == [
            "error", "t_threshold", "weak_gap_rhs", "weak_gap_simplified_rhs"]

    def test_t_threshold_of_a_tiny_mu(self, capsys):
        # mu**-2 overflows below mu ~ 1.5e-154; the threshold itself, about sqrt(s - delta)/mu, is a float
        code, stdout, _ = run(["bounds", "--mu", "1e-160", "--m", "4", "--n-atoms", "12", "--s-max", "3"], capsys)
        assert code == 0
        assert [r["t_threshold"] for r in json.loads(stdout)["rows"]] == [None, 1.414213562373095e+160,
                                                                         1.7320508075688774e+160]

    def test_json_and_csv_agree(self, tmp_path, capsys):
        args = ["bounds", "--mu", "0.125", "--m", "16", "--n-atoms", "64",
                "--s-max", "4", "--delta", "0"]
        _, json_out, _ = run(args, capsys)
        code, csv_out, _ = run(args + ["--format", "csv"], capsys)
        assert code == 0
        json_rows = json.loads(json_out)["rows"]
        csv_rows = list(csv.DictReader(io.StringIO(csv_out)))
        for jr, cr in zip(json_rows, csv_rows):
            assert float(cr["strong_gap_rhs"]) == jr["strong_gap_rhs"]
            assert float(cr["generic_up_rhs"]) == jr["generic_up_rhs"]

    def test_coherence_rounded_above_one(self, near_duplicates_6_16, tmp_path, capsys):
        out = tmp_path / "d.sgdict"
        save_dictionary(near_duplicates_6_16, out)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "gap", "dictionary": {"path": str(out)},
                                   "s": 2, "t": 2, "delta": 0, "pairs": 1, "trials_per_pair": 1}))
        for argv in (["bounds", "--dict", str(out), "--s-max", "3"],
                     ["experiment", "--config", str(cfg)]):
            code, _, err = run(argv, capsys)
            assert code == 0, err


class TestExperimentCommand:
    @pytest.fixture
    def gap_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(GAP))
        return path

    def test_runs_clean(self, gap_config, capsys):
        code, stdout, _ = run(["experiment", "--config", str(gap_config)], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert report["summary"]["violations"] == 0
        assert report["manifest"]["master_seed"] == 5

    def test_repeat_seed_identical_payloads(self, gap_config, tmp_path, monkeypatch, capsys):
        # one command line, which the manifest records, run from two directories
        argv = ["experiment", "--config", str(gap_config), "--out", "run", "--format", "both"]
        out1 = tmp_path / "a" / "run"
        out2 = tmp_path / "b" / "run"
        for out in (out1, out2):
            out.parent.mkdir()
            monkeypatch.chdir(out.parent)
            run(argv, capsys)
        a = json.loads(out1.with_suffix(".json").read_text())
        b = json.loads(out2.with_suffix(".json").read_text())
        a["manifest"].pop("timestamp")
        b["manifest"].pop("timestamp")
        assert a == b
        assert out1.with_suffix(".csv").read_bytes() == out2.with_suffix(".csv").read_bytes()

    def test_manifest_digest_ignores_out(self, gap_config, tmp_path, capsys):
        manifests = []
        for name in ("a", "b"):
            argv = ["experiment", "--config", str(gap_config), "--out", str(tmp_path / name)]
            assert run(argv, capsys)[0] == 0
            manifest = json.loads((tmp_path / f"{name}.json").read_text())["manifest"]
            assert manifest["command_line"] == " ".join(argv)
            manifests.append(manifest)
        assert manifests[0]["config_digest"] == manifests[1]["config_digest"]

    def test_seed_flag_resolved_into_digest(self, gap_config, capsys):
        # --seed 5 repeats the config's own seed: same resolved inputs, same digest
        digests = []
        for extra in ([], ["--seed", "5"]):
            _, stdout, _ = run(["experiment", "--config", str(gap_config)] + extra, capsys)
            digests.append(json.loads(stdout)["manifest"]["config_digest"])
        assert digests[0] == digests[1]

    def test_redraw_cap_exits_one(self, tmp_path, capsys):
        # e1 and four copies of e2: every independent S of size 2 leaves a
        # complement of parallel atoms, so no T of size 2 is well conditioned
        atoms = np.zeros((2, 5), dtype=complex)
        atoms[0, 0] = 1.0
        atoms[1, 1:] = 1.0
        save_dictionary(Dictionary(atoms=atoms, coherence=1.0, redundancy=4.0), tmp_path / "d.sgdict")
        path = tmp_path / "cap.json"
        path.write_text(json.dumps({
            "experiment": "gap",
            "dictionary": {"path": str(tmp_path / "d.sgdict")},
            "s": 2, "t": 2, "delta": 0, "pairs": 1, "trials_per_pair": 1,
        }))
        code, stdout, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 1
        assert stdout == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.fixture
    def near_e1(self, tmp_path):
        # e1 ... e4 and e1 + 1e-8 e2 normalised: e1 lies 1e-8 off the span of the last atom
        near_e1 = np.array([1, 1e-8, 0, 0]) / np.hypot(1, 1e-8)
        save_dictionary(_finalize(np.column_stack([np.eye(4), near_e1]), {"kind": "near-e1"}),
                        tmp_path / "d.sgdict")
        return {"path": str(tmp_path / "d.sgdict")}

    def test_inconclusive_equivalence_exits_one(self, near_e1, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "equivalence", "dictionary": near_e1,
                                    "s_set": [0], "t_set": [4], "trials": 5}))
        code, stdout, _ = run(["experiment", "--config", str(path)], capsys)
        assert code == 1
        assert json.loads(stdout)["summary"]["n_inconclusive"] == 5

    def test_inconclusive_gap_exits_one(self, near_e1, tmp_path, capsys):
        # the pairs that draw S = {0}, T = {4} or the reverse give residuals of about 1e-8
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "gap", "dictionary": near_e1, "seed": 0,
                                    "s": 1, "t": 1, "delta": 0, "pairs": 20, "trials_per_pair": 1}))
        code, stdout, _ = run(["experiment", "--config", str(path)], capsys)
        assert code == 1
        summary = json.loads(stdout)["summary"]
        assert summary["n_inconclusive"] == 2 and summary["violations"] == 0
        assert "failed" not in stdout  # the exit decision is not part of the report

    def test_zero_t_is_accepted(self, gap_config, capsys):
        cfg = json.loads(gap_config.read_text())
        gap_config.write_text(json.dumps({**cfg, "t": 0}))
        code, stdout, _ = run(["experiment", "--config", str(gap_config)], capsys)
        assert code == 0
        assert json.loads(stdout)["summary"]["n_trials"] == 0

    def test_csv_without_out_goes_to_stdout(self, gap_config, tmp_path, capsys):
        code, stdout, _ = run(["experiment", "--config", str(gap_config), "--format", "csv"], capsys)
        assert code == 0
        run(["experiment", "--config", str(gap_config), "--format", "csv",
             "--out", str(tmp_path / "run")], capsys)
        assert stdout == (tmp_path / "run.csv").read_text()
        assert stdout.startswith("pair,trial,residual,")

    def test_out_suffix_is_replaced(self, gap_config, tmp_path, monkeypatch, capsys):
        # --out PATH writes PATH.with_suffix(".json" / ".csv"), so --out exp.1 and --out exp.2 write one file
        monkeypatch.chdir(tmp_path)
        for out, fmt in (("run.2026", "both"), ("plain.json", "json"), ("exp.1", "json"), ("exp.2", "json")):
            assert run(["experiment", "--config", str(gap_config), "--out", out, "--format", fmt], capsys)[0] == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["cfg.json", "exp.json", "plain.json", "run.csv", "run.json"]
        manifest = json.loads((tmp_path / "exp.json").read_text())["manifest"]
        assert manifest["command_line"].endswith("--out exp.2 --format json")  # the second run overwrote the first

    def test_stats_sweep_config(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({
            "experiment": "stats-sweep",
            "dictionary": {"kind": "random-tight", "m": 8, "n_atoms": 32, "seed": 7},
            "seed": 1,
            "s_values": [1, 2], "trials_per_s": 5,
        }))
        code, stdout, _ = run(["experiment", "--config", str(path)], capsys)
        assert code == 0
        report = json.loads(stdout)
        assert set(report["summary"]["per_s"]) == {"1", "2"}


@pytest.mark.parametrize("argv,status,stdout,stderr", [
    (["--version"], 0, f"{__version__}\n", ""),
    (["dict"], 2, "", "error: --kind is required unless --inspect is given\n"),
], ids=["version", "dict-without-kind"])
def test_module_entry_point_exits_with_the_status_of_main(argv, status, stdout, stderr):
    """``python -m sparsegap.cli`` runs ``sys.exit(main())`` in a fresh interpreter, this package first on its path."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "sparsegap.cli", *argv], capture_output=True, text=True, env=env,
                          timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (status, stdout, stderr)


@pytest.mark.parametrize("command", ["experiment", "bounds", "dict"])
def test_unwritable_out_is_usage_error(command, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "gap", "dictionary": {"kind": "spikes-sines", "m": 8},
                               "s": 2, "t": 2, "delta": 0, "pairs": 1, "trials_per_pair": 1}))
    out = str(tmp_path / "missing" / "out")  # its directory does not exist
    argv = {"experiment": ["experiment", "--config", str(cfg), "--out", out],
            "bounds": ["bounds", "--mu", "0.25", "--m", "16", "--n-atoms", "32", "--s-max", "4", "--out", out],
            "dict": ["dict", "--kind", "spikes-sines", "--m", "4", "--out", out]}[command]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_failed_dict_save_leaves_nothing(tmp_path, capsys):
    out = tmp_path / "dd"
    out.mkdir()  # the metadata path is a directory, so only the payload could be written
    code, stdout, err = run(["dict", "--kind", "spikes-sines", "--m", "4", "--out", str(out)], capsys)
    assert code == 2 and err.startswith("error: ")
    assert stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dd"]


@pytest.mark.parametrize("value", ["0", "nan"], ids=["c-zero", "c-nan"])
def test_rejected_dict_writes_nothing(tmp_path, capsys, value):
    """No weak-incoherence constant is chosen: ``--c`` is argparse's usage error, before anything is built."""
    argv = ["dict", "--kind", "random-unit", "--m", "2", "--n-atoms", "2", "--c", value, "--out", str(tmp_path / "d")]
    code, stdout, err = run(argv, capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("usage: ") and err.endswith(f"sparsegap: error: unrecognized arguments: --c {value}\n")
    assert list(tmp_path.iterdir()) == []


def test_one_atom_dictionary_has_coherence_constant_zero(tmp_path, capsys):
    """mu log N is 0 at N = 1 (mu = 0, log 1 = 0), so a one-atom dictionary is written and reported."""
    out = tmp_path / "d.sgdict"
    code, stdout, err = run(["dict", "--kind", "random-unit", "--m", "1", "--n-atoms", "1", "--out", str(out)], capsys)
    assert (code, err) == (0, "")
    assert "  coherence constant mu log N = 0\n" in stdout and stdout.endswith(f"wrote {out}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.sgdict", "d.sgdict.bin"]


@pytest.mark.parametrize("argv,where,keys", [
    (["bounds", "--mu", "0", "--m", "4", "--n-atoms", "12", "--s-max", "1"], ("rows", 0),
     ("donoho_elad_rhs", "strong_gap_rhs", "generic_up_rhs")),
    (["bounds", "--mu", "5e-324", "--m", "4", "--n-atoms", "12", "--s-max", "2"], ("rows", 1), ("t_threshold",)),
    # trial 0 draws two copies of one atom: Phi_S has a zero singular value
    (["experiment", "--config", "cfg.json"], ("trials", 0), ("pinv_norm",)),
], ids=["bounds-mu-0", "bounds-subnormal-mu", "stats-sweep-rank-deficient-s"])
def test_infinite_fields_are_bare_infinity_tokens(argv, where, keys, tmp_path, monkeypatch, capsys):
    """JSON output is Python's json dialect: an infinite float is the bare token Infinity, which json.loads reads."""
    monkeypatch.chdir(tmp_path)
    save_dictionary(_finalize(np.tile(np.eye(2, dtype=complex), 3), {}), tmp_path / "d.sgdict")  # tight, N = 3m
    (tmp_path / "cfg.json").write_text(json.dumps({"experiment": "stats-sweep", "dictionary": {"path": "d.sgdict"},
                                                   "s_values": [2], "trials_per_s": 4}))
    code, stdout, err = run([*argv, "--format", "json"], capsys)
    assert (code, err) == (0, "")
    row = json.loads(stdout)
    for step in where:
        row = row[step]
    for key in keys:
        assert row[key] == math.inf and f'"{key}": Infinity' in stdout


def test_sweep_quantiles_next_to_an_infinite_sample(tmp_path, monkeypatch, capsys):
    """A sweep whose pinv_norm samples hold inf reports their median and 1 - 1/N quantile, never NaN, and numpy
    prints no warning: np.quantile gives 1 + inf * 0 = NaN for the median of [1, 1, inf]."""
    monkeypatch.chdir(tmp_path)
    save_dictionary(_finalize(np.eye(2, dtype=complex)[:, [0, 0, 1]], {}), tmp_path / "d.sgdict")  # [e1, e1, e2]
    (tmp_path / "cfg.json").write_text(json.dumps({"experiment": "stats-sweep", "dictionary": {"path": "d.sgdict"},
                                                   "s_values": [2], "trials_per_s": 3}))
    code, stdout, err = run(["experiment", "--config", "cfg.json", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    report = json.loads(stdout)
    assert sorted(r["pinv_norm"] for r in report["trials"]) == [1.0, 1.0, math.inf]
    assert report["summary"]["per_s"]["2"]["pinv_norm"] == {"median": 1.0, "q_1_minus_1_over_n": math.inf}
    assert '"q_1_minus_1_over_n": Infinity' in stdout


def test_relative_dictionary_path_is_read_from_the_working_directory(tmp_path, monkeypatch, capsys):
    """A config's relative ``path`` is opened from the working directory, not from the config file's directory."""
    (tmp_path / "sub").mkdir()
    save_dictionary(_finalize(np.tile(np.eye(2, dtype=complex), 3), {}), tmp_path / "sub" / "d.sgdict")
    (tmp_path / "sub" / "c.json").write_text(json.dumps({"experiment": "stats-sweep", "dictionary": {"path": "d.sgdict"},
                                                         "s_values": [2], "trials_per_s": 2}))
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(["experiment", "--config", "sub/c.json"], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith("error: cannot read dictionary d.sgdict: FileNotFoundError") and err.count("\n") == 1
    monkeypatch.chdir(tmp_path / "sub")
    code, stdout, err = run(["experiment", "--config", "c.json"], capsys)
    assert (code, err) == (0, "") and json.loads(stdout)["kind"] == "stats-sweep"


@pytest.mark.parametrize("command", ["dict", "experiment"])
@pytest.mark.parametrize("message", ["Unable to allocate 74.5 GiB for an array", ""])
def test_memory_error_is_one_error_line(command, message, tmp_path, monkeypatch, capsys):
    """A builder that runs out of memory gives exit 2 and one ``error:`` line, never a traceback.

    The builder is replaced by one that raises at once, so nothing large is allocated.
    """
    def out_of_memory(m):
        raise MemoryError(message)
    monkeypatch.setattr(dictionary, "build_spikes_sines", out_of_memory)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({**GAP, "dictionary": {"kind": "spikes-sines", "m": 100000}}))
    argv = {"dict": ["dict", "--kind", "spikes-sines", "--m", "100000", "--out", "d.sgdict"],
            "experiment": ["experiment", "--config", "cfg.json", "--out", "report"]}[command]
    code, stdout, err = run(argv, capsys)
    assert (code, stdout, err) == (2, "", f"error: {message or 'MemoryError'}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def case(case_id, argv, prefix, text, status=2, lines=1, config=None, files=None):
    """A row of the exit contract: ``config``, when given, is written to cfg.json first (bytes as given, else JSON),
    and each of ``files`` (a name and its bytes)."""
    return pytest.param(argv, config, files or {}, status, lines, prefix, text, id=case_id)


def bad_config(case_id, config, prefix, text, *flags):
    """``experiment`` on ``config`` (and ``flags``) that exits 2."""
    return case(case_id, ["experiment", "--config", "cfg.json", *flags], prefix, text, config=config)


def bad_bounds(case_id, flags, text):
    return case(case_id, ["bounds", "--m", "4", "--n-atoms", "12", *flags], "error: ", text)


def stats_sweep(changes):
    return {"experiment": "stats-sweep", "dictionary": SPIKES_8, "s_values": [1, 2], "trials_per_s": 2, **changes}


TIGHT_FRAME_CAP = "tight-frame construction did not converge in 1 iterations"
UNREADABLE_METADATA = {  # sgdict-1 metadata that no JSON object can be read from
    "nested-100000-deep": (b"[" * 100_000 + b"]" * 100_000, "RecursionError: maximum recursion depth exceeded"),
    "not-json": (b"sgdict-1", "JSONDecodeError: Expecting value: line 1 column 1 (char 0)"),
    "not-utf-8": (b"\xff{}", "UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff in position 0"),
}


def identity_3(coherence, redundancy) -> dict:
    """A 3 x 3 identity as d.sgdict (coherence 0, redundancy 1), its metadata storing the metrics given."""
    meta = {"format": "sgdict-1", "m": 3, "n_atoms": 3, "provenance": {}, "payload": "d.sgdict.bin",
            "coherence": coherence, "redundancy": redundancy}
    return {"d.sgdict": json.dumps(meta).encode(), "d.sgdict.bin": np.eye(3).astype("<c16").tobytes(order="F")}


HUGE_ENTRY = {  # a 1 x 1 dictionary whose one entry's square overflows
    "d.sgdict": b'{"format": "sgdict-1", "m": 1, "n_atoms": 1, "provenance": {}, "payload": "d.sgdict.bin"}',
    "d.sgdict.bin": struct.pack("<2d", 1e200, 0.0),
}

READ_DICTIONARY = {  # each command that reads an sgdict-1 file, on d.sgdict
    "dict-inspect": (["dict", "--inspect", "d.sgdict"], None),
    "bounds-dict": (["bounds", "--dict", "d.sgdict", "--s-max", "2"], None),
    "experiment-path": (["experiment", "--config", "cfg.json"], {**GAP, "dictionary": {"path": "d.sgdict"}}),
}

EXIT_CONTRACT = [
    # argparse's own exits
    case("version", ["--version"], __version__, "", status=0),
    case("unknown-flag", ["dict", "--bogus"], "usage: ", "sparsegap: error: unrecognized arguments: --bogus",
         lines=2),
    case("threads-flag", ["experiment", "--threads", "2", "--config", "cfg.json"], "usage: ",
         "sparsegap: error: unrecognized arguments: --threads 2", lines=2, config=GAP),
    # flags the commands reject
    case("dict-without-kind", ["dict"], "error: ", "--kind is required unless --inspect is given"),
    case("dict-spikes-sines-m-1", ["dict", "--kind", "spikes-sines", "--m", "1"], "error: ",
         "spikes-and-sines needs m >= 2"),
    case("dict-random-tight-m-0", ["dict", "--kind", "random-tight", "--m", "0", "--n-atoms", "3"], "error: ",
         "a redundant tight frame needs n_atoms > m >= 1"),
    case("dict-builder-cap", ["dict", "--kind", "random-tight", "--m", "8", "--n-atoms", "32"], "error: ",
         TIGHT_FRAME_CAP, status=1),
    case("bounds-missing-parameters", ["bounds", "--s-max", "4"], "error: ",
         "provide --dict or all of --mu/--m/--n-atoms"),
    # flags the chosen mode or kind does not read; the file named is never opened
    *(case(f"dict-spikes-sines-{name}", ["dict", "--kind", "spikes-sines", "--m", "4", *flags], "error: ",
           f"dictionary: build_spikes_sines does not read {unread}")
      for name, flags, unread in (("seed", ["--seed", "3"], ["seed"]), ("n-atoms", ["--n-atoms", "8"], ["n_atoms"]),
                                  ("seed-0", ["--seed", "0", "--n-atoms", "8"], ["n_atoms", "seed"]))),
    case("dict-random-unit-without-n-atoms", ["dict", "--kind", "random-unit", "--m", "4"], "error: ",
         "dictionary missing keys: ['n_atoms']"),
    *(case(f"dict-inspect-{name}", ["dict", "--inspect", "absent.sgdict", *flags], "error: ",
           f"dictionary: load_dictionary does not read {unread}")
      for name, flags, unread in (("out", ["--out", "copy.sgdict"], ["out"]),
                                  ("kind", ["--kind", "spikes-sines"], ["kind"]), ("m", ["--m", "4"], ["m"]),
                                  ("n-atoms", ["--n-atoms", "8"], ["n_atoms"]), ("seed", ["--seed", "0"], ["seed"]))),
    *(case(f"bounds-dict-{flag[2:]}", ["bounds", "--dict", "absent.sgdict", flag, value, "--s-max", "2"], "error: ",
           "provide --dict or all of --mu/--m/--n-atoms, not both")
      for flag, value in (("--mu", "0.9"), ("--m", "4"), ("--n-atoms", "12"))),
    case("dict-infinite-c", ["dict", "--kind", "spikes-sines", "--m", "4", "--c", "inf"], "usage: ",
         "sparsegap: error: unrecognized arguments: --c inf", lines=2),
    # mu is checked whatever delta is, also when delta > min(s, t) makes every row an error row
    *(bad_bounds(f"bounds-mu-7-delta-{delta}", ["--mu", "7", "--s-max", "2", "--delta", delta],
                 "coherence mu = 7.0 outside [0, 1 + 1e-12]") for delta in ("0", "5")),
    # an s or t below one is a usage error, not a "delta exceeds min(s, t)" row
    *(bad_bounds(f"bounds-{name}-delta-{delta}", ["--mu", "0.3", *flags, "--delta", delta],
                 "need 1 <= s, 1 <= t, 0 <= delta <= min(s, t)")
      for name, flags in (("s-0", ["--s-min", "0", "--s-max", "1"]), ("t-0", ["--s-max", "1", "--t", "0"]))
      for delta in ("0", "1")),
    # a sweep over no s, or an m and N that no dictionary has
    *(bad_bounds(f"bounds-{name}", ["--mu", "0.3", *flags], f"need 1 <= m ({m}) <= n_atoms ({n}) and s_min ({lo})")
      for name, flags, m, n, lo in (
          ("m-0", ["--m", "0", "--s-max", "1"], 0, 12, 1),
          ("negative-n-atoms", ["--n-atoms", "-5", "--s-max", "1"], 4, -5, 1),
          ("n-atoms-below-m", ["--n-atoms", "3", "--s-max", "1"], 4, 3, 1),
          ("s-min-above-s-max", ["--s-min", "3", "--s-max", "2"], 4, 12, 3))),
    # a sweep past s = m, where no s atoms are independent: a table has at most m rows, so none runs out of memory
    *(bad_bounds(f"bounds-s-max-{name}", ["--mu", "0.3", "--s-max", s_max],
                 f"need 1 <= m (4) <= n_atoms (12) and s_min (1) <= s_max ({s_max}) <= m")
      for name, s_max in (("5", "5"), ("10-to-the-400", str(10**400)))),
    case("both-formats-without-out", ["experiment", "--config", "absent.json", "--format", "both"], "error: ",
         "--format both needs --out"),  # the flag check comes before the config is read
    bad_config("negative-seed-flag", GAP, "config error: ", "experiment 'gap' key 'seed' must not be negative: -1",
               "--seed", "-1"),
    # configs rejected before any computation
    bad_config("unknown-experiment", {"experiment": "nope", "dictionary": {}}, "config error: ",
               "unknown experiment 'nope'"),
    # retired: its bound s + 2m|V|/N exceeds every rank (at most m) once |V| > (m - s)N/(2m)
    bad_config("weak-rank-retired", {"experiment": "weak-rank", "dictionary": SPIKES_8, "s": 1, "v_size": 2,
                                     "trials": 1}, "config error: ", "unknown experiment 'weak-rank'"),
    bad_config("list-experiment", {**GAP, "experiment": ["gap"]}, "config error: ",
               "unknown experiment ['gap']"),
    bad_config("list-config", [GAP], "config error: ", "config must be a JSON object"),
    bad_config("gap-without-dictionary", {k: v for k, v in GAP.items() if k != "dictionary"}, "config error: ",
               "config needs a 'dictionary' object"),
    bad_config("gap-missing-keys", {"experiment": "gap", "dictionary": SPIKES_8, "s": 2}, "config error: ",
               "experiment 'gap' missing keys: ['delta', 'pairs', 't', 'trials_per_pair']"),
    *(bad_config(f"gap-{case_id}", {**GAP, key: value}, "config error: ",
                 f"experiment 'gap' key {key!r} {reason}: {value!r}")
      for case_id, key, value, reason in (
          ("list-s", "s", [1], "has the wrong type"), ("list-seed", "seed", [1], "has the wrong type"),
          ("bool-s", "s", True, "has the wrong type"), ("bool-delta", "delta", False, "has the wrong type"),
          ("bool-seed", "seed", True, "has the wrong type"), ("negative-pairs", "pairs", -3, "must not be negative"),
          ("negative-trials", "trials_per_pair", -1, "must not be negative"),
          ("negative-seed", "seed", -1, "must not be negative"),
          ("negative-delta", "delta", -1, "must not be negative"),
          # every config value is an integer: no key takes a float, even an integral or a non-finite one
          ("float-s", "s", 2.0, "has the wrong type"), ("infinite-pairs", "pairs", math.inf, "has the wrong type"),
          ("nan-trials", "trials_per_pair", math.nan, "has the wrong type"))),
    *(bad_config(case_id, {**config, "dictionary": SPIKES_8}, "config error: ", text) for case_id, config, text in (
        ("equivalence-bool-in-list", {"experiment": "equivalence", "s_set": [0, True], "t_set": [3], "trials": 2},
         "experiment 'equivalence' key 's_set' has the wrong type: [0, True]"),
        ("equivalence-negative-trials", {"experiment": "equivalence", "s_set": [0], "t_set": [3], "trials": -5},
         "experiment 'equivalence' key 'trials' must not be negative: -5"))),
    *(bad_config(f"stats-sweep-{case_id}", stats_sweep({key: value}), "config error: ",
                 f"experiment 'stats-sweep' key {key!r} {reason}: {value!r}")
      for case_id, key, value, reason in (
          ("negative-trials", "trials_per_s", -1, "must not be negative"),
          ("negative-seed", "seed", -2, "must not be negative"),
          ("bool-in-list", "s_values", [1, True], "has the wrong type"))),
    *(bad_config(f"gap-{case_id}", {**GAP, "dictionary": spec}, "config error: ", text) for case_id, spec, text in (
        ("dictionary-without-m", {"kind": "spikes-sines"}, "dictionary missing keys: ['m']"),
        ("string-dictionary-seed", {**TIGHT_8_32, "seed": "7"}, "dictionary key 'seed' has the wrong type: '7'"),
        ("list-kind", {"kind": ["spikes-sines"], "m": 8}, "unknown dictionary kind ['spikes-sines']"),
        ("bool-m", {"kind": "spikes-sines", "m": True}, "dictionary key 'm' has the wrong type: True"),
        ("spikes-sines-n-atoms", {**SPIKES_8, "n_atoms": 99}, "dictionary: build_spikes_sines does not read ['n_atoms']"),
        ("spikes-sines-seed", {**SPIKES_8, "seed": 3}, "dictionary: build_spikes_sines does not read ['seed']"),
        ("path-and-kind", {"path": "absent.sgdict", "kind": "spikes-sines"},
         "dictionary: load_dictionary does not read ['kind']"),
        ("path-and-m", {"path": "absent.sgdict", "m": 8}, "dictionary: load_dictionary does not read ['m']"),
        ("integer-path", {"path": 7}, "dictionary key 'path' has the wrong type: 7"))),
    # keys that nothing reads, however well typed
    *(bad_config(f"gap-unread-{key}", {**GAP, key: value}, "config error: ",
                 f"experiment 'gap': gap_experiment does not read [{key!r}]")
      for key, value in (("betta", 7), ("d", 16), ("beta", 1.5), ("kind", "spikes-sines"))),
    bad_config("stats-sweep-unread-trials", stats_sweep({"trials": 5}), "config error: ",
               "experiment 'stats-sweep': statistics_sweep does not read ['trials']"),
    # the weak gap's constants are reported, never chosen
    *(bad_config(f"stats-sweep-{case_id}", stats_sweep({"c_sparsity": value}), "config error: ",
                 "experiment 'stats-sweep': statistics_sweep does not read ['c_sparsity']")
      for case_id, value in (("nan-c-sparsity", math.nan), ("c-sparsity-0", 0), ("c-sparsity-negative", -0.5))),
    # nor is a quantile level: the per-s gate_violation_fraction answers for every level at once
    *(bad_config(f"stats-sweep-{case_id}", stats_sweep({"beta": value}), "config error: ",
                 "experiment 'stats-sweep': statistics_sweep does not read ['beta']")
      for case_id, value in (("beta-1", 1), ("bool-beta", True), ("infinite-beta", math.inf), ("nan-beta", math.nan),
                             ("beta-past-float-range", 10**400))),
    # config files that no JSON object can be read from, and numbers past float range
    bad_config("config-nested-100000-deep", b"[" * 100_000 + b"]" * 100_000, "config error: ",
               "maximum recursion depth exceeded"),
    bad_config("config-not-utf-8", b"\xff{}", "config error: ", "'utf-8' codec can't decode byte 0xff"),
    *(bad_bounds(f"bounds-{name}-past-float-range", ["--mu", "0.3", *flags], "int too large to convert to float")
      for name, flags in (("n-atoms", ["--n-atoms", str(10**400), "--s-max", "1"]),
                          ("t", ["--t", str(10**400), "--s-max", "1"]),
                          ("s", ["--s-min", str(10**400), "--s-max", str(10**400), "--m", str(10**400),
                                 "--n-atoms", str(10**400)]))),
    # configs rejected by the dictionary builder or by the experiment
    bad_config("gap-random-tight-m-0", {**GAP, "dictionary": {**TIGHT_8_32, "m": 0, "n_atoms": 3}}, "error: ",
               "a redundant tight frame needs n_atoms > m >= 1"),
    bad_config("gap-s-above-m", {**GAP, "s": 17}, "error: ",
               "s = 17 exceeds m = 16: no 17 atoms are linearly independent"),
    bad_config("equivalence-index-past-last-atom", {"experiment": "equivalence", "dictionary": {**SPIKES_8, "m": 4},
                                                    "s_set": [0, 99], "t_set": [1], "trials": 2},
               "error: ", "atom indices must be below the 8 atoms of the dictionary"),
    bad_config("equivalence-empty-support", {"experiment": "equivalence", "dictionary": SPIKES_8,
                                             "s_set": [], "t_set": [2, 3], "trials": 2},
               "error: ", "S must be a nonempty linearly independent set"),
    bad_config("stats-sweep-repeated-s", stats_sweep({"s_values": [3, 3]}), "error: ",
               "s_values must not repeat: [3, 3]"),
    bad_config("stats-sweep-no-trials", stats_sweep({"trials_per_s": 0}), "error: ",
               "trials_per_s must be positive"),
    # s above m is measured on purpose; only an s outside [1, N] names no subset
    *(bad_config(f"stats-sweep-s-{name}", stats_sweep({"s_values": s_values}), "error: ",
                 f"s_values must lie in [1, 16]: {s_values}")
      for name, s_values in (("0", [0, 2]), ("above-n", [1, 17]))),
    case("experiment-builder-cap", ["experiment", "--config", "cfg.json"], "error: ", TIGHT_FRAME_CAP, status=1,
         config={**GAP, "dictionary": TIGHT_8_32}),
    # sgdict-1 metadata that cannot be read, through each command that reads it
    *(case(f"{command}-metadata-{name}", argv, "error: ", f"cannot read dictionary d.sgdict: {text}", config=config,
           files={"d.sgdict": data})
      for command, (argv, config) in READ_DICTIONARY.items() for name, (data, text) in UNREADABLE_METADATA.items()),
    # stored metrics must be numbers: a JSON boolean equals 0 or 1 but is neither
    *(case(f"dict-inspect-bool-{name}", ["dict", "--inspect", "d.sgdict"], "error: ", text, files=files)
      for name, files, text in (
          ("coherence", identity_3(False, 1.0), "stored coherence False differs from recomputed 0.0"),
          ("redundancy", identity_3(0.0, True), "stored redundancy True differs from recomputed 1.0"))),
    # an entry whose square overflows: an infinite norm, and no overflow warning on stderr
    case("dict-inspect-entry-past-square-root-of-float-max", ["dict", "--inspect", "d.sgdict"], "error: ",
         "atom norms deviate from 1 by inf", files=HUGE_ENTRY),
]


def record_calls(monkeypatch) -> list:
    """Names of the dictionary builders, the loader and the experiments called from now on."""
    calls = []
    for module, name in [*cli.DICTIONARIES.values(), (dictionary, "load_dictionary"), *cli.EXPERIMENTS.values()]:
        def recorded(*args, _fn=getattr(module, name), **kwargs):
            calls.append(_fn.__name__)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, functools.wraps(getattr(module, name))(recorded))
    return calls


@pytest.mark.parametrize("argv,config,files,status,lines,prefix,text", EXIT_CONTRACT)
def test_exit_contract(argv, config, files, status, lines, prefix, text, tmp_path, monkeypatch, capsys):
    """``main`` returns ``status`` and prints ``lines`` lines, on stdout for status 0 and on stderr otherwise.

    No row leaves a file but its inputs, and a config error comes before any dictionary or
    experiment function is called.  The tight-frame builder is capped at one
    iteration in every row; only the two builder-cap rows build a frame far
    enough to reach it.
    """
    monkeypatch.setattr(dictionary, "TIGHT_FRAME_MAX_ITERATIONS", 1)
    monkeypatch.chdir(tmp_path)
    calls = record_calls(monkeypatch)
    if config is not None:  # JSON with NaN and Infinity tokens
        (tmp_path / "cfg.json").write_bytes(config if isinstance(config, bytes) else json.dumps(config).encode())
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    code, stdout, stderr = run(argv, capsys)
    message, silent = (stdout, stderr) if status == 0 else (stderr, stdout)
    assert (code, silent, len(message.splitlines())) == (status, "", lines), message
    assert message.startswith(prefix) and text in message, message
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["cfg.json"] * (config is not None) + [*files])
    assert not (calls and prefix == "config error: "), calls


@pytest.mark.parametrize("source,name", [*(("bench", name) for name in BENCH_WORKLOADS["WORKLOADS"]),
                                         *(("golden", name) for name in CASES)])
def test_sent_configs_bind_without_computing(source, name, tmp_path, monkeypatch):
    """Every key of each config the benchmark sends and of each golden config is one that its function reads."""
    if source == "bench":
        BENCH_WORKLOADS["prepare"](name, 1, tmp_path)  # the config.json the benchmark writes for seed 1
        cfg = json.loads((tmp_path / "config.json").read_text())
    else:
        cfg = CASES[name]
    calls = record_calls(monkeypatch)
    build, experiment = cli.bind_config(cfg)
    assert calls == []
    assert experiment.keywords == {k: v for k, v in cfg.items() if k not in ("experiment", "dictionary")}
    assert build.keywords == {k: v for k, v in cfg["dictionary"].items() if k != "kind"}


@pytest.mark.parametrize("module,name", [*cli.EXPERIMENTS.values(), *cli.DICTIONARIES.values()],
                         ids=[*cli.EXPERIMENTS, *cli.DICTIONARIES])
def test_every_bound_parameter_is_an_integer(module, name):
    """Each parameter a config or ``dict`` flag can set, but the dictionary ``d`` and the LIST_KEYS, is an ``int``:
    ``_bind`` takes nothing else there, so a parameter of another type would be one that no config can set."""
    params = inspect.signature(getattr(module, name), eval_str=True).parameters.values()
    types = {p.name: p.annotation for p in params if p.name != "d" and p.name not in cli.LIST_KEYS}
    assert types == dict.fromkeys(types, int)


@pytest.mark.parametrize("name", CASES)
def test_seed_defaults_to_zero_in_each_signature(name):
    """Each seeded builder and each experiment, called without ``seed``, gives what it gives with ``seed=0``."""
    cfg = {k: v for k, v in CASES[name].items() if k != "seed"}
    build, run = cli.bind_config({**cfg, "dictionary": {k: v for k, v in cfg["dictionary"].items() if k != "seed"}})
    assert "seed" not in build.keywords and "seed" not in run.keywords
    d = build()
    if "seed" in inspect.signature(build.func).parameters:
        seeded = build.func(**build.keywords, seed=0)
        assert d.atoms.tobytes() == seeded.atoms.tobytes() and d.provenance == seeded.provenance
        assert d.provenance["seed"] == 0
    assert run(d).to_json() == run.func(d, **run.keywords, seed=0).to_json()


@pytest.mark.parametrize("name", CASES)
def test_absent_seed_reports_as_seed_zero(name, tmp_path, capsys):
    """A config without ``seed`` and the same config with ``"seed": 0`` give one report, ``config_digest`` included."""
    outputs = []
    for cfg in ({k: v for k, v in CASES[name].items() if k != "seed"}, {**CASES[name], "seed": 0}):
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        code, stdout, stderr = run(["experiment", "--config", str(tmp_path / "cfg.json")], capsys)
        outputs.append((code, re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', stdout), stderr))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["manifest"]["master_seed"] == 0


def test_dictionary_without_seed_is_built_from_seed_zero(tmp_path, capsys):
    """A seeded dictionary kind without ``seed`` takes its builder's default, 0, and its provenance records it."""
    spec = {"kind": "random-tight", "m": 8, "n_atoms": 32}
    reports = []
    for dictionary_spec in (spec, {**spec, "seed": 0}):
        (tmp_path / "cfg.json").write_text(json.dumps({**GAP, "dictionary": dictionary_spec}))
        code, stdout, _ = run(["experiment", "--config", str(tmp_path / "cfg.json")], capsys)
        assert code == 0
        reports.append(json.loads(stdout))
    assert reports[0]["manifest"]["dictionary_provenance"] == {**spec, "seed": 0}
    assert reports[0]["trials"] == reports[1]["trials"]
