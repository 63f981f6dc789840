import csv
import io
import json
import math

import numpy as np
import pytest

from sparsegap import __version__, dictionary
from sparsegap.cli import main
from sparsegap.dictionary import Dictionary, _finalize, save_dictionary

GAP = {"experiment": "gap", "dictionary": {"kind": "spikes-sines", "m": 16}, "seed": 5,
       "s": 4, "t": 4, "delta": 0, "pairs": 3, "trials_per_pair": 3}
SPIKES_8 = {"kind": "spikes-sines", "m": 8}
TIGHT_8_32 = {"kind": "random-tight", "m": 8, "n_atoms": 32, "seed": 0}


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
        code, stdout, _ = run(["dict", "--kind", "spikes-sines", "--m", "16", "--c", "0.5"], capsys)
        assert code == 0
        margin = 0.5 / math.log(32) - 0.25  # mu = 1/sqrt(16)
        assert "weak incoherence (c = 0.5): " in stdout
        assert f"coherence <= c/log N = {margin >= 0} (margin {margin:.3e})" in stdout

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


@pytest.mark.parametrize("flags,message", [
    (["--m", "2", "--n-atoms", "2", "--c", "0"], "c must be positive"),
    (["--m", "2", "--n-atoms", "2", "--c", "nan"], "c must be positive"),
    (["--m", "1", "--n-atoms", "1"], "need at least two atoms"),
], ids=["c-zero", "c-nan", "one-atom"])
def test_rejected_dict_writes_nothing(tmp_path, capsys, flags, message):
    argv = ["dict", "--kind", "random-unit", *flags, "--out", str(tmp_path / "d.sgdict")]
    code, stdout, err = run(argv, capsys)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def case(case_id, argv, prefix, text, status=2, lines=1, config=None):
    """A row of the exit contract: ``config``, when given, is written to cfg.json first."""
    return pytest.param(argv, config, status, lines, prefix, text, id=case_id)


def bad_config(case_id, config, prefix, text, *flags):
    """``experiment`` on ``config`` (and ``flags``) that exits 2."""
    return case(case_id, ["experiment", "--config", "cfg.json", *flags], prefix, text, config=config)


def bad_bounds(case_id, flags, text):
    return case(case_id, ["bounds", "--m", "4", "--n-atoms", "12", *flags], "error: ", text)


def stats_sweep(changes):
    return {"experiment": "stats-sweep", "dictionary": SPIKES_8, "s_values": [1, 2], "trials_per_s": 2, **changes}


TIGHT_FRAME_CAP = "tight-frame construction did not converge in 1 iterations"

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
    # mu is checked whatever delta is, also when delta > min(s, t) makes every row an error row
    *(bad_bounds(f"bounds-mu-7-delta-{delta}", ["--mu", "7", "--s-max", "2", "--delta", delta],
                 "coherence mu = 7.0 outside [0, 1 + 1e-12]") for delta in ("0", "5")),
    # an s or t below one is a usage error, not a "delta exceeds min(s, t)" row
    *(bad_bounds(f"bounds-{name}-delta-{delta}", ["--mu", "0.3", *flags, "--delta", delta],
                 "need 1 <= s, 1 <= t, 0 <= delta <= min(s, t)")
      for name, flags in (("s-0", ["--s-min", "0", "--s-max", "1"]), ("t-0", ["--s-max", "1", "--t", "0"]))
      for delta in ("0", "1")),
    case("both-formats-without-out", ["experiment", "--config", "absent.json", "--format", "both"], "error: ",
         "--format both needs --out"),  # the flag check comes before the config is read
    bad_config("negative-seed-flag", GAP, "config error: ", "--seed must not be negative: -1", "--seed", "-1"),
    # configs rejected before any computation
    bad_config("unknown-experiment", {"experiment": "nope", "dictionary": {}}, "config error: ",
               "unknown experiment 'nope'"),
    bad_config("list-experiment", {**GAP, "experiment": ["gap"]}, "config error: ",
               "unknown experiment ['gap']"),
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
          ("negative-delta", "delta", -1, "must not be negative"))),
    *(bad_config(case_id, {**config, "dictionary": SPIKES_8}, "config error: ", text) for case_id, config, text in (
        ("equivalence-bool-in-list", {"experiment": "equivalence", "s_set": [0, True], "t_set": [3], "trials": 2},
         "experiment 'equivalence' key 's_set' has the wrong type: [0, True]"),
        ("equivalence-negative-trials", {"experiment": "equivalence", "s_set": [0], "t_set": [3], "trials": -5},
         "experiment 'equivalence' key 'trials' must not be negative: -5"),
        ("weak-rank-negative-trials", {"experiment": "weak-rank", "s": 1, "v_size": 2, "trials": -1},
         "experiment 'weak-rank' key 'trials' must not be negative: -1"))),
    *(bad_config(f"stats-sweep-{case_id}", stats_sweep(changes), "config error: ",
                 f"experiment 'stats-sweep' key {text}")
      for case_id, changes, text in (
          ("bool-beta", {"beta": True}, "'beta' has the wrong type: True"),
          ("nan-c-sparsity", {"c_sparsity": math.nan}, "'c_sparsity' must be a finite float: nan"),
          ("infinite-beta", {"beta": math.inf}, "'beta' must be a finite float: inf"),
          ("nan-beta", {"beta": math.nan}, "'beta' must be a finite float: nan"),
          ("beta-past-float-range", {"beta": 10**400}, "'beta' must be a finite float: 1000"))),
    # configs rejected by the dictionary builder or by the experiment
    *(bad_config(f"gap-{case_id}", {**GAP, "dictionary": spec}, "error: ", text) for case_id, spec, text in (
        ("dictionary-without-m", {"kind": "spikes-sines"}, "dictionary missing keys: ['m']"),
        ("string-dictionary-seed", {**TIGHT_8_32, "seed": "7"}, "dictionary key 'seed' has the wrong type: '7'"),
        ("list-kind", {"kind": ["spikes-sines"], "m": 8}, "unknown dictionary kind ['spikes-sines']"),
        ("bool-m", {"kind": "spikes-sines", "m": True}, "dictionary key 'm' has the wrong type: True"),
        ("random-tight-m-0", {**TIGHT_8_32, "m": 0, "n_atoms": 3}, "a redundant tight frame needs n_atoms > m >= 1"))),
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
    bad_config("stats-sweep-c-sparsity-0", stats_sweep({"c_sparsity": 0}), "error: ",
               "c_sparsity must be positive: 0"),
    bad_config("stats-sweep-c-sparsity-negative", stats_sweep({"c_sparsity": -0.5}), "error: ",
               "c_sparsity must be positive: -0.5"),
    case("experiment-builder-cap", ["experiment", "--config", "cfg.json"], "error: ", TIGHT_FRAME_CAP, status=1,
         config={**GAP, "dictionary": TIGHT_8_32}),
]


@pytest.mark.parametrize("argv,config,status,lines,prefix,text", EXIT_CONTRACT)
def test_exit_contract(argv, config, status, lines, prefix, text, tmp_path, monkeypatch, capsys):
    """``main`` returns ``status`` and prints ``lines`` lines, on stdout for status 0 and on stderr otherwise.

    The tight-frame builder is capped at one iteration in every row; only
    the two builder-cap rows build a frame far enough to reach it.
    """
    monkeypatch.setattr(dictionary, "TIGHT_FRAME_MAX_ITERATIONS", 1)
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))  # NaN, Infinity tokens
    code, stdout, stderr = run(argv, capsys)
    message, silent = (stdout, stderr) if status == 0 else (stderr, stdout)
    assert (code, silent, len(message.splitlines())) == (status, "", lines), message
    assert message.startswith(prefix) and text in message, message
