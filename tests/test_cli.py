import csv
import io
import json
import math

import numpy as np
import pytest

from sparsegap.cli import main
from sparsegap.dictionary import Dictionary, _finalize, save_dictionary


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

    def test_usage_error_small_m(self, capsys):
        code, _, err = run(["dict", "--kind", "spikes-sines", "--m", "1"], capsys)
        assert code == 2
        assert "error" in err

    def test_random_tight_without_rows_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "gap", "s": 1, "t": 1, "delta": 0, "pairs": 1,
                                   "trials_per_pair": 1, "dictionary": {
                                       "kind": "random-tight", "m": 0, "n_atoms": 3, "seed": 0}}))
        for argv in (["dict", "--kind", "random-tight", "--m", "0", "--n-atoms", "3"],
                     ["experiment", "--config", str(cfg)]):
            code, stdout, err = run(argv, capsys)
            assert code == 2, argv
            assert stdout == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

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

    def test_invalid_mu_rejected_whatever_delta(self, capsys):
        # with delta = 5 > min(s, t) every row is an error row, and mu must still be checked
        for delta in ("0", "5"):
            code, stdout, err = run(["bounds", "--mu", "7", "--m", "4", "--n-atoms", "12", "--s-max", "2",
                                     "--delta", delta], capsys)
            assert code == 2, delta
            assert stdout == "" and "coherence mu = 7.0 outside" in err

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

    @pytest.mark.parametrize("bad", [["--s-min", "0", "--s-max", "1"], ["--s-max", "1", "--t", "0"]])
    def test_s_or_t_below_one_rejected_whatever_delta(self, bad, capsys):
        # an out-of-range s or t is a usage error, not a "delta exceeds min(s, t)" row
        for delta in ("0", "1"):
            code, stdout, err = run(["bounds", "--mu", "0.3", "--m", "4", "--n-atoms", "12", *bad,
                                     "--delta", delta], capsys)
            assert code == 2, delta
            assert stdout == "" and err == "error: need 1 <= s, 1 <= t, 0 <= delta <= min(s, t)\n"

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

    def test_missing_parameters(self, capsys):
        code, _, err = run(["bounds", "--s-max", "4"], capsys)
        assert code == 2


class TestExperimentCommand:
    @pytest.fixture
    def gap_config(self, tmp_path):
        cfg = {
            "experiment": "gap",
            "dictionary": {"kind": "spikes-sines", "m": 16},
            "seed": 5,
            "s": 4, "t": 4, "delta": 0, "pairs": 3, "trials_per_pair": 3,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
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

    def test_negative_seed_flag_is_config_error(self, gap_config, capsys):
        code, stdout, stderr = run(["experiment", "--config", str(gap_config), "--seed", "-1"], capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("config error:") and "--seed" in stderr
        assert len(stderr.splitlines()) == 1

    def test_threads_flag_rejected(self, gap_config, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--threads", "2", "--config", str(gap_config)])
        assert exc.value.code == 2

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

    def test_unknown_experiment_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "nope", "dictionary": {}}))
        code, _, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 2
        assert "config error" in err

    def test_missing_keys_rejected_before_compute(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "experiment": "gap",
            "dictionary": {"kind": "spikes-sines", "m": 8},
            "s": 2,
        }))
        code, _, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 2
        assert "missing keys" in err

    @pytest.mark.parametrize("changes", [
        {"dictionary": {"kind": "spikes-sines"}},
        {"dictionary": {"kind": "random-tight", "m": 8, "n_atoms": 32, "seed": "7"}},
        {"dictionary": {"kind": ["spikes-sines"], "m": 8}},
        {"s": [1]},
        {"seed": [1]},
        {"experiment": ["gap"]},
    ], ids=["dictionary-without-m", "string-seed", "list-kind", "list-s", "list-seed",
            "list-experiment"])
    def test_malformed_config_rejected(self, gap_config, capsys, changes):
        cfg = json.loads(gap_config.read_text())
        gap_config.write_text(json.dumps({**cfg, **changes}))
        code, stdout, err = run(["experiment", "--config", str(gap_config)], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1

    @pytest.mark.parametrize("changes", [
        {"s": True}, {"delta": False}, {"seed": True},
        {"dictionary": {"kind": "spikes-sines", "m": True}},
        {"pairs": -3}, {"trials_per_pair": -1}, {"seed": -1}, {"delta": -1},
    ], ids=["bool-s", "bool-delta", "bool-seed", "bool-m", "negative-pairs",
            "negative-trials", "negative-seed", "negative-delta"])
    def test_boolean_or_negative_integer_rejected(self, gap_config, capsys, changes):
        cfg = json.loads(gap_config.read_text())
        gap_config.write_text(json.dumps({**cfg, **changes}))
        code, stdout, err = run(["experiment", "--config", str(gap_config)], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1 and "error: " in err

    @pytest.mark.parametrize("config", [
        {"experiment": "equivalence", "s_set": [0, True], "t_set": [3], "trials": 2},
        {"experiment": "equivalence", "s_set": [0], "t_set": [3], "trials": -5},
        {"experiment": "weak-rank", "s": 1, "v_size": 2, "trials": -1},
        {"experiment": "stats-sweep", "s_values": [1], "trials_per_s": 2, "beta": True},
    ], ids=["bool-in-list", "negative-trials", "weak-rank-negative-trials", "bool-beta"])
    def test_other_experiments_reject_boolean_or_negative(self, tmp_path, capsys, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**config, "dictionary": {"kind": "spikes-sines", "m": 8}}))
        code, stdout, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1 and err.startswith("config error: ")

    def test_equivalence_index_past_last_atom_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "equivalence", "dictionary": {"kind": "spikes-sines", "m": 4},
                                    "s_set": [0, 99], "t_set": [1], "trials": 2}))
        code, stdout, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_repeated_sweep_s_value_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "stats-sweep", "dictionary": {"kind": "spikes-sines", "m": 8},
                                    "s_values": [3, 3], "trials_per_s": 2}))
        code, stdout, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("c_sparsity", [0, -0.5])
    def test_nonpositive_c_sparsity_rejected(self, tmp_path, capsys, c_sparsity):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "stats-sweep", "dictionary": {"kind": "spikes-sines", "m": 8},
                                    "s_values": [1, 2], "trials_per_s": 2, "c_sparsity": c_sparsity}))
        code, stdout, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1 and err.startswith("error: ") and "c_sparsity" in err

    @pytest.mark.parametrize("changes", [{"c_sparsity": math.nan}, {"beta": math.inf}, {"beta": math.nan},
                                         {"beta": 10**400}],
                             ids=["nan-c-sparsity", "infinite-beta", "nan-beta", "beta-past-float-range"])
    def test_non_finite_real_rejected(self, tmp_path, capsys, changes):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "stats-sweep", "dictionary": {"kind": "spikes-sines", "m": 8},
                                    "s_values": [1], "trials_per_s": 2, **changes}))  # NaN, Infinity tokens
        code, stdout, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1 and err.startswith("config error: ")

    def test_gap_support_larger_than_m_is_usage_error(self, gap_config, capsys):
        cfg = json.loads(gap_config.read_text())
        gap_config.write_text(json.dumps({**cfg, "s": 17}))  # m = 16
        code, stdout, err = run(["experiment", "--config", str(gap_config)], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

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

    def test_empty_support_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "equivalence", "dictionary": {"kind": "spikes-sines", "m": 8},
                                    "s_set": [], "t_set": [2, 3], "trials": 2}))
        code, stdout, err = run(["experiment", "--config", str(path)], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1 and err.startswith("error: ")

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

    def test_both_formats_without_out_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"  # the flag check comes before the config is read
        code, stdout, err = run(["experiment", "--config", str(missing), "--format", "both"], capsys)
        assert code == 2
        assert stdout == "" and len(err.splitlines()) == 1 and "--out" in err

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
