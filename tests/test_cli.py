import csv
import io
import json

import numpy as np
import pytest

from sparsegap.cli import main
from sparsegap.dictionary import Dictionary, save_dictionary


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

    def test_usage_error_small_m(self, capsys):
        code, _, err = run(["dict", "--kind", "spikes-sines", "--m", "1"], capsys)
        assert code == 2
        assert "error" in err

    def test_inspect_round_trips_metrics(self, tmp_path, capsys):
        out = tmp_path / "d.sgdict"
        _, built, _ = run(["dict", "--kind", "random-tight", "--m", "8",
                           "--n-atoms", "32", "--seed", "7", "--out", str(out)], capsys)
        code, inspected, _ = run(["dict", "--inspect", str(out)], capsys)
        assert code == 0
        built_metrics = [l for l in built.splitlines() if not l.startswith("wrote")]
        assert inspected.splitlines() == built_metrics


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
