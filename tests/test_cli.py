"""Command-line surface: exit codes, output schemas, reproducibility."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from proxyshift.fileio import save_model

from conftest import nonidentified_spec

GOLDEN = Path(__file__).parent / "data" / "golden_estimate.json"


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "proxyshift", *args],
                          capture_output=True, text=True, **kwargs)


def simulate_fixture(tmp_path, seed=7, n=400):
    model = tmp_path / "m.json"
    data = tmp_path / "d.csv"
    dims = tmp_path / "dims.json"
    res = run_cli("simulate", "--k-e", "2", "--k-u", "2", "--k-w", "2",
                  "--k-x", "2", "--k-y", "2", "--seed", str(seed), "--n", str(n),
                  "--out-model", str(model), "--out-data", str(data),
                  "--out-dims", str(dims))
    assert res.returncode == 0, res.stderr
    return model, data, dims


def test_import_does_not_load_scipy():
    # scipy is imported by the two calls that need it, not at start-up
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, proxyshift.cli; "
         "print([m for m in ('scipy.special', 'scipy.optimize') if m in sys.modules])"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        res = run_cli("estimate", "--nonsense")
        assert res.returncode == 1

    def test_missing_subcommand_is_usage_error(self):
        res = run_cli()
        assert res.returncode == 1

    def test_missing_file_is_data_error(self, tmp_path):
        dims = tmp_path / "dims.json"
        dims.write_text('{"k_e": 1, "k_u": 1, "k_w": 1, "k_x": 1, "k_y": 1}')
        res = run_cli("estimate", "--data", str(tmp_path / "nope.csv"),
                      "--dims", str(dims), "--x", "1", "--y", "1")
        assert res.returncode == 2
        assert "error" in res.stderr

    @pytest.mark.parametrize("case, doc, key", [
        ("bench", {"n_models": 1}, "dims"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "n_modles": 1}, "n_modles"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "fit_options": {"max_iter": 5}}, "max_iter"),
        ("discretize", {"lower": 0}, "edges"),
    ])
    def test_malformed_json_input_is_data_error(self, tmp_path, case, doc, key):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        if case == "bench":
            res = run_cli("bench", "point-error", "--config", str(path))
        else:
            values = tmp_path / "v.txt"
            values.write_text("1\n")
            res = run_cli("discretize", "--values", str(values), "--partition", str(path))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("proxyshift: error:") and key in res.stderr


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        a_model, a_data, _ = simulate_fixture(tmp_path / "a", seed=7, n=1000)
        b_model, b_data, _ = simulate_fixture(tmp_path / "b", seed=7, n=1000)
        assert a_model.read_bytes() == b_model.read_bytes()
        assert a_data.read_bytes() == b_data.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a_model, _, _ = simulate_fixture(tmp_path / "a", seed=7)
        b_model, _, _ = simulate_fixture(tmp_path / "b", seed=8)
        assert a_model.read_bytes() != b_model.read_bytes()


@pytest.fixture(autouse=True)
def _mkdirs(tmp_path):
    (tmp_path / "a").mkdir(exist_ok=True)
    (tmp_path / "b").mkdir(exist_ok=True)


class TestEstimate:
    def test_reduced_output_schema(self, tmp_path):
        _, data, dims = simulate_fixture(tmp_path / "a")
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--method", "reduced",
                      "--alpha", "0.05")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        for key in ("point", "ci_lower", "ci_upper", "kappa_hat", "flags",
                    "sigma_hat", "n", "alpha"):
            assert key in doc
        assert set(doc["flags"]) == {"rank_perturbed", "clipped_point",
                                     "clipped_ci", "empty_cell"}

    def test_golden_output_pinned(self, tmp_path):
        _, data, dims = simulate_fixture(tmp_path / "a")
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--method", "reduced",
                      "--alpha", "0.05")
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout) == json.loads(GOLDEN.read_text())

    def test_bootstrap_block(self, tmp_path):
        _, data, dims = simulate_fixture(tmp_path / "a")
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--bootstrap", "32", "--seed", "3")
        doc = json.loads(res.stdout)
        assert doc["bootstrap"]["b"] == 32
        assert doc["bootstrap"]["ci_lower"] <= doc["bootstrap"]["ci_upper"]

    def test_bootstrap_block_reports_resample_counts(self, tmp_path):
        _, data, dims = simulate_fixture(tmp_path / "a")
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--bootstrap", "32", "--seed", "3")
        assert res.returncode == 0, res.stderr
        block = json.loads(res.stdout)["bootstrap"]
        assert block["failed"] == 0
        assert block["perturbed"] == 0

    def test_causal_and_baseline_methods(self, tmp_path):
        _, data, dims = simulate_fixture(tmp_path / "a")
        for method in ("causal", "noadj", "wadj"):
            res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                          "--x", "1", "--y", "1", "--method", method)
            assert res.returncode == 0, res.stderr
            doc = json.loads(res.stdout)
            assert 0.0 <= doc["point"] <= 1.0

    def test_out_file(self, tmp_path):
        _, data, dims = simulate_fixture(tmp_path / "a")
        out = tmp_path / "est.json"
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--out", str(out))
        assert res.returncode == 0
        assert res.stdout == ""
        assert "point" in json.loads(out.read_text())


class TestIdentify:
    def test_identifiable_model(self, tmp_path):
        model, _, _ = simulate_fixture(tmp_path / "a", seed=3)
        res = run_cli("identify", "--model", str(model), "--x", "1", "--y", "1")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert 0.0 <= doc["effect"] <= 1.0

    def test_rank_deficient_model_refused(self, tmp_path):
        model = tmp_path / "bad.json"
        save_model(nonidentified_spec(1), model)
        res = run_cli("identify", "--model", str(model), "--x", "1", "--y", "1")
        assert res.returncode == 2
        assert "rank" in res.stderr.lower()

    def test_out_of_range_category_is_data_error(self, tmp_path):
        model = tmp_path / "m.json"
        save_model(nonidentified_spec(1), model)
        res = run_cli("identify", "--model", str(model), "--x", "1", "--y", "9")
        assert res.returncode == 2
        assert "out of range" in res.stderr


class TestReduceProxyAndDiscretize:
    def test_reduce_proxy_on_redundant_model(self, tmp_path):
        model = tmp_path / "bad.json"
        save_model(nonidentified_spec(1), model)
        res = run_cli("reduce-proxy", "--model", str(model), "--x", "1")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["k_w"] == 3
        assert doc["k_w_reduced"] == 2
        assert len(doc["merges"]) == 1

    def test_discretize(self, tmp_path):
        values = tmp_path / "v.txt"
        values.write_text("50\n100\n300\n")
        res = run_cli("discretize", "--values", str(values),
                      "--edges", "75,125,175,225")
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["1", "2", "5"]

    def test_discretize_partition_file(self, tmp_path):
        values = tmp_path / "v.txt"
        values.write_text("50\n100\n300\n")
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"edges": [75, 125, 175, 225], "lower": 0}))
        res = run_cli("discretize", "--values", str(values),
                      "--partition", str(part))
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["1", "2", "5"]

    def test_discretize_out_of_support_is_data_error(self, tmp_path):
        values = tmp_path / "v.txt"
        values.write_text("-10\n")
        part = tmp_path / "part.json"
        part.write_text(json.dumps({"edges": [75], "lower": 0}))
        res = run_cli("discretize", "--values", str(values),
                      "--partition", str(part))
        assert res.returncode == 2


class TestBench:
    def test_point_error_smoke(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
            "n_models": 1, "n_datasets": 1, "n_samples": 2000,
            "estimators": ["reduced"], "master_seed": 5,
        }))
        out_csv = tmp_path / "r.csv"
        out_json = tmp_path / "s.json"
        res = run_cli("bench", "point-error", "--config", str(config),
                      "--out-csv", str(out_csv), "--out-json", str(out_json))
        assert res.returncode == 0, res.stderr
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("model,dataset,estimator")
        assert len(lines) == 2
        summary = json.loads(out_json.read_text())
        assert "median_abs_error" in summary
