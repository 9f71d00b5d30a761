"""Command-line surface: exit codes, output schemas, reproducibility."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proxyshift import CategorySpec, bootstrap_ci, sample_scm_spec, simulate_dataset
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
    # the package imports nothing from scipy; the tests use it as a reference
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, proxyshift.cli; "
         "print([m for m in ('scipy.special', 'scipy.optimize') if m in sys.modules])"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_import_does_not_load_multiprocessing():
    # the bench process pool is imported only when a study uses workers > 1
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, proxyshift.cli; "
         "print([m for m in sys.modules if m.split('.')[0] == 'multiprocessing'])"],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def main_and_modules(argv, package) -> tuple[int, set[str]]:
    """Run ``main(argv)`` in a fresh process; return its exit code and every
    module of ``package`` loaded by the time it returns.  ``argv`` must send
    the command's output to a file."""
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys; from proxyshift.cli import main; rc = main(sys.argv[2:]); "
         "print(rc, *(m for m in sys.modules if m.split('.')[0] == sys.argv[1]))",
         package, *argv],
        capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    rc, *modules = res.stdout.split()
    return int(rc), set(modules)


@pytest.mark.parametrize("extra", [["--method", "reduced", "--bootstrap", "20"],
                                   ["--method", "noadj"], ["--method", "causal"]])
def test_estimate_never_loads_scipy(tmp_path, extra):
    _, data, dims = simulate_fixture(tmp_path)
    out = tmp_path / "est.json"
    argv = ["estimate", "--data", str(data), "--dims", str(dims), "--x", "1", "--y", "1",
            "--out", str(out), *extra]
    assert main_and_modules(argv, "scipy") == (0, set())
    assert "ci_lower" in json.loads(out.read_text())


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--seed", "3", "--n", "200", "--out-data"]),
    ("identify", ["--x", "1", "--y", "1", "--out"]),
    ("reduce-proxy", ["--x", "1", "--out"]),
])
def test_model_commands_never_load_scipy(tmp_path, command, flags):
    model, _, dims = simulate_fixture(tmp_path)
    source = ["--dims", str(dims)] if command == "simulate" else ["--model", str(model)]
    out = tmp_path / "out"
    assert main_and_modules([command, *source, *flags, str(out)], "scipy") == (0, set())
    assert out.stat().st_size > 0


# what every command loads: the parser, the errors, the dimensions, the model
# and the file formats; each command adds the estimator modules it runs
CLI_CORE = {"proxyshift", "proxyshift.cli", "proxyshift.errors", "proxyshift.categorical",
            "proxyshift.scm", "proxyshift.fileio"}
ESTIMATE = ["estimate", "--data", "{data}", "--dims", "{dims}", "--x", "1", "--y", "1",
            "--out", "{out}"]


@pytest.mark.parametrize("argv, own", [
    (["simulate", "--dims", "{dims}", "--seed", "3", "--n", "200", "--out-data", "{out}"],
     set()),
    (["identify", "--model", "{model}", "--x", "1", "--y", "1", "--out", "{out}"],
     {"identify"}),
    (ESTIMATE, {"reduced"}),
    (ESTIMATE + ["--bootstrap", "20"], {"reduced"}),
    (ESTIMATE + ["--method", "causal"], {"reduced", "causal"}),
    (ESTIMATE + ["--method", "noadj"], {"reduced", "baselines"}),
], ids=["simulate", "identify", "estimate", "estimate-bootstrap", "estimate-causal",
        "estimate-noadj"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, argv, own):
    model, data, dims = simulate_fixture(tmp_path)
    paths = {"model": model, "data": data, "dims": dims, "out": tmp_path / "out"}
    argv = [arg.format(**paths) for arg in argv]
    expected = CLI_CORE | {f"proxyshift.{name}" for name in own}
    assert main_and_modules(argv, "proxyshift") == (0, expected)
    assert (tmp_path / "out").stat().st_size > 0


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

    @pytest.mark.parametrize("command", ["estimate", "identify"])
    def test_directory_input_is_data_error(self, tmp_path, command):
        dims = tmp_path / "dims.json"
        dims.write_text('{"k_e": 1, "k_u": 1, "k_w": 1, "k_x": 1, "k_y": 1}')
        source = (["--data", str(tmp_path), "--dims", str(dims)] if command == "estimate"
                  else ["--model", str(tmp_path)])
        res = run_cli(command, *source, "--x", "1", "--y", "1")
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("proxyshift: error:") and str(tmp_path) in res.stderr

    def test_out_in_missing_directory_names_the_given_path(self, tmp_path):
        _, data, dims = simulate_fixture(tmp_path / "a")
        out = tmp_path / "missing" / "o.json"
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--out", str(out))
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("proxyshift: error:")
        assert res.stderr.rstrip().endswith(f"'{out}'")
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("command", ["simulate", "estimate"])
    def test_negative_seed_is_usage_error(self, tmp_path, command):
        _, data, dims = simulate_fixture(tmp_path / "a")
        argv = (["simulate", "--dims", str(dims), "--n", "10", "--seed", "-1"]
                if command == "simulate" else
                ["estimate", "--data", str(data), "--dims", str(dims), "--x", "1",
                 "--y", "1", "--bootstrap", "10", "--seed", "-4"])
        res = run_cli(*argv)
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.splitlines()[-1] == (
            f"proxyshift {command}: error: argument --seed: must be a non-negative "
            f"integer, got {argv[-1]}")

    def test_bad_xy_is_refused_before_the_data_is_read(self, tmp_path):
        dims = tmp_path / "dims.json"
        dims.write_text('{"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2}')
        res = run_cli("estimate", "--data", str(tmp_path / "nope.csv"),
                      "--dims", str(dims), "--x", "9", "--y", "1")
        assert res.returncode == 2
        assert "x/y out of range" in res.stderr

    @pytest.mark.parametrize("case, doc, key", [
        ("bench", {"n_models": 1}, "dims"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "n_modles": 1}, "n_modles"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "fit_options": {"max_iter": 5}}, "max_iter"),
        ("discretize", {"lower": 0}, "edges"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "fit_options": {"gradient_tol": -1}}, "gradient_tol"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "n_models": "1"}, "n_models"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "fit_options": {"gradient_tol": "1e-8"}}, "gradient_tol"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "workers": True}, "workers"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "estimators": "reduced"}, "estimators"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "fit_options": 5}, "fit_options"),
        ("bench", {"dims": 5}, "dims"),
        ("bench", [1], "config file"),
        ("discretize", [0.5], "partition file"),
        # dims values are taken as typed, never coerced
        ("dims", {"k_e": 2.5}, "k_e"),
        ("dims", {"k_e": "2"}, "k_e"),
        ("dims", {"k_e": True}, "k_e"),
        ("dims", {"k_e": None}, "k_e"),
        ("dims", {"labels_e": "ab"}, "labels_e"),
        ("dims", {"labels_y": None}, "labels_y"),
        ("dims", {"lables_e": ["a", "b"]}, "lables_e"),
        ("bench", {"dims": {"k_e": 2.5, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2}}, "k_e"),
        ("model", {"dims": {"k_e": 2, "k_u": 2, "k_w": True, "k_x": 2, "k_y": 2}}, "k_w"),
        # a value of the right type that no study can honour
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "x": 5}, "x must be in 0..1"),
        # partition values must be numbers, and a key that is not a field is refused
        ("discretize", {"edges": [1.5], "lower": "abc"}, "lower"),
        ("discretize", {"edges": [None]}, "edges"),
        ("discretize", {"edges": 5}, "edges"),
        ("discretize", {"edges": [], "lower": "x"}, "lower"),
        ("discretize", {"edges": [0.5], "uper": 1}, "uper"),
        ("model", [1], "model file"),
        # a NaN bound or crossed bounds would bin every reading, or fail only later
        ("discretize", {"edges": [], "lower": float("nan")}, "lower=nan"),
        ("discretize", {"edges": [], "lower": 2, "upper": 1}, "lower=2, edges=[], upper=1"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "confound_threshold": float("nan")}, "confound_threshold"),
        # nested fit_options values are typed like the top level and name their key
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "fit_options": {"restarts": True}}, "restarts"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "fit_options": {"seed": 1.5}}, "seed"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "fit_options": {"max_iterations": "5"}}, "max_iterations"),
        ("bench", {"dims": {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2},
                   "n_sweep": [800, "x"]}, "n_sweep"),
    ])
    def test_malformed_json_input_is_data_error(self, tmp_path, case, doc, key):
        path = tmp_path / "in.json"
        if case == "dims":
            doc = {"k_e": 2, "k_u": 2, "k_w": 2, "k_x": 2, "k_y": 2, **doc}
        path.write_text(json.dumps(doc))
        if case == "bench":
            res = run_cli("bench", "point-error", "--config", str(path))
        elif case == "dims":
            res = run_cli("estimate", "--data", str(tmp_path / "d.csv"), "--dims", str(path),
                          "--x", "1", "--y", "1")
        elif case == "model":
            res = run_cli("identify", "--model", str(path), "--x", "1", "--y", "1")
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

    def test_files_are_unchanged(self, tmp_path):
        # sha256 of the files this release's record sampler and writer produce;
        # a change of draws, line format or JSON layout must show here
        res = run_cli("simulate", "--k-e", "3", "--k-u", "2", "--k-w", "2", "--k-x", "2",
                      "--k-y", "2", "--n", "5000", "--seed", "17",
                      "--out-data", str(tmp_path / "d.csv"),
                      "--out-model", str(tmp_path / "m.json"),
                      "--out-dims", str(tmp_path / "dims.json"))
        assert res.returncode == 0, res.stderr
        expected = {
            "d.csv": "03e809c4b31cefd8ee677ed9eec3c236a75109994e1d0fa6fb536cd1d25a8a6f",
            "m.json": "98e834e78be26263fbf3ef940080aab7ef9d24a9f66f312fa48e4a853fc1c25a",
            "dims.json": "da07bccedc1dca6a807e900288736701c340a11825f2e6e66eeca6dfa67630de",
        }
        for name, digest in expected.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

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
        assert set(doc["flags"]) == {"rank_perturbed", "clipped_point", "clipped_ci"}

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

    @pytest.mark.parametrize("b", ["0", "1"])
    def test_too_few_resamples_is_data_error(self, tmp_path, b):
        _, data, dims = simulate_fixture(tmp_path / "a")
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--bootstrap", b)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "proxyshift: error: n_boot must be at least 2\n"

    def test_bootstrap_block_keys(self, tmp_path):
        _, data, dims = simulate_fixture(tmp_path / "a")
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--bootstrap", "16", "--seed", "3")
        assert res.returncode == 0, res.stderr
        assert set(json.loads(res.stdout)["bootstrap"]) == {
            "ci_lower", "ci_upper", "sigma_boot", "b", "failed", "perturbed"}

    def test_bootstrap_block_reports_resample_counts(self, tmp_path):
        _, data, dims = simulate_fixture(tmp_path / "a")
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--bootstrap", "32", "--seed", "3")
        assert res.returncode == 0, res.stderr
        block = json.loads(res.stdout)["bootstrap"]
        assert block["failed"] == 0
        assert block["perturbed"] == 0

    def test_bootstrap_matches_in_process(self, tmp_path):
        # the CLI reads the CSV into counts, the library call takes the
        # counts of simulate_dataset: both must merge the cells into the same
        # categories, in the same order, to make the same draws
        _, data, dims = simulate_fixture(tmp_path / "a", seed=11, n=3000)
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--bootstrap", "64", "--seed", "5")
        assert res.returncode == 0, res.stderr
        block = json.loads(res.stdout)["bootstrap"]
        rng = np.random.default_rng(11)
        spec = sample_scm_spec(CategorySpec(2, 2, 2, 2, 2), rng)
        boot = bootstrap_ci(simulate_dataset(spec, 3000, rng), 0, 0, 64, rng=5)
        for key in ("ci_lower", "ci_upper", "sigma_boot"):
            assert abs(block[key] - getattr(boot, key)) <= 1e-12, key
        assert (block["failed"], block["perturbed"]) == (boot.failed, boot.perturbed)

    def test_causal_and_baseline_methods(self, tmp_path):
        _, data, dims = simulate_fixture(tmp_path / "a")
        for method in ("causal", "noadj", "wadj"):
            res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                          "--x", "1", "--y", "1", "--method", method)
            assert res.returncode == 0, res.stderr
            doc = json.loads(res.stdout)
            assert 0.0 <= doc["point"] <= 1.0

    def test_causal_fit_block(self, tmp_path):
        _, data, dims = simulate_fixture(tmp_path / "a")
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--method", "causal")
        assert res.returncode == 0, res.stderr
        fit = json.loads(res.stdout)["fit"]
        assert set(fit) == {"converged", "iterations", "log_likelihood", "deviance"}
        assert fit["converged"] is True
        assert fit["iterations"] >= 1 and fit["log_likelihood"] < 0
        assert fit["deviance"] >= -1e-6

    def test_causal_fit_block_of_a_closed_form_fit(self, tmp_path):
        # 2,2,2,2,2 fitted with k_u = 2 is saturated, and this table's moment
        # solution is a valid mechanism: it is the fit, with no step taken
        _, data, dims = simulate_fixture(tmp_path / "a", seed=6, n=200_000)
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--method", "causal")
        assert res.returncode == 0, res.stderr
        fit = json.loads(res.stdout)["fit"]
        assert set(fit) == {"converged", "iterations", "log_likelihood", "deviance"}
        assert fit["iterations"] == 0 and fit["converged"] is True
        assert fit["deviance"] <= 1e-6

    @pytest.mark.parametrize("k_u", ["0", "-2"])
    def test_non_positive_k_u_fit_is_data_error(self, tmp_path, k_u):
        _, data, dims = simulate_fixture(tmp_path / "a")
        res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                      "--x", "1", "--y", "1", "--method", "causal", "--k-u-fit", k_u)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == (f"proxyshift: error: k_u must be a positive integer, "
                              f"got {k_u}\n")

    @pytest.mark.parametrize("method", ["reduced", "noadj"])
    def test_alpha_outside_unit_interval_is_data_error(self, tmp_path, method):
        _, data, dims = simulate_fixture(tmp_path / "a")
        for alpha in ("0", "1", "1.5"):
            res = run_cli("estimate", "--data", str(data), "--dims", str(dims),
                          "--x", "1", "--y", "1", "--method", method, "--alpha", alpha)
            assert res.returncode == 2
            assert res.stdout == ""
            assert "Traceback" not in res.stderr
            assert res.stderr.startswith("proxyshift: error:") and "alpha" in res.stderr

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
