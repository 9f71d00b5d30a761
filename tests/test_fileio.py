"""Dataset/model file round-trips and schema errors."""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyshift.categorical import CategorySpec
from proxyshift.errors import DatasetFormatError, ValidationError
from proxyshift.fileio import (load_dataset, load_dims, load_model,
                               save_dataset, save_dims, save_model)
from proxyshift.scm import (TARGET, sample_scm_spec, simulate_dataset,
                            true_effect)

from conftest import nonidentified_spec


@pytest.fixture
def dims():
    return CategorySpec(k_e=2, k_u=2, k_w=2, k_x=2, k_y=2)


class TestDatasetFiles:
    def test_small_file_parses(self, tmp_path, dims):
        path = tmp_path / "d.csv"
        path.write_text("domain,w,x,y\n1,1,1,2\n2,2,1,1\nT,2,,\n")
        counts = load_dataset(path, dims)
        expected = np.zeros((2, 2, 2, 2), dtype=np.int64)
        expected[1, 0, 0, 0] = expected[0, 0, 1, 1] = 1
        assert np.array_equal(counts.n_yxwe, expected)
        assert np.array_equal(counts.n_w_target, [0, 1])
        assert counts.n == 3

    def test_round_trip_identity(self, tmp_path, dims):
        spec = sample_scm_spec(dims, np.random.default_rng(1))
        ds = simulate_dataset(spec, 500, np.random.default_rng(2))
        path = tmp_path / "d.csv"
        save_dataset(ds, path)
        loaded = load_dataset(path, dims)
        assert np.array_equal(loaded.n_yxwe, ds.n_yxwe)
        assert np.array_equal(loaded.n_w_target, ds.n_w_target)

    def test_target_row_with_xy_names_line(self, tmp_path, dims):
        path = tmp_path / "d.csv"
        path.write_text("domain,w,x,y\n1,1,1,1\nT,2,1,1\n")
        with pytest.raises(DatasetFormatError, match="line 3"):
            load_dataset(path, dims)

    def test_out_of_range_index_names_line(self, tmp_path, dims):
        path = tmp_path / "d.csv"
        path.write_text("domain,w,x,y\n1,9,1,1\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path, dims)

    def test_source_row_missing_xy(self, tmp_path, dims):
        path = tmp_path / "d.csv"
        path.write_text("domain,w,x,y\n1,1,,\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path, dims)

    def test_bad_header(self, tmp_path, dims):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c,d\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_dataset(path, dims)

    def test_first_bad_line_in_file_order_is_reported(self, tmp_path, dims):
        # The later bad line is the more frequent and sorts first; neither may win.
        path = tmp_path / "d.csv"
        path.write_text("domain,w,x,y\n1,1,1,1\nT,2,1,1\n" + "1,9,1,1\n" * 3)
        with pytest.raises(DatasetFormatError,
                           match="^line 3: target row carries x/y values$"):
            load_dataset(path, dims)
        path.write_text("domain,w,x,y\n1,1,1,1\n1,9,1,1\nT,2,1,1\n1,9,1,1\n")
        with pytest.raises(DatasetFormatError,
                           match="^line 3: w index 9 out of range 1..2$"):
            load_dataset(path, dims)

    def test_whitespace_crlf_and_blank_lines_count_alike(self, tmp_path, dims):
        clean = tmp_path / "clean.csv"
        clean.write_text("domain,w,x,y\n1,2,1,1\n2,1,2,2\nT,2,,\n1,2,1,1\n")
        messy = tmp_path / "messy.csv"
        messy.write_bytes(b"domain,w,x,y \r\n 1 , 2,1,1\r\n\r\n2,1, 2 ,2\n   \n"
                          b"T , 2 , , \r\n\n1,2,1,1 \n\n")
        want, got = load_dataset(clean, dims), load_dataset(messy, dims)
        assert np.array_equal(got.n_yxwe, want.n_yxwe)
        assert np.array_equal(got.n_w_target, want.n_w_target)
        assert want.n == 4

    def test_header_only_file_is_empty_counts(self, tmp_path, dims):
        path = tmp_path / "d.csv"
        path.write_text("domain,w,x,y\n")
        counts = load_dataset(path, dims)
        assert np.array_equal(counts.n_yxwe, np.zeros((2, 2, 2, 2)))
        assert np.array_equal(counts.n_w_target, np.zeros(2))
        dims_path = tmp_path / "dims.json"
        save_dims(dims, dims_path)
        res = subprocess.run([sys.executable, "-m", "proxyshift", "estimate", "--data",
                              str(path), "--dims", str(dims_path), "--x", "1", "--y", "1"],
                             capture_output=True, text=True)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("proxyshift: error:")


def _reference_csv(ds) -> str:
    """The per-record writer that ``save_dataset``'s cell table replaces."""
    lines = ["domain,w,x,y"]
    for dom, w, x, y in zip(ds.domain, ds.w, ds.x, ds.y):
        if dom == TARGET:
            lines.append(f"T,{w + 1},,")
        else:
            lines.append(f"{dom + 1},{w + 1},{x + 1},{y + 1}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 300), st.integers(0, 2 ** 31))
def test_save_load_round_trip_property(k_e, k_w, k_x, k_y, n, seed):
    dims = CategorySpec(k_e=k_e, k_u=2, k_w=k_w, k_x=k_x, k_y=k_y)
    rng = np.random.default_rng(seed)
    ds = simulate_dataset(sample_scm_spec(dims, rng), n, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        save_dataset(ds, path)
        assert path.read_bytes() == _reference_csv(ds).encode()
        loaded = load_dataset(path, dims)
    assert np.array_equal(loaded.n_yxwe, ds.n_yxwe)
    assert np.array_equal(loaded.n_w_target, ds.n_w_target)


class TestDimsFiles:
    def test_round_trip_with_labels(self, tmp_path):
        dims = CategorySpec(2, 2, 2, 2, 2, labels_w=("low", "high"))
        path = tmp_path / "dims.json"
        save_dims(dims, path)
        assert load_dims(path) == dims

    def test_missing_key(self, tmp_path):
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"k_e": 2}))
        with pytest.raises(DatasetFormatError):
            load_dims(path)


class TestModelFiles:
    def test_round_trip_preserves_probabilities(self, tmp_path):
        spec = nonidentified_spec(1)
        path = tmp_path / "m.json"
        save_model(spec, path)
        loaded = load_model(path)
        for name in ("p_u_given_e", "q_u", "p_w_given_u", "p_x_given_u",
                     "p_y_given_uwx", "domain_prior"):
            np.testing.assert_array_equal(getattr(spec, name), getattr(loaded, name))
        assert true_effect(loaded, 0, 0) == pytest.approx(0.39, abs=1e-12)

    def test_columns_are_conditional_pmfs(self, tmp_path):
        spec = nonidentified_spec(1)
        path = tmp_path / "m.json"
        save_model(spec, path)
        doc = json.loads(path.read_text())
        # column-major: one list per conditioning value
        assert len(doc["p_w_given_u"]) == 3
        np.testing.assert_allclose(doc["p_w_given_u"][0], spec.p_w_given_u[:, 0])
        assert sum(doc["p_w_given_u"][1]) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_model_rejected(self, tmp_path):
        spec = nonidentified_spec(1)
        path = tmp_path / "m.json"
        save_model(spec, path)
        doc = json.loads(path.read_text())
        doc["q_u"] = [0.9, 0.9, 0.1]
        path.write_text(json.dumps(doc))
        with pytest.raises((DatasetFormatError, ValidationError)):
            load_model(path)
