"""Round-trips and schema errors of the dataset CSV, the JSON inputs and the
model files."""

import json
import re
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxyshift.bench import ExperimentConfig
from proxyshift.categorical import CategorySpec
from proxyshift.causal import FitOptions
from proxyshift.errors import DatasetFormatError, ValidationError
from proxyshift.fileio import (DATASET_HEADER, _parse_line, from_json, load_dataset,
                               load_dims, load_model, save_dataset, save_dims, save_model)
from proxyshift.identify import Partition
from proxyshift.scm import (TARGET, ContingencyCounts, count_records, sample_scm_spec,
                            simulate_records, true_effect)

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
        records = simulate_records(spec, 500, np.random.default_rng(2))
        path = tmp_path / "d.csv"
        save_dataset(records, path)
        loaded, counts = load_dataset(path, dims), count_records(records)
        assert np.array_equal(loaded.n_yxwe, counts.n_yxwe)
        assert np.array_equal(loaded.n_w_target, counts.n_w_target)

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


def _reference_csv(records) -> str:
    """The per-record writer that ``save_dataset``'s cell table replaces."""
    lines = ["domain,w,x,y"]
    for dom, w, x, y in zip(*records[1:]):
        if dom == TARGET:
            lines.append(f"T,{w + 1},,")
        else:
            lines.append(f"{dom + 1},{w + 1},{x + 1},{y + 1}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(1, 12), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 300), st.integers(0, 2 ** 31))
def test_save_load_round_trip_property(k_e, k_w, k_x, k_y, n, seed):
    dims = CategorySpec(k_e=k_e, k_u=2, k_w=k_w, k_x=k_x, k_y=k_y)
    rng = np.random.default_rng(seed)
    records = simulate_records(sample_scm_spec(dims, rng), n, rng)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        save_dataset(records, path)
        assert path.read_bytes() == _reference_csv(records).encode()
        loaded = load_dataset(path, dims)
    counts = count_records(records)
    assert np.array_equal(loaded.n_yxwe, counts.n_yxwe)
    assert np.array_equal(loaded.n_w_target, counts.n_w_target)


def _reference_load(path, dims) -> ContingencyCounts:
    """The text-mode ``splitlines`` + ``Counter`` loader that ``load_dataset``'s
    integer-keyed count replaces."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0].strip() != DATASET_HEADER:
        raise DatasetFormatError(
            f"line 1: expected header {DATASET_HEADER!r}, got {lines[0].strip()!r}"
            if lines else "empty dataset file")
    n_yxwe = np.zeros((dims.k_y, dims.k_x, dims.k_w, dims.k_e), dtype=np.int64)
    n_w_target = np.zeros(dims.k_w, dtype=np.int64)
    for line, count in Counter(lines[1:]).items():
        if not line.strip():
            continue
        try:
            dom, w, x, y = _parse_line(line, dims)
        except DatasetFormatError as exc:
            raise DatasetFormatError(f"line {lines.index(line, 1) + 1}: {exc}") from None
        if dom is None:
            n_w_target[w] += count
        else:
            n_yxwe[y, x, w, dom] += count
    return ContingencyCounts(n_yxwe, n_w_target)


def _load_or_error(load, path, dims):
    try:
        counts = load(path, dims)
    except DatasetFormatError as exc:
        return str(exc)
    return counts.n_yxwe.tolist(), counts.n_w_target.tolist(), counts.n_yxwe.dtype


@st.composite
def messy_files(draw):
    """A dataset file as a person might write it: spaces around fields, mixed
    line ends, blank lines, maybe no final newline, and now and then a bad row."""
    k_e, k_w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    k_x, k_y = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dims = CategorySpec(k_e=k_e, k_u=2, k_w=k_w, k_x=k_x, k_y=k_y)
    source = st.tuples(st.integers(1, k_e), st.integers(1, k_w), st.integers(1, k_x),
                       st.integers(1, k_y))
    target = st.tuples(st.just("T"), st.integers(1, k_w), st.just(""), st.just(""))
    bad = st.sampled_from([("T", 1, 1, ""), (1, k_w + 1, 1, 1), (k_e + 1, 1, 1, 1),
                           (1, 1, "", 1), ("x", 1, 1, 1), (1, 1, 1), ("1 1", 1, 1, 1),
                           (1, 1, "1\t1", 1), ("T 1", 1, "", "")])
    rows = draw(st.lists(st.one_of(source, source, target), max_size=40))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        rows.insert(draw(st.integers(0, len(rows))), draw(bad))
    pad = st.sampled_from(["", "", "", " ", "  ", "\t", "    "])
    blank = st.sampled_from(["", " ", "\t ", "      "])
    end = st.sampled_from(["\n", "\r\n", "\r"])
    text = DATASET_HEADER + draw(end)
    for row in rows:
        if draw(st.integers(0, 5)) == 0:
            text += draw(blank) + draw(end)
        text += ",".join(draw(pad) + str(f) + draw(pad) for f in row) + draw(end)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return dims, text


@settings(max_examples=150, deadline=None)
@given(messy_files())
def test_load_matches_reference_loader_property(file):
    dims, text = file
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode())
        assert _load_or_error(load_dataset, path, dims) == _load_or_error(
            _reference_load, path, dims)


class TestLoadErrorPaths:
    @pytest.mark.parametrize("bad, message", [
        ("1,3,1,1", "w index 3 out of range 1..2"),
        (" 1 , 3 , 1 , 1 ", "w index 3 out of range 1..2"),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_one_bad_line_among_many_is_named(self, tmp_path, dims, bad, message, seed):
        rng = np.random.default_rng(seed)
        good = np.array(["1,2,1,1", "2,1,2,2", "T,2,,", " 2 , 2 , 1 , 2 ", "T , 1 , , "])
        lines = list(good[rng.integers(0, good.size, 10_000)])
        at = int(rng.integers(0, len(lines) + 1))
        lines.insert(at, bad)
        path = tmp_path / "d.csv"
        path.write_text("domain,w,x,y\n" + "\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=f"^line {at + 2}: {message}$"):
            load_dataset(path, dims)

    def test_bad_line_repeated_later_is_named_at_its_first_line(self, tmp_path, dims):
        path = tmp_path / "d.csv"
        path.write_text("domain,w,x,y\n" + "1,1,1,1\n" * 5 + "1,1,1,9\n"
                        + "1 , 1 , 1 , 9\n" + "1,1,1,9\n" * 3)
        with pytest.raises(DatasetFormatError, match="^line 7: y index 9 out of range 1..2$"):
            load_dataset(path, dims)

    @pytest.mark.parametrize("bad, message", [
        (" 1 , 1 2 , 1 , 1", "bad w index '1 2'"),
        ("1\t1,1,1,1", r"bad domain '1\t1'"),
        (" T 2 , 1 , , ", "bad domain 'T 2'"),
    ])
    def test_space_inside_a_field_is_reported_as_it_stands(self, tmp_path, dims, bad,
                                                           message):
        path = tmp_path / "d.csv"
        path.write_text("domain,w,x,y\n" + " 1 , 2 , 1 , 1\n" * 3 + bad + "\n"
                        + "T , 2 , , \n" * 2)
        assert _load_or_error(_reference_load, path, dims) == f"line 5: {message}"
        with pytest.raises(DatasetFormatError, match=f"^line 5: {re.escape(message)}$"):
            load_dataset(path, dims)

    def test_nul_bytes_do_not_alias_a_shorter_line(self, tmp_path, dims):
        path = tmp_path / "d.csv"
        path.write_bytes(b"domain,w,x,y\n1,1,1,1\n\x001,1,1,1\n1,1,1,1\n")
        with pytest.raises(DatasetFormatError, match="^line 3: bad domain "):
            load_dataset(path, dims)

    def test_other_line_breaks_of_splitlines_count_alike(self, tmp_path, dims):
        path = tmp_path / "d.csv"
        path.write_text("domain,w,x,y\x0c1,2,1,1\u20282,1,2,2\x1eT,2,,\x85 1 , 2 , 1 , 1\n",
                        encoding="utf-8")
        want = _reference_load(path, dims)
        got = load_dataset(path, dims)
        assert want.n == 4
        assert np.array_equal(got.n_yxwe, want.n_yxwe)
        assert np.array_equal(got.n_w_target, want.n_w_target)

    @pytest.mark.parametrize("line", [b"1,\xff,1,1", b" 1 , 2 , \xc3 , 1"])
    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path, dims, line):
        path = tmp_path / "d.csv"
        path.write_bytes(b"domain,w,x,y\n1,1,1,1\n" + line + b"\n1,1,1,1\n")
        with pytest.raises(DatasetFormatError, match="^line 3: not UTF-8 text$"):
            load_dataset(path, dims)
        dims_path = tmp_path / "dims.json"
        save_dims(dims, dims_path)
        res = subprocess.run([sys.executable, "-m", "proxyshift", "estimate", "--data",
                              str(path), "--dims", str(dims_path), "--x", "1", "--y", "1"],
                             capture_output=True, text=True)
        assert res.returncode == 2
        assert "Traceback" not in res.stderr
        assert res.stderr.startswith("proxyshift: error: line 3: not UTF-8 text")


class TestDimsFiles:
    def test_round_trip_with_labels(self, tmp_path):
        dims = CategorySpec(2, 2, 2, 2, 2, labels_w=("low", "high"))
        path = tmp_path / "dims.json"
        save_dims(dims, path)
        assert load_dims(path) == dims

    def test_labelled_file_bytes(self, tmp_path):
        # absent labels are left out and label tuples are written as lists
        path = tmp_path / "dims.json"
        save_dims(CategorySpec(2, 1, 3, 2, 2, labels_e=("north", "south"),
                               labels_w=("lo", "mid", "hi")), path)
        assert path.read_text() == (
            '{\n  "k_e": 2,\n  "k_u": 1,\n  "k_w": 3,\n  "k_x": 2,\n  "k_y": 2,\n'
            '  "labels_e": [\n    "north",\n    "south"\n  ],\n'
            '  "labels_w": [\n    "lo",\n    "mid",\n    "hi"\n  ]\n}\n')

    def test_missing_key(self, tmp_path):
        path = tmp_path / "dims.json"
        path.write_text(json.dumps({"k_e": 2}))
        with pytest.raises(DatasetFormatError):
            load_dims(path)


@st.composite
def category_specs(draw):
    """A ``CategorySpec`` with labels on a drawn subset of its axes."""
    ks = draw(st.lists(st.integers(1, 4), min_size=5, max_size=5))
    labels = {f"labels_{axis}": tuple(draw(st.lists(st.text(max_size=4), min_size=k,
                                                    max_size=k, unique=True)))
              for axis, k in zip("euwxy", ks) if draw(st.booleans())}
    return CategorySpec(*ks, **labels)


@settings(max_examples=60, deadline=None)
@given(category_specs())
def test_dims_round_trip_property(dims):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dims.json"
        save_dims(dims, path)
        assert load_dims(path) == dims


_LABELLED = CategorySpec(2, 1, 3, 2, 2, labels_e=("a", "b"), labels_u=("u",),
                         labels_w=("lo", "mid", "hi"), labels_x=("c", "t"),
                         labels_y=("no", "yes"))
# Each dataclass read from JSON, a value of it that sets every field, and the
# keys its file must hold: exactly the fields without a default.
_READ_FROM_JSON = {
    CategorySpec: (_LABELLED, {"k_e", "k_u", "k_w", "k_x", "k_y"}),
    ExperimentConfig: (ExperimentConfig(_LABELLED, n_sweep=(100, 200), x=1,
                                        fit_options=FitOptions(restarts=2)), {"dims"}),
    FitOptions: (FitOptions(max_iterations=10, seed=3), set()),
    Partition: (Partition((0.5, 2.0), lower=0.0, upper=4.0), {"edges"}),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(list(_READ_FROM_JSON)), st.data())
def test_from_json_requires_the_fields_without_a_default_property(cls, data):
    value, required = _READ_FROM_JSON[cls]
    assert required == {f.name for f in fields(cls)
                        if f.default is MISSING and f.default_factory is MISSING}
    doc = json.loads(json.dumps(asdict(value)))
    assert asdict(from_json(cls, doc, "file")) == asdict(value)
    dropped = data.draw(st.sampled_from(sorted(doc)))
    rest = {k: v for k, v in doc.items() if k != dropped}
    if dropped in required:
        with pytest.raises(DatasetFormatError, match=f"^file is missing key '{dropped}'$"):
            from_json(cls, rest, "file")
    else:
        from_json(cls, rest, "file")
    unknown = data.draw(st.text(min_size=1).filter(lambda k: k not in doc))
    with pytest.raises(DatasetFormatError) as info:
        from_json(cls, {**doc, unknown: 1}, "file")
    assert str(info.value) == f"file has unknown keys: {unknown}"


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
