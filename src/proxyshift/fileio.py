"""File schemas: dataset CSV, dimension sidecar, model JSON, results output.

All category indices are 1-based in files and 0-based in memory.  Dataset
rows use the literal ``T`` as the domain of target records, whose ``x`` and
``y`` fields must be empty.  Dimensions travel in a sidecar (or explicit
flags) rather than being inferred from data, so categories that happen to be
unobserved remain representable.  Every write is atomic
(write-temp-then-rename) and numbers round-trip at full precision.

Records exist only on the CLI ``simulate`` path: :func:`save_dataset` writes
the record arrays of a simulated :class:`~proxyshift.scm.Dataset`, whose
target rows carry no treatment or outcome, and :func:`load_dataset` reads a
file straight into its :class:`~proxyshift.scm.ContingencyCounts`, the only
input the estimators take.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from .categorical import CategorySpec
from .errors import DatasetFormatError
from .scm import ContingencyCounts, Dataset, ScmSpec, record_key

DATASET_HEADER = "domain,w,x,y"


def atomic_write_text(path, text: str) -> None:
    """Write a file atomically: temp file in the same directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def dims_to_dict(dims: CategorySpec) -> dict:
    out = {"k_e": dims.k_e, "k_u": dims.k_u, "k_w": dims.k_w,
           "k_x": dims.k_x, "k_y": dims.k_y}
    for axis in ("e", "u", "w", "x", "y"):
        labels = getattr(dims, f"labels_{axis}")
        if labels is not None:
            out[f"labels_{axis}"] = list(labels)
    return out


def _check_keys(doc: dict, what: str, required=(), cls=None) -> None:
    """Refuse a document that is not an object, a missing ``required`` key,
    or a key not a field of ``cls``."""
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{what} must be a JSON object, got {doc!r}")
    for key in required:
        if key not in doc:
            raise DatasetFormatError(f"{what} is missing key {key!r}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)}) if cls else []
    if unknown:
        raise DatasetFormatError(f"{what} has unknown keys: {', '.join(unknown)}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_list_of(v, check) -> bool:
    return isinstance(v, list) and all(map(check, v))


_STRINGS = ("a list of strings", lambda v: _is_list_of(v, lambda s: isinstance(s, str)))

# What a JSON value must be for each declared field type of a dataclass built
# from JSON.  No value is coerced: ``2.5``, ``"2"`` and ``true`` are not integers.
# An absent label list is None, but a JSON null is refused like any non-list.
_JSON_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    "tuple[int, ...] | None": ("a list of integers or null",
                               lambda v: v is None or _is_list_of(v, _is_int)),
    "tuple[str, ...]": _STRINGS,
    "tuple[str, ...] | None": _STRINGS,
}


def _check_types(doc: dict, what: str, cls) -> None:
    """Refuse a value whose JSON type does not fit its field of ``cls``."""
    for f in fields(cls):
        if f.name in doc:
            expected, check = _JSON_TYPES[f.type]
            if not check(doc[f.name]):
                raise DatasetFormatError(
                    f"{what} key {f.name!r} must be {expected}, got {doc[f.name]!r}")


def dims_from_dict(d: dict) -> CategorySpec:
    """Dimensions from their JSON object: each ``k_*`` an integer and each
    optional ``labels_*`` a list of strings; any other key is refused."""
    _check_keys(d, "dims", [f"k_{axis}" for axis in "euwxy"], CategorySpec)
    _check_types(d, "dims", CategorySpec)
    return CategorySpec(**{f.name: d[f.name] for f in fields(CategorySpec) if f.name in d})


def save_dims(dims: CategorySpec, path) -> None:
    write_json(path, dims_to_dict(dims))


def load_dims(path) -> CategorySpec:
    with open(path) as handle:
        return dims_from_dict(json.load(handle))


def save_dataset(ds: Dataset, path) -> None:
    """Write records as CSV; target rows carry empty x/y fields.

    Every record is one of the few lines that its cell determines, so the
    lines are formatted once per cell of :func:`scm.record_key`'s table and
    looked up per record.  Benchmark-only hidden target columns are not part
    of the schema and are not written.
    """
    d = ds.dims
    # The key's shifted indices are the 1-based file codes, with 0 for T or empty;
    # the cells that no valid record reaches are never looked up.
    table = np.array([f"{e},{w + 1},{x},{y}\n" if e else f"T,{w + 1},,\n"
                      for y in range(d.k_y + 1) for x in range(d.k_x + 1)
                      for w in range(d.k_w) for e in range(d.k_e + 1)], dtype=object)
    records = table[record_key(d, ds.domain, ds.w, ds.x, ds.y)].tolist()
    atomic_write_text(path, DATASET_HEADER + "\n" + "".join(records))


def _parse_line(line: str, dims: CategorySpec) -> tuple[int, int, int | None, int | None]:
    """One non-blank data line as 0-based ``(domain, w, x, y)``, with ``None``
    for the domain, x and y of a target row."""
    cells = line.split(",")
    if len(cells) != 4:
        raise DatasetFormatError(f"expected 4 fields, got {len(cells)}")
    dom_s, w_s, x_s, y_s = (c.strip() for c in cells)
    try:
        wi = int(w_s) - 1
    except ValueError:
        raise DatasetFormatError(f"bad w index {w_s!r}") from None
    if not 0 <= wi < dims.k_w:
        raise DatasetFormatError(f"w index {w_s} out of range 1..{dims.k_w}")
    if dom_s == "T":
        if x_s or y_s:
            raise DatasetFormatError("target row carries x/y values")
        return None, wi, None, None
    try:
        dom = int(dom_s) - 1
    except ValueError:
        raise DatasetFormatError(f"bad domain {dom_s!r}") from None
    if not 0 <= dom < dims.k_e:
        raise DatasetFormatError(f"domain {dom_s} out of range 1..{dims.k_e} (or 'T')")
    if not x_s or not y_s:
        raise DatasetFormatError("source row missing x or y")
    try:
        xi, yi = int(x_s) - 1, int(y_s) - 1
    except ValueError:
        raise DatasetFormatError("bad x/y index") from None
    if not 0 <= xi < dims.k_x:
        raise DatasetFormatError(f"x index {x_s} out of range 1..{dims.k_x}")
    if not 0 <= yi < dims.k_y:
        raise DatasetFormatError(f"y index {y_s} out of range 1..{dims.k_y}")
    return dom, wi, xi, yi


def load_dataset(path, dims: CategorySpec) -> ContingencyCounts:
    """Parse a dataset CSV against declared dimensions into its counts.

    A categorical file repeats a few distinct lines, so each distinct line is
    parsed once and its count added to its cell.  Errors name the first
    offending 1-based line: malformed rows, target rows carrying x/y, source
    rows missing them, and out-of-range indices.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0].strip() != DATASET_HEADER:
        raise DatasetFormatError(
            f"line 1: expected header {DATASET_HEADER!r}, got {lines[0].strip()!r}"
            if lines else "empty dataset file")
    n_yxwe = np.zeros((dims.k_y, dims.k_x, dims.k_w, dims.k_e), dtype=np.int64)
    n_w_target = np.zeros(dims.k_w, dtype=np.int64)
    # A Counter keeps its keys in order of first appearance, so the first bad
    # distinct line is the first bad line of the file.
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


def _columns(matrix: np.ndarray) -> list[list[float]]:
    return [matrix[:, j].tolist() for j in range(matrix.shape[1])]


def _from_columns(cols, rows: int, cols_n: int, name: str) -> np.ndarray:
    arr = np.array(cols, dtype=float)
    if arr.shape != (cols_n, rows):
        raise DatasetFormatError(
            f"{name}: expected {cols_n} columns of length {rows}, got shape {arr.shape}")
    return arr.T


def model_to_dict(spec: ScmSpec) -> dict:
    """Model as JSON-ready nested lists; matrices are stored column-major
    (a list of conditional pmfs)."""
    d = spec.dims
    return {
        "dims": dims_to_dict(d),
        "p_u_given_e": _columns(spec.p_u_given_e),
        "q_u": spec.q_u.tolist(),
        "p_w_given_u": _columns(spec.p_w_given_u),
        "p_x_given_u": _columns(spec.p_x_given_u),
        # indexed [u][w][x] -> pmf over y
        "p_y_given_uwx": np.moveaxis(spec.p_y_given_uwx, 0, -1).tolist(),
        "domain_prior": spec.domain_prior.tolist(),
    }


def model_from_dict(doc: dict) -> ScmSpec:
    try:
        dims = dims_from_dict(doc["dims"])
        p_u_given_e = _from_columns(doc["p_u_given_e"], dims.k_u, dims.k_e, "p_u_given_e")
        q_u = np.array(doc["q_u"], dtype=float)
        p_w_given_u = _from_columns(doc["p_w_given_u"], dims.k_w, dims.k_u, "p_w_given_u")
        p_x_given_u = _from_columns(doc["p_x_given_u"], dims.k_x, dims.k_u, "p_x_given_u")
        y_arr = np.array(doc["p_y_given_uwx"], dtype=float)
        if y_arr.shape != (dims.k_u, dims.k_w, dims.k_x, dims.k_y):
            raise DatasetFormatError(
                f"p_y_given_uwx: expected shape {(dims.k_u, dims.k_w, dims.k_x, dims.k_y)}, "
                f"got {y_arr.shape}")
        p_y_given_uwx = np.moveaxis(y_arr, -1, 0)
        domain_prior = np.array(doc["domain_prior"], dtype=float)
    except KeyError as exc:
        raise DatasetFormatError(f"model file is missing key {exc}") from exc
    return ScmSpec(dims, p_u_given_e, q_u, p_w_given_u, p_x_given_u,
                   p_y_given_uwx, domain_prior)


def save_model(spec: ScmSpec, path) -> None:
    write_json(path, model_to_dict(spec))


def load_model(path) -> ScmSpec:
    with open(path) as handle:
        return model_from_dict(json.load(handle))


def write_records_csv(records, path) -> None:
    from .bench import CSV_HEADER  # local import to keep the module graph acyclic
    lines = [CSV_HEADER] + [r.to_csv_row() for r in records]
    atomic_write_text(path, "\n".join(lines) + "\n")
