"""File schemas: dataset CSV, dimension sidecar and model JSON.

All category indices are 1-based in files and 0-based in memory.  CSV
rows use the literal ``T`` as the domain of target records, whose ``x`` and
``y`` fields must be empty.  Dimensions travel in a sidecar (or explicit
flags) rather than being inferred from data, so categories that happen to be
unobserved remain representable.  Every write is atomic
(write-temp-then-rename) and numbers round-trip at full precision.

Records exist only on the CLI ``simulate`` path: :func:`save_dataset` writes
the :class:`~proxyshift.scm.Records` that
:func:`~proxyshift.scm.simulate_records` draws, whose target rows carry no
treatment or outcome, and :func:`load_dataset` reads a file straight into
its :class:`~proxyshift.scm.ContingencyCounts`, the only input the
estimators take.

The dims sidecar, the ``bench`` config and the ``discretize`` partition file
are JSON objects that :func:`from_json` reads into their dataclasses by one
rule, taken from the dataclass's fields.  Model files keep their own layout
code, as their matrices are stored column-major.

:func:`load_dataset` reads the file as bytes of UTF-8 text and accepts
``\\n``, ``\\r\\n`` and ``\\r`` line ends (and the other breaks of
``str.splitlines``).  It counts the lines before parsing any: a line of at
most 8 bytes becomes one exact 64-bit integer key, so a file of short lines
is counted in NumPy without a string per line; longer lines, padded ones
among them, are counted as strings.  Each distinct line is then parsed
once.  A path that cannot be read, such as a missing file or a directory,
raises :class:`OSError`, which the CLI reports as a data error
(exit 2), as it does every :class:`~proxyshift.errors.DatasetFormatError`.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from dataclasses import MISSING, asdict, fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .categorical import CategorySpec
from .errors import DatasetFormatError
from .scm import ContingencyCounts, Records, ScmSpec, record_key

DATASET_HEADER = "domain,w,x,y"


def atomic_write_text(path, text: str) -> None:
    """Write a file atomically: temp file in the same directory, then rename.

    An :class:`OSError` names ``path``, not the temp file.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def write_json(path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def dims_to_dict(dims: CategorySpec) -> dict:
    """Every field of ``dims``, label tuples as lists; absent labels are left out."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in asdict(dims).items() if v is not None}


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _is_list_of(v, check) -> bool:
    return isinstance(v, list) and all(map(check, v))


_STRINGS = ("a list of strings", lambda v: _is_list_of(v, lambda s: isinstance(s, str)))

# What a JSON value must be for each declared field type of a dataclass built
# from JSON.  No value is coerced: ``2.5``, ``"2"`` and ``true`` are not integers.
# An absent label list is None, but a JSON null is refused like any non-list.
_JSON_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a number", _is_number),
    "tuple[float, ...]": ("a list of numbers", lambda v: _is_list_of(v, _is_number)),
    "tuple[int, ...] | None": ("a list of integers or null",
                               lambda v: v is None or _is_list_of(v, _is_int)),
    "tuple[str, ...]": _STRINGS,
    "tuple[str, ...] | None": _STRINGS,
}


def from_json(cls, doc, what: str):
    """The dataclass ``cls`` built from its JSON object ``doc``, called ``what``
    in errors.

    ``doc`` must be an object holding every field of ``cls`` without a default
    and no other key.  A field whose type is a dataclass is read by the same
    rule from its own object, named by its key; every other value must have
    its field's JSON type (:data:`_JSON_TYPES`), and lists become tuples.
    ``cls(**values)`` then runs the class's own range checks.
    """
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"{what} must be a JSON object, got {doc!r}")
    declared = {f.name: f for f in fields(cls)}
    for name, f in declared.items():
        if name not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise DatasetFormatError(f"{what} is missing key {name!r}")
    unknown = sorted(set(doc) - set(declared))
    if unknown:
        raise DatasetFormatError(f"{what} has unknown keys: {', '.join(unknown)}")
    types = get_type_hints(cls)
    values = {}
    for name, value in doc.items():
        if is_dataclass(types[name]):
            value = from_json(types[name], value, name)
        else:
            expected, check = _JSON_TYPES[declared[name].type]
            if not check(value):
                raise DatasetFormatError(f"{what} key {name!r} must be {expected}, got {value!r}")
        values[name] = tuple(value) if isinstance(value, list) else value
    return cls(**values)


def save_dims(dims: CategorySpec, path) -> None:
    write_json(path, dims_to_dict(dims))


def load_dims(path) -> CategorySpec:
    with open(path) as handle:
        return from_json(CategorySpec, json.load(handle), "dims")


def save_dataset(records: Records, path) -> None:
    """Write records as CSV; target rows carry empty x/y fields.

    Every record is one of the few lines that its cell determines, so the
    lines are formatted once per cell of :func:`scm.record_key`'s table and
    looked up per record.  The records are not validated: they come from
    :func:`~proxyshift.scm.simulate_records`.
    """
    d = records.dims
    # The key's shifted indices are the 1-based file codes, with 0 for T or empty;
    # the cells that no valid record reaches are never looked up.
    table = np.array([f"{e},{w + 1},{x},{y}\n" if e else f"T,{w + 1},,\n"
                      for y in range(d.k_y + 1) for x in range(d.k_x + 1)
                      for w in range(d.k_w) for e in range(d.k_e + 1)], dtype=object)
    lines = table[record_key(*records)].tolist()
    atomic_write_text(path, DATASET_HEADER + "\n" + "".join(lines))


def _parse_line(line: str, dims: CategorySpec) -> tuple[int, int, int | None, int | None]:
    """One non-blank data line as 0-based ``(domain, w, x, y)``, with ``None``
    for the domain, x and y of a target row.  A lone surrogate in ``line``
    stands for a byte that is not UTF-8."""
    try:
        line.encode()
    except UnicodeEncodeError:
        raise DatasetFormatError("not UTF-8 text") from None
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


# The bytes that end a line when a file is read in text mode (universal
# newlines) and split with ``str.splitlines``, UTF-8 encoded; each becomes
# ``\n`` before lines are cut.  ``\r\n`` precedes ``\r`` so it stays one break.
_LINE_BREAKS = (b"\r\n", b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e",
                "\x85".encode(), "\u2028".encode(), "\u2029".encode())
# Per line length l <= 8: the mask of the top l bytes of a 64-bit word, and
# the ``\n`` bytes below them.  No line holds a ``\n``, so the little-endian
# word that ends at a line's newline, masked and filled, keys it exactly.
_KEEP = np.array([2 ** 64 - 2 ** (64 - 8 * l) for l in range(9)], dtype=np.uint64)
_FILL = np.array([int.from_bytes(b"\n" * (8 - l), "little") for l in range(9)],
                 dtype=np.uint64)


def load_dataset(path, dims: CategorySpec) -> ContingencyCounts:
    """Parse a dataset CSV against declared dimensions into its counts.

    A categorical file repeats a few distinct lines, so the lines are counted
    first (see the module docstring) and each distinct line is parsed once by
    :func:`_parse_line`.  Blank lines are skipped and spaces around fields
    ignored.  Errors name the first offending 1-based line: malformed rows,
    target rows carrying x/y, source rows missing them, out-of-range indices
    and bytes that are not UTF-8.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    for brk in _LINE_BREAKS:
        if brk[:1] in data and brk in data:
            data = data.replace(brk, b"\n")
    if not data:
        raise DatasetFormatError("empty dataset file")
    if not data.endswith(b"\n"):
        data += b"\n"
    body = data.find(b"\n") + 1
    header = data[:body - 1].decode(errors="replace").strip()
    if header != DATASET_HEADER:
        raise DatasetFormatError(f"line 1: expected header {DATASET_HEADER!r}, got {header!r}")
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == 10)
    # Lengths of lines 2, 3, ...; a valid header is at least 12 bytes, so
    # every data line ends at least 8 bytes into the file.
    lengths = np.diff(ends) - 1
    short = lengths <= 8
    n_bytes = lengths[short]
    words = np.ndarray((buf.size - 7,), dtype="<u8", buffer=data, strides=(1,))
    keys = words[ends[1:][short] - 8]
    keys &= _KEEP[n_bytes]
    keys |= _FILL[n_bytes]
    ordered = np.sort(keys)
    new = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    first = np.flatnonzero(new)
    # Distinct lines as text, each byte that is not UTF-8 kept as a lone
    # surrogate for _parse_line to refuse.
    lines = Counter()
    for key, count in zip(ordered[first].tolist(), np.diff(first, append=ordered.size).tolist()):
        lines[key.to_bytes(8, "little").lstrip(b"\n").decode(errors="surrogateescape")] = count
    if not short.all():
        text = buf[ends[0] + 1:]
        if short.any():
            text = text[np.repeat(~short, lengths + 1)]
        lines.update(str(text, "utf-8", "surrogateescape").split("\n"))
    n_yxwe = np.zeros((dims.k_y, dims.k_x, dims.k_w, dims.k_e), dtype=np.int64)
    n_w_target = np.zeros(dims.k_w, dtype=np.int64)
    errors = {}
    for line, count in lines.items():
        if not line.strip():
            continue
        try:
            dom, w, x, y = _parse_line(line, dims)
        except DatasetFormatError as exc:
            errors[line] = exc
            continue
        if dom is None:
            n_w_target[w] += count
        else:
            n_yxwe[y, x, w, dom] += count
    if errors:
        text = data.decode(errors="surrogateescape").split("\n")
        number, line = next((i, line) for i, line in enumerate(text[1:], 2) if line in errors)
        raise DatasetFormatError(f"line {number}: {errors[line]}")
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
    if not isinstance(doc, dict):
        raise DatasetFormatError(f"model file must be a JSON object, got {doc!r}")
    try:
        dims = from_json(CategorySpec, doc["dims"], "dims")
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
