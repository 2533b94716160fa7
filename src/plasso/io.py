"""Delimited-text input, tab-separated output tables, and the versioned JSON
model file.

Model files store original-scale coefficients sparsely, so a loaded model
predicts raw data directly without the training-time standardization step.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .model import PliableFit, _check_index, predict
from .path import LambdaDiagnostics, PathResult
from .preprocess import StandardizationMap

__all__ = [
    "MODEL_SCHEMA_VERSION",
    "DataFormatError",
    "read_delimited",
    "split_columns",
    "write_table",
    "save_model",
    "load_model",
    "LoadedModel",
]

MODEL_SCHEMA_VERSION = 1


class DataFormatError(ValueError):
    """Malformed input file; messages carry line and column positions."""


def _sniff_delimiter(header_line: str) -> str:
    return "\t" if "\t" in header_line else ","


def read_delimited(path):
    """Read a delimited text file with a header row.

    Tab or comma separated (sniffed from the header); lines starting with
    ``#`` and blank lines are skipped.  Returns ``(column_names, matrix)``.
    """
    try:
        return _read_rows(path)
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not a text file: {exc}") from None


def _read_rows(path):
    names = None
    rows = []
    line_nos = []
    delim = "\t"
    with open(path) as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if names is None:
                delim = _sniff_delimiter(line)
                names = [c.strip() for c in line.split(delim)]
                if len(set(names)) != len(names):
                    raise DataFormatError(f"{path}: duplicate column names in header")
                continue
            cells = line.split(delim)
            if len(cells) != len(names):
                raise DataFormatError(
                    f"{path}: line {ln}: expected {len(names)} fields, "
                    f"got {len(cells)}")
            row = np.empty(len(cells))
            for ci, cell in enumerate(cells):
                try:
                    row[ci] = float(cell)
                except ValueError:
                    raise DataFormatError(
                        f"{path}: line {ln}, column {names[ci]!r}: "
                        f"not a number: {cell.strip()!r}") from None
            rows.append(row)
            line_nos.append(ln)
    if names is None:
        raise DataFormatError(f"{path}: empty file")
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    matrix = np.vstack(rows)
    finite = np.isfinite(matrix)
    if not finite.all():
        i, ci = np.argwhere(~finite)[0]
        with open(path) as fh:  # only on failure: fetch the cell's text
            line = next(itertools.islice(fh, line_nos[i] - 1, None))
        cell = line.rstrip("\r\n").split(delim)[ci].strip()
        raise DataFormatError(
            f"{path}: line {line_nos[i]}, column {names[ci]!r}: "
            f"not a finite number: {cell!r}")
    return names, matrix


def split_columns(names, matrix, y_col=None, z_cols=()):
    """Partition file columns into response, predictors, and modifiers.

    ``y_col=None`` means the file has no response (prediction input).  Columns
    named in ``z_cols`` become Z, in the order given; everything else is X in
    file order; no column may be named twice among y and Z.  Returns
    ``(y, X, Z, x_names)`` with y and Z possibly None.
    """
    index = {name: i for i, name in enumerate(names)}
    for col in ([y_col] if y_col else []) + list(z_cols):
        if col not in index:
            raise DataFormatError(
                f"no column named {col!r}; file has {', '.join(names)}")
    for i, col in enumerate(z_cols):
        if col in [y_col, *z_cols[:i]]:
            raise DataFormatError(
                f"column {col!r} is named twice: the modifiers must differ "
                "from each other and from the response")
    taken = set(z_cols) | ({y_col} if y_col else set())
    x_idx = [i for i, name in enumerate(names) if name not in taken]
    if not x_idx:
        raise DataFormatError("no predictor columns left after y/Z selection")
    y = matrix[:, index[y_col]] if y_col else None
    Z = matrix[:, [index[c] for c in z_cols]] if z_cols else None
    return y, matrix[:, x_idx], Z, [names[i] for i in x_idx]


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    return repr(float(v))


@contextlib.contextmanager
def _open_out(path):
    if hasattr(path, "write"):
        yield path
    else:
        with open(path, "w") as fh:
            yield fh


def write_table(path, names, rows, invocation=None, comments=()):
    """Write a TSV table to a path or stream.

    ``#`` comment lines carry the invocation and any extra metadata so every
    output file is self-describing.  Floats are written with full round-trip
    precision.
    """
    with _open_out(path) as fh:
        if invocation:
            fh.write(f"# {invocation}\n")
        for c in comments:
            fh.write(f"# {c}\n")
        fh.write("\t".join(names) + "\n")
        for row in rows:
            fh.write("\t".join(_format_cell(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# model file


def _fit_to_dict(fit: PliableFit) -> dict:
    theta = [[j, k, float(v)]
             for j, row in sorted(fit.theta_rows.items())
             for k, v in enumerate(row) if v != 0.0]
    return {
        "beta0": fit.beta0,
        "theta0": [float(v) for v in fit.theta0],
        "beta": [[j, float(v)] for j, v in enumerate(fit.beta) if v != 0.0],
        "theta": theta,
    }


def _need(doc, key, where, kind=None):
    """``doc[key]``, which must exist and, given ``kind``, be of that type."""
    if not isinstance(doc, dict) or key not in doc:
        raise DataFormatError(f"{where}: missing key {key!r}")
    if kind is not None and not isinstance(doc[key], kind):
        raise DataFormatError(f"{where}: {key!r} is not a {kind.__name__}")
    return doc[key]


def _int_in(v, lo, hi=None) -> bool:
    """True for an integer (not a boolean) in [lo, hi)."""
    return (isinstance(v, int) and not isinstance(v, bool) and v >= lo
            and (hi is None or v < hi))


def _number(v) -> bool:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _sparse_entries(d: dict, key: str, bounds: tuple, where: str):
    """Entries ``[index, ..., value]`` of a sparse coefficient list, each
    index an integer inside its bound and each value a finite number."""
    entries = _need(d, key, where, list)
    for e in entries:
        if not (isinstance(e, list) and len(e) == len(bounds) + 1
                and _number(e[-1])):
            raise DataFormatError(f"{where}: malformed {key!r} entry {e!r}")
        for idx, bound in zip(e, bounds):
            if not _int_in(idx, 0, bound):
                raise DataFormatError(
                    f"{where}: {key!r} entry {e!r} has index {idx!r} "
                    f"outside [0, {bound})")
    return entries


def _fit_from_dict(d: dict, p: int, k: int, lam: float, alpha: float,
                   where: str) -> PliableFit:
    beta0 = _need(d, "beta0", where)
    theta0 = _need(d, "theta0", where)
    if not _number(beta0):
        raise DataFormatError(f"{where}: 'beta0' is not a finite number")
    if not (isinstance(theta0, list) and len(theta0) == k
            and all(map(_number, theta0))):
        raise DataFormatError(
            f"{where}: 'theta0' is not a list of {k} finite numbers")
    beta = np.zeros(p)
    for j, v in _sparse_entries(d, "beta", (p,), where):
        beta[j] = v
    rows = {}
    for j, kk, v in _sparse_entries(d, "theta", (p, k), where):
        rows.setdefault(j, np.zeros(k))[kk] = v
    return PliableFit(beta0, np.asarray(theta0, dtype=float),
                      beta, rows, lam, alpha)


# the keys of a diagnostics entry are the fields of LambdaDiagnostics
_DIAGNOSTIC_COUNTS = tuple(f.name for f in fields(LambdaDiagnostics)
                           if f.name != "kkt_max")


def _diagnostics_from_list(diags: list, n: int, where: str) -> tuple:
    """The per-level diagnostics: ``n`` dicts of nonnegative integer counts
    and a finite ``kkt_max`` >= 0.  Files written before ``n_prox_capped``
    was recorded carry the same schema version, so a level without that
    key loads with ``n_prox_capped`` None (unknown)."""
    if len(diags) != n:
        raise DataFormatError(
            f"{where}: 'diagnostics' has {len(diags)} entries, 'lambdas' {n}")
    for i, d in enumerate(diags):
        at = f"{where}: diagnostics[{i}]"
        for key in _DIAGNOSTIC_COUNTS:
            if key == "n_prox_capped" and isinstance(d, dict) and key not in d:
                continue
            if not _int_in(_need(d, key, at), 0):
                raise DataFormatError(f"{at}: {key!r} is not an integer >= 0")
        kkt = _need(d, "kkt_max", at)
        if not (_number(kkt) and kkt >= 0):
            raise DataFormatError(f"{at}: 'kkt_max' is not a finite number >= 0")
    return tuple({**d, "n_prox_capped": d.get("n_prox_capped")} for d in diags)


# the keys of the standardization record are the fields of
# StandardizationMap: four arrays, y_mean and three flags
_SMAP_KEYS = tuple(f.name for f in fields(StandardizationMap))


def _smap_to_dict(smap: StandardizationMap) -> dict:
    # a 0-d array's tolist() is the plain float or bool
    return {key: np.asarray(getattr(smap, key)).tolist() for key in _SMAP_KEYS}


def _smap_from_dict(d: dict, p: int, k: int, where: str) -> StandardizationMap:
    """The standardization map: p finite means and nonzero scales for X,
    k of each for Z, a finite ``y_mean`` and three boolean flags."""
    v = [_need(d, key, where) for key in _SMAP_KEYS]
    for key, values, size in zip(_SMAP_KEYS, v, (p, p, k, k)):
        if not (isinstance(values, list) and len(values) == size
                and all(map(_number, values))
                and (key.endswith("means") or all(values))):
            raise DataFormatError(
                f"{where}: {key!r} is not a list of {size} finite "
                f"{'numbers' if key.endswith('means') else 'nonzero numbers'}")
    if not _number(v[4]):
        raise DataFormatError(f"{where}: 'y_mean' is not a finite number")
    for key, flag in zip(_SMAP_KEYS[5:], v[5:]):
        if not isinstance(flag, bool):
            raise DataFormatError(f"{where}: {key!r} is not true or false")
    return StandardizationMap(*v)


def save_model(path, result: PathResult, cv=None, invocation=None,
               x_columns=None, z_columns=None):
    """Serialize a fitted path (original-scale coefficients) as JSON."""
    doc = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "alpha": result.alpha,
        "lambdas": [float(v) for v in result.lambdas],
        "n_predictors": result.fits[0].n_predictors,
        "n_modifiers": result.fits[0].n_modifiers,
        "standardization": _smap_to_dict(result.smap),
        "fits": [_fit_to_dict(result.fit_raw(i))
                 for i in range(result.n_lambdas)],
        "diagnostics": [asdict(d) for d in result.diagnostics],
    }
    if x_columns is not None:
        doc["x_columns"] = list(x_columns)
    if z_columns is not None:
        doc["z_columns"] = list(z_columns)
    if cv is not None:
        doc["cv"] = {
            "cv_mean": [float(v) for v in cv.cv_mean],
            "cv_se": [float(v) for v in cv.cv_se],
            "idx_min": cv.idx_min, "idx_1se": cv.idx_1se,
        }
    if invocation:
        doc["invocation"] = invocation
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


@dataclass(frozen=True)
class LoadedModel:
    """Deserialized model file: original-scale fits plus selection metadata."""

    alpha: float
    lambdas: np.ndarray
    fits: tuple
    smap: StandardizationMap
    diagnostics: tuple
    x_columns: list | None
    z_columns: list | None
    cv: dict | None
    invocation: str | None

    @property
    def n_lambdas(self) -> int:
        return len(self.fits)

    @property
    def idx_min(self):
        return self.cv["idx_min"] if self.cv else None

    def default_index(self) -> int:
        """CV-minimizing penalty when present, else the end of the path."""
        return self.idx_min if self.cv else self.n_lambdas - 1

    def predict(self, X, Z=None, index=None) -> np.ndarray:
        if index is None:
            index = self.default_index()
        _check_index(index, self.n_lambdas)
        return predict(self.fits[index], X, Z)


def load_model(path) -> LoadedModel:
    """Read a model file written by ``save_model``.

    Raises ``DataFormatError`` naming the offending key or entry when the
    file is not a model of the supported schema: a missing key, an index
    outside the model's dimensions, a non-finite coefficient, fits or
    diagnostics and lambdas of different lengths, or a malformed
    diagnostics entry.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON or text encoding
            raise DataFormatError(f"{path}: not a JSON model file: {exc}") from None
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if version != MODEL_SCHEMA_VERSION:
        raise DataFormatError(
            f"{path}: unsupported model schema {version!r}, "
            f"expected {MODEL_SCHEMA_VERSION}")
    where = str(path)
    p, k = _need(doc, "n_predictors", where), _need(doc, "n_modifiers", where)
    for key, dim, least in (("n_predictors", p, 1), ("n_modifiers", k, 0)):
        if not _int_in(dim, least):
            raise DataFormatError(f"{where}: {key!r} must be an integer >= {least}")
    alpha = _need(doc, "alpha", where)
    if not (_number(alpha) and 0 <= alpha < 1):
        raise DataFormatError(f"{where}: 'alpha' is not a number in [0, 1)")
    lambdas = _need(doc, "lambdas", where, list)
    if not all(_number(v) and v >= 0 for v in lambdas):
        raise DataFormatError(
            f"{where}: 'lambdas' holds an entry that is not a finite "
            "number >= 0")
    fits = _need(doc, "fits", where, list)
    if len(fits) != len(lambdas):
        raise DataFormatError(
            f"{where}: 'fits' has {len(fits)} entries, 'lambdas' "
            f"{len(lambdas)}")
    lambdas = np.asarray(lambdas, dtype=float)
    # the map's lists bound p and k before any (p,) array is allocated
    smap = _smap_from_dict(_need(doc, "standardization", where, dict),
                           p, k, f"{where}: standardization")
    fits = tuple(_fit_from_dict(d, p, k, lam, alpha, f"{where}: fits[{i}]")
                 for i, (d, lam) in enumerate(zip(fits, lambdas)))
    cv = doc.get("cv")
    if cv is not None and not _int_in(_need(cv, "idx_min", f"{where}: cv"),
                                      0, len(fits)):
        raise DataFormatError(
            f"{where}: cv 'idx_min' {cv['idx_min']!r} outside [0, {len(fits)})")
    for key in ("x_columns", "z_columns"):
        names = doc.get(key)
        if names is not None and not (isinstance(names, list)
                                      and all(isinstance(c, str) for c in names)):
            raise DataFormatError(f"{where}: {key!r} is not a list of names")
    return LoadedModel(
        alpha=alpha, lambdas=lambdas, fits=fits, smap=smap,
        diagnostics=_diagnostics_from_list(
            _need(doc, "diagnostics", where, list), len(fits), where),
        x_columns=doc.get("x_columns"), z_columns=doc.get("z_columns"),
        cv=cv, invocation=doc.get("invocation"))
