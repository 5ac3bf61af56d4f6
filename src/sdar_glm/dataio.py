"""LIBSVM text ingestion, label mapping, standardization, and splits.

The LIBSVM line format is `label idx:value idx:value ...` with 1-based,
strictly increasing indices; `#` starts a comment.  Files are densified on
read (absent indices become 0).  Only local paths are read; downloading is
out of scope.

read_libsvm parses the file's bytes as one uint8 array.  Comments are cut
out; the bytes at which str.split() splits (\t, \v, \f, \x1c-\x1f and
space, with \r and \n ending a line as text mode reads them) cut the rest
into tokens, whose bounds come from the positions of those bytes; the first
token of each line is its label, and each other token must hold exactly one
colon with both sides nonempty.  Labels, indices and values are gathered
into fixed-width bytes arrays, in classes of similar width so that one long
token does not widen the rest, and numpy casts those to float64 and int64
with Python's own float and int, so spellings such as `+2`, `02`, `1_0`,
`nan` and `1e999` read as they do in Python.  A byte above 127 anywhere, or
a control byte outside a comment, makes the byte pass give up.  The
positivity, ordering and finiteness checks run on whole arrays, and a single
assignment fills X.  When any check fails, the file is read again as ASCII
text and walked token by token, which raises the UnicodeDecodeError of a
non-ASCII byte before any line is checked, or else the LibsvmParseError of
the first malformed line, carrying its 1-based line number.  Problems of the
file as a whole (no data lines, n_features below the largest index, a dense
X too large to allocate) carry line number 0.  Because every value is
checked as it is parsed, the returned Dataset does not scan X again, and the
CLI does not rescan it unless it was standardized.
"""

from __future__ import annotations

import math
import re
from typing import NoReturn

import numpy as np

from .families import Dataset
from .rng import as_rng

__all__ = [
    "LibsvmParseError",
    "InvalidLabelError",
    "MODE_MEAN_VAR",
    "MODE_LENGTH",
    "read_libsvm",
    "write_libsvm",
    "map_labels_to_binary",
    "standardize_columns",
    "pad_features",
    "train_test_split",
]

MODE_MEAN_VAR = "mean0var1"
MODE_LENGTH = "length-sqrt-n"

class LibsvmParseError(ValueError):
    """Malformed LIBSVM text; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = int(lineno)
        super().__init__(f"line {self.lineno}: {message}")


class InvalidLabelError(ValueError):
    """Labels outside both {-1, +1} and {0, 1}; lists the offenders."""

    def __init__(self, offenders):
        self.offenders = list(offenders)
        super().__init__(
            f"labels must lie in {{-1, +1}} or {{0, 1}}; found {self.offenders[:5]}"
        )


def read_libsvm(path: str, n_features: int | None = None) -> Dataset:
    """Parse a LIBSVM text file into a dense Dataset.

    The number of columns is the largest feature index seen, or n_features
    when given (which must cover every observed index).  Labels are kept
    verbatim; map_labels_to_binary converts them for logistic fits.
    """
    with open(path, "rb") as fh:
        parsed = _parse_bytes(fh.read())
    if parsed is None:
        _raise_first_bad_line(path)
    y, rows, idx, val = parsed
    if not y.size:
        raise LibsvmParseError(0, "file contains no data lines")
    max_idx = int(idx.max()) if idx.size else 0
    p = max_idx if n_features is None else int(n_features)
    if p < max_idx:
        raise LibsvmParseError(0, f"n_features={p} is below the largest observed index {max_idx}")
    if p < 1:
        raise LibsvmParseError(0, "no features found")
    try:
        X = np.zeros((y.size, p))
    except (MemoryError, ValueError):  # ValueError: the size overflows the address type
        raise LibsvmParseError(
            0, f"a dense {y.size} x {p} design needs {y.size * p * 8} bytes, more than can be allocated"
        ) from None
    X[rows, idx - 1] = val
    return Dataset(X, y, _x_checked=True)  # every value was checked finite above


def _parse_bytes(raw: bytes) -> tuple[np.ndarray, ...] | None:
    """Labels, and the row, index and value of every feature token, read from
    the file's bytes; None when any line is malformed.

    The byte arrays die with this frame, before read_libsvm allocates X.
    """
    tokens = _tokenize(raw)
    if tokens is None:
        return None
    buf, starts, stops, label = tokens
    # each feature token holds exactly one colon, with both sides nonempty:
    # as many colons as feature tokens, the j-th inside the j-th token
    labels, feature = np.flatnonzero(label), np.flatnonzero(~label)
    lo, hi = starts[feature], stops[feature]
    colons = np.flatnonzero(buf == 58)
    if colons.size != lo.size or not (np.all(lo < colons) and np.all(colons + 1 < hi)):
        return None
    window = np.concatenate([buf, np.zeros(int(np.max(stops - starts, initial=0)), np.uint8)])
    try:
        y = _convert(window, starts[labels], stops[labels], np.float64)
        idx = _convert(window, lo, colons, np.int64)
        val = _convert(window, colons + 1, hi, np.float64)
    except (ValueError, OverflowError):
        return None
    rows = np.repeat(np.arange(labels.size), np.diff(labels, append=starts.size) - 1)
    prev = np.zeros_like(idx)  # the previous index in the row, 0 at its start
    prev[1:] = np.where(rows[1:] == rows[:-1], idx[:-1], 0)
    if not (np.all(idx > prev) and np.all(np.isfinite(val))):
        return None
    return y, rows, idx, val


def _tokenize(raw: bytes) -> tuple[np.ndarray, ...] | None:
    """The file's bytes without comments, the start and stop of every
    token, and which tokens are labels; None when a byte makes the file
    malformed or not ASCII.
    """
    if np.any(np.frombuffer(raw, np.uint8) > 127):
        return None  # the text read raises the UnicodeDecodeError
    raw = re.sub(rb"#[^\r\n]*", b"", raw)  # each comment runs to its line's end
    buf = np.frombuffer(raw, np.uint8)
    # tokens are the runs of bytes above 32
    gaps = np.flatnonzero(buf <= 32)
    code = buf[gaps]
    # str.split() splits at the bytes 9-13 and 28-32; any other control byte
    # lies inside a token, where Python's float and int reject it (and a
    # bytes array would drop a trailing NUL)
    if np.any((code < 9) | ((code > 13) & (code < 28))):
        return None
    bounds = np.concatenate(([-1], gaps, [buf.size]))
    runs = np.flatnonzero(np.diff(bounds) > 1)
    starts, stops = bounds[runs] + 1, bounds[runs + 1]
    # the label is the first token of all and the first after each line end;
    # text mode reads \r and \r\n as \n
    label = np.zeros(starts.size + 1, bool)
    label[np.searchsorted(starts, gaps[(code == 10) | (code == 13)])] = True
    label[0] = True
    return buf, starts, stops, label[:-1]


def _convert(window: np.ndarray, starts: np.ndarray, stops: np.ndarray, dtype) -> np.ndarray:
    """The fields window[starts:stops] cast to dtype from fixed-width bytes.

    numpy casts a bytes array to float64 and int64 with Python's own float and
    int, so every spelling, bit and error is Python's.  Fields are gathered in
    classes of lengths (2**(k-1), 2**k], each as wide as its longest field, so
    the gather never takes more than twice the fields' bytes.
    """
    lens = stops - starts
    out = np.empty(lens.size, dtype)
    width_class = np.frexp(lens - 1)[1]  # k with 2**(k-1) < length <= 2**k
    for k in np.flatnonzero(np.bincount(width_class)):
        sel = np.flatnonzero(width_class == k)
        size = lens[sel]
        width = int(size.max())
        # the `width` bytes at each offset of window, as one bytes item
        items = np.ndarray((window.size - width + 1,), f"S{width}", window, strides=(1,))
        fields = items[starts[sel]]
        # NULs past each field's end pad a bytes array; they fall in the
        # columns from the shortest field's length on
        least = int(size.min())
        tail = fields.view(np.uint8).reshape(-1, width)[:, least:]
        tail *= np.arange(least, width) < size[:, None]
        out[sel] = fields
    return out


def _raise_first_bad_line(path: str) -> NoReturn:
    """Raise the LibsvmParseError of the first malformed line, token by token.

    Runs only after the byte pass of read_libsvm has found a fault, which
    every check below reproduces; the one fault they accept is an index
    beyond the int64 range, reported last, at the line of the largest index.
    """
    with open(path, "r", encoding="ascii") as fh:
        # not splitlines(): it would also break at \v, \f and \x1c-\x1e,
        # which are whitespace inside a line
        lines = fh.read().split("\n")
    max_idx, max_lineno = 0, 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            float(parts[0])
        except ValueError:
            raise LibsvmParseError(lineno, f"bad label {parts[0]!r}") from None
        prev = 0
        for tok in parts[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep or not val_s:
                raise LibsvmParseError(lineno, f"bad feature token {tok!r}")
            try:
                idx = int(idx_s)
            except ValueError:
                raise LibsvmParseError(lineno, f"bad feature index {idx_s!r}") from None
            try:
                val = float(val_s)
            except ValueError:
                raise LibsvmParseError(lineno, f"bad feature value {val_s!r}") from None
            if idx < 1:
                raise LibsvmParseError(lineno, f"feature index {idx} is not positive")
            if idx <= prev:
                raise LibsvmParseError(
                    lineno, f"feature indices must be strictly increasing, got {idx} after {prev}"
                )
            if not math.isfinite(val):
                raise LibsvmParseError(lineno, f"non-finite feature value {val_s!r}")
            prev = idx
        if prev > max_idx:
            max_idx, max_lineno = prev, lineno
    raise LibsvmParseError(max_lineno, f"feature index {max_idx} is too large")


def write_libsvm(data: Dataset, path: str) -> None:
    """Write in LIBSVM text form; zeros are omitted, values round-trip exactly."""
    flat = np.flatnonzero(data.X != 0.0)  # several times faster than np.nonzero(data.X)
    rows, cols = np.divmod(flat, data.p)
    tokens = list(map("{}:{!r}".format, (cols + 1).tolist(), data.X.ravel()[flat].tolist()))
    ends = np.cumsum(np.bincount(rows, minlength=data.n)).tolist()
    start = 0
    with open(path, "w", encoding="ascii") as fh:
        for label, end in zip(data.y.tolist(), ends):
            fh.write(" ".join([repr(label), *tokens[start:end]]) + "\n")
            start = end


def map_labels_to_binary(y: np.ndarray) -> np.ndarray:
    """Map {-1, +1} labels to {0, 1}; {0, 1} passes through unchanged."""
    y = np.asarray(y, dtype=float).ravel()
    values = set(np.unique(y).tolist())
    if values <= {0.0, 1.0}:
        return y.copy()
    if values <= {-1.0, 1.0}:
        return (y > 0).astype(float)
    offenders = sorted(values - {-1.0, 0.0, 1.0}) or sorted(values)
    raise InvalidLabelError(offenders)


def standardize_columns(X: np.ndarray, mode: str = MODE_MEAN_VAR) -> np.ndarray:
    """Rescale columns: zero mean and unit sample variance (denominator n-1),
    or scale to length sqrt(n).

    A constant column cannot be variance-standardized and raises ValueError
    naming it; under the length mode a zero column is left alone.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("X must be 2-d with at least two rows")
    if mode == MODE_MEAN_VAR:
        sd = X.std(axis=0, ddof=1)
        dead = np.flatnonzero(sd == 0.0)
        if dead.size:
            raise ValueError(f"column {int(dead[0])} is constant and cannot be standardized")
        return (X - X.mean(axis=0)) / sd
    if mode == MODE_LENGTH:
        norms = np.linalg.norm(X, axis=0)
        safe = np.where(norms > 0.0, norms, 1.0)
        scale = np.where(norms > 0.0, np.sqrt(X.shape[0]) / safe, 1.0)
        return X * scale
    raise ValueError(f"unknown mode {mode!r}; use {MODE_MEAN_VAR!r} or {MODE_LENGTH!r}")


def pad_features(data: Dataset, p: int) -> Dataset:
    """Append zero columns so the dataset has exactly p features."""
    if p < data.p:
        raise ValueError(f"cannot shrink from {data.p} to {p} features")
    if p == data.p:
        return data
    X = np.zeros((data.n, p))
    X[:, : data.p] = data.X
    return Dataset(X, data.y, _x_checked=True)  # data.X is finite, and so are zeros


def train_test_split(
    data: Dataset,
    train_fraction: float | None = None,
    train_size: int | None = None,
    seed: int | np.random.Generator = 0,
) -> tuple[Dataset, Dataset]:
    """Uniformly random row partition; give either a fraction or a count.

    train_fraction = 1.0 yields an empty test set.  An empty train set is an
    error.  Row order within each part is ascending, so the same seed gives
    the same split bytes-for-bytes.
    """
    if (train_fraction is None) == (train_size is None):
        raise ValueError("give exactly one of train_fraction and train_size")
    if train_fraction is not None:
        if not 0.0 < train_fraction <= 1.0:
            raise ValueError(f"train_fraction must lie in (0, 1], got {train_fraction}")
        n_train = int(round(train_fraction * data.n))
    else:
        n_train = int(train_size)
    if not 0 < n_train <= data.n:
        raise ValueError(f"train size {n_train} must lie in [1, {data.n}]")
    perm = as_rng(seed).permutation(data.n)
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    return (  # rows of a Dataset's X are finite
        Dataset(data.X[train_idx], data.y[train_idx], _x_checked=True),
        Dataset(data.X[test_idx], data.y[test_idx], _x_checked=True),
    )
