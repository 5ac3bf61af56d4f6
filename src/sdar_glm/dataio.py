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
colon with both sides nonempty.  Labels, indices and values are converted
in classes of similar width, so that one long token does not widen the rest.
Labels and values that are exact decimals (below), and indices of at most
_PLACES digits, are read with exact integer arithmetic in numpy.  Every
other field is gathered into a fixed-width bytes array that numpy casts to
float64 or int64 with Python's own float and int, so spellings such as
`+2`, `1_0`, `nan` and `1e999` read, or fail, as they do in Python.  A byte
above 127 anywhere, or a control byte outside a comment, makes the byte
pass give up.  The positivity, ordering and finiteness checks run on whole
arrays, and a single assignment fills X.  When any check fails, the bytes
read are decoded as ASCII text and walked token by token, which raises the
UnicodeDecodeError of a non-ASCII byte before any line is checked, or else
the LibsvmParseError of the first malformed line, carrying its 1-based line
number.  Problems of the file as a whole (no data lines, n_features below
the largest index, a dense X too large to allocate) carry line number 0.
Because every value is checked as it is parsed, the returned Dataset does
not scan X again, and the CLI does not rescan it unless it was standardized.

Files are read on every usable CPU: the bytes are cut just after line feeds
into at most one piece per CPU and per _PIECE_FLOOR (1 MiB) bytes, each a
view of the file's one bytes object.  The pieces are parsed on a thread
each, and each then fills its own rows of X, offset by the rows of the
pieces before it; the numpy passes of both stages release the GIL.  A
piece starts a line and holds whole lines, comments included, so X, y and
the error of a malformed file do not depend on the number of pieces.  A
file of one piece is read on the calling thread and starts none.

Exact decimals.  Both directions share one rule (Clinger; Steele and White;
PLDI 1990).  A decimal is exact when it is spelled [+-]?digits[.digits]
with at most _DIGITS significant digits (leading zeros do not count) and
at most _PLACES digits after the point, once one digit more that is a last
zero after the point is dropped (repr spells a whole number of _DIGITS digits
with `.0`).  Its digits, point left out, are an integer m < 10**_DIGITS <
2**53, so m / 10**f, f its places, is one correctly rounded division of
exact doubles: the bits of Python's float().  Distinct exact decimals round
to distinct doubles, so at most one rounds to a double v, and when
1e-4 <= |v|, repr(v) spells it, without an exponent.

write_libsvm writes the bytes that one repr per nonzero value would, by the
reader's arithmetic run backwards where it can.  It finds the places f of
|v| by comparing |v| with powers of ten, and when 1e-4 <= |v| and
m = rint(|v| * 10**f) gives m / 10**f == |v|, v is an exact decimal, which
the writer spells from the integers m and f, one decimal digit per numpy
pass: the sign, the integer part with no leading zeros, the point, and the
fraction with no trailing zeros (`.0` for a whole number).  Every other
value is its sign and the repr of |v|, and every label is its repr, so
every nonzero value reads back with its bits.  X is scanned for nonzeros a
block of rows at a time, and each chunk of rows becomes one fixed-width
bytes array with an item per label and per ` index:value` token, in file
order, padded with NUL bytes that are dropped on output.  No path of the
library or the CLI writes LIBSVM; the writer serves callers of the API, and
the benchmark writes its ingest input with it.
"""

from __future__ import annotations

import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from itertools import accumulate
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


class UnscalableColumnError(ValueError):
    """A column standardize_columns cannot rescale: its 0-based index and why."""

    def __init__(self, column: int, reason: str):
        self.column, self.reason = int(column), reason
        super().__init__(f"column {self.column} {reason} and cannot be standardized")


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
        raw = fh.read()
    pieces = _cut(raw, min(_usable_cpus(), len(raw) // _PIECE_FLOOR))
    with ThreadPoolExecutor(len(pieces)) as pool:
        run = pool.map if len(pieces) > 1 else map  # one piece is read inline
        parsed = list(run(_parse_bytes, pieces))
        if any(part is None for part in parsed):
            _raise_first_bad_line(raw)
        del raw, pieces  # the file's bytes are freed before X is allocated
        ys, rows, idx, val = zip(*parsed)
        y = np.concatenate(ys)
        if not y.size:
            raise LibsvmParseError(0, "file contains no data lines")
        max_idx = max(int(i.max()) if i.size else 0 for i in idx)
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
        # each piece fills its own rows, which start after the previous pieces'
        first_rows = accumulate((part.size for part in ys[:-1]), initial=0)
        list(run(_scatter, [X[start:] for start in first_rows], rows, idx, val))
    return Dataset(X, y, _x_checked=True)  # every value was checked finite above


# the fewest bytes a piece read on its own thread holds
_PIECE_FLOOR = 1 << 20


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cut(raw: bytes, count: int) -> list[memoryview]:
    """raw cut into at most `count` pieces of about equal size, as views.

    Each cut falls just after the first line feed at or past its share of
    raw, so every piece starts a line and \r\n is never split; a file whose
    lines all end in \r is one piece.  Comments end at their line's end, so
    no piece starts inside one.
    """
    cuts = [0]
    for k in range(1, count):
        at = raw.find(b"\n", max(cuts[-1], len(raw) * k // count)) + 1
        if not 0 < at < len(raw):
            break
        cuts.append(at)
    cuts.append(len(raw))
    view = memoryview(raw)
    return [view[start:stop] for start, stop in zip(cuts, cuts[1:])]


def _scatter(X: np.ndarray, rows: np.ndarray, idx: np.ndarray, val: np.ndarray) -> None:
    """Write each feature value into its row and column of X."""
    X[rows, idx - 1] = val


def _parse_bytes(raw: bytes | memoryview) -> tuple[np.ndarray, ...] | None:
    """Labels, and the row, index and value of every feature token, read from
    the bytes of whole lines; None when any line is malformed.  Rows count
    from the first line of raw.

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


def _tokenize(raw: bytes | memoryview) -> tuple[np.ndarray, ...] | None:
    """The bytes without comments, the start and stop of every
    token, and which tokens are labels; None when a byte makes the file
    malformed or not ASCII.
    """
    buf = np.frombuffer(raw, np.uint8)
    if np.any(buf > 127):
        return None  # the text read raises the UnicodeDecodeError
    # each comment runs from its # to its line's end; re.sub copies a
    # memoryview even when nothing matches, so it runs only on a piece with a #
    if np.any(buf == 35):
        buf = np.frombuffer(re.sub(rb"#[^\r\n]*", b"", raw), np.uint8)
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
    """The fields window[starts:stops] cast to dtype, with the bits and errors
    of Python's float and int.

    Fields are read in classes of similar width: those up to 8 bytes long,
    then lengths (2**(k-1), 2**k] for k > 3.  In a class no wider than a
    canonical spelling (_CANONICAL_WIDTH), _read_canonical reads the
    canonical fields exactly; every other field is cast by _cast_with_python.
    So a gather never takes more than 8 bytes a field, or twice its bytes.
    """
    lens = stops - starts
    out = np.empty(lens.size, dtype)
    for sel in _width_classes(lens):
        pos, size = starts[sel], lens[sel]
        if size.max() > _CANONICAL_WIDTH[dtype]:
            out[sel] = _cast_with_python(window, pos, size, dtype)
            continue
        values, canonical = _read_canonical(window, pos, size, dtype)
        slow = np.flatnonzero(~canonical)
        if slow.size:
            values[slow] = _cast_with_python(window, pos[slow], size[slow], dtype)
        out[sel] = values
    return out


def _width_classes(lens: np.ndarray) -> list:
    """The fields of each width class (up to 8 bytes, then (2**(k-1), 2**k]),
    as index arrays; one slice when all fields share a class."""
    width_class = np.zeros(lens.size, np.uint8)
    bound, longest = 8, int(lens.max(initial=0))
    while bound < longest:
        width_class += lens > bound
        bound *= 2
    counts = np.bincount(width_class)
    if np.count_nonzero(counts) == 1:
        return [slice(None)]
    return [np.flatnonzero(width_class == k) for k in np.flatnonzero(counts)]


# the exact-decimal rule's most significant digits and most places
_DIGITS, _PLACES = 15, 18
# 10**f for f = 0.._PLACES, each an exact double, and as int64
_POW10 = np.array([10.0**f for f in range(_PLACES + 1)])
_POW10_INT = 10 ** np.arange(_PLACES + 1, dtype=np.int64)
# the widest canonical spellings: a sign, 0, a dot and _PLACES places; _PLACES digits
_CANONICAL_WIDTH = {np.float64: _PLACES + 3, np.int64: _PLACES}
# the doubles of 10**(_DIGITS - f) for f = _PLACES..1; from each on, f places exceed _DIGITS digits
_EDGES = _POW10[_DIGITS] / _POW10[_PLACES:0:-1]


def _read_canonical(window: np.ndarray, starts: np.ndarray, lens: np.ndarray, dtype):
    """The values of the fields window[starts:starts+lens], and which of
    them are canonical and so exact.  The fields are nonempty, hold no NUL
    (the tokenizer rejects control bytes) and are at most _CANONICAL_WIDTH
    bytes long.

    A canonical float is an exact decimal (module docstring), m / 10**f, and
    a canonical int is 1 to _PLACES digits, below 10**_PLACES < 2**63.  A
    leading '-' negates the quotient, which gives -0.0 for '-0' as float()
    does.  The values of fields that are not canonical are left unspecified.

    The fields are read one byte column at a time, bytes past a field's end
    counting as NUL; each column updates m and the counts of digits, dots
    and digits after the dot.  Then each float field whose m reached
    10**_DIGITS and whose last byte is a zero after the dot loses that zero
    from m and from the count after the dot.
    """
    real = dtype == np.float64
    n, width = lens.size, int(lens.max())
    lens = lens.astype(np.uint8)
    least = int(lens.min())
    # 9 digits < 2**31 and _PLACES < 2**63; a wider field could wrap an
    # int64, but a double, once at or past 10**_DIGITS, never falls below it
    m = np.zeros(n, np.int32 if width <= 9 else np.int64 if width <= _PLACES else np.float64)
    digits = np.zeros(n, np.uint8)
    dots = np.zeros(n, np.uint8)
    frac = np.zeros(n, np.uint8)
    junk = np.zeros(n, bool)
    for c in range(width):
        b = np.take(window[c:], starts)  # byte c of every field
        if c >= least:
            b *= lens > c
        d = b - np.uint8(48)
        digit = d < 10
        allowed = digit | (b == 0)
        if real:
            if c == 0:
                neg = b == 45
                allowed |= neg | (b == 43)
            dot = b == 46
            allowed |= dot
            digits += digit
            frac += digit & (dots > 0)
            dots += dot
        junk |= ~allowed
        m *= digit * np.uint8(9) + np.uint8(1)  # times 10 at a digit, else 1
        d *= digit
        m += d
    if not real:
        return m.astype(np.int64), ~junk
    # the last byte, not m % 10, since a double m past 2**53 may be rounded
    over = np.flatnonzero(m >= 10**_DIGITS)
    zero = over[(np.take(window, starts[over] + lens[over] - 1) == 48) & (frac[over] > 0)]
    m[zero] //= 10
    frac[zero] -= np.uint8(1)
    canonical = ~junk & (dots <= 1) & (digits >= 1) & (m < 10**_DIGITS) & (frac <= _PLACES)
    values = m / np.take(_POW10, frac, mode="clip")  # >= +0, so a copied sign negates
    return np.copysign(values, 0.5 - neg, out=values), canonical


def _cast_with_python(window: np.ndarray, starts: np.ndarray, lens: np.ndarray, dtype) -> np.ndarray:
    """The fields gathered into one fixed-width bytes array and cast to dtype.

    numpy casts a bytes array to float64 and int64 with Python's own float
    and int, so every spelling, bit and error is Python's.
    """
    width = int(lens.max())
    # the `width` bytes at each offset of window, as one bytes item
    items = np.ndarray((window.size - width + 1,), f"S{width}", window, strides=(1,))
    fields = items[starts]
    # NULs past each field's end pad a bytes array; they fall in the
    # columns from the shortest field's length on
    least = int(lens.min())
    tail = fields.view(np.uint8).reshape(-1, width)[:, least:]
    tail *= np.arange(least, width) < lens[:, None]
    return fields.astype(dtype)


def _raise_first_bad_line(raw: bytes) -> NoReturn:
    """Raise the LibsvmParseError of raw's first malformed line, token by token.

    Runs only after the byte pass of read_libsvm has found a fault, which
    every check below reproduces; the one fault they accept is an index
    beyond the int64 range, reported last, at the line of the largest index.
    """
    # lines end at \n, \r\n or \r, as a text-mode read splits them; not at
    # splitlines()' \v, \f and \x1c-\x1e, which are whitespace inside a line
    lines = raw.decode("ascii").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    max_idx, max_lineno = 0, 0
    for lineno, text in enumerate(lines, start=1):
        line = text.split("#", 1)[0].strip()
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
    """Write data in LIBSVM text form, one line per row: the label's repr,
    then `index:value` for each nonzero entry, 1-based.

    Every nonzero value reads back bit for bit, spelled as Python's repr
    spells it; -0.0 counts as zero and is omitted with the zeros.  A file
    keeps no column count, since trailing zero columns leave no index:
    read_libsvm(path, n_features=data.p) restores the shape.  A dataset of
    no rows writes an empty file, which read_libsvm rejects.
    """
    with open(path, "wb") as fh:
        for labels, flat, values in _nonzero_chunks(data.X, data.y):
            fh.write(_lines(labels, flat, values, data.p))


# the entries of X scanned at a time (512 KiB), and the nonzeros spelled at a time
_SCAN_ENTRIES = 1 << 16
_CHUNK_NONZEROS = 1 << 17


def _nonzero_chunks(X: np.ndarray, y: np.ndarray):
    """Consecutive row ranges of X that hold at least _CHUNK_NONZEROS nonzero
    entries (the last may hold fewer), each as its labels, the row-major flat
    indices of its nonzeros within its rows, and their values.

    X is scanned a block of about _SCAN_ENTRIES entries at a time, so the
    comparison's temporary stays in cache.
    """
    n, p = X.shape
    step = max(1, _SCAN_ENTRIES // p)
    first, flats, values, held = 0, [], [], 0
    for start in range(0, n, step):
        block = X[start : start + step]
        flat = np.flatnonzero(block != 0.0)
        values.append(np.take(block, flat))
        flats.append(flat + (start - first) * p)
        held += flat.size
        stop = start + block.shape[0]
        if held >= _CHUNK_NONZEROS or stop == n:
            yield y[first:stop], np.concatenate(flats), np.concatenate(values)
            first, flats, values, held = stop, [], [], 0


def _lines(labels: np.ndarray, flat: np.ndarray, values: np.ndarray, p: int) -> bytes:
    """The LIBSVM lines of rows with these labels, whose nonzero entries sit at
    the row-major flat indices `flat` with these values, as ASCII bytes.

    Each label and each ` index:value` token is an item of one fixed-width
    bytes array, in file order, padded with NUL bytes; dropping the NULs
    leaves the text.  Each label but the first carries the line feed that
    ends the line before it, and a last item holds the final one.
    """
    rows = flat // p
    heads = ["\n" + text for text in map(repr, labels.tolist())]
    heads[0] = heads[0][1:]
    tokens = _tokens(flat - rows * p, values, p, min_width=max(map(len, heads)))
    width = tokens.dtype.itemsize
    counts = np.bincount(rows, minlength=labels.size)
    starts = np.cumsum(counts) - counts
    items = np.zeros(labels.size + rows.size + 1, f"V{width}")
    items[np.arange(labels.size) + starts] = np.array(heads, f"S{width}").view(f"V{width}")
    items[np.arange(rows.size) + rows + 1] = tokens.view(f"V{width}")
    items.view(np.uint8)[-width] = 10
    return items.tobytes().translate(None, b"\0")


def _tokens(cols: np.ndarray, values: np.ndarray, p: int, min_width: int) -> np.ndarray:
    """The ` index:value` token of each nonzero value in column cols (0-based)
    of p columns, as items of one structured array, NUL-padded to at least
    min_width bytes.

    Every token spells the sign of its value.  The index and a canonical
    magnitude (_decimal_form) are spelled digit by digit from exact integers
    by _spell: the index and the integer part with leading zeros NUL, the
    point, and the fraction with trailing zeros NUL (a lone 0 for a whole
    number).  Every other magnitude is spelled by _spell_with_repr, since
    repr(-a) is '-' + repr(a).
    """
    magnitude = np.abs(values)
    places, digits, canonical = _decimal_form(magnitude)
    exact = np.flatnonzero(canonical)
    rest = np.flatnonzero(~canonical)
    index_digits = len(str(p))
    fields = [("space", "u1"), ("index", f"({index_digits},)u1"), ("colon", "u1"), ("sign", "u1")]
    if exact.size:
        # the decimal is whole + part / 10**places, with part below 10**places;
        # part scaled to _PLACES places is an exact int64, its digits left-aligned
        whole = np.floor(magnitude[exact]).astype(np.int64)
        places = places[exact]
        part = digits[exact].astype(np.int64) - whole * _POW10_INT[places]
        part *= _POW10_INT[_PLACES - places]
        zeros = _shared_zeros(part)
        part //= _POW10_INT[zeros]
        whole_digits, part_digits = len(str(whole.max())), _PLACES - zeros
        fields += [("whole", f"({whole_digits},)u1"), ("point", "u1"), ("part", f"({part_digits},)u1")]
    if rest.size:
        spelled = _spell_with_repr(magnitude[rest])
        fields.append(("repr", spelled.dtype))
    padding = min_width - np.dtype(fields).itemsize
    if padding > 0:
        fields.append(("padding", f"V{padding}"))
    tokens = np.zeros(values.size, fields)
    tokens["space"] = 32
    tokens["index"] = _spell(cols + 1, index_digits, leading=True)
    tokens["colon"] = 58
    tokens["sign"] = np.uint8(45) * (values < 0.0)
    if exact.size:
        tokens["whole"][exact] = _spell(whole, whole_digits, leading=True)
        tokens["point"] = np.uint8(46) * canonical
        tokens["part"][exact] = _spell(part, part_digits, leading=False)
    if rest.size:
        tokens["repr"][rest] = spelled
    return tokens


def _spell_with_repr(values: np.ndarray) -> np.ndarray:
    """values spelled by Python's repr, as a bytes array as wide as the longest."""
    spelled = list(map(repr, values.tolist()))
    return np.array(spelled, f"S{max(map(len, spelled))}")


def _decimal_form(magnitude: np.ndarray) -> tuple[np.ndarray, ...]:
    """For positive finite magnitudes a: places f, the most, at most
    _PLACES, at which a < 10**(_DIGITS - f) as doubles (_EDGES); digits
    m = rint(a * 10**f); and which a are canonical: a >= 1e-4,
    m < 10**_DIGITS and m / 10**f == a.

    An exact decimal d >= 1e-4 in [10**e, 10**(e + 1)) has at most
    _DIGITS - 1 - e places, and that is f: rounding is monotonic, and the
    decimal 10**(e + 1) rounds to another double than d, so the double a
    lies in the same bounds as doubles.  Then m is d's integer (a * 10**f is
    within 1/2 of it) and m / 10**f is a.  Conversely m / 10**f == a says
    that the exact decimal m * 10**-f rounds to a, so repr(a) spells it
    (module docstring).  A decimal with fewer places passes at the most
    places too (m gains only zeros), so one test decides.
    """
    # a uint8 count of the edges at or below a, one pass per edge, is faster
    # than a binary search per magnitude; an intp index gathers faster
    places = (_PLACES - sum((magnitude >= edge for edge in _EDGES), np.uint8(0))).astype(np.intp)
    digits = np.rint(magnitude * _POW10[places])
    canonical = (magnitude >= 1e-4) & (digits < _POW10[_DIGITS]) & (digits / _POW10[places] == magnitude)
    return places, digits, canonical


def _shared_zeros(part: np.ndarray) -> int:
    """The most trailing decimal zeros, at most _PLACES - 1, that every part has."""
    for zeros in range(_PLACES - 1, 0, -1):
        unit = _POW10_INT[zeros]
        if not np.any(part % unit):
            return zeros
    return 0


def _spell(x: np.ndarray, count: int, leading: bool) -> np.ndarray:
    """The `count` decimal digits of each x (0 <= x < 10**count) as ASCII
    bytes, a row each, spelled right to left one column per pass: NUL for
    each leading zero (a 0 with only zeros left of it) when `leading`, else
    for each trailing zero (a 0 with only zeros right of it), and a lone 0
    for 0, in the last column or the first."""
    spelled = np.empty((x.size, count), np.uint8)
    x = x.astype(np.uint32 if count <= 9 else np.uint64)  # divides faster than int64
    shown = np.zeros(x.size, bool)  # trailing: a nonzero digit lies in column k or right of it
    edge = count - 1 if leading else 0  # the column of the lone 0
    for k in range(count - 1, -1, -1):
        if leading:
            shown = x > 0  # a nonzero digit lies in column k or to its left
        x, digit = np.divmod(x, 10)
        if not leading:
            shown |= digit > 0
        spelled[:, k] = digit + 48 if k == edge else (digit + 48) * shown
    return spelled


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

    A constant column cannot be variance-standardized and raises
    UnscalableColumnError (a ValueError) naming it; under the length mode a
    zero column is left alone.  A column whose scale (sd or norm) overflows
    raises it too, since dividing by that scale would zero the column.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("X must be 2-d with at least two rows")
    if mode not in (MODE_MEAN_VAR, MODE_LENGTH):
        raise ValueError(f"unknown mode {mode!r}; use {MODE_MEAN_VAR!r} or {MODE_LENGTH!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing scale raises below
        scale = X.std(axis=0, ddof=1) if mode == MODE_MEAN_VAR else np.linalg.norm(X, axis=0)
    bad = np.flatnonzero(~np.isfinite(scale))
    if bad.size:
        raise UnscalableColumnError(bad[0], "overflows its scale")
    if mode == MODE_LENGTH:
        safe = np.where(scale > 0.0, scale, 1.0)
        return X * np.where(scale > 0.0, np.sqrt(X.shape[0]) / safe, 1.0)
    dead = np.flatnonzero(scale == 0.0)
    if dead.size:
        raise UnscalableColumnError(dead[0], "is constant")
    return (X - X.mean(axis=0)) / scale


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
    data: Dataset, train_size: int, seed: int | np.random.Generator = 0
) -> tuple[Dataset, Dataset]:
    """Uniformly random row partition into train_size rows and the rest.

    train_size = data.n yields an empty test set.  An empty train set is an
    error, and so is a train_size that is not an int or numpy integer (a
    bool, or a float such as 2.7, is refused, not truncated).  Row order
    within each part is ascending, so the same seed gives the same split
    bytes-for-bytes.
    """
    if isinstance(train_size, bool) or not isinstance(train_size, (int, np.integer)):
        raise ValueError(f"train size must be a whole number of rows, got {train_size!r}")
    if not 0 < train_size <= data.n:
        raise ValueError(f"train size {train_size} must lie in [1, {data.n}]")
    perm = as_rng(seed).permutation(data.n)
    train_idx = np.sort(perm[:train_size])
    test_idx = np.sort(perm[train_size:])
    return (  # rows of a Dataset's X are finite
        Dataset(data.X[train_idx], data.y[train_idx], _x_checked=True),
        Dataset(data.X[test_idx], data.y[test_idx], _x_checked=True),
    )
