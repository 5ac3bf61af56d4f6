"""LIBSVM parsing and writing, label mapping, standardization, splitting."""

import math
import sys
import threading
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import sdar_glm as sg
from sdar_glm import dataio
from sdar_glm.dataio import pad_features
from sdar_glm.rng import make_rng

from helpers import read_libsvm_per_token, write_libsvm_per_entry
from test_golden import _libsvm_text


def parse(tmp_path, text, **kwargs):
    path = tmp_path / "data.txt"
    path.write_text(text, encoding="ascii")
    return sg.read_libsvm(str(path), **kwargs)


# --- read_libsvm -------------------------------------------------------------

def test_read_densifies_sparse_rows(tmp_path):
    data = parse(tmp_path, "1 1:0.5 3:2.0\n-1 2:1.5\n")
    assert np.array_equal(data.X, [[0.5, 0.0, 2.0], [0.0, 1.5, 0.0]])
    assert np.array_equal(data.y, [1.0, -1.0])


def test_read_skips_comments_and_blank_lines(tmp_path):
    text = "# header comment\n1 1:2.0  # trailing comment\n\n   \n0 1:1.0 2:3.0\n"
    data = parse(tmp_path, text)
    assert np.array_equal(data.X, [[2.0, 0.0], [1.0, 3.0]])
    assert np.array_equal(data.y, [1.0, 0.0])


def test_read_widens_to_requested_feature_count(tmp_path):
    data = parse(tmp_path, "1 1:1.0\n", n_features=5)
    assert data.p == 5
    assert np.array_equal(data.X, [[1.0, 0.0, 0.0, 0.0, 0.0]])


def test_read_rejects_feature_count_below_observed_indices(tmp_path):
    with pytest.raises(sg.LibsvmParseError, match="below the largest observed index") as err:
        parse(tmp_path, "1 1:1.0 3:1.0\n", n_features=2)
    assert err.value.lineno == 0


@pytest.mark.parametrize(
    "line, message",
    [
        ("x 1:1.0", "bad label 'x'"),
        ("1 foo", "bad feature token 'foo'"),
        ("1 1:", "bad feature token"),
        ("1 a:1.0", "bad feature index 'a'"),
        ("1 1:b", "bad feature value 'b'"),
        ("1 0:1.0", "index 0 is not positive"),
        ("1 2:1.0 2:2.0", "strictly increasing, got 2 after 2"),
        ("1 2:1.0 1:2.0", "strictly increasing"),
        ("1 1:inf", "non-finite feature value 'inf'"),
        ("1 1:nan", "non-finite"),
    ],
)
def test_read_reports_malformed_lines(tmp_path, line, message):
    with pytest.raises(sg.LibsvmParseError, match=message) as err:
        parse(tmp_path, f"1 1:1.0\n{line}\n")
    assert err.value.lineno == 2
    assert str(err.value).startswith("line 2: ")


def test_read_rejects_an_index_beyond_int64(tmp_path):
    with pytest.raises(sg.LibsvmParseError, match="feature index 99999999999999999999 is too large") as err:
        parse(tmp_path, "1 1:1.0\n1 2:1.0 99999999999999999999:1.0\n-1 3:1.0\n")
    assert err.value.lineno == 2


@pytest.mark.parametrize(
    "text, message",
    [
        # 8e14 bytes exceed any 47-bit address space, so the allocation
        # fails at once without touching memory
        ("1 1:1.0 100000000000000:2.0\n", "1 x 100000000000000 design needs 800000000000000 bytes"),
        # 6.4e19 bytes exceed even the int64 size numpy can describe
        ("1 4000000000000000000:1.0\n-1 1:1.0\n", "2 x 4000000000000000000 design needs 64000000000000000000 bytes"),
    ],
)
def test_read_rejects_a_design_too_large_to_allocate(tmp_path, text, message):
    with pytest.raises(sg.LibsvmParseError, match=message) as err:
        parse(tmp_path, text)
    assert err.value.lineno == 0


@pytest.mark.parametrize("text", ["", "# only a comment\n", "\n  \n"])
def test_read_rejects_files_without_data(tmp_path, text):
    with pytest.raises(sg.LibsvmParseError, match="no data lines") as err:
        parse(tmp_path, text)
    assert err.value.lineno == 0


# --- read_libsvm against the per-token reference ----------------------------

# whitespace that str.split() treats as a separator inside a line
BLANKS = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"])
# free text for malformed labels and tokens: signs, underscores, colons,
# comment marks, exponents, blanks and a carriage return
ODD = "0123456789+-_.:#einaf \t\x0b\x0c\x1c\x1d\x1e\x1f\r"
LABELS = st.sampled_from(["1", "-1", "+1", "0", "0.5", "+0_1", "-2e0", "3"] * 2 + ["nan", "1e999"])
INDEX_FORMS = st.sampled_from([
    str, str, "0{}".format, "+{}".format, "00{}".format,
    lambda i: f"{str(i)[0]}_{str(i)[1:]}" if i >= 10 else str(i),  # 1_0
])
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.integers(-99, 99).map(str),
    st.sampled_from(["+1.5", "007", "1_0.5", "-0", ".5", "5.", "1e-3", "-2E+2"]),
)
BAD_TOKENS = st.one_of(
    st.text(ODD, max_size=4),
    st.sampled_from([
        "1:", ":1", "1::2", "::", "1:2:3", "0:1", "-3:1", "a:1", "1:b", "2:nan", "3:inf",
        "4:1e999", "1_0:2", "+2:3", "02:1", "#", "1 #2:3",
    ]),
)


@st.composite
def libsvm_lines(draw):
    """One line: mostly well formed, sometimes with a malformed token."""
    label = draw(LABELS) if draw(st.sampled_from([True] * 9 + [False])) else draw(st.text(ODD, max_size=3))
    toks = [label] + [
        f"{draw(INDEX_FORMS)(i)}:{draw(VALUES)}"
        for i in sorted(draw(st.sets(st.integers(1, 12), max_size=5)))
    ]
    if draw(st.sampled_from([False] * 9 + [True])):
        toks.insert(draw(st.integers(0, len(toks))), draw(BAD_TOKENS))
    line = draw(st.sampled_from(["", " ", "\t"])) + "".join(tok + draw(BLANKS) for tok in toks)
    line += draw(st.sampled_from(["", "", "", "#", " # note", "#1:2"]))
    return line + draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))


def read_in_pieces(path, n_features=None, pieces=6):
    """read_libsvm with the piece floor at one byte and `pieces` usable CPUs,
    so that a file of that many lines or more is cut into `pieces` pieces."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataio, "_PIECE_FLOOR", 1)
        mp.setattr(dataio, "_usable_cpus", lambda: pieces)
        return sg.read_libsvm(path, n_features=n_features)


def read_outcome(reader, path, n_features):
    """The parsed bytes, or the error's type, message and line number."""
    try:
        data = reader(path, n_features=n_features)
    except ValueError as exc:  # includes LibsvmParseError and UnicodeDecodeError
        return type(exc), str(exc), getattr(exc, "lineno", None)
    return data.X.shape, data.X.tobytes(), data.y.tobytes()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(libsvm_lines(), max_size=6),
    tail=st.sampled_from(["", "", "", "1 1:1", "# end", "1 1:1 # \xe9"]),  # one non-ASCII byte
    n_features=st.one_of(st.none(), st.integers(0, 15)),
)
def test_read_matches_the_per_token_reader(tmp_path, lines, tail, n_features):
    path = tmp_path / "fuzz.txt"
    path.write_bytes(("".join(lines) + tail).encode("latin-1"))
    expected = read_outcome(read_libsvm_per_token, str(path), n_features)
    assert read_outcome(sg.read_libsvm, str(path), n_features) == expected
    assert read_outcome(read_in_pieces, str(path), n_features) == expected


EOLS = st.sampled_from(["\n", "\r\n", "\r"])
# bytes that str.split() does not split at but float and int reject
CONTROL = "\x00\x01\x08\x0e\x1b\x7f"
# junk without blanks, line ends, colons or comment marks
JUNK = "0123456789+-_.einafx" + CONTROL


@st.composite
def long_tokens(draw):
    """A token of 300 or more characters: a zero-padded index, a long value,
    or junk; index 13 keeps the line's indices increasing."""
    pad = "0" * draw(st.integers(300, 400))
    return draw(st.sampled_from([
        f"{pad}13:{draw(VALUES)}",
        f"13:{pad}{draw(VALUES)}",
        f"13:0.{pad}1",
        f"{pad}{draw(LABELS)}",
        draw(st.text(JUNK, min_size=300, max_size=400)),
    ]))


@st.composite
def odd_lines(draw):
    """One line with what libsvm_lines leaves out: a NUL or other control byte
    in a token or a comment, a token of 300 or more characters, a # glued to
    a token, or only \x1c-\x1f blanks."""
    kind = draw(st.sampled_from(["control", "long", "glued", "blanks"]))
    if kind == "blanks":
        return draw(st.text("\x1c\x1d\x1e\x1f", min_size=1, max_size=4)) + draw(EOLS)
    line = draw(libsvm_lines())
    body = line.rstrip("\r\n")
    eol = line[len(body):]
    if kind == "control":
        at = draw(st.integers(0, len(body)))
        body = body[:at] + draw(st.sampled_from(CONTROL)) + body[at:]
    elif kind == "long":
        body = f"{body}{draw(BLANKS)}{draw(long_tokens())}"
    else:
        body = body.rstrip(" \t\x0b\x0c\x1c\x1d\x1e\x1f") + "#" + draw(st.text(JUNK + ": #", max_size=6))
    return body + eol


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    lines=st.lists(st.one_of(libsvm_lines(), odd_lines()), max_size=6),
    n_features=st.one_of(st.none(), st.integers(0, 15)),
)
def test_read_matches_the_per_token_reader_on_odd_bytes(tmp_path, lines, n_features):
    path = tmp_path / "fuzz.txt"
    path.write_bytes("".join(lines).encode("ascii"))
    expected = read_outcome(read_libsvm_per_token, str(path), n_features)
    assert read_outcome(sg.read_libsvm, str(path), n_features) == expected
    assert read_outcome(read_in_pieces, str(path), n_features) == expected


# --- reading in pieces -------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(raw=st.binary(max_size=40).map(lambda b: bytes(b"ab\r\n"[c % 4] for c in b)),
       count=st.integers(0, 8))
def test_cut_makes_views_that_end_after_a_line_feed(raw, count):
    pieces = dataio._cut(raw, count)
    assert 1 <= len(pieces) <= max(count, 1)
    assert b"".join(pieces) == raw
    assert all(piece.obj is raw for piece in pieces)  # views, not copies
    # every cut follows a line feed, so a piece never starts with the \n of a \r\n
    assert all(piece.tobytes().endswith(b"\n") for piece in pieces[:-1])
    assert all(piece.nbytes for piece in pieces[1:])


def test_cut_keeps_a_file_without_line_feeds_whole():
    raw = b"1 1:2\r" * 50
    assert [piece.tobytes() for piece in dataio._cut(raw, 8)] == [raw]


def test_cut_shares_lines_out_about_evenly():
    raw = b"".join(b"%d 1:2\r\n" % (i % 10) for i in range(1000))
    sizes = [piece.nbytes for piece in dataio._cut(raw, 4)]
    assert len(sizes) == 4
    assert all(abs(size - len(raw) / 4) <= 7 for size in sizes)  # within one 7-byte line


@pytest.mark.parametrize(
    "text",
    [
        "1 1:1\r\n0 2:1\r\n# only a comment\r\n\r\n1 3:1 # note\r\n0 1:1\r\n1 2:5 4:1\n",
        "1 1:1\n\n\n\n\n\n\n1 2:1\n",  # pieces of blank lines hold no rows
        "1 1:1\n0 2:1\n1 3:1\n0 1:1\n1 2:1 2:3\n0 1:1\n",  # line 5 is in a late piece
        "1 1:1\n0 2:1\n1 3:1\r0 1:1\n1 1:x\n0 1:1\n",
        "1 1:1\n0 2:1\n1 3:1\n0 1:1\n1 1:1\n0 1:1 # \xe9\n",  # non-ASCII in the last piece
        "# a\n# b\n\n# c\n\n",
    ],
    ids=["crlf-comments", "blank-pieces", "late-error", "cr-inside", "non-ascii", "no-data"],
)
@pytest.mark.parametrize("n_features", [None, 3, 6])
def test_read_in_pieces_matches_a_one_piece_read(tmp_path, text, n_features):
    path = tmp_path / "pieces.txt"
    path.write_bytes(text.encode("latin-1"))
    expected = read_outcome(sg.read_libsvm, str(path), n_features)
    assert expected == read_outcome(read_libsvm_per_token, str(path), n_features)
    for pieces in (2, 3, 5, 8):
        assert read_outcome(partial(read_in_pieces, pieces=pieces), str(path), n_features) == expected


def _counting_thread_starts(monkeypatch) -> list:
    starts = []
    start = threading.Thread.start

    def counting(self):
        starts.append(self.name)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return starts


def test_read_in_pieces_leaves_no_thread_behind(tmp_path, monkeypatch):
    X = np.round(make_rng(31).standard_normal((40, 6)), 2)
    X[X == 0.0] = 0.0  # no -0.0, which write_libsvm leaves out
    path = tmp_path / "rows.txt"
    sg.write_libsvm(sg.Dataset(X, np.ones(40)), str(path))
    starts = _counting_thread_starts(monkeypatch)
    before = threading.active_count()
    data = read_in_pieces(str(path), pieces=4)
    assert threading.active_count() == before
    assert 1 <= len(starts) <= 4  # at most one worker a piece (idle ones are reused), all joined
    assert data.X.tobytes() == X.tobytes()


def test_read_in_more_pieces_than_cores_under_fast_thread_switching(tmp_path):
    # the pieces write disjoint rows of one X; a lost or misplaced row would
    # show as a difference from the one-piece read
    X = np.round(make_rng(37).standard_normal((3000, 40)), 3)
    X[(make_rng(38).random(X.shape) < 0.7) | (X == 0.0)] = 0.0  # no -0.0
    path = tmp_path / "many.txt"
    sg.write_libsvm(sg.Dataset(X, np.arange(3000.0)), str(path))
    expected = read_outcome(sg.read_libsvm, str(path), 40)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = read_outcome(partial(read_in_pieces, pieces=16), str(path), 40)
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert got[1] == X.tobytes()


def test_read_below_the_piece_floor_starts_no_thread(tmp_path, monkeypatch):
    path = tmp_path / "small.txt"
    path.write_text("1 1:1\n0 2:1\n" * 100, encoding="ascii")
    monkeypatch.setattr(dataio, "_usable_cpus", lambda: 8)
    starts = _counting_thread_starts(monkeypatch)
    assert sg.read_libsvm(str(path)).n == 200
    assert starts == []


@pytest.mark.parametrize(
    "text", ["+2", "02", "1_0", " 1", ".5", "5.", "-0", "nan", "1e999", "0x10", "1e", "", "1.2.3", "1" * 30]
)
@pytest.mark.parametrize("dtype, python", [(np.float64, float), (np.int64, int)], ids=["float", "int"])
def test_bytes_array_casts_are_pythons_float_and_int(text, dtype, python):
    # read_libsvm converts every field with these casts, so a numpy that
    # parsed a spelling its own way would misread files
    field = np.array([text.encode("ascii")])
    try:
        expected = dtype(python(text))
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)):
            field.astype(dtype)
    else:
        assert field.astype(dtype).tobytes() == expected.tobytes()


# --- the exact path for canonical decimals -----------------------------------

@st.composite
def decimals(draw):
    """[+-]?digits[.digits] with 1 to 17 digits, some with a dot and no
    digits after it."""
    digits = draw(st.text("0123456789", min_size=1, max_size=17))
    after = draw(st.integers(0, len(digits)))  # digits after the dot
    head, tail = digits[: len(digits) - after], digits[len(digits) - after:]
    dot = "." if tail or draw(st.booleans()) else ""
    return draw(st.sampled_from(["", "", "-", "+"])) + head + dot + tail


FLOAT_FIELDS = st.one_of(
    decimals(),
    st.sampled_from([
        "-0", "-0.000", "+.5", "5.", ".5", "-.0",
        "123456789012345", "1234567890123456",  # 15 and 16 digits
        ".123456789012345", ".1234567890123456",  # 15 and 16 after the dot
        "9007199254740993", "0.1", "-999999999999999.9",
        "95.58291673297863",  # 16 digits: m / 10**f would round twice, and wrongly
        "-0.000123456789012345",  # 15 significant digits, 18 places
        "0.0001234567890123456", "0.0000123456789012345",  # 19 places
        "0000000000000000001.5",  # leading zeros are not significant
        "18446744073709551617", "-9223372036854775809",  # 2**64 + 1 and -(2**63 + 1) wrap in 64 bits
        ".12345678901234567890", "-.1234567890123456789",
    ]),
    # spellings that only Python's float reads, or rejects
    st.sampled_from(["+7", "1_0", "1e5", "-2E+2", "nan", "-inf", "1e999",
                     ".", "-", "+", "1.2.3", "--1", "0x1", "1-"]),
)
INT_FIELDS = st.one_of(
    st.text("0123456789", min_size=1, max_size=20),  # 18 digits fit int64, 20 may not
    st.sampled_from(["007", "999999999999999999", "9223372036854775807",
                     "9223372036854775808", "+7", "1_0", "-3", "1.0", "a"]),
)


def convert_fields(fields, dtype):
    """dataio._convert on the fields laid out one blank apart."""
    lens = np.array([len(f) for f in fields])
    starts = np.cumsum(lens + 1) - lens - 1
    text = np.frombuffer(" ".join(fields).encode("ascii"), np.uint8)
    window = np.concatenate([text, np.zeros(int(lens.max()), np.uint8)])
    return dataio._convert(window, starts, starts + lens, dtype)


def python_outcome(text, dtype, python):
    """The bytes of dtype(python(text)), or the type of its error."""
    try:
        return np.array([python(text)], dtype).tobytes()
    except (ValueError, OverflowError) as exc:  # OverflowError: an int beyond int64
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(
    floats=st.lists(FLOAT_FIELDS, min_size=1, max_size=12),
    ints=st.lists(INT_FIELDS, min_size=1, max_size=12),
)
def test_canonical_decimals_read_exactly(floats, ints):
    # canonical and other spellings share width classes; each field reads
    # as Python reads it, and a field Python rejects raises its error
    for fields, dtype, python in [(floats, np.float64, float), (ints, np.int64, int)]:
        outcomes = [python_outcome(f, dtype, python) for f in fields]
        good = [f for f, o in zip(fields, outcomes) if isinstance(o, bytes)]
        if good:
            assert convert_fields(good, dtype).tobytes() == b"".join(
                o for o in outcomes if isinstance(o, bytes)
            )
        for field, outcome in zip(fields, outcomes):
            if not isinstance(outcome, bytes):
                with pytest.raises(outcome):
                    convert_fields([*good, field], dtype)


def test_canonical_file_never_calls_the_python_cast(tmp_path, monkeypatch):
    X = np.round(make_rng(23).standard_normal((50, 12)), 3)
    X[make_rng(24).random(X.shape) < 0.5] = 0.0
    y = np.where(make_rng(25).random(50) < 0.5, 1.0, -1.0)
    path = tmp_path / "canonical.txt"
    sg.write_libsvm(sg.Dataset(X, y), str(path))

    def python_cast(*args):
        raise AssertionError("a canonical field was cast by Python")

    monkeypatch.setattr(dataio, "_cast_with_python", python_cast)
    data = sg.read_libsvm(str(path), n_features=12)
    assert data.X.tobytes() == X.tobytes()
    assert data.y.tobytes() == y.tobytes()


def test_read_gathers_a_wide_token_in_bounded_memory(tmp_path):
    # 50 000 feature tokens and one value of 10 000 characters; gathering
    # every value as wide as the widest would take 50 000 x 10 000 bytes
    lines = ["1 " + " ".join(f"{j}:0.5" for j in range(1, 51)) for _ in range(1000)]
    lines[0] = lines[0].rsplit(" ", 1)[0] + " 50:0." + "1" * 9998
    path = tmp_path / "wide.txt"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    tracemalloc.start()
    try:
        data = sg.read_libsvm(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.X[0, 49] == float("0." + "1" * 9998)
    assert peak < data.X.nbytes + 24 * path.stat().st_size


# --- write_libsvm ------------------------------------------------------------

def test_write_then_read_round_trips_exactly(tmp_path):
    X = np.array(
        [
            [0.1, 0.0, 1.0 / 3.0],
            [1e-17, -12345678901234.5, 2.0 ** -45],
            [0.0, 0.0, 7.0],
        ]
    )
    y = np.array([1.0, -1.0, 0.5])
    path = tmp_path / "roundtrip.txt"
    sg.write_libsvm(sg.Dataset(X, y), str(path))
    back = sg.read_libsvm(str(path), n_features=3)
    assert np.array_equal(back.X, X)
    assert np.array_equal(back.y, y)


def test_write_omits_zero_entries(tmp_path):
    path = tmp_path / "sparse.txt"
    sg.write_libsvm(sg.Dataset(np.array([[1.5, 0.0, 2.0, -0.0]]), np.array([1.0])), str(path))
    text = path.read_text(encoding="ascii")
    assert text == "1.0 1:1.5 3:2.0\n"  # -0.0 is a zero too


def test_write_keeps_trailing_zero_columns_only_through_n_features(tmp_path):
    X = np.array([[0.5, 0.0, 0.0], [0.0, -2.25, 0.0]])
    path = tmp_path / "narrow.txt"
    sg.write_libsvm(sg.Dataset(X, np.array([1.0, -1.0])), str(path))
    assert sg.read_libsvm(str(path)).p == 2  # the zero last column left no index
    back = sg.read_libsvm(str(path), n_features=3)
    assert back.X.tobytes() == X.tobytes()


def test_write_of_no_rows_is_an_empty_file_that_read_rejects(tmp_path):
    path = tmp_path / "empty.txt"
    sg.write_libsvm(sg.Dataset(np.zeros((0, 3)), np.zeros(0)), str(path))
    assert path.read_bytes() == b""
    with pytest.raises(sg.LibsvmParseError, match="no data lines"):
        sg.read_libsvm(str(path))


def _neighbours(v):
    return [np.nextafter(v, 0.0), v, np.nextafter(v, np.inf)]


# values at the edges of the canonical range, with their float neighbours
EDGE_VALUES = [
    w for v in (1e-4, 1e15, 1e16, 999999999999999.0, 1000000000000001.0, 5e-324)
    for w in _neighbours(v)
] + [np.nextafter(np.finfo(float).max, 0.0), np.finfo(float).max]


@st.composite
def short_decimals(draw):
    """m / 10**f for m < 10**15 and f <= 18, the correctly rounded value of
    a decimal of at most 15 significant digits, either sign."""
    m = draw(st.integers(0, 10**draw(st.integers(1, 15)) - 1))
    return draw(st.sampled_from([1.0, -1.0])) * m / 10.0 ** draw(st.integers(0, 18))


WRITE_VALUES = st.one_of(
    st.just(0.0),
    short_decimals(),
    st.integers(-(10**17), 10**17).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_VALUES).flatmap(lambda v: st.sampled_from([v, -v])),
)


@st.composite
def writable_datasets(draw):
    """A Dataset of WRITE_VALUES, some rows all zero, n from 0 to 6."""
    n, p = draw(st.integers(0, 6)), draw(st.integers(1, 8))
    X = np.array(draw(st.lists(WRITE_VALUES, min_size=n * p, max_size=n * p)), float).reshape(n, p)
    X[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
    y = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n))
    return sg.Dataset(X, np.array(y, float))


def written_bytes(write, data, path):
    write(data, str(path))
    return path.read_bytes()


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=writable_datasets(),
    scan_entries=st.sampled_from([1, 3, dataio._SCAN_ENTRIES]),
    chunk_nonzeros=st.sampled_from([1, 4, dataio._CHUNK_NONZEROS]),
)
def test_write_matches_the_per_entry_writer(tmp_path, monkeypatch, data, scan_entries, chunk_nonzeros):
    # small scan blocks and chunks put chunk boundaries between rows, empty rows included
    monkeypatch.setattr(dataio, "_SCAN_ENTRIES", scan_entries)
    monkeypatch.setattr(dataio, "_CHUNK_NONZEROS", chunk_nonzeros)
    assert written_bytes(sg.write_libsvm, data, tmp_path / "bulk.txt") == written_bytes(
        write_libsvm_per_entry, data, tmp_path / "reference.txt"
    )


@pytest.mark.parametrize("count", range(1, 19))
def test_spell_gives_the_digits_of_str(count):
    x = [v for v in (0, 1, 7, 10, 2**32 + 1, 10 ** (count - 1), 10**count - 1, 10**count // 7)
         if v < 10**count]

    def spell(leading):
        return [row.tobytes().decode("ascii") for row in dataio._spell(np.array(x), count, leading)]

    assert spell(True) == [str(v).rjust(count, "\0") for v in x]
    assert spell(False) == [(str(v).zfill(count).rstrip("0") or "0").ljust(count, "\0") for v in x]


def test_write_spells_indices_of_one_to_six_digits(tmp_path):
    # indices across the step from 4 to 5 digits, integer parts of 1 to 15
    # digits, and values at, just below and just above 1e-4
    cols = [0, 8, 9, 9998, 9999, 99998, 99999]
    wholes = [w + (0.5 if k < 15 else 0.0) for k in range(1, 16) for w in (10.0 ** (k - 1) + k, 10.0**k - k)]
    small = [1e-4, np.nextafter(1e-4, np.inf), np.nextafter(1e-4, 0.0), 1.0000000000001e-4,
             -1e-4, 0.000123456789012345, 0.000999]
    X = np.zeros((len(wholes) + 1, 100000))
    X[:-1, cols] = np.outer(wholes, [(-1.0) ** j for j in range(len(cols))])
    X[-1, cols] = small
    data = sg.Dataset(X, np.where(np.arange(X.shape[0]) % 2, 1.0, -1.0))
    assert written_bytes(sg.write_libsvm, data, tmp_path / "wide.txt") == written_bytes(
        write_libsvm_per_entry, data, tmp_path / "reference.txt"
    )


def count_repr_values(monkeypatch) -> list:
    """Patch dataio._spell_with_repr to record how many values each call spells."""
    counted = []
    spell = dataio._spell_with_repr

    def counting(values):
        counted.append(values.size)
        return spell(values)

    monkeypatch.setattr(dataio, "_spell_with_repr", counting)
    return counted


# the 15-digit all-nines decimal at each of 0 to 18 places: each lies just
# below a power of ten, where a log10 of it may round up
ALL_NINES = [(10**15 - 1) / 10**f for f in range(19)]


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(short_decimals().filter(lambda v: v == 0.0 or abs(v) >= 1e-4), min_size=1, max_size=20))
@example(values=[0.000123456789012])  # 16 digits written, 12 of them significant
@example(values=[1e14])  # a 15-digit whole number is written with `.0`: 16 digits
@example(values=[-999999999999999.0])
@example(values=ALL_NINES)
def test_exact_decimals_are_written_and_read_on_the_exact_paths(tmp_path, monkeypatch, values):
    # a value of at least 1e-4 with at most 15 significant digits and 18
    # places is spelled by the writer with repr's bytes but without repr, and
    # read back with its bits without Python's cast
    X = np.array(values).reshape(-1, 1)
    y = np.where(np.arange(X.shape[0]) % 2, 1.0, -1.0)
    data = sg.Dataset(X, y)
    path = tmp_path / "short.txt"
    counted = count_repr_values(monkeypatch)
    assert written_bytes(sg.write_libsvm, data, path) == written_bytes(
        write_libsvm_per_entry, data, tmp_path / "reference.txt"
    )
    assert counted == []

    def python_cast(*args):
        raise AssertionError("a written short decimal was cast by Python")

    monkeypatch.setattr(dataio, "_cast_with_python", python_cast)
    back = sg.read_libsvm(str(path), n_features=1)
    assert back.X.tobytes() == (X + 0.0).tobytes()  # -0.0 is written as a zero
    assert back.y.tobytes() == y.tobytes()


def sparse_three_decimal_design(seed, n, p, density):
    rng = make_rng(seed)
    X = np.round(rng.standard_normal((n, p)), 3)
    X[(rng.random((n, p)) >= density) | (X == 0.0)] = 0.0
    return sg.Dataset(X, np.where(rng.random(n) < 0.5, 1.0, -1.0))


def test_short_decimals_are_written_without_repr(tmp_path, monkeypatch):
    (tmp_path / "golden.txt").write_bytes(_libsvm_text().encode("ascii"))
    golden = sg.read_libsvm(str(tmp_path / "golden.txt"))  # 150 x 40, 4-decimal values
    sparse = sparse_three_decimal_design(41, 300, 400, 0.01)
    assert np.count_nonzero(sparse.X) > 1000
    counted = count_repr_values(monkeypatch)
    for name, data in [("golden", golden), ("sparse", sparse)]:
        assert written_bytes(sg.write_libsvm, data, tmp_path / f"{name}.txt") == written_bytes(
            write_libsvm_per_entry, data, tmp_path / f"{name}-reference.txt"
        )
    assert counted == []


def significant_digits(v: float) -> int:
    """The significant digits of repr(v), trailing zeros not counted."""
    mantissa = repr(abs(v)).split("e")[0]
    return len(mantissa.replace(".", "").strip("0"))


def test_full_precision_values_are_written_by_repr(tmp_path, monkeypatch):
    # a double drawn at full precision mostly needs 16 or 17 digits; the
    # few whose repr has at most 15 are short decimals, spelled exactly
    data, _, _ = sg.generate_instance(sg.SimConfig(n=60, p=40, k=3, rho=0.5), seed=5)
    values = data.X.ravel().tolist()
    needs_repr = sum(not (1e-4 <= abs(v) < 1e15 and significant_digits(v) <= 15) for v in values)
    counted = count_repr_values(monkeypatch)
    assert written_bytes(sg.write_libsvm, data, tmp_path / "full.txt") == written_bytes(
        write_libsvm_per_entry, data, tmp_path / "reference.txt"
    )
    assert sum(counted) == needs_repr > 0.9 * len(values)


# --- map_labels_to_binary ----------------------------------------------------

def test_zero_one_labels_pass_through_as_a_copy():
    y = np.array([0.0, 1.0, 1.0, 0.0])
    out = sg.map_labels_to_binary(y)
    assert np.array_equal(out, y)
    out[0] = 9.0
    assert y[0] == 0.0


def test_plus_minus_one_labels_map_to_zero_one():
    assert np.array_equal(sg.map_labels_to_binary(np.array([-1.0, 1.0, -1.0])), [0.0, 1.0, 0.0])
    # a single-valued column resolves by subset, not by guesswork
    assert np.array_equal(sg.map_labels_to_binary(np.array([1.0, 1.0])), [1.0, 1.0])
    assert np.array_equal(sg.map_labels_to_binary(np.array([-1.0, -1.0])), [0.0, 0.0])


def test_mixed_sign_conventions_are_rejected_with_offenders():
    with pytest.raises(sg.InvalidLabelError, match="labels must lie") as err:
        sg.map_labels_to_binary(np.array([-1.0, 0.0, 1.0]))
    assert err.value.offenders == [-1.0, 0.0, 1.0]
    with pytest.raises(sg.InvalidLabelError) as err:
        sg.map_labels_to_binary(np.array([2.0, 5.0, 1.0]))
    assert err.value.offenders == [2.0, 5.0]


# --- standardize_columns -----------------------------------------------------

def test_mean_var_mode_centers_and_scales_by_sample_sd():
    X = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
    out = sg.standardize_columns(X)
    assert np.array_equal(out[:, 0], [-1.0, 0.0, 1.0])
    assert np.array_equal(out[:, 1], [-1.0, 0.0, 1.0])
    assert out.mean(axis=0) == pytest.approx([0.0, 0.0], abs=1e-15)
    assert out.std(axis=0, ddof=1) == pytest.approx([1.0, 1.0], rel=1e-15)


def test_mean_var_mode_names_the_constant_column():
    X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    with pytest.raises(ValueError, match="column 1 is constant"):
        sg.standardize_columns(X)


def test_length_mode_scales_columns_to_sqrt_n():
    X = np.array([[3.0], [4.0]])
    out = sg.standardize_columns(X, mode=sg.MODE_LENGTH)
    assert np.array_equal(out, X * (np.sqrt(2.0) / 5.0))
    assert np.linalg.norm(out[:, 0]) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_length_mode_leaves_zero_columns_alone():
    X = np.array([[0.0, 3.0], [0.0, 4.0]])
    out = sg.standardize_columns(X, mode=sg.MODE_LENGTH)
    assert np.array_equal(out[:, 0], [0.0, 0.0])
    assert np.linalg.norm(out[:, 1]) == pytest.approx(math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("mode", [sg.MODE_MEAN_VAR, sg.MODE_LENGTH])
def test_standardize_names_the_first_column_whose_scale_overflows(mode):
    # squares near 1e320 overflow: dividing by an infinite scale would zero the column
    X = np.array([[1.0, 3e160, 2e160], [2.0, -1e160, 1.0], [4.0, 2e160, -3e160]])
    with pytest.raises(ValueError, match="column 1 overflows its scale"):
        sg.standardize_columns(X, mode=mode)


def test_standardize_validates_shape_and_mode():
    with pytest.raises(ValueError, match="at least two rows"):
        sg.standardize_columns(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError, match="unknown mode"):
        sg.standardize_columns(np.eye(3), mode="zscore")


# --- pad_features ------------------------------------------------------------

def test_pad_features_appends_zero_columns():
    data = sg.Dataset(np.array([[1.0, 2.0]]), np.array([1.0]))
    padded = pad_features(data, 4)
    assert np.array_equal(padded.X, [[1.0, 2.0, 0.0, 0.0]])
    assert np.array_equal(padded.y, data.y)
    assert pad_features(data, 2) is data
    with pytest.raises(ValueError, match="cannot shrink"):
        pad_features(data, 1)


# --- train_test_split --------------------------------------------------------

def indexed_dataset(n):
    X = np.column_stack([np.arange(n, dtype=float), np.ones(n)])
    return sg.Dataset(X, 10.0 * np.arange(n, dtype=float))


def test_split_partitions_the_rows():
    data = indexed_dataset(10)
    train, test = sg.train_test_split(data, 8, seed=3)
    assert train.n == 8 and test.n == 2
    ids = np.concatenate([train.X[:, 0], test.X[:, 0]])
    assert sorted(ids.tolist()) == list(range(10))
    assert np.array_equal(train.X[:, 0], np.sort(train.X[:, 0]))
    assert np.array_equal(test.X[:, 0], np.sort(test.X[:, 0]))
    assert np.array_equal(train.y, 10.0 * train.X[:, 0])
    assert np.array_equal(test.y, 10.0 * test.X[:, 0])


def test_split_is_deterministic_per_seed():
    data = indexed_dataset(30)
    a, _ = sg.train_test_split(data, 15, seed=11)
    b, _ = sg.train_test_split(data, 15, seed=11)
    c, _ = sg.train_test_split(data, 15, seed=12)
    assert np.array_equal(a.X, b.X)
    assert not np.array_equal(a.X, c.X)


def test_split_accepts_counts_and_full_fraction():
    data = indexed_dataset(6)
    train, test = sg.train_test_split(data, train_size=4, seed=1)
    assert (train.n, test.n) == (4, 2)
    train, test = sg.train_test_split(data, 6, seed=1)  # every row: the fraction 1.0
    assert (train.n, test.n) == (6, 0)


@pytest.mark.parametrize("train_size", [0, 7])
def test_split_validates_arguments(train_size):
    with pytest.raises(ValueError, match=f"^train size {train_size} must lie in \\[1, 6\\]$"):
        sg.train_test_split(indexed_dataset(6), train_size)


@pytest.mark.parametrize("train_size", [2.7, True, 3.0])
def test_split_refuses_a_size_that_is_not_a_whole_count(train_size):
    # a float or a bool is not truncated to a count of rows
    with pytest.raises(ValueError, match=f"^train size must be a whole number of rows, got {train_size!r}$"):
        sg.train_test_split(indexed_dataset(6), train_size)


def test_split_takes_a_numpy_integer_count():
    train, test = sg.train_test_split(indexed_dataset(6), np.int64(3), seed=1)
    want, _ = sg.train_test_split(indexed_dataset(6), 3, seed=1)
    assert (train.n, test.n) == (3, 3)
    assert train.X.tobytes() == want.X.tobytes()
