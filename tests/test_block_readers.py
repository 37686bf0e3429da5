"""The block readers of ingest against a plain line parser kept here.

``tx_blocks`` and ``load_matrix_file`` parse blocks of lines with one
``np.fromstring`` call behind one byte check; for matrix files a date step
first checks each line's YYYY-MM-DD and makes the date three fields. Each
reader hands a block to its line parser when the check, the parse or the
dates cannot vouch for it. With blocks of a few dozen characters, lines
straddle block edges and a bad line can land in any block; either way the
result, or the error with its message and line, must be that of the
reference below.
"""

import datetime as dt
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainvol import ingest
from chainvol.errors import ParseError, ValidationError
from chainvol.ingest import MAX_MONEY, DailyCalendar

CAL = DailyCalendar(dt.date(2015, 1, 1), dt.date(2015, 12, 31))
START_S = 1420070400  # 2015-01-01T00:00:00Z
END_S = 1451606400  # 2016-01-01T00:00:00Z


# --- reference line parsers ------------------------------------------------

def _lines(path):
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        yield from enumerate(fh, start=1)


def _utf8(raw, path, line_no):
    if any("\udc80" <= c <= "\udcff" for c in raw):
        raise ParseError("bytes that are not valid UTF-8", path, line_no)


def reference_transactions(path):
    """(kept rows in file order, coinbase rows), line by line."""
    rows, coinbase = [], 0
    for line_no, raw in _lines(path):
        _utf8(raw, path, line_no)
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", path, line_no)
        try:
            ts, n_in, n_out, amount = map(int, parts)
        except ValueError:
            raise ParseError(f"non-integer field in {line!r}", path, line_no) from None
        if n_in < 0 or n_out < 1 or amount < 0:
            raise ParseError(f"invalid record {line!r}", path, line_no)
        if amount > MAX_MONEY:
            raise ParseError(f"amount {amount} above MAX_MONEY {MAX_MONEY}", path, line_no)
        if n_in == 0:
            coinbase += 1
            continue
        if not START_S <= ts < END_S:
            raise ParseError(f"timestamp {ts} outside calendar {CAL.start}..{CAL.end}",
                             path, line_no)
        if max(n_in, n_out) > 2**63 - 1:
            raise ParseError(f"count out of int64 range in {line!r}", path, line_no)
        rows.append([ts, n_in, n_out, amount])
    return rows, coinbase


def reference_matrices(path):
    out = []
    prev = n2 = None
    for line_no, raw in _lines(path):
        _utf8(raw, path, line_no)
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n2 is None:
            # the first data line sets N
            n2 = len(tokens) - 1
            if n2 not in [n * n for n in range(2, 100)]:
                raise ParseError(f"expected date + N*N values, N >= 2, got {n2}", path, line_no)
        if len(tokens) != n2 + 1:
            raise ParseError(f"expected date + {n2} values, got {len(tokens) - 1} values",
                             path, line_no)
        try:
            if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", tokens[0]):
                raise ValueError("expected YYYY-MM-DD")
            day = dt.date.fromisoformat(tokens[0])
        except ValueError as exc:
            raise ParseError(f"bad date {tokens[0]!r}: {exc}", path, line_no) from None
        try:
            values = [int(t) for t in tokens[1:]]
        except ValueError:
            raise ParseError("non-numeric matrix value", path, line_no) from None
        if not all(-2**63 <= v < 2**63 for v in values):
            raise ParseError("matrix value out of int64 range", path, line_no)
        if any(v < 0 for v in values):
            raise ValidationError(f"{path}:{line_no}: negative matrix value")
        if prev is not None and day <= prev:
            raise ValidationError(f"{path}:{line_no}: date {day} not after {prev}")
        prev = day
        out.append((day, values))
    return out


def outcome(fn):
    """("value", fn()), or ("raised", type, message, line) of its error."""
    try:
        return "value", fn()
    except (ParseError, ValidationError) as exc:
        return "raised", type(exc), str(exc), getattr(exc, "line_no", None)


def small_blocks(size):
    return mock.patch.object(ingest, "BLOCK_CHARS", size)


def read_tx(path):
    """(kept rows in file order, coinbase rows) as ``ingest.tx_blocks`` yields them."""
    rows, coinbase = [], 0
    for block, skipped in ingest.tx_blocks(path, CAL):
        assert block.dtype == np.int64 and block.shape[1:] == (4,)
        rows += block.tolist()
        coinbase += skipped
    return rows, coinbase


def assert_same_transactions(path, block):
    with small_blocks(block):
        got = outcome(lambda: read_tx(path))
    assert got == outcome(lambda: reference_transactions(path))


def assert_same_matrices(path, block):
    def load():
        dates, values = ingest.load_matrix_file(path)
        # a matrix_file that loads has DIM * DIM values on its first data line
        assert values.shape == ((len(dates), DIM, DIM) if dates else (0, 0, 0))
        assert values.dtype == np.int64
        assert values.flags.c_contiguous
        return list(zip(dates, values.reshape(len(dates), DIM * DIM).tolist()))

    with small_blocks(block):
        got = outcome(load)
    assert got == outcome(lambda: reference_matrices(path))


# --- file strategies ------------------------------------------------------

def join_lines(draw, lines):
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if lines and draw(st.booleans()):
        text = text[:-len(ends[-1])]  # last line without a newline
    return text


def tx_fields(draw):
    ts = draw(st.integers(START_S, END_S - 1))
    return [ts, draw(st.integers(1, 30)), draw(st.integers(1, 30)),
            draw(st.integers(0, MAX_MONEY))]


@st.composite
def tx_line(draw):
    kind = draw(st.sampled_from(
        ["row"] * 8 + ["coinbase", "comment", "inline_comment", "blank", "spaces",
                       "token", "fields", "count", "amount", "huge", "calendar"]
    ))
    f = tx_fields(draw)
    if kind == "coinbase":
        f[0] = draw(st.sampled_from([f[0], 100, 2**70]))  # a coinbase row's time is not checked
        f[1] = 0
    elif kind == "comment":
        return "#" + draw(st.sampled_from(["", " header", "1,2,3,4", "# twice"]))
    elif kind == "inline_comment":
        return ",".join(map(str, f)) + " # note"
    elif kind == "blank":
        return ""
    elif kind == "spaces":
        return draw(st.sampled_from([" ", "\t ", "  # indented comment", "\x0c", " \x1c"]))
    elif kind == "token":
        i = draw(st.integers(0, 3))
        f[i] = draw(st.sampled_from(
            [f"+{f[i]}", f"{f[i]}_0", f"{f[i]}.0", "0x10", f" {f[i]} ", "", "1e3",
             f"{f[i]}\x1c", "١", "1Ǿ", "+", "-", " ", f"+ {f[i]}", f"- {f[i]}",
             f"\t{f[i]}", f"{f[i]}\t", "9" * 20]
        ))
    elif kind == "fields":
        f = f[:draw(st.integers(1, 3))] if draw(st.booleans()) else f + [1]
    elif kind == "count":
        i = draw(st.sampled_from([1, 2]))
        f[i] = draw(st.sampled_from([-1, 0, 2**63, -2**63, 2**63 - 1, -2**63 - 1, 10**19]))
    elif kind == "amount":
        f[3] = draw(st.sampled_from([MAX_MONEY + 1, -1, 2**63 - 1, 2**63, 10**19]))
    elif kind == "huge":
        f[0] = draw(st.sampled_from([2**63, -2**63 - 1, 2**63 - 1, 10**19]))
    elif kind == "calendar":
        f[0] = draw(st.sampled_from([START_S - 1, END_S, 0, 253402300800]))
    return ",".join(map(str, f))


DIM = 2

# Dates that the date step of the matrix reader must refuse, or must read
# as the line parser does: signs, short or long parts, letters, a full-width
# digit, days that do not exist and the edges of the calendar.
DATE_TOKENS = ["+015-01-01", "-015-01-01", "2015-+1-01", "2015-01-+1", "2015--1-01",
               "0000-01-01", "2015-00-01", "2015-1-01", "2O15-01-01", "２015-01-01",
               "2015-02-29", "2016-02-29", "9999-12-31", "2015-01-001", "2015-01-01+1",
               "2015/01-01", "2015-01/01"]


@st.composite
def matrix_line(draw, day):
    kind = draw(st.sampled_from(
        ["row"] * 6 + ["comment", "inline_comment", "blank", "spaces", "width", "token",
                       "negative", "date", "separators"]
    ))
    values = [str(v) for v in draw(st.lists(st.integers(0, 2**63 - 1),
                                            min_size=DIM * DIM, max_size=DIM * DIM))]
    sep = " "
    if kind == "comment":
        return "#" + draw(st.sampled_from(["", " 2015-01-01 1 2 3 4", "#"]))
    if kind == "inline_comment":
        values[-1] += draw(st.sampled_from([" # note", "#"]))
    elif kind == "blank":
        return ""
    elif kind == "spaces":
        return draw(st.sampled_from([" ", "\t", "  # indented comment"]))
    elif kind == "width":
        values = values[:-1] if draw(st.booleans()) else values + ["0"]
    elif kind == "token":
        i = draw(st.integers(0, DIM * DIM - 1))
        values[i] = draw(st.sampled_from(
            ["+5", "1_0", "1.0", "0x10", str(2**63), str(-2**63 - 1), "١", "1Ǿ"]
        ))
    elif kind == "negative":
        values[draw(st.integers(0, DIM * DIM - 1))] = draw(st.sampled_from(["-1", "-0", str(-2**63)]))
    elif kind == "date":
        day = draw(st.sampled_from(["2015-02-30", "2015/01/01", "x", "0", "2015-01-01T00",
                                    "20150103", "2015-W01-1", *DATE_TOKENS]))
    elif kind == "separators":
        sep = draw(st.sampled_from(["\t", "  ", " \x0b", "\x1c"]))
    return sep.join([day] + values)


@st.composite
def tx_file(draw):
    return join_lines(draw, draw(st.lists(tx_line(), max_size=25)))


@st.composite
def matrix_file(draw):
    # days mostly increase, by one or two days or by 424 (2015-01-01 to
    # 2016-02-29); a step of 0 or -1 repeats or reverses a day, within a
    # block or across its edge
    steps = draw(st.lists(st.sampled_from([1, 1, 1, 2, 424, 0, -1]), max_size=12))
    day, days = dt.date(2015, 1, 1), []
    for step in steps:
        day += dt.timedelta(days=step)
        days.append(day.isoformat())
    return join_lines(draw, [draw(matrix_line(d)) for d in days])


# --- properties -------------------------------------------------------------

@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks") / "input.txt"


@settings(max_examples=300, deadline=None)
@given(text=tx_file(), block=st.integers(8, 80))
def test_transactions_match_line_parser(scratch, text, block):
    scratch.write_bytes(text.encode())
    assert_same_transactions(scratch, block)


@settings(max_examples=300, deadline=None)
@given(text=matrix_file(), block=st.integers(8, 80))
def test_matrix_file_matches_line_parser(scratch, text, block):
    scratch.write_bytes(text.encode())
    assert_same_matrices(scratch, block)


@settings(max_examples=100, deadline=None)
@given(text=st.text(st.sampled_from("ab#\n\r"), max_size=60), block=st.integers(1, 12))
def test_blocks_hold_whole_lines(scratch, text, block):
    scratch.write_bytes(text.encode())
    with open(scratch, "r", encoding="utf-8") as fh:
        whole = fh.read()
    with open(scratch, "r", encoding="utf-8") as fh, small_blocks(block):
        blocks = list(ingest._line_blocks(fh))
    assert "".join(t for _, t in blocks) == whole
    assert all(t.endswith("\n") for _, t in blocks[:-1])
    assert [n for n, _ in blocks] == [
        1 + "".join(t for _, t in blocks[:k]).count("\n") for k in range(len(blocks))
    ]


# --- plain cases -----------------------------------------------------------

# Tokens that np.fromstring reads otherwise than int() or not at all; it
# reads a value out of the int64 range as 2^63 - 1, and blanks or a lone
# sign as 0.
ODD_TOKENS = ["+5", " 5 ", "5_0", "5.0", "0x10", "1e3", "", "5\x1c", "\x1f5", "١", "1Ǿ",
              "5 # note", "5#", str(2**63), "-0", str(2**63 - 1), str(-2**63 - 1), "9" * 20,
              "+", "-", " ", "\t", "+ 5", "- 5", "\t5\t", "+-5"]


@pytest.mark.parametrize("token", ODD_TOKENS)
@pytest.mark.parametrize("field", range(4))
def test_odd_transaction_token(scratch, token, field):
    fields = ["1420070400", "2", "3", "100"]
    fields[field] = token
    scratch.write_text(f"1420070400,1,1,1\n{','.join(fields)}\n1420070400,1,1,1\n")
    assert_same_transactions(scratch, 32)


@pytest.mark.parametrize("field, token", [(field, token) for field in [0, 1, 4]
                                           for token in ODD_TOKENS]
                         + [(0, token) for token in DATE_TOKENS])
def test_odd_matrix_token(scratch, token, field):
    tokens = ["2015-01-01", "1", "2", "3", "4"]
    tokens[field] = token
    scratch.write_text(f"2014-12-31 1 1 1 1\n{' '.join(tokens)}\n2015-01-02 1 1 1 1\n")
    assert_same_matrices(scratch, 32)


# Lines too short to hold a date, a space and a value, which the date step
# must refuse without reading past them, and signed dates, which it must
# refuse also where they would read as days in order
EDGE_MATRIX_LINES = [" ", "5", "5-3", "2015-01-01", "2015-01-01 ", "2015-01-01 5",
                     "+015-01-01 1 2 3 4", "2015-+1-01 1 2 3 4", "2015-01-+1 1 2 3 4"]


@pytest.mark.parametrize("line", EDGE_MATRIX_LINES)
def test_matrix_line_at_file_edges(scratch, line):
    # after a valid line, at the end of a block and of a file, and before one
    for text in [f"2015-01-01 1 2 3 4\n{line}\n", f"2015-01-01 1 2 3 4\n{line}",
                 f"{line}\n2015-01-02 1 2 3 4\n"]:
        scratch.write_text(text)
        for block in (8, 24, ingest.BLOCK_CHARS):
            assert_same_matrices(scratch, block)


T = "1420070400"  # 2015-01-01T00:00:00Z
ROW = f"{T},2,3,100"

# Lines of other field counts whose values, read without regard to lines as
# fromstring reads them, make valid rows of four; and the lines the fast
# path drops or leaves to the line parser, at the start, in the middle and
# at the end of a block.
BLOCK_SHAPES = {
    "3_then_5_fields": [f"{T},2,3", f"100,{T},2,3,100"],
    "5_then_3_fields": [ROW, f"{T},2,3,100,{T}", "2,3,100", ROW],
    "2_then_6_fields": [f"{T},2", f"3,100,{T},2,3,100"],
    "3_then_4_then_5_fields": [f"{T},2,3", f"100,{T},2,3", f"100,{T},2,3,100"],
    **{f"{name}_{where}": lines
       for name, line in [("blank", ""), ("comment", "# a,b,c"), ("comment_hashes", "## x"),
                          ("spaces", "  "), ("tab", "\t"), ("indented_comment", " # x")]
       for where, lines in [("start", [line, ROW, ROW]), ("middle", [ROW, line, ROW]),
                            ("end", [ROW, ROW, line]), ("only", [line, line])]},
}


@pytest.mark.parametrize("final_newline", [True, False], ids=["newline", "no_final_newline"])
@pytest.mark.parametrize("lines", BLOCK_SHAPES.values(), ids=BLOCK_SHAPES)
def test_block_shapes(scratch, lines, final_newline):
    scratch.write_text("\n".join(lines) + "\n" * final_newline)
    for block in (8, 24, ingest.BLOCK_CHARS):  # a line a block, two, and all in one
        assert_same_transactions(scratch, block)


def test_crlf_split_across_block_edge_keeps_line_numbers(tmp_path):
    p = tmp_path / "tx.csv"
    row = b"1420070400,1,1,10"
    p.write_bytes((row + b"\r\n") * 7 + b"1420070400,1,1\r\n" + row + b"\r\n")
    for block in range(len(row) + 1, 3 * len(row)):  # every edge position around \r\n
        with small_blocks(block), pytest.raises(ParseError) as exc:
            read_tx(p)
        assert exc.value.line_no == 8, block


@pytest.mark.parametrize("text", ["", "# only a comment\n#\n"])
def test_empty_inputs_give_nothing_without_warnings(tmp_path, text):
    tx = tmp_path / "tx.csv"
    tx.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transactions = read_tx(tx)
        matrices = ingest.load_matrix_file(tx)
    assert transactions == ([], 0)
    dates, values = matrices
    assert dates == [] and values.shape == (0, 0, 0) and values.dtype == np.int64


def test_fast_path_serves_clean_blocks(tmp_path):
    # a valid file never reaches the line parsers, nor do its comment and
    # empty lines, which land at the start, in the middle and at the end of
    # blocks; the file ends without a newline. Nor does a 20x20 pair as
    # extract writes it, counts and amounts of 10 to 16 digits, over a new year
    tx = tmp_path / "tx.csv"
    tx.write_text("# header\n" + "1420070400,2,3,100\n\n# note, 1,2,3\n1420070400,0,1,5\n" * 50
                  + "#")
    m = tmp_path / "m.txt"
    m.write_text("# header\n" + "".join(f"2015-01-{d:02d} 1 2 3 4\n\n# note\n" for d in range(1, 29)))
    rng = np.random.default_rng(0)
    days = [dt.date(2015, 12, 1) + dt.timedelta(days=i) for i in range(60)]
    pair = {tmp_path / "occ.txt": rng.poisson(3, size=(60, 20, 20)),
            tmp_path / "amo.txt": rng.integers(10**9, 10**16, size=(60, 20, 20))}
    for path, values in pair.items():
        with ingest.atomic_files(path) as (fh,):
            ingest.write_matrix_file(fh, days, values)
    for block in (ingest.BLOCK_CHARS, 64):
        with small_blocks(block), \
                mock.patch.object(ingest, "_parse_tx_lines", side_effect=AssertionError), \
                mock.patch.object(ingest, "_parse_matrix_lines", side_effect=AssertionError):
            rows, coinbase = read_tx(tx)
            matrices = ingest.load_matrix_file(m)
            loaded = {path: ingest.load_matrix_file(path) for path in pair}
        assert (len(rows) + coinbase, coinbase) == (100, 50)
        assert rows == [[1420070400, 2, 3, 100]] * 50
        dates, values = matrices
        assert dates == [dt.date(2015, 1, d) for d in range(1, 29)]
        assert values.tolist() == [[[1, 2], [3, 4]]] * 28
        for path, expected in pair.items():
            assert loaded[path][0] == days
            assert np.array_equal(loaded[path][1], expected)
