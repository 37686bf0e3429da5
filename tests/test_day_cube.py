"""The streaming extract path: ``ingest.tx_blocks`` into ``DayCubeBuilder``.

With blocks of a few dozen characters, rows of one day spread over many
blocks and blocks step back in time; the cube must still equal a per-day
tally of the rows, stay exact in int64 and name the day of a cell past it.
"""

import datetime as dt
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainvol import chainlets, cli, ingest
from chainvol.chainlets import INT64_MAX, DayCubeBuilder
from chainvol.errors import ValidationError
from chainvol.ingest import MAX_MONEY, DailyCalendar

CAL = DailyCalendar(dt.date(2015, 1, 1), dt.date(2015, 12, 31))
START_S = 1420070400  # 2015-01-01T00:00:00Z
DAY_S = 86400
N = 3


def small_blocks(size):
    return mock.patch.object(ingest, "BLOCK_CHARS", size)


def read_cube(path, threshold=N):
    builder = DayCubeBuilder(threshold)
    coinbase = 0
    for rows, skipped in ingest.tx_blocks(path, CAL):
        builder.add(rows)
        coinbase += skipped
    return builder.cube(), coinbase


def reference_tally(rows, n=N):
    """(dates, occurrence, amount, coinbase) tallied row by row in Python ints."""
    occ, amo, coinbase = {}, {}, 0
    for ts, n_in, n_out, amount in rows:
        if n_in == 0:
            coinbase += 1
            continue
        key = (ts // DAY_S, min(n_in, n) - 1, min(n_out, n) - 1)
        occ[key] = occ.get(key, 0) + 1
        amo[key] = amo.get(key, 0) + amount
    if not occ:
        return [], [], [], coinbase
    days = range(min(k[0] for k in occ), max(k[0] for k in occ) + 1)
    dates = [dt.date(1970, 1, 1) + dt.timedelta(days=d) for d in days]

    def layers(tally):
        return [[[tally.get((d, i, j), 0) for j in range(n)] for i in range(n)] for d in days]

    return dates, layers(occ), layers(amo), coinbase


row_strategy = st.tuples(
    st.integers(START_S, START_S + 10 * DAY_S - 1),  # ten days, some left empty
    st.integers(0, 5),  # zero inputs: a coinbase row
    st.integers(1, 5),
    st.integers(0, MAX_MONEY),
)


@given(rows=st.lists(row_strategy, max_size=40), block=st.integers(8, 80))
@settings(max_examples=150, deadline=None)
def test_cube_matches_per_day_tally(tmp_path_factory, rows, block):
    # rows come in drawn order, so blocks step back and forth in time
    path = tmp_path_factory.mktemp("cube") / "tx.csv"
    path.write_text("".join(f"{ts},{n_in},{n_out},{amount}\n" for ts, n_in, n_out, amount in rows))
    with small_blocks(block):
        cube, coinbase = read_cube(path)
    dates, occ, amo, ref_coinbase = reference_tally(rows)
    assert (cube.dates, coinbase) == (dates, ref_coinbase)
    assert cube.occurrence.tolist() == occ and cube.amount.tolist() == amo
    assert cube.occurrence.dtype == cube.amount.dtype == np.int64


def test_blocks_before_and_after_the_range_grow_the_cube():
    builder = DayCubeBuilder(N)
    for day, amount in ((5, 7), (2, 3), (40, 11), (0, 1), (5, 100)):
        builder.add(np.array([[START_S + day * DAY_S, 1, 1, amount]], dtype=np.int64))
    cube = builder.cube()
    assert cube.dates[0] == dt.date(2015, 1, 1) and len(cube.dates) == 41
    assert {k: int(cube.amount[k, 0, 0]) for k in np.flatnonzero(cube.amount[:, 0, 0])} == {
        0: 1, 2: 3, 5: 107, 40: 11}
    assert int(cube.occurrence.sum()) == 5


def day_block(day, k):
    """A block of k rows on one day, of shapes and amounts that vary with both."""
    r = np.arange(k)
    return np.column_stack([START_S + day * DAY_S + r, r % 4 + 1, (r + day) % 3 + 1,
                            1000 * (r + 1) + day]).astype(np.int64)


@pytest.mark.parametrize("days", [
    list(range(9, -1, -1)),  # reverse day order: the cube grows before its range each time
    [0, 20, 1, 19, 2, 18, 10, 3],  # interleaved: both ways, and inside the range
    [400, 401, 0, 402],  # a block far before the range
], ids=["reverse", "interleaved", "far_before"])
def test_blocks_in_any_day_order_equal_one_block(days):
    blocks = [day_block(d, 3 + d % 5) for d in days]
    builder = DayCubeBuilder(N)
    for rows in blocks:
        builder.add(rows)
    cube = builder.cube()
    whole = DayCubeBuilder(N)
    whole.add(np.vstack(blocks))
    ref = whole.cube()
    first, last = min(days), max(days)
    assert cube.dates == ref.dates == [dt.date(2015, 1, 1) + dt.timedelta(days=d)
                                       for d in range(first, last + 1)]
    assert cube.occurrence.shape == cube.amount.shape == (last - first + 1, N, N)
    assert np.array_equal(cube.occurrence, ref.occurrence)
    assert np.array_equal(cube.amount, ref.amount)
    occurrence = cube.occurrence.copy()
    with pytest.raises(RuntimeError, match="after cube"):
        builder.add(day_block(last + 1, 1))
    assert np.array_equal(cube.occurrence, occurrence)


def test_overflow_names_its_day_after_the_range_grows_both_ways():
    # day 40 passes int64; blocks far before and after it then move the
    # accumulators' first day, and the error still names day 40
    builder = DayCubeBuilder(N)
    builder.add(max_money_rows(40, 4393))
    builder.add(day_block(0, 2))
    builder.add(day_block(300, 2))
    with pytest.raises(ValidationError, match=r"^2015-02-10: satoshi sum of C_\{1->1\}"):
        builder.cube()


def max_money_rows(day, count, n_in=1):
    return np.array([[START_S + day * DAY_S, n_in, 1, MAX_MONEY]] * count, dtype=np.int64)


def test_cell_past_int64_across_two_blocks_names_the_day():
    # 9223372036854775807 // MAX_MONEY is 4392: each block fits, the two together do not
    builder = DayCubeBuilder(N)
    builder.add(max_money_rows(0, 2500))
    builder.add(max_money_rows(0, 1893))
    message = r"^2015-01-01: satoshi sum of C_\{1->1\} exceeds int64$"
    with pytest.raises(ValidationError, match=message):
        builder.cube()


def test_cell_at_int64_edge_across_blocks_stays_exact():
    builder = DayCubeBuilder(N)
    builder.add(max_money_rows(0, 2500))
    builder.add(max_money_rows(0, 1892))
    builder.add(np.array([[START_S, 1, 1, INT64_MAX - 4392 * MAX_MONEY]], dtype=np.int64))
    assert int(builder.cube().amount[0, 0, 0]) == INT64_MAX


def test_overflow_names_the_earliest_day_and_cell():
    # day 3 passes int64 first in the file, then day 1 in two cells; the error
    # names day 1 and its first cell, as a day-by-day aggregation would
    builder = DayCubeBuilder(N)
    builder.add(max_money_rows(3, 4393))
    builder.add(np.vstack([max_money_rows(1, 2000, n_in=3), max_money_rows(1, 2000, n_in=2)]))
    builder.add(np.vstack([max_money_rows(1, 2393, n_in=3), max_money_rows(1, 2393, n_in=2)]))
    with pytest.raises(ValidationError, match=r"^2015-01-02: satoshi sum of C_\{2->1\}"):
        builder.cube()


def test_extract_cell_past_int64_over_many_blocks(tmp_path, capsys):
    tx = tmp_path / "tx.csv"
    tx.write_text(f"{START_S},1,1,{MAX_MONEY}\n" * 4393)
    with small_blocks(1 << 12):
        assert cli.main(["extract", str(tx), "--out-occurrence", str(tmp_path / "o.txt"),
                         "--out-amount", str(tmp_path / "a.txt")]) == 1
    assert "2015-01-01: satoshi sum of C_{1->1} exceeds int64" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tx.csv"]


def test_day_total_past_2_53_split_over_blocks_keeps_amount_ratio_exact(tmp_path):
    # the total, 5 * MAX_MONEY - 3, passes 2**53; a float64 division rounds it
    left = MAX_MONEY - 4
    rows = [(20, 1, left)] + [(1, 1, MAX_MONEY)] * 4 + [(2, 2, 1)]
    total = left + 4 * MAX_MONEY + 1
    assert total > 2**53 and float(left) / float(total) != left / total
    tx = tmp_path / "tx.csv"
    tx.write_text("".join(f"{START_S + k},{n_in},{n_out},{a}\n"
                          for k, (n_in, n_out, a) in enumerate(rows)))
    with small_blocks(40):
        cube, _ = read_cube(tx, threshold=20)
    row, = chainlets.cube_features(cube, [100.0])
    assert row.A_x == left / total
    assert row.A_l == left * (100.0 / 10**8)


def extract_peak_bytes(tmp_path, lines):
    tx = tmp_path / "tx.csv"
    tx.write_text(lines)
    argv = ["extract", str(tx), "--out-occurrence", str(tmp_path / "o.txt"),
            "--out-amount", str(tmp_path / "a.txt")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extract_memory_does_not_grow_with_rows(tmp_path, capsys):
    # R rows, then 8R rows, over the same 100 days. The rows are not in time
    # order, so every block reaches every day: the peak is the day cube plus
    # one block of lines, whatever the row count
    rng = np.random.default_rng(0)

    def lines(n_rows):
        ts = START_S + rng.integers(0, 100 * DAY_S, n_rows)
        shape = rng.integers(1, 30, (n_rows, 2))
        amount = rng.integers(0, 10**9, n_rows)
        return "".join(f"{t},{i},{o},{a}\n" for t, (i, o), a in
                       zip(ts.tolist(), shape.tolist(), amount.tolist()))

    r = 5_000  # four blocks of lines
    with small_blocks(1 << 15):
        small = extract_peak_bytes(tmp_path, lines(r))
        large = extract_peak_bytes(tmp_path, lines(8 * r))
    assert abs(large - small) < 0.1 * small, (small, large)


def test_add_after_cube_raises():
    # cube() hands out views of the sums, which growing them in place would break
    builder = DayCubeBuilder(N)
    builder.add(max_money_rows(0, 1))
    cube = builder.cube()
    with pytest.raises(RuntimeError, match="after cube"):
        builder.add(max_money_rows(5, 1))
    assert cube.occurrence.shape == (1, N, N) and int(cube.occurrence.sum()) == 1


@pytest.mark.parametrize("hook", [sys.setprofile, sys.settrace], ids=["setprofile", "settrace"])
def test_extract_runs_under_profiler_and_tracer_hooks(tmp_path, capsys, hook):
    # a profiler or tracer holds extra references to the arrays it sees, which
    # fails numpy's reference check when the accumulators grow in place
    tx = tmp_path / "tx.csv"
    days = [3, 40, 0, 41]  # 20 rows a day, a few a block: the cube grows both ways
    tx.write_text("".join(f"{START_S + d * DAY_S + k},{k % 4 + 1},{k % 3 + 1},{k * 1000}\n"
                          for d in days for k in range(20)))

    def extract(name):
        argv = ["extract", str(tx), "--out-occurrence", str(tmp_path / f"{name}.occ"),
                "--out-amount", str(tmp_path / f"{name}.amo")]
        with small_blocks(200):
            return cli.main(argv)

    assert extract("plain") == 0
    previous = sys.getprofile() if hook is sys.setprofile else sys.gettrace()
    hook(lambda *args: None)
    try:
        code = extract("hooked")
    finally:
        hook(previous)
    assert code == 0
    for suffix in ("occ", "amo"):
        plain = (tmp_path / f"plain.{suffix}").read_bytes()
        assert plain and (tmp_path / f"hooked.{suffix}").read_bytes() == plain
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 and out[0] == out[1]


def test_tx_blocks_peak_per_block_character(tmp_path):
    # lines like the benchmark's, a comment in every block: the parse of a
    # block and its rows take at most 8 bytes per character of the block
    # (about 7 are used), so extract's peak memory stays the day cube plus
    # one block's worth
    rng = np.random.default_rng(2)
    n_rows = 4 * ingest.BLOCK_CHARS // 22  # four blocks of 22-character lines
    ts = np.sort(START_S + rng.integers(0, 300 * DAY_S, n_rows))
    shape = rng.integers(1, 50, (n_rows, 2))
    amount = rng.lognormal(13.0, 1.5, n_rows).astype(np.int64) + 1
    lines = [f"{t},{i},{o},{a}\n" for t, (i, o), a in
             zip(ts.tolist(), shape.tolist(), amount.tolist())]
    for k in range(0, n_rows, 5000):
        lines[k] = "# checkpoint\n"
    tx = tmp_path / "tx.csv"
    tx.write_text("".join(lines))
    tracemalloc.start()
    try:
        blocks = 0
        for rows, _ in ingest.tx_blocks(tx, CAL):
            blocks += 1
            del rows
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks >= 4
    assert peak < 8 * ingest.BLOCK_CHARS, peak / ingest.BLOCK_CHARS


def test_tx_blocks_holds_one_block_at_a_time(tmp_path):
    # many equal blocks: reading and parsing each one after the first needs no
    # more memory than the first did, so nothing of the block before is held
    block = 1 << 15
    line = f"{START_S},2,3,{'1' * 16}\n"
    assert block % len(line) == 0  # 32 characters: every block ends a line
    tx = tmp_path / "tx.csv"
    tx.write_text(line * (12 * block // len(line)))
    peaks = []
    with small_blocks(block):
        tracemalloc.start()
        try:
            for rows, _ in ingest.tx_blocks(tx, CAL):
                assert len(rows) == block // len(line)
                del rows  # the caller holds nothing either
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
        finally:
            tracemalloc.stop()
    assert len(peaks) == 12
    assert max(peaks[1:]) - peaks[0] < block, peaks
