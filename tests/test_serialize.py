import errno
import os
import select
import signal
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import csv_oracle

from metricspin import serialize
from metricspin.cli import BANDS_HEADER
from metricspin.errors import ConfigError, NumericalConsistencyError
from metricspin.floattext import WIDTH as _WIDTH
from metricspin.lattice import LatticeCouplings, dispersion
from metricspin.serialize import _BLOCK_ROWS, _rendered, render_csv, write_partial

B = _BLOCK_ROWS
LENGTHS = (1, 2, B - 1, B, B + 1, 2 * B + 3)

#: signed zeros, subnormals, the extremes of the exponent range and NaN
#: with either sign bit (``repr`` prints ``nan`` for both)
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               -2.225073858507201e-308, 1.7976931348623157e308, -1e-300, 1e300,
               1e16, 1e-5, 0.1, float("inf"), float("-inf"), float("nan"),
               float(np.copysign(np.nan, -1.0)))


def _distinct(kind: str, n: int, rng) -> np.ndarray:
    if kind == "float":
        # random bit patterns: spread over every exponent, distinct with
        # overwhelming probability
        return rng.integers(-2 ** 63, 2 ** 63 - 1, size=n, dtype=np.int64).view(np.float64)
    return rng.permutation(n) * 7919 - 3 * n


def _column(kind: str, mode: str, n: int, pool, seed: int, earlier=()) -> np.ndarray:
    """An ``n``-row column: one value, all distinct, all distinct but one
    repeat, a period that straddles blocks, mixed signed zeros, the exact
    negation of an ``earlier`` float column, or draws from ``pool``."""
    rng = np.random.default_rng(seed)
    if mode == "zeros":
        values = rng.choice(np.array([0.0, -0.0]), size=n)
    elif mode == "constant":
        values = np.full(n, pool[0])
    elif mode == "distinct":
        values = _distinct(kind, n, rng)
    elif mode == "one_repeat":
        values = _distinct(kind, n, rng)
        values[rng.integers(n)] = values[rng.integers(n)]
    elif mode == "periodic":
        values = np.resize(_distinct(kind, 1 + seed % (B + 2), rng), n)
    elif mode == "negated" and kind == "float":
        floats = [c for c in earlier if c.dtype.kind == "f"]
        values = -(floats[seed % len(floats)] if floats
                   else rng.choice(np.array(EDGE_FLOATS), size=n))
    else:
        values = rng.choice(np.array(pool), size=n)
    return np.asarray(values, dtype=np.float64 if kind == "float" else np.int64)


def rendered(header, columns) -> bytes:
    """The whole text of ``render_csv``'s blocks."""
    return b"".join(render_csv(header, columns))


def assert_matches_oracle(header, columns):
    """``render_csv`` equals the oracle; a failure names its first bad line."""
    got = rendered(header, columns).split(b"\n")
    want = csv_oracle(header, columns).encode("ascii").split(b"\n")
    bad = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {want[bad]!r}"
    assert len(got) == len(want)


COLUMN = st.tuples(
    st.sampled_from(["float", "int"]),
    st.sampled_from(["constant", "distinct", "one_repeat", "periodic", "zeros", "pool",
                     "negated"]),
    st.integers(0, 2 ** 32 - 1),
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from(LENGTHS) | st.integers(1, 3 * B),
    specs=st.lists(COLUMN, min_size=1, max_size=4),
    float_pool=st.lists(st.floats(width=64) | st.sampled_from(EDGE_FLOATS),
                        min_size=1, max_size=6),
    int_pool=st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=6),
    header=st.none() | st.just("a,b"),
)
def test_matches_per_element_oracle(n, specs, float_pool, int_pool, header):
    columns = []
    for kind, mode, seed in specs:
        pool = float_pool if kind == "float" else int_pool
        columns.append(_column(kind, mode, n, pool, seed, columns))
    assert_matches_oracle(header, columns)


@pytest.mark.parametrize("n", LENGTHS)
def test_signed_zeros_keep_their_text(n):
    zeros = np.where(np.arange(n) % 3 == 1, -0.0, 0.0)
    assert_matches_oracle("z,t", [zeros, np.arange(n, dtype=float)])
    if n > 1:
        assert rendered(None, [zeros]).startswith(b"0.0\n-0.0\n")


@pytest.mark.parametrize("n", LENGTHS)
def test_edge_floats_and_constant_columns(n):
    edge = np.resize(np.array(EDGE_FLOATS), n)
    const = np.full(n, 5e-324)
    ints = np.resize(np.array([0, -1, 2 ** 62], dtype=np.int64), n)
    assert_matches_oracle("e,c,i", [edge, const, ints])


@pytest.mark.parametrize("n", LENGTHS)
def test_negated_columns_take_flipped_texts(n):
    # -edge flips every sign bit, NaN's included, and NaN still prints nan
    edge = np.resize(np.array(EDGE_FLOATS), n)
    assert_matches_oracle(None, [edge, -edge, edge, np.abs(edge), -np.arange(n, dtype=float)])


def symmetric_bands() -> list:
    """The four columns of a 61 x 61 band grid symmetric about k = 0: 3721 rows."""
    k = np.linspace(-np.pi, np.pi, 61)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    e_lo, e_hi = dispersion(np.stack([kx, ky], axis=-1),
                            LatticeCouplings.from_background(0.01, 0.0, 1.0))
    return [kx.ravel(), ky.ravel(), e_lo.ravel(), e_hi.ravel()]


def test_symmetric_bands_format_each_distinct_value_once_per_block(monkeypatch, render_cpus):
    render_cpus(1)      # counts the formatting of one process
    formatted, texts = [], serialize._texts

    def counting(values):
        formatted.extend(values.tolist())
        return texts(values)

    monkeypatch.setattr(serialize, "_texts", counting)
    columns = symmetric_bands()
    assert columns[0].size > _BLOCK_ROWS
    assert_matches_oracle(BANDS_HEADER, columns)
    # a block's column is tabled, and formats its distinct values, when at
    # most _TABLE_SHARE of its rows are distinct; else it formats its rows
    want = 0
    for c in columns:
        for lo in range(0, c.size, B):
            rows = c[lo:lo + B]
            distinct = np.unique(rows.view(np.int64)).size
            want += distinct if distinct <= serialize._TABLE_SHARE * rows.size else rows.size
    assert len(formatted) == want < 0.75 * sum(c.size for c in columns)


def straddling_columns(n: int) -> list:
    """Columns whose repeats straddle 2048-row blocks: a constant, ``0.0``
    and ``-0.0`` and NaN of either sign bit split across a block boundary,
    and a column that repeats five values in even blocks (tabled) and is
    distinct in odd ones (untabled)."""
    rows = np.arange(n)
    negative_nan = float(np.copysign(np.nan, -1.0))
    return [np.full(n, -2.5),
            np.where(rows < B - 3, 0.0, -0.0),
            rows - 3,
            np.where((rows > 0) & (rows < B - 1), np.nan, negative_nan),
            np.where(rows // B % 2 == 0, (rows % 5) * -0.25, rows / 7.0 + 1e-3)]


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 3])
def test_repeats_that_straddle_blocks_match_per_element_oracle(n, cpus, render_cpus):
    render_cpus(cpus)
    columns = straddling_columns(n)
    switching = columns[-1]
    assert np.unique(switching[:B]).size <= serialize._TABLE_SHARE * min(n, B)
    if n >= 2 * B:
        assert np.unique(switching[B:2 * B]).size > serialize._TABLE_SHARE * B
    assert_matches_oracle("c,z,i,nan,s", columns)


#: magnitudes whose sign handling is special: zero, infinity, the largest
#: double, subnormals, and NaN with its sign bit set or with a payload
SIGNED_EDGES = np.array([0.0, float("inf"), 1.7976931348623157e308, 5e-324,
                         2.225073858507201e-308, 1e-310, np.copysign(np.nan, -1.0),
                         np.int64(0x7FF8_0000_0000_0001).view(np.float64),
                         np.int64(0x7FF0_0000_0000_0002).view(np.float64)])


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 2 * B + 900),
    ordinary=st.lists(st.floats(allow_nan=False), max_size=8),
    spread=st.integers(0, 3 * B),
    count=st.integers(1, 3),
    with_int=st.booleans(),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_signs_match_per_element_oracle(n, ordinary, spread, count, with_int, seed):
    # every magnitude appears with both signs; a negated twin of the first
    # column goes before or after it, and so may an int column
    rng = np.random.default_rng(seed)
    random = rng.standard_normal(spread) * 10.0 ** rng.integers(-300, 300, spread)
    magnitudes = np.concatenate([SIGNED_EDGES, ordinary, random])
    values = np.concatenate([magnitudes, -magnitudes])
    columns = [rng.choice(values, size=n) for _ in range(count)]
    columns.insert(rng.integers(count + 1), -columns[0])
    if with_int:
        columns.insert(rng.integers(count + 2),
                       rng.integers(-2 ** 63, 2 ** 63 - 1, size=n, dtype=np.int64))
    assert_matches_oracle(None, columns)


def test_rows_only_and_empty_columns():
    assert rendered(None, [np.array([1.5, 1.5])]) == b"1.5\n1.5\n"
    assert rendered("h", [np.array([])]) == b"h\n"
    assert rendered(None, [np.array([])]) == b""


def test_float32_renders_as_its_double():
    col = np.array([0.1, 1e-40], dtype=np.float32)
    assert_matches_oracle(None, [col])


def test_bytes_column_written_verbatim():
    texts = np.array([b"a", b"-0.0", b"xyz"])
    assert rendered("f,s,i", [np.array([0.5, -1.0, 0.5]), texts, np.array([3, -4, 3])]) \
        == b"f,s,i\n0.5,a,3\n-1.0,-0.0,-4\n0.5,xyz,3\n"


@pytest.mark.parametrize("n", LENGTHS)
def test_rendered_texts_of_floats_render_as_the_floats(n):
    # a column formatted once, as the heatmap's t column is, then passed on
    # as its texts; a later column negating it is formatted without reuse
    rng = np.random.default_rng(n)
    floats = np.where(rng.random(n) < 0.5, rng.choice(np.array(EDGE_FLOATS), size=n),
                      rng.standard_normal(n))
    texts = np.array(rendered(None, [floats]).splitlines())
    assert texts.dtype.kind == "S"
    ints = np.arange(n) - 5
    assert rendered("i,t,u", [ints, texts, -floats]) \
        == rendered("i,t,u", [ints, floats, -floats])


@pytest.mark.parametrize("columns, error", [
    ([np.zeros(3), np.zeros(4)], ValueError),
    ([np.zeros((2, 2))], ValueError),
    ([np.array(["a"])], TypeError),         # str (U) texts are not bytes
    ([np.zeros(2, dtype=complex)], TypeError),
    ([np.zeros(3), np.array([b"a"])], ValueError),
    ([np.array([b"a"], dtype=object)], TypeError),
])
def test_bad_columns_refused(columns, error):
    with pytest.raises(error):
        render_csv("h", columns)


@pytest.mark.parametrize("n", LENGTHS)
def test_blocks_are_the_header_then_whole_row_blocks(n):
    blocks = list(render_csv("a,b", [np.arange(n, dtype=float), -np.arange(n)]))
    assert blocks[0] == b"a,b\n"
    assert [b.count(b"\n") for b in blocks[1:]] == [min(B, n - i) for i in range(0, n, B)]
    assert all(b.endswith(b"\n") for b in blocks)


def test_failing_blocks_leave_the_old_file_and_no_partial(tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes(b"old\n")

    def blocks():
        yield b"new\n"
        assert (tmp_path / "a.csv.partial").exists()
        raise MemoryError("injected")

    with pytest.raises(MemoryError):
        write_partial(path, blocks())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]
    assert path.read_bytes() == b"old\n"


@pytest.mark.parametrize("at, raised", [
    ("write", ConfigError),
    ("close", ConfigError),     # a short file, a manifest, is written only as it closes
    ("blocks", OSError),        # the render's own failure is no write failure
])
def test_a_write_failure_names_the_file_and_leaves_no_partial(tmp_path, monkeypatch,
                                                               at, raised):
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    class Disk:
        def __init__(self, path, mode):
            self.fh = open(path, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, block):
            if at == "write":
                raise full
            return self.fh.write(block)

        def close(self):
            self.fh.close()
            if at == "close":
                raise full

    def blocks():
        yield b"a=1\n"
        if at == "blocks":
            raise full

    monkeypatch.setattr(serialize, "open", Disk, raising=False)
    path = tmp_path / "manifest.txt"
    with pytest.raises(raised) as err:
        write_partial(path, blocks())
    if raised is ConfigError:
        assert str(err.value) == f"cannot write {str(path)!r}: {os.strerror(errno.ENOSPC)}"
    assert list(tmp_path.iterdir()) == []


def test_write_partial_leaves_the_file_itself_as_it_was(tmp_path):
    path = tmp_path / "a.csv"
    path.write_bytes(b"old\n")
    partial = write_partial(path, iter([b"new", b"", b"\n"]))
    assert partial == tmp_path / "a.csv.partial"
    assert partial.read_bytes() == b"new\n" and path.read_bytes() == b"old\n"


def distinct_tiny_floats(n: int, k: int) -> list:
    """``k`` columns of ``n`` distinct floats, 22-23 characters each."""
    rng = np.random.default_rng(7)
    return [rng.uniform(1.0, 2.0, n) * 1e-300 for _ in range(k)]


def test_streaming_holds_no_whole_file_text(tmp_path, render_cpus):
    # no value tables, so every number is formatted as its block streams;
    # tracemalloc sees this process only, so the render stays in it
    render_cpus(1)
    n, k = 100_000, 2
    columns = distinct_tiny_floats(n, k)
    tracemalloc.start()
    try:
        path = write_partial(tmp_path / "big.csv", render_csv("a,b", columns))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    # A column's table search holds two int64 copies of its keys (the
    # sort and its distinct subset) and one bool mask.
    key_sort = n * (2 * 8 + 1)
    # A block holds, per cell, a float, its str and its bytes text and
    # three list slots; per row, a tuple and the joined line; then the
    # block's text, joined and with its last newline added.
    line = k * (_WIDTH + 1)
    cell = sys.getsizeof(1.0) + sys.getsizeof("x" * _WIDTH) + sys.getsizeof(b"x" * _WIDTH) + 3 * 8
    row = k * cell + sys.getsizeof((None,) * k) + sys.getsizeof(b"x" * line)
    block = B * (row + 2 * line)
    bound = key_sort + block        # about 0.6 of the file
    # whole-file buffering would hold at least ``size`` bytes at its peak
    assert bound < size
    assert peak < bound, f"peak {peak} B is {peak / size:.2f} of the {size} B file"


def test_render_working_set_is_flat_in_rows(render_cpus):
    # every block builds its tables from its own rows, so a render's peak
    # is one block's, whatever the file's length; tracemalloc sees this
    # process only, so the render stays in it
    render_cpus(1)
    rendered(None, [np.ones(1)])        # builds the formatter's constant tables, once
    peaks, rng = [], np.random.default_rng(7)
    for n in (10_000, 400_000):
        columns = [rng.uniform(1.0, 2.0, n) for _ in range(2)]     # distinct, on the fast path
        tracemalloc.start()
        try:
            for _ in render_csv("a,b", columns):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 64 * 1024, f"peaks {peaks} B"


# ---------------------------------------------------------------- render processes

#: row counts of 0, 1, 1, 2 and 3 blocks, and of 3 blocks with a short last one
FORK_ROWS = (0, B - 5, B, 2 * B, 3 * B, 2 * B + 3)


@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
@pytest.mark.parametrize("n", FORK_ROWS)
def test_forked_render_bytes_equal_one_process(n, cpus, render_cpus, forks):
    rng = np.random.default_rng(n)
    columns = [rng.standard_normal(n), np.resize(np.array(EDGE_FLOATS), n),
               np.arange(n) - 7, np.full(n, -0.0)]
    render_cpus(1)
    want = rendered("a,b,c,d", columns)
    assert forks == []
    render_cpus(cpus)
    assert rendered("a,b,c,d", columns) == want
    # one child per CPU beyond the caller's, at most one per block beyond the first
    assert len(forks) == max(0, min(cpus, -(-n // B)) - 1)


@pytest.mark.parametrize("cpus", [2, 3])
def test_symmetric_bands_forked_bytes(render_cpus, forks, cpus):
    # 3721 rows are two row jobs; the 2146 table magnitudes are formatted
    # in this process
    render_cpus(cpus)
    assert_matches_oracle(BANDS_HEADER, symmetric_bands())
    assert len(forks) == 1


def test_streaming_forked_bytes(tmp_path, render_cpus):
    columns = distinct_tiny_floats(100_000, 2)
    render_cpus(1)
    want = rendered("a,b", columns)
    render_cpus(2)
    path = write_partial(tmp_path / "big.csv", render_csv("a,b", columns))
    assert path.read_bytes() == want


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Unpicklable(Exception):
    """Cannot be pickled: it holds a lock."""

    def __init__(self, text):
        super().__init__(text)
        self.lock = threading.Lock()


class Unrebuildable(Exception):
    """Pickles, but cannot be unpickled: its class takes two arguments, its args hold one."""

    def __init__(self, text, code):
        super().__init__(text)
        self.code = code


@pytest.mark.parametrize("planted, raised, message", [
    (ValueError("planted"), ValueError, "^planted$"),
    (MemoryError("planted"), MemoryError, "planted"),
    (NumericalConsistencyError("planted"), NumericalConsistencyError, "^planted$"),
    (Unpicklable("planted"), RuntimeError, "^Unpicklable: planted$"),
    (Unrebuildable("planted", 7), RuntimeError, "^Unrebuildable: planted$"),
])
def test_child_failure_raised_in_the_caller(monkeypatch, render_cpus, planted, raised,
                                            message):
    # the failure of the child's job arrives as the same exception, or as a
    # RuntimeError naming its type if it does not survive pickling
    render_cpus(2)
    parent, texts = os.getpid(), serialize._texts

    def failing(values):
        if os.getpid() != parent:
            raise planted
        return texts(values)

    monkeypatch.setattr(serialize, "_texts", failing)
    with pytest.raises(raised, match=message) as failure:
        rendered(None, [np.arange(3 * B) / 7.0])
    assert type(failure.value) is raised
    assert_no_child_left()


def test_each_result_reaches_the_caller_before_the_next_job_ends(render_cpus, forks):
    # at two CPUs the child runs jobs 1 and 3, and its job 3 waits for a byte
    # that the caller writes only in job 2, after it has job 1's result: a
    # result left in the child's write buffer would hold both until job 3
    # timed out
    render_cpus(2)
    read, write = os.pipe()

    def render(job):
        if job == 2:
            os.write(write, b"x")
        if job == 3:
            if not select.select([read], [], [], 5)[0]:
                raise TimeoutError("job 1's result waited for job 3")
            os.read(read, 1)
        return job

    try:
        assert list(_rendered(render, range(4))) == [0, 1, 2, 3]
    finally:
        os.close(read)
        os.close(write)
    assert len(forks) == 1
    assert_no_child_left()


# an exit status of 7 waits as 7 << 8, a signal as its number
@pytest.mark.parametrize("end, status", [(lambda: os._exit(7), 7 << 8),
                                         (lambda: os.kill(os.getpid(), signal.SIGKILL),
                                          signal.SIGKILL)], ids=["exit", "killed"])
def test_child_that_ends_without_its_result_is_a_memory_error(monkeypatch, render_cpus,
                                                              end, status):
    render_cpus(2)
    parent, texts = os.getpid(), serialize._texts

    def ending(values):
        if os.getpid() != parent:
            end()
        return texts(values)

    monkeypatch.setattr(serialize, "_texts", ending)
    with pytest.raises(MemoryError, match=rf"without its result \(wait status {status}\)"):
        rendered(None, [np.arange(3 * B) / 7.0])
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_render_inside_a_job_forks_nothing(render_cpus, forks, cpus):
    # each job renders three blocks; the map's pin is held in this process's
    # share and inherited by each child's, so the inner render stays in its
    # process (a child that forked would fail through ``forks``)
    columns = [[np.arange(3 * B) / (7.0 + job)] for job in range(4)]
    render_cpus(1)
    want = [rendered(None, c) for c in columns]
    assert forks == []
    render_cpus(cpus)
    assert list(_rendered(lambda c: rendered(None, c), columns)) == want
    assert len(forks) == cpus - 1


def test_closing_early_kills_every_child(render_cpus, forks):
    render_cpus(3)
    blocks = render_csv(None, [np.arange(6 * B) / 7.0])
    assert next(blocks).count(b"\n") == B
    assert len(forks) == 2
    blocks.close()
    assert_no_child_left()


def test_no_fork_while_another_thread_runs(render_cpus, forks):
    render_cpus(2)
    columns = [np.arange(3 * B) / 7.0]
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        alongside = rendered(None, columns)
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert forks == []
    assert rendered(None, columns) == alongside
    assert len(forks) == 1
