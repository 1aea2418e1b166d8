import io
import random
from array import array

import pytest

from conftest import FRAGMENT_SIZES
from hccasim import traffic
from hccasim.traffic import (TRACE_CHUNK_LINES, FrameRecord, TraceParseError, VideoTrace,
                             load_trace, parse_trace, serialize_trace, stats_csv_row,
                             synth_sizes, trace_stats)


def _row_parse(lines):
    """The row form of a parse, as a reference: one FrameRecord per frame
    line, stably sorted by sequence number."""
    rows = []
    for raw in lines:
        cols = raw.split("#", 1)[0].split()
        if cols:
            rows.append(FrameRecord(int(cols[0]), cols[1].upper(), float(cols[2]),
                                    int(cols[3])))
    return tuple(sorted(rows, key=lambda r: r.seq))


def test_parse_fragment(fragment_path):
    trace = load_trace(fragment_path)
    assert len(trace) == 12
    first, last = trace.records[0], trace.records[-1]
    assert (first.seq, first.frame_type, first.display_time_ms, first.size_bytes) == \
        (527, "I", 21120.0, 8124)
    assert (last.seq, last.frame_type, last.display_time_ms, last.size_bytes) == \
        (538, "B", 21440.0, 6223)
    assert list(trace.size_bytes) == FRAGMENT_SIZES
    with open(fragment_path, encoding="utf-8") as fh:
        assert trace.records == _row_parse(fh)


def test_parse_sorts_by_sequence():
    text = "3 B 120 500\n1 I 40 900\n2 P 80 700\n"
    trace = parse_trace(io.StringIO(text))
    assert [r.seq for r in trace.records] == [1, 2, 3]
    assert [r.size_bytes for r in trace.records] == [900, 700, 500]
    assert trace.records == _row_parse(text.splitlines())


@pytest.mark.parametrize("text", [
    "2 P 80 700\n1 I 40 900\n2 B 120 500\n1 B 0 300\n0 I 0 100\n",   # out of order
    "0 I 0 100\n1 I 40 900\n1 B 0 300\n2 P 80 700\n2 B 120 500\n",   # already in order
])
def test_parse_keeps_input_order_of_equal_seqs(text):
    trace = parse_trace(io.StringIO(text))
    assert trace.seqs == array("q", [0, 1, 1, 2, 2])
    assert trace.size_bytes == array("q", [100, 900, 300, 700, 500])
    assert trace.frame_types == ("I", "I", "B", "P", "B")
    assert trace.records == _row_parse(text.splitlines())


def test_parse_skips_comments_and_blank_lines():
    text = "# header\n\n1 I 40 900  # trailing comment\n"
    trace = parse_trace(io.StringIO(text))
    assert len(trace) == 1
    text = "# header\n \t\n3 b 120 500 #x\n  1 i 40 900\n#2 P 80 700\n2 p 80 700#\n"
    trace = parse_trace(io.StringIO(text))
    assert trace.seqs == array("q", [1, 2, 3])
    assert trace.frame_types == ("I", "P", "B")
    assert trace.records == _row_parse(text.splitlines())


@pytest.mark.parametrize("bad,msg", [
    ("1 I 40\n", "expected 4 columns"),
    ("1 I 40 900 7\n", "expected 4 columns, got 5"),
    ("1 X 40 900\n", "unknown frame type"),
    ("x I 40 900\n", "bad frame sequence"),
    ("1 I y 900\n", "bad display time"),
    ("1 I 40 zap\n", "bad frame size"),
    ("1 I 40 0\n", "must be positive"),
    ("1 I 40 -5\n", "frame size must be positive, got -5"),
    # A run holds sizes and sequence numbers as 64-bit integers.
    (f"1 I 40 {2**63}\n", f"frame size must be below 2**63, got {2**63}"),
    (f"{2**63} I 40 900\n", f"frame sequence must be below 2**63, got {2**63}"),
    ("-1 I 40 900\n", "frame sequence must be >= 0, got -1"),
])
def test_parse_errors_carry_line_numbers(bad, msg):
    with pytest.raises(TraceParseError) as e:
        parse_trace(io.StringIO("5 I 40 900\n" + bad))
    assert msg in str(e.value)
    assert e.value.line_no == 2


def test_parse_takes_the_largest_64_bit_values():
    trace = parse_trace(io.StringIO(f"{2**63 - 1} I 40 {2**63 - 1}\n"))
    assert trace.seqs == trace.size_bytes == array("q", [2**63 - 1])


@pytest.mark.parametrize("text", ["", "# nothing here\n", "\n  \n"])
def test_parse_empty_is_an_error(text):
    with pytest.raises(TraceParseError) as e:
        parse_trace(io.StringIO(text))
    assert str(e.value) == "trace contains no frames"
    assert e.value.line_no is None


def test_round_trip(fragment_path):
    trace = load_trace(fragment_path)
    again = parse_trace(io.StringIO(serialize_trace(trace)))
    assert again == trace
    # Display times that :g would cut to 6 significant digits.
    trace = VideoTrace(array("q", [0, 1, 2]), ("I", "P", "B"), (12345.678, 0.1 + 0.2, 1e-7),
                       array("q", [900, 800, 700]))
    text = serialize_trace(trace)
    assert text == "0 I 12345.678 900\n1 P 0.30000000000000004 800\n2 B 1e-07 700\n"
    assert parse_trace(io.StringIO(text)) == trace


def test_a_leading_byte_order_mark_is_not_data(fragment_path, tmp_path):
    bommed = tmp_path / "bom.txt"
    bommed.write_bytes(b"\xef\xbb\xbf" + fragment_path.read_bytes())
    assert load_trace(bommed) == load_trace(fragment_path)


def test_trace_stats_fragment(fragment_path):
    stats = trace_stats(load_trace(fragment_path))
    assert stats.mean_size_bytes == pytest.approx(80884 / 12)
    assert stats.peak_size_bytes == 8124
    assert stats.peak_to_mean == pytest.approx(8124 * 12 / 80884)
    assert round(stats.peak_to_mean, 4) == 1.2053
    assert stats.mean_bit_rate_bps == pytest.approx((80884 / 12) * 8 / 0.04)
    assert stats.peak_bit_rate_bps == pytest.approx(8124 * 8 / 0.04)


def test_trace_stats_singleton():
    trace = parse_trace(io.StringIO("0 I 0 1000\n"))
    stats = trace_stats(trace)
    assert stats.mean_size_bytes == 1000
    assert stats.peak_size_bytes == 1000
    assert stats.peak_to_mean == 1.0


def test_stats_csv_row(fragment_path):
    row = stats_csv_row("frag", trace_stats(load_trace(fragment_path)))
    assert row == "frag,6740.33,8124,1348066.7,1624800.0,1.2053"


def _trace_of_sizes(sizes) -> VideoTrace:
    """A VideoTrace with the given frame sizes; trace_stats reads only
    the sizes and the frame interval."""
    n = len(sizes)
    return VideoTrace(array("q", range(n)), ("I",) * n, (0.0,) * n, array("q", sizes))


def test_synth_zero_jitter():
    assert synth_sizes("IBB", (8000, 7000, 6000), 0.0, 3, rng_seed=1) == [8000, 6000, 6000]


def test_synth_deterministic():
    a = synth_sizes("IBBPBB", (9000, 5000, 2000), 0.4, 200, rng_seed=42)
    b = synth_sizes("IBBPBB", (9000, 5000, 2000), 0.4, 200, rng_seed=42)
    c = synth_sizes("IBBPBB", (9000, 5000, 2000), 0.4, 200, rng_seed=43)
    assert a == b
    assert a != c


def test_synth_mean_converges():
    sizes = synth_sizes("I", (3800, 3800, 3800), 0.5, 1000, rng_seed=7)
    mean = sum(sizes) / len(sizes)
    assert abs(mean - 3800) / 3800 < 0.02


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_sizes("IXB", (1, 1, 1), 0.0, 3, 0)
    with pytest.raises(ValueError):
        synth_sizes("", (1, 1, 1), 0.0, 3, 0)
    with pytest.raises(ValueError):
        synth_sizes("I", (1, 1, 1), 1.0, 3, 0)
    with pytest.raises(ValueError):
        synth_sizes("I", (0, 1, 1), 0.0, 3, 0)


def test_stats_peak_dominates_mean_on_random_traces():
    rng = random.Random(5)
    for _ in range(50):
        sizes = synth_sizes("IBBPBBPBBPBB",
                            (rng.randrange(2000, 20000),
                             rng.randrange(1000, 8000),
                             rng.randrange(500, 4000)),
                            rng.random() * 0.9, rng.randrange(1, 300), rng.randrange(10**6))
        stats = trace_stats(_trace_of_sizes(sizes))
        assert stats.peak_size_bytes >= stats.mean_size_bytes
        assert stats.peak_to_mean >= 1.0


def test_columns_match_row_parse_on_random_traces():
    rng = random.Random(3)
    for _ in range(40):
        lines = [f"{rng.randrange(30)} {rng.choice('IPBipb')} {rng.randrange(2000)} "
                 f"{rng.randrange(1, 20000)}" + rng.choice(["", " # c", "#"])
                 for _ in range(rng.randrange(1, 60))]
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "# note", "  "]))
        trace = parse_trace(lines)
        rows = _row_parse(lines)
        assert trace.records == rows
        assert list(trace.size_bytes) == [r.size_bytes for r in rows]
        assert parse_trace(io.StringIO(serialize_trace(trace))) == trace


def _line_read(lines) -> VideoTrace:
    """The per-line reader as a reference: the first bad line's
    TraceParseError, else the frames of _row_parse."""
    lines = list(lines)
    try:
        traffic._refuse(lines, 1)
    except AssertionError:     # no bad line
        rows = _row_parse(lines)
        if not rows:
            raise TraceParseError(None, "trace contains no frames") from None
        seqs, types, display, sizes = zip(*rows)
        return VideoTrace(array("q", seqs), types, display, array("q", sizes))


def _outcome(read):
    try:
        return read()
    except TraceParseError as e:
        return "error", str(e), e.line_no


def _assert_reads_like_the_line_reader(text, tmp_path):
    path = tmp_path / "trace.txt"
    path.write_bytes(text.encode("utf-8"))

    def from_file(read):
        with open(path, encoding="utf-8-sig") as fh:
            return read(fh)

    want = _outcome(lambda: from_file(_line_read))
    assert _outcome(lambda: load_trace(path)) == want
    want = _outcome(lambda: _line_read(io.StringIO(text)))
    assert _outcome(lambda: parse_trace(io.StringIO(text))) == want
    lines = text.split("\n")          # lines without their "\n"
    assert _outcome(lambda: parse_trace(lines)) == _outcome(lambda: _line_read(lines))


DIFFERENTIAL_TEXTS = [
    "0 I 0\n100 1 I 40 200\n",                  # 3 + 5 fields: line 1 is bad
    "1 I 40 900 5\nI 40 900\n",                 # 5 + 3 fields
    "0 I 0 100\n1 P 40 200 # 3 B 80 300\n2 B 80 300\n",
    "# header\n0 I 0 100\n\n1 P 40 200\n",
    "0 I 0 100\r\n1 P 40 200\r\n2 B 80 300",   # CRLF, no final newline
    "\ufeff0 I 0 100\n1 P 40 200\n",             # a BOM is not data in a file only
    "0 i 0 100\n1 p 40 200\n2 b 80 300\n3 \u0131 120 400\n",   # "\u0131".upper() == "I"
    "0 \u00df 0 100\n",                            # "\u00df".upper() == "SS"
    "+5 I 0 1_000\n\u0663 P 40 \u0664\u0665\n1 B 1_0.5 7\n",
    "0\x0bI\x1c0 100\n1 P 40\x0b200\n\x1c\n",
    f"{2**63 - 1} I 0 {2**63 - 1}\n",
    f"0 I 0 100\n{2**63} I 40 900\n",
    f"0 I 0 {2**63}\n",
    f"-{2**63} I 0 5\n",
    "0 I 0 100\n1 X 40 200\n",
    "0 I zz 100\n",
    "0 I 0 0\n",
    "-1 I 0 100\n",
    "2 P 80 700\n1 I 40 900\n2 B 120 500\n1 B 0 300\n0 I 0 100\n",
    "",
    "\n \t\n",
    "# only a comment",
]


@pytest.mark.parametrize("chunk_lines", [TRACE_CHUNK_LINES, 1, 2, 3])
@pytest.mark.parametrize("text", DIFFERENTIAL_TEXTS)
def test_column_pass_reads_like_the_line_reader(text, chunk_lines, tmp_path, monkeypatch):
    monkeypatch.setattr(traffic, "TRACE_CHUNK_LINES", chunk_lines)
    _assert_reads_like_the_line_reader(text, tmp_path)


def _numbered_lines(n):
    return [f"{k} {'IPB'[k % 3]} {40 * k} {100 + k}" for k in range(n)]


@pytest.mark.parametrize("bad_line_nos", [(TRACE_CHUNK_LINES,), (TRACE_CHUNK_LINES + 1,),
                                          (TRACE_CHUNK_LINES, TRACE_CHUNK_LINES + 1)])
@pytest.mark.parametrize("bad", ["7 I 40", "7 Q 40 900", "7 I 40 -5", "# 7 I 40 900 9"])
def test_column_pass_reports_bad_lines_at_a_chunk_border(bad, bad_line_nos, tmp_path):
    lines = _numbered_lines(TRACE_CHUNK_LINES + 5)
    for line_no in bad_line_nos:
        lines[line_no - 1] = bad
    _assert_reads_like_the_line_reader("\n".join(lines) + "\n", tmp_path)


def test_column_pass_sorts_across_a_chunk_border(tmp_path):
    # Descending seqs in equal pairs; the sizes tell the pair's order apart.
    n = TRACE_CHUNK_LINES + 10
    text = "".join(f"{(n - k) // 2} P {k} {k + 1}\n" for k in range(n))
    _assert_reads_like_the_line_reader(text, tmp_path)
    trace = parse_trace(io.StringIO(text))
    assert trace.seqs == array("q", sorted((n - k) // 2 for k in range(n)))
    # An in-order chunk after an out-of-order one is sorted too.
    text = "".join(f"{k} B {k} {k + 1}\n" for k in range(TRACE_CHUNK_LINES)) + "3 I 0 9\n"
    _assert_reads_like_the_line_reader(text, tmp_path)
    assert list(parse_trace(io.StringIO(text)).seqs[:5]) == [0, 1, 2, 3, 3]


def test_synth_sizes_match_uniform_reference():
    # The list helper must draw exactly what rng.uniform(-1, 1) per frame did.
    rng = random.Random(11)
    for _ in range(30):
        pattern = "".join(rng.choice("IPB") for _ in range(rng.randrange(1, 13)))
        bases = (rng.randrange(1, 20000), rng.randrange(1, 9000), rng.randrange(1, 5000))
        jitter, n, seed = rng.random() * 0.99, rng.randrange(1, 400), rng.randrange(10**6)
        ref = random.Random(seed)
        want = [max(1, round(dict(zip("IPB", bases))[pattern[k % len(pattern)]]
                             * (1.0 + ref.uniform(-1.0, 1.0) * jitter)))
                for k in range(n)]
        assert synth_sizes(pattern, bases, jitter, n, seed) == want
