import io
import random

import pytest

from conftest import FRAGMENT_SIZES
from hccasim.traffic import (TraceParseError, VideoTrace, arrivals, load_trace,
                             parse_trace, serialize_trace, stats_csv_row,
                             synth_sizes, synth_trace, trace_stats)


def test_parse_fragment(fragment_path):
    trace = load_trace(fragment_path)
    assert len(trace) == 12
    first, last = trace.records[0], trace.records[-1]
    assert (first.seq, first.frame_type, first.display_time_ms, first.size_bytes) == \
        (527, "I", 21120.0, 8124)
    assert (last.seq, last.frame_type, last.display_time_ms, last.size_bytes) == \
        (538, "B", 21440.0, 6223)
    assert trace.sizes() == FRAGMENT_SIZES


def test_parse_sorts_by_sequence():
    text = "3 B 120 500\n1 I 40 900\n2 P 80 700\n"
    trace = parse_trace(io.StringIO(text))
    assert [r.seq for r in trace.records] == [1, 2, 3]
    assert [r.size_bytes for r in trace.records] == [900, 700, 500]


def test_parse_skips_comments_and_blank_lines():
    text = "# header\n\n1 I 40 900  # trailing comment\n"
    trace = parse_trace(io.StringIO(text))
    assert len(trace) == 1


@pytest.mark.parametrize("bad,msg", [
    ("1 I 40\n", "expected 4 columns"),
    ("1 X 40 900\n", "unknown frame type"),
    ("x I 40 900\n", "bad frame sequence"),
    ("1 I y 900\n", "bad display time"),
    ("1 I 40 zap\n", "bad frame size"),
    ("1 I 40 0\n", "must be positive"),
])
def test_parse_errors_carry_line_numbers(bad, msg):
    with pytest.raises(TraceParseError) as e:
        parse_trace(io.StringIO("5 I 40 900\n" + bad))
    assert msg in str(e.value)
    assert e.value.line_no == 2


def test_parse_empty_is_an_error():
    with pytest.raises(TraceParseError):
        parse_trace(io.StringIO("# nothing here\n"))


def test_round_trip(fragment_path):
    trace = load_trace(fragment_path)
    again = parse_trace(io.StringIO(serialize_trace(trace)))
    assert again == trace


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


def test_arrivals_fixed_interval(fragment_path):
    trace = load_trace(fragment_path)
    out = arrivals(trace, 20_000_000_000)
    assert out[0] == (20_000_000_000, 8124, 527)
    assert out[1] == (20_040_000_000, 6442, 528)
    gaps = {b[0] - a[0] for a, b in zip(out, out[1:])}
    assert gaps == {40_000_000}
    with pytest.raises(ValueError):
        arrivals(trace, -1)


def test_arrivals_from_zero():
    trace = parse_trace(io.StringIO("0 I 0 10\n1 P 40 20\n2 B 80 30\n"))
    assert [t for t, _, _ in arrivals(trace, 0)] == [0, 40_000_000, 80_000_000]


def test_synth_zero_jitter():
    trace = synth_trace("IBB", (8000, 7000, 6000), 0.0, 3, rng_seed=1)
    assert trace.sizes() == [8000, 6000, 6000]
    assert [r.frame_type for r in trace.records] == ["I", "B", "B"]


def test_synth_deterministic():
    a = synth_trace("IBBPBB", (9000, 5000, 2000), 0.4, 200, rng_seed=42)
    b = synth_trace("IBBPBB", (9000, 5000, 2000), 0.4, 200, rng_seed=42)
    c = synth_trace("IBBPBB", (9000, 5000, 2000), 0.4, 200, rng_seed=43)
    assert a == b
    assert a != c


def test_synth_mean_converges():
    trace = synth_trace("I", (3800, 3800, 3800), 0.5, 1000, rng_seed=7)
    mean = sum(trace.sizes()) / len(trace)
    assert abs(mean - 3800) / 3800 < 0.02


def test_synth_validation():
    with pytest.raises(ValueError):
        synth_trace("IXB", (1, 1, 1), 0.0, 3, 0)
    with pytest.raises(ValueError):
        synth_trace("", (1, 1, 1), 0.0, 3, 0)
    with pytest.raises(ValueError):
        synth_trace("I", (1, 1, 1), 1.0, 3, 0)
    with pytest.raises(ValueError):
        synth_trace("I", (0, 1, 1), 0.0, 3, 0)


def test_stats_peak_dominates_mean_on_random_traces():
    rng = random.Random(5)
    for _ in range(50):
        trace = synth_trace("IBBPBBPBBPBB",
                            (rng.randrange(2000, 20000),
                             rng.randrange(1000, 8000),
                             rng.randrange(500, 4000)),
                            rng.random() * 0.9, rng.randrange(1, 300), rng.randrange(10**6))
        stats = trace_stats(trace)
        assert stats.peak_size_bytes >= stats.mean_size_bytes
        assert stats.peak_to_mean >= 1.0


def test_video_trace_rejects_empty():
    with pytest.raises(ValueError):
        VideoTrace(())


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
        assert synth_trace(pattern, bases, jitter, n, seed).sizes() == want
