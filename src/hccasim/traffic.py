"""MPEG-4 video trace handling: parsing of 4-column trace files, summary
statistics, arrival generation, and a seeded synthetic GoP generator for
tests and built-in workloads.

Trace file format (whitespace-separated, '#' comments allowed):

    <frame_seq> <frame_type I|P|B> <display_time_ms> <frame_size_bytes>

The display-time column is preserved but never used for arrival timing:
frames arrive in coding (sequence) order at a fixed interval, 40 ms by
default. One video frame is one MSDU, whatever its size.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .phy import NS_PER_MS

FRAME_TYPES = ("I", "P", "B")
DEFAULT_FRAME_INTERVAL_NS = 40 * NS_PER_MS


class TraceParseError(ValueError):
    """Raised for malformed trace input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class FrameRecord:
    seq: int
    frame_type: str
    display_time_ms: float
    size_bytes: int

    def __post_init__(self):
        if self.seq < 0:
            raise ValueError("seq must be >= 0")
        if self.frame_type not in FRAME_TYPES:
            raise ValueError(f"frame type must be one of {FRAME_TYPES}")
        if self.size_bytes <= 0:
            raise ValueError("frame size must be positive")


@dataclass(frozen=True)
class VideoTrace:
    records: tuple
    frame_interval_ns: int = DEFAULT_FRAME_INTERVAL_NS

    def __post_init__(self):
        if not self.records:
            raise ValueError("trace must contain at least one frame")
        if self.frame_interval_ns <= 0:
            raise ValueError("frame interval must be positive")

    def __len__(self) -> int:
        return len(self.records)

    def sizes(self) -> list[int]:
        return [r.size_bytes for r in self.records]


@dataclass(frozen=True)
class TraceStats:
    mean_size_bytes: float
    peak_size_bytes: int
    mean_bit_rate_bps: float
    peak_bit_rate_bps: float
    peak_to_mean: float


def parse_trace(stream, frame_interval_ns: int = DEFAULT_FRAME_INTERVAL_NS) -> VideoTrace:
    """Parse a trace from an iterable of text lines. Records come back sorted
    by ascending frame sequence regardless of input order."""
    records = []
    for line_no, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        cols = line.split()
        if len(cols) != 4:
            raise TraceParseError(line_no, f"expected 4 columns, got {len(cols)}")
        try:
            seq = int(cols[0])
        except ValueError:
            raise TraceParseError(line_no, f"bad frame sequence {cols[0]!r}") from None
        ftype = cols[1].upper()
        if ftype not in FRAME_TYPES:
            raise TraceParseError(line_no, f"unknown frame type {cols[1]!r}")
        try:
            display = float(cols[2])
        except ValueError:
            raise TraceParseError(line_no, f"bad display time {cols[2]!r}") from None
        try:
            size = int(cols[3])
        except ValueError:
            raise TraceParseError(line_no, f"bad frame size {cols[3]!r}") from None
        if size <= 0:
            raise TraceParseError(line_no, f"frame size must be positive, got {size}")
        if seq < 0:
            raise TraceParseError(line_no, f"frame sequence must be >= 0, got {seq}")
        records.append(FrameRecord(seq, ftype, display, size))
    if not records:
        raise TraceParseError(0, "trace contains no frames")
    records.sort(key=lambda r: r.seq)
    return VideoTrace(tuple(records), frame_interval_ns)


def load_trace(path, frame_interval_ns: int = DEFAULT_FRAME_INTERVAL_NS) -> VideoTrace:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_trace(fh, frame_interval_ns)


def serialize_trace(trace: VideoTrace) -> str:
    """Inverse of parse_trace: parse(serialize(t)) == t."""
    lines = []
    for r in trace.records:
        display = f"{r.display_time_ms:g}"
        lines.append(f"{r.seq} {r.frame_type} {display} {r.size_bytes}")
    return "\n".join(lines) + "\n"


def trace_stats(trace: VideoTrace) -> TraceStats:
    """Mean/peak frame size and bit rate; per-frame bit rate is the frame's
    size spread over one frame interval."""
    sizes = trace.sizes()
    mean_size = sum(sizes) / len(sizes)
    peak_size = max(sizes)
    interval_s = trace.frame_interval_ns / 1e9
    mean_rate = mean_size * 8 / interval_s
    peak_rate = peak_size * 8 / interval_s
    return TraceStats(mean_size, peak_size, mean_rate, peak_rate, peak_rate / mean_rate)


def arrivals(trace: VideoTrace, start_ns: int) -> list[tuple[int, int, int]]:
    """(timestamp_ns, size_bytes, seq) per frame: frame k in coding order
    arrives at start + k * frame_interval. Display times are ignored."""
    if start_ns < 0:
        raise ValueError("start must be >= 0")
    return [(start_ns + k * trace.frame_interval_ns, r.size_bytes, r.seq)
            for k, r in enumerate(trace.records)]


def synth_sizes(gop_pattern: str, base_sizes: tuple[int, int, int], jitter: float,
                n_frames: int, rng_seed: int) -> list[int]:
    """Frame sizes of a deterministic GoP-structured VBR stream.

    base_sizes is (I, P, B) in bytes. Frame k takes its type from the pattern
    cyclically and its size from base * (1 + u*jitter) with u uniform in
    [-1, 1] from a generator seeded with rng_seed, rounded to whole bytes and
    floored at 1.
    """
    if not gop_pattern:
        raise ValueError("GoP pattern must be non-empty")
    pattern = gop_pattern.upper()
    bad = set(pattern) - set(FRAME_TYPES)
    if bad:
        raise ValueError(f"invalid GoP pattern characters: {sorted(bad)}")
    if not 0 <= jitter < 1:
        raise ValueError("jitter must be in [0, 1)")
    if n_frames <= 0:
        raise ValueError("n_frames must be positive")
    base = dict(zip(FRAME_TYPES, base_sizes))
    if any(b <= 0 for b in base.values()):
        raise ValueError("base sizes must be positive")
    bases = [base[ftype] for ftype in pattern]
    period = len(bases)
    # -1.0 + 2.0 * random() is exactly what random.uniform(-1.0, 1.0) returns.
    rand = random.Random(rng_seed).random
    return [max(1, round(bases[k % period] * (1.0 + (-1.0 + 2.0 * rand()) * jitter)))
            for k in range(n_frames)]


def synth_trace(gop_pattern: str, base_sizes: tuple[int, int, int], jitter: float,
                n_frames: int, rng_seed: int,
                frame_interval_ns: int = DEFAULT_FRAME_INTERVAL_NS) -> VideoTrace:
    """synth_sizes as a VideoTrace: frame k is seq k, displayed at
    k * frame interval."""
    sizes = synth_sizes(gop_pattern, base_sizes, jitter, n_frames, rng_seed)
    pattern = gop_pattern.upper()
    interval_ms = frame_interval_ns / NS_PER_MS
    return VideoTrace(tuple(FrameRecord(k, pattern[k % len(pattern)], k * interval_ms, size)
                            for k, size in enumerate(sizes)), frame_interval_ns)


def stats_csv_row(name: str, stats: TraceStats) -> str:
    """One CSV row matching the trace-stats output contract."""
    return (f"{name},{stats.mean_size_bytes:.2f},{stats.peak_size_bytes},"
            f"{stats.mean_bit_rate_bps:.1f},{stats.peak_bit_rate_bps:.1f},"
            f"{stats.peak_to_mean:.4f}")


STATS_CSV_HEADER = ("trace,mean_size_bytes,peak_size_bytes,"
                    "mean_bit_rate_bps,peak_bit_rate_bps,peak_to_mean")
