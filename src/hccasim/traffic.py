"""MPEG-4 video trace handling: parsing of 4-column trace files, summary
statistics, and a seeded synthetic GoP generator for tests and built-in
workloads.

Trace file format (whitespace-separated, '#' comments allowed):

    <frame_seq> <frame_type I|P|B> <display_time_ms> <frame_size_bytes>

The display-time column is preserved but never used for arrival timing:
frames arrive in coding (sequence) order at a fixed interval, 40 ms by
default. One video frame is one MSDU, whatever its size.

A VideoTrace holds its frames as columns (sequence numbers, frame types,
display times, sizes), filled by parse_trace in one pass over the lines
and sorted by sequence number only when the file is out of order.
VideoTrace.records is a derived view: it builds a fresh tuple of
FrameRecord rows on every access, so read it once when iterating it often.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import cycle, islice

from .phy import NS_PER_MS

FRAME_TYPES = ("I", "P", "B")
DEFAULT_FRAME_INTERVAL_NS = 40 * NS_PER_MS
# A run holds frame sizes, sequence numbers and times in 64-bit signed
# columns, array(COLUMN_TYPECODE); every value must be below COLUMN_LIMIT.
COLUMN_TYPECODE = "q"
COLUMN_LIMIT = 2**63


class TraceParseError(ValueError):
    """Raised for malformed trace input; carries the 1-based line number, or
    None for a fault of the whole file."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no
        self.detail = message

    def __reduce__(self):
        # Sweep workers hand exceptions back pickled.
        return type(self), (self.line_no, self.detail)


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
    """One trace as columns in coding order: frame k has sequence number
    seqs[k], type frame_types[k], display time display_ms[k] and size
    size_bytes[k]. Columns are stored as tuples."""

    seqs: tuple
    frame_types: tuple
    display_ms: tuple
    size_bytes: tuple
    frame_interval_ns: int = DEFAULT_FRAME_INTERVAL_NS

    def __post_init__(self):
        for name in ("seqs", "frame_types", "display_ms", "size_bytes"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        n = len(self.seqs)
        if not n:
            raise ValueError("trace must contain at least one frame")
        if not n == len(self.frame_types) == len(self.display_ms) == len(self.size_bytes):
            raise ValueError("trace columns must have equal lengths")
        if self.frame_interval_ns <= 0:
            raise ValueError("frame interval must be positive")
        if min(self.seqs) < 0:
            raise ValueError("seq must be >= 0")
        if not set(self.frame_types) <= set(FRAME_TYPES):
            raise ValueError(f"frame type must be one of {FRAME_TYPES}")
        if min(self.size_bytes) <= 0:
            raise ValueError("frame size must be positive")

    def __len__(self) -> int:
        return len(self.seqs)

    @property
    def records(self) -> tuple[FrameRecord, ...]:
        """Per-frame rows in coding order, built from the columns on every
        access."""
        return tuple(map(FrameRecord, self.seqs, self.frame_types, self.display_ms,
                         self.size_bytes))


@dataclass(frozen=True)
class TraceStats:
    mean_size_bytes: float
    peak_size_bytes: int
    mean_bit_rate_bps: float
    peak_bit_rate_bps: float
    peak_to_mean: float


def parse_trace(stream, frame_interval_ns: int = DEFAULT_FRAME_INTERVAL_NS) -> VideoTrace:
    """Parse a trace from an iterable of text lines. Frames come back sorted
    by ascending frame sequence regardless of input order; frames with equal
    sequence numbers keep their input order."""
    seqs, types, display, sizes = [], [], [], []
    for line_no, raw in enumerate(stream, start=1):
        if "#" in raw:
            raw = raw.partition("#")[0]
        cols = raw.split()
        if not cols:
            continue
        if len(cols) != 4:
            raise TraceParseError(line_no, f"expected 4 columns, got {len(cols)}")
        seq_col, type_col, time_col, size_col = cols
        try:
            seq = int(seq_col)
        except ValueError:
            raise TraceParseError(line_no, f"bad frame sequence {seq_col!r}") from None
        ftype = type_col.upper()
        if ftype not in FRAME_TYPES:
            raise TraceParseError(line_no, f"unknown frame type {type_col!r}")
        try:
            time_ms = float(time_col)
        except ValueError:
            raise TraceParseError(line_no, f"bad display time {time_col!r}") from None
        try:
            size = int(size_col)
        except ValueError:
            raise TraceParseError(line_no, f"bad frame size {size_col!r}") from None
        if size <= 0:
            raise TraceParseError(line_no, f"frame size must be positive, got {size}")
        if seq < 0:
            raise TraceParseError(line_no, f"frame sequence must be >= 0, got {seq}")
        if size >= COLUMN_LIMIT:
            raise TraceParseError(line_no, f"frame size must be below 2**63, got {size}")
        if seq >= COLUMN_LIMIT:
            raise TraceParseError(line_no, f"frame sequence must be below 2**63, got {seq}")
        seqs.append(seq)
        types.append(ftype)
        display.append(time_ms)
        sizes.append(size)
    if not seqs:
        raise TraceParseError(None, "trace contains no frames")
    columns = (seqs, types, display, sizes)
    if seqs != sorted(seqs):
        # A stable index sort: frames with equal seqs keep their input order.
        order = sorted(range(len(seqs)), key=seqs.__getitem__)
        columns = [[col[i] for i in order] for col in columns]
    return VideoTrace(*columns, frame_interval_ns)


def load_trace(path, frame_interval_ns: int = DEFAULT_FRAME_INTERVAL_NS) -> VideoTrace:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading BOM is not data
        return parse_trace(fh, frame_interval_ns)


def serialize_trace(trace: VideoTrace) -> str:
    """Inverse of parse_trace: parse(serialize(t)) == t."""
    return "".join(f"{seq} {ftype} {time_ms:g} {size}\n" for seq, ftype, time_ms, size
                   in zip(trace.seqs, trace.frame_types, trace.display_ms, trace.size_bytes))


def trace_stats(trace: VideoTrace) -> TraceStats:
    """Mean/peak frame size and bit rate; per-frame bit rate is the frame's
    size spread over one frame interval."""
    sizes = trace.size_bytes
    mean_size = sum(sizes) / len(sizes)
    peak_size = max(sizes)
    interval_s = trace.frame_interval_ns / 1e9
    mean_rate = mean_size * 8 / interval_s
    peak_rate = peak_size * 8 / interval_s
    return TraceStats(mean_size, peak_size, mean_rate, peak_rate, peak_rate / mean_rate)


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
    # -1.0 + 2.0 * random() is exactly what random.uniform(-1.0, 1.0) returns.
    # The product is > 0 (base >= 1, jitter < 1), so `or 1` is the floor at 1.
    rand = random.Random(rng_seed).random
    return [round(b * (1.0 + (-1.0 + 2.0 * rand()) * jitter)) or 1
            for b in islice(cycle(bases), n_frames)]


def synth_trace(gop_pattern: str, base_sizes: tuple[int, int, int], jitter: float,
                n_frames: int, rng_seed: int,
                frame_interval_ns: int = DEFAULT_FRAME_INTERVAL_NS) -> VideoTrace:
    """synth_sizes as a VideoTrace: frame k is seq k, displayed at
    k * frame interval."""
    sizes = synth_sizes(gop_pattern, base_sizes, jitter, n_frames, rng_seed)
    pattern = gop_pattern.upper()
    types = (pattern * -(-n_frames // len(pattern)))[:n_frames]
    interval_ms = frame_interval_ns / NS_PER_MS
    return VideoTrace(range(n_frames), types, [k * interval_ms for k in range(n_frames)],
                      sizes, frame_interval_ns)


def stats_csv_row(name: str, stats: TraceStats) -> str:
    """One CSV row matching the trace-stats output contract."""
    return (f"{name},{stats.mean_size_bytes:.2f},{stats.peak_size_bytes},"
            f"{stats.mean_bit_rate_bps:.1f},{stats.peak_bit_rate_bps:.1f},"
            f"{stats.peak_to_mean:.4f}")


STATS_CSV_HEADER = ("trace,mean_size_bytes,peak_size_bytes,"
                    "mean_bit_rate_bps,peak_bit_rate_bps,peak_to_mean")
