"""MPEG-4 video trace handling: parsing of 4-column trace files, summary
statistics, and a seeded synthetic GoP size generator for tests and
built-in workloads.

Trace file format (whitespace-separated, '#' comments allowed):

    <frame_seq> <frame_type I|P|B> <display_time_ms> <frame_size_bytes>

Every display time is checked to be a number, but none is kept: frames
arrive in coding (sequence) order at a fixed interval, 40 ms by default.
One video frame is one MSDU, whatever its size.

A VideoTrace holds its frames as columns (sequence numbers, frame types,
sizes), sorted by sequence number only when the file is out of order.
parse_trace (and load_trace, which opens a file for it) is the one place
a trace is checked; a VideoTrace takes its columns as given. parse_trace
reads TRACE_CHUNK_LINES lines at a time and fills the columns a column at
a time (split, int, float and str.upper mapped over each chunk's fields;
each float is dropped once made); a chunk with a bad line is read again
line by line, only to report the first bad line. VideoTrace.records is a
derived view: it builds a fresh tuple of FrameRecord named tuples on
every access, so read it once when iterating it often.
"""

from __future__ import annotations

import os
import random
import stat
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import cycle, islice
from typing import NamedTuple

from .phy import NS_PER_MS

FRAME_TYPES = ("I", "P", "B")
DEFAULT_FRAME_INTERVAL_NS = 40 * NS_PER_MS
# A run holds frame sizes, sequence numbers and times in 64-bit signed
# columns, array(COLUMN_TYPECODE); every value must be below COLUMN_LIMIT.
COLUMN_TYPECODE = "q"
COLUMN_LIMIT = 2**63
# parse_trace reads a trace this many lines at a time.
TRACE_CHUNK_LINES = 4096
# parse_trace joins a chunk's lines with this; once comments are cut off,
# every '#' field of the joined text is a separator.
_LINE_SEP = " # "
_FRAME_TYPE_SET = frozenset(FRAME_TYPES)


class TraceParseError(ValueError):
    """Raised for malformed trace input; carries the 1-based line number, or
    None for a fault of the whole file."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class FrameRecord(NamedTuple):
    """One frame of a VideoTrace, as VideoTrace.records lists it."""

    seq: int
    frame_type: str
    size_bytes: int


@dataclass(frozen=True)
class VideoTrace:
    """One trace as columns in coding order: frame k has sequence number
    seqs[k], type frame_types[k] and size size_bytes[k]. seqs and
    size_bytes are array('q') columns (a run shares them), frame_types a
    tuple. A trace file's display times are not kept. The columns are
    taken as given: build a VideoTrace with parse_trace or load_trace,
    which check them. A VideoTrace is not hashable, because arrays are
    not."""

    seqs: array
    frame_types: tuple
    size_bytes: array

    __hash__ = None

    def __len__(self) -> int:
        return len(self.seqs)

    @property
    def records(self) -> tuple[FrameRecord, ...]:
        """Per-frame rows in coding order, built from the columns on every
        access."""
        return tuple(map(FrameRecord, self.seqs, self.frame_types, self.size_bytes))


@dataclass(frozen=True)
class TraceStats:
    """A trace's mean and peak frame size and bit rate, as trace_stats
    computes them, and their peak-to-mean ratio."""

    mean_size_bytes: float
    peak_size_bytes: int
    mean_bit_rate_bps: float
    peak_bit_rate_bps: float
    peak_to_mean: float


def parse_trace(stream) -> VideoTrace:
    """Parse a trace from an iterable of text lines. Frames come back sorted
    by ascending frame sequence regardless of input order; frames with equal
    sequence numbers keep their input order. Every line is checked; a bad
    line is a TraceParseError naming it."""
    seqs, sizes = array(COLUMN_TYPECODE), array(COLUMN_TYPECODE)
    types = []
    in_order = True
    lines = iter(stream)
    first_line_no = 1
    while chunk := list(islice(lines, TRACE_CHUNK_LINES)):
        try:
            in_order &= _read_chunk(chunk, seqs, types, sizes)
        except (ValueError, OverflowError):
            _refuse(chunk, first_line_no)
        first_line_no += len(chunk)
    if not seqs:
        raise TraceParseError(None, "trace contains no frames")
    if not in_order:
        # A stable index sort: frames with equal seqs keep their input order.
        order = sorted(range(len(seqs)), key=seqs.__getitem__)
        seqs, sizes = (array(COLUMN_TYPECODE, map(col.__getitem__, order))
                       for col in (seqs, sizes))
        types = map(types.__getitem__, order)
    return VideoTrace(seqs, tuple(types), sizes)


def _read_chunk(lines: list[str], seqs: array, types: list, sizes: array) -> bool:
    """Append the frames of a chunk of trace lines to the three columns, one
    column at a time, once their display times are checked; True if their
    seqs are in order and follow the seqs already read. Raises ValueError
    or OverflowError, with the columns partly extended, if any line is not
    a valid frame line."""
    text = _LINE_SEP.join(lines)
    if text.count("#") >= len(lines):       # more '#'s than separators: comments
        lines = [line.partition("#")[0] for line in lines]
        text = _LINE_SEP.join(lines)
    fields = text.split()
    if not _four_per_line(fields, len(lines)):
        lines = list(filter(str.split, lines))                # drop blank lines
        if not lines:
            return True
        fields = _LINE_SEP.join(lines).split()
        if not _four_per_line(fields, len(lines)):
            raise ValueError("a line without 4 columns")
    chunk_seqs = list(map(int, fields[0::5]))
    chunk_types = fields[1::5]
    if not _FRAME_TYPE_SET.issuperset(chunk_types):
        chunk_types = list(map(str.upper, chunk_types))
        if not _FRAME_TYPE_SET.issuperset(chunk_types):
            raise ValueError("an unknown frame type")
    chunk_sizes = list(map(int, fields[3::5]))
    ordered = sorted(chunk_seqs)          # n - 1 comparisons when in order
    if ordered[0] < 0 or min(chunk_sizes) <= 0:
        raise ValueError("a negative sequence or a non-positive size")
    in_order = ordered == chunk_seqs and (not seqs or seqs[-1] <= ordered[0])
    deque(map(float, fields[2::5]), 0)      # checked, not kept
    seqs.fromlist(chunk_seqs)                # OverflowError at 2**63 or more
    sizes.fromlist(chunk_sizes)
    types += chunk_types
    return in_order


def _four_per_line(fields: list[str], n_lines: int) -> bool:
    """True if fields, split from n_lines lines joined by _LINE_SEP, hold
    exactly four fields per line. No line holds a '#', so the n_lines - 1
    '#' fields are the separators, and each must follow its line's four."""
    return len(fields) == 5 * n_lines - 1 and fields[4::5].count("#") == n_lines - 1


def _refuse(lines: list[str], first_line_no: int):
    """Raise the TraceParseError of the first bad line in a chunk that
    _read_chunk refused; lines[0] is line first_line_no of the trace."""
    for line_no, raw in enumerate(lines, start=first_line_no):
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
        if type_col.upper() not in FRAME_TYPES:
            raise TraceParseError(line_no, f"unknown frame type {type_col!r}")
        try:
            float(time_col)
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
    raise AssertionError(f"trace lines {first_line_no}..{first_line_no + len(lines) - 1}: "
                         "refused by the column pass, but no line is bad")


def open_text_file(path, encoding: str):
    """path opened to read as text, once os.stat shows a regular file; else
    an OSError: a FIFO would block the open, a device such as /dev/zero
    would be read without end."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise OSError(f"not a regular file: {str(path)!r}")
    return open(path, "r", encoding=encoding)


def load_trace(path) -> VideoTrace:
    with open_text_file(path, "utf-8-sig") as fh:  # a leading BOM is not data
        return parse_trace(fh)


def trace_stats(trace: VideoTrace) -> TraceStats:
    """Mean/peak frame size and bit rate; per-frame bit rate is the frame's
    size spread over one DEFAULT_FRAME_INTERVAL_NS frame interval."""
    sizes = trace.size_bytes
    mean_size = sum(sizes) / len(sizes)
    peak_size = max(sizes)
    interval_s = DEFAULT_FRAME_INTERVAL_NS / 1e9
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


def stats_csv_row(name: str, stats: TraceStats) -> str:
    """One CSV row matching the trace-stats output contract."""
    return (f"{name},{stats.mean_size_bytes:.2f},{stats.peak_size_bytes},"
            f"{stats.mean_bit_rate_bps:.1f},{stats.peak_bit_rate_bps:.1f},"
            f"{stats.peak_to_mean:.4f}")


STATS_CSV_HEADER = ("trace,mean_size_bytes,peak_size_bytes,"
                    "mean_bit_rate_bps,peak_bit_rate_bps,peak_to_mean")
