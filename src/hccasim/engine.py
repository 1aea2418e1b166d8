"""Deterministic simulation of the HCCA polling loop.

One Controlled Access Phase (CAP) runs at every service-interval (SI)
boundary. The HC polls the active stations in admission (FIFO) order; a
station joins the polling list when its traffic stream starts. Each poll
grants a TXOP computed either from mean TSPEC characteristics (reference
scheduler) or from the next-frame size the station piggybacked in the
queue-size field of its previous QoS data frame (adaptive scheduler).
Polling is timer-driven and non-work-conserving: a granted TXOP occupies
the medium in full, and the next poll goes out once the grant has elapsed
whether or not the station used all of it. Packet receive timestamps still
mark the exact end of each data frame's air time.

The run is one loop over SI boundaries, with no event queue:

* Beacons go out every beacon interval, interleaved with the CAPs. A
  beacon due at the same instant as a CAP goes first; one that falls due
  while a CAP holds the medium waits until that CAP ends.
* A CAP that runs past the next SI boundary pushes the next CAP back to
  its end (back-to-back CAPs under overload).
* Each station's arrivals are a precomputed schedule of frame sizes at a
  fixed interval, synthetic or replayed from a trace file; a trace file
  is parsed once per set-up (once per block of set-ups under
  reusing_traces(), as a sweep's cells are), and its stations share its
  columns. A CAP sees every frame generated up to the instant it fell
  due, so frames generated while a CAP is under way become pollable only
  from the next CAP.
* The AP keeps one feedback value per station, set at each poll: None
  when no frame from it was received (the next grant falls back to the
  TSPEC-based one), 0 when the last frame received reported nothing
  pending (the minimal grant), else the next-frame size that frame
  reported, in bytes (the adaptive grant for that size).
* Packet logs are columns: per flow, one receive time (LOST for a lost
  frame) per sent frame, and the ascending indices of the lost frames.
  Generation times, sizes and sequence numbers come from the station's
  schedule, and per-packet records are only built on request. Every
  per-frame column is an array('q') (a synthetic schedule's sequence
  numbers are a range), 8 bytes per value and no int object per frame. A
  run allocates each flow's receive log for every frame of its schedule,
  stores frame k's receive time at index k when it goes out, and cuts the
  log to the frames sent when the loop ends. The loss branch that stores
  LOST also appends k to the flow's lost indices, so the counts, the
  summary and the packet-log writer find the lost frames there and never
  compare a receive time with LOST again.

Building a Simulation is the one set-up: it parses the trace files,
builds the schedules, picks the SI and runs admission control (`hccasim
validate` stops there). Set-up (Simulation.stations and the schedule
arrays that stations and sweep cells share) is read-only. Simulation.run()
builds the state it changes, the send cursors, receive logs and feedback
values, so it may be called again and gives the same report. The engine
never forks.

All bookkeeping is in integer nanoseconds; runs are bitwise reproducible
for a fixed (scenario, seed). A run reduces each rate's fraction 8e9 /
rate by its gcd once, so the loop's air-time and grant arithmetic stays
in one-digit ints, CPython's fast path, and exact (Simulation.run).
"""

from __future__ import annotations

import io
import os
import random
from array import array
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import islice
from math import gcd
from operator import sub
from typing import NamedTuple, Sequence

from . import phy as phylib
from .config import ConfigError, ScenarioConfig
from .phy import NS_PER_S
from .sched import Tspec, admit, assign_si, min_msi, reference_txop
from .traffic import COLUMN_TYPECODE, load_trace, synth_sizes

BEACON_FRAME_BYTES = 60       # management frame, sent at basic rate
QS_UNIT_BYTES = 256           # queue-size field granularity (8-bit field)
QS_MAX_UNITS = 254
GOP_ROTATE_STEP = 5           # per-station GoP phase shift, coprime with 12
PACKET_CSV_CHUNK_ROWS = 4096  # rows boxed at once when a flow's columns are walked
SCHEDULE_CACHE_SIZE = 32      # synthetic schedules kept per process: a 1..32-station sweep
LOST = -1                     # receive time logged for a lost frame; real ones are >= 0
BYTE_NS = 8 * NS_PER_S        # ns per byte at 1 b/s: a byte's air time is BYTE_NS / rate

# Parsed trace columns that every set-up inside a reusing_traces() block
# shares; None outside one, where each set-up parses its own.
_shared_traces: dict | None = None


class SimulationError(RuntimeError):
    pass


def _ns_per_byte(rate_bps: int) -> tuple[int, int]:
    """A byte's air time at rate_bps, BYTE_NS / rate_bps, as the fraction
    (num, den) reduced by its gcd: ceil(n * num / den) is ceil(n * 8e9 /
    rate_bps) for every n, with smaller ints."""
    g = gcd(BYTE_NS, rate_bps)
    return BYTE_NS // g, rate_bps // g


def encode_qs(next_size_bytes: int, exact: bool) -> int:
    """Queue-size field for a pending next frame; 0 means nothing pending.
    Quantized mode reports ceil(size/256) capped at 254 units."""
    if next_size_bytes <= 0:
        return 0
    if exact:
        return next_size_bytes
    return min(QS_MAX_UNITS, -(-next_size_bytes // QS_UNIT_BYTES))


def decode_qs(qs_field: int, exact: bool) -> int:
    """Bytes the AP budgets for from a queue-size report (0 = no report)."""
    if qs_field <= 0:
        return 0
    return qs_field if exact else qs_field * QS_UNIT_BYTES


@dataclass(frozen=True)
class PacketRecord:
    """One sent frame of a flow's packet log, as SimReport.packets and
    metrics.parse_packets_csv build it; recv_ns is None for a lost frame."""

    flow: int
    seq: int
    gen_ns: int
    recv_ns: int | None
    size_bytes: int
    lost: bool


@dataclass(frozen=True)
class PollRecord:
    """One poll: when it went out, the TXOP granted, the air time the
    exchange used, the grant branch taken and the data frames sent. Kept
    only when the scenario sets record_polls."""

    flow: int
    poll_ns: int
    grant_ns: int
    used_ns: int
    branch: str             # reference | adaptive | minimal | fallback
    frames_sent: int


@dataclass
class Counters:
    """A run's event counts: beacons, CAPs and CAPs that overran their SI,
    polls by grant branch, and data, null and lost frames."""

    beacons: int = 0
    caps: int = 0
    overruns: int = 0
    polls_reference: int = 0
    polls_adaptive: int = 0
    polls_fallback: int = 0
    polls_minimal: int = 0
    data_frames: int = 0
    null_frames: int = 0
    lost_frames: int = 0


@dataclass(frozen=True)
class FlowLog:
    """One flow's packet log as columns, and its counts. seqs and sizes
    list every generated frame: frame k was generated at start_ns + k *
    interval_ns with sequence number seqs[k] and size sizes[k]. The first
    len(recv_ns) frames were sent; recv_ns is an array('q') whose entry k
    is frame k's receive time, LOST when it was lost. lost_at is an
    ascending array('q') of the lost frames' indices, the positions of
    LOST in recv_ns, recorded by the run as it stored them: the counts,
    delays_ns() and the packet-log writer read it and never scan recv_ns
    for LOST. queued_end is the station's backlog at the end of the run,
    taken from its send cursor, the same cursor the log was cut to:
    conserved() holds by construction and checks no independent count."""

    flow: int
    start_ns: int
    interval_ns: int
    seqs: Sequence[int]
    sizes: Sequence[int]
    recv_ns: array
    lost_at: array
    queued_end: int

    @property
    def generated(self) -> int:
        return len(self.sizes)

    @property
    def lost(self) -> int:
        return len(self.lost_at)

    @property
    def delivered(self) -> int:
        return len(self.recv_ns) - self.lost

    @property
    def delivered_bytes(self) -> int:
        """The received frames' sizes: the sent frames' sizes summed in C,
        less those of the lost frames."""
        return (sum(self.sizes[:len(self.recv_ns)])
                - sum(map(self.sizes.__getitem__, self.lost_at)))

    def conserved(self) -> bool:
        return self.generated == self.delivered + self.lost + self.queued_end

    def gen_ns(self) -> range:
        return range(self.start_ns, self.start_ns + len(self.recv_ns) * self.interval_ns,
                     self.interval_ns)

    def rows(self):
        """(seq, gen_ns, recv_ns, size_bytes) per sent frame; recv_ns is
        LOST for a lost frame."""
        return zip(self.seqs, self.gen_ns(), self.recv_ns, self.sizes)

    def delays_ns(self) -> array:
        """recv - gen of each received frame, in send order, as an array('q').
        The differences are C-level passes over the columns, moved
        PACKET_CSV_CHUNK_ROWS at a time: no list of every delay is held,
        and fromlist converts each value once where filling the array from
        an iterator converts it twice. A flow that lost frames then drops
        the delays at lost_at, copying the runs between them."""
        delays = map(sub, self.recv_ns, self.gen_ns())
        column = array(COLUMN_TYPECODE)
        while chunk := list(islice(delays, PACKET_CSV_CHUNK_ROWS)):
            column.fromlist(chunk)
        if not self.lost_at:
            return column
        kept, at = array(COLUMN_TYPECODE), 0
        for k in self.lost_at:
            kept += column[at:k]
            at = k + 1
        kept += column[at:]
        return kept


@dataclass
class SimReport:
    """What one run produced: the SI and divisor, each flow's FlowLog, the
    poll records, the counters and the admission and traffic notes, with
    the packet log's writers."""

    cfg: ScenarioConfig     # the scenario the run resolved and simulated
    si_ns: int
    divisor: int
    flows: dict = field(default_factory=dict)      # flow -> FlowLog
    polls: list = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    admission_notes: list = field(default_factory=list)
    traffic_notes: list = field(default_factory=list)

    PACKET_CSV_HEADER = "flow,seq,gen_ts_ns,recv_ts_ns,size_bytes,lost"

    @property
    def packets(self) -> list[PacketRecord]:
        """Per-packet records in (flow, gen_ns) order, built from the logs
        on every access."""
        return [PacketRecord(log.flow, seq, gen, None, size, True) if recv == LOST
                else PacketRecord(log.flow, seq, gen, recv, size, False)
                for log in self.flows.values() for seq, gen, recv, size in log.rows()]

    def write_packets_csv(self, fh) -> None:
        """Write the packet log CSV to the text file fh, PACKET_CSV_CHUNK_ROWS
        rows per write, so the whole log is never held as one string. A
        chunk is one printf-style % over its rows' values: the flow's row
        template repeated once per row, with the lost-row template spliced
        in at each lost frame that bisect finds in lost_at, whose %.0s
        takes the LOST receive time and prints nothing. The values fill the
        % arguments by four extended-slice assignments, one per column,
        which box each value once. A chunk's template is joined before its
        values are boxed, and the previous chunk's arguments are released
        first, so one chunk's values are held at a time."""
        fh.write(self.PACKET_CSV_HEADER + "\n")
        for log in self.flows.values():
            recv, lost_at, interval = log.recv_ns, log.lost_at, log.interval_ns
            row, lost_row = f"{log.flow},%d,%d,%d,%d,0\n", f"{log.flow},%d,%d,%.0s,%d,1\n"
            width, rows = len(row), row * PACKET_CSV_CHUNK_ROWS
            hi = 0
            for start in range(0, len(recv), PACKET_CSV_CHUNK_ROWS):
                end = min(start + PACKET_CSV_CHUNK_ROWS, len(recv))
                template, at = [], 0
                lo, hi = hi, bisect_left(lost_at, end, hi)
                for k in lost_at[lo:hi]:
                    k -= start
                    template += rows[at * width:k * width], lost_row
                    at = k + 1
                template.append(rows[at * width:(end - start) * width])
                template = "".join(template)
                values = [None] * (4 * (end - start))
                values[0::4] = log.seqs[start:end]
                values[1::4] = range(log.start_ns + start * interval,
                                     log.start_ns + end * interval, interval)
                values[2::4] = recv[start:end]
                values[3::4] = log.sizes[start:end]
                values = tuple(values)      # frees the list before % builds the text
                fh.write(template % values)

    def packets_csv(self) -> str:
        """The packet log CSV as one string; write_packets_csv's text."""
        buf = io.StringIO()
        self.write_packets_csv(buf)
        return buf.getvalue()

    def conservation_ok(self) -> bool:
        return all(log.conserved() for log in self.flows.values())

    def active_window_ns(self) -> int:
        """The throughput window: from traffic start to the end of the run."""
        return max(0, self.cfg.duration_ns - self.cfg.traffic_start_ns)


class StationSchedule(NamedTuple):
    """One QSTA's arrival schedule, in coding order; read-only. Frame k has
    size sizes[k] and sequence number seqs[k] and is generated at start +
    k * interval; the frames generated before the run ends are listed.
    sizes and seqs are array('q') columns (seqs a range for a synthetic
    schedule) shared with every station and sweep cell that replays the
    same schedule. largest is kept with the columns it was taken from, so
    no set-up scans them again. The station joins the polling list at
    start, when its stream is set up; CAPs before that skip it."""

    flow: int
    tspec: Tspec
    start: int
    interval: int
    sizes: Sequence[int]
    seqs: Sequence[int]
    largest: int            # max(sizes), 0 when empty


def _rotate(pattern: str, steps: int) -> str:
    r = steps % len(pattern)
    return pattern[r:] + pattern[:r]


@lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def _synth_schedule(pattern: str, base_sizes: tuple[int, int, int], jitter: float,
                    n: int, seed: int) -> tuple[array, int]:
    """synth_sizes as an array('q'), and its largest size, built once per
    process for each key. Station i replays the same schedule in every cell
    of a sweep, so the cells share this one object rather than rebuild it;
    nothing writes to it."""
    sizes = synth_sizes(pattern, base_sizes, jitter, n, seed)
    return array(COLUMN_TYPECODE, sizes), max(sizes, default=0)


@contextmanager
def reusing_traces():
    """Within the block, each set-up reuses the trace columns that an
    earlier set-up in it parsed, so a sweep's cells parse no file its first
    set-up parsed, and a child forked inside the block inherits them.
    Leaving the block drops them: the next block, or a set-up outside any,
    reads a rewritten file again."""
    global _shared_traces
    outer, _shared_traces = _shared_traces, {}
    try:
        yield
    finally:
        _shared_traces = outer


def _build_stations(cfg: ScenarioConfig) -> list[StationSchedule]:
    """Every station's schedule, in one pass over the station list. Each
    trace file is parsed once, however its path is spelled and at whatever
    frame interval its stations replay it, and they all share the parsed
    VideoTrace's array('q') columns. A file that cannot be read, is not
    UTF-8 or is malformed is a ConfigError naming the first station that
    replays it. Nothing is kept across calls outside a reusing_traces()
    block, so a file rewritten between two runs is read again."""
    stations = []
    # (size_bytes, seqs, largest size) of each trace file, keyed by every
    # path as written and by the file's realpath (a realpath is its own
    # realpath), so realpath runs once per spelling.
    traces = {} if _shared_traces is None else _shared_traces
    dur = cfg.duration_ns
    for i, spec in enumerate(cfg.station_list()):
        tc = spec.traffic
        start_ns = cfg.traffic_start_ns + i * tc.stagger_ns
        interval = tc.frame_interval_ns
        n = max(0, -(-(dur - start_ns) // interval))   # frames generated before dur
        if tc.kind == "trace":
            if tc.path not in traces:
                try:
                    file = os.path.realpath(tc.path)
                    if file not in traces:
                        trace = load_trace(tc.path)
                        # Keep the two columns a run reads; the rest is freed now.
                        traces[file] = (trace.size_bytes, trace.seqs,
                                        max(trace.size_bytes, default=0))
                except (OSError, ValueError) as e:
                    raise ConfigError(f"stations[{i}].traffic.path", str(e)) from e
                traces[tc.path] = traces[file]
            sizes, seqs, largest = traces[tc.path]
            if n < len(sizes):
                # An array slice always copies: stations that replay the
                # whole file share its columns, and only a shorter run
                # slices them (and scans its own head for the largest).
                sizes, seqs = sizes[:n], seqs[:n]
                largest = max(sizes, default=0)
        else:
            pattern = _rotate(tc.pattern, GOP_ROTATE_STEP * i)   # GoP phase per station
            base_seed = cfg.seed if tc.seed is None else tc.seed
            sizes, largest = _synth_schedule(pattern, tc.base_sizes(), tc.jitter, n,
                                             base_seed + i) if n else (array(COLUMN_TYPECODE), 0)
            seqs = range(n)
        stations.append(StationSchedule(i, spec.tspec, start_ns, interval, sizes, seqs,
                                        largest))
    return stations


class Simulation:
    """A run's read-only set-up: the station schedules, the SI and divisor,
    and the traffic and admission notes; each run() call simulates it
    afresh. Building one raises SimulationError where admission control
    rejects a flow and on_reject is abort. It stays a class, not a
    function, because perfbench/child.py's set-up probe builds
    engine.Simulation(cfg) and traces __init__ and run apart."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.stations = _build_stations(cfg)
        # Note each station whose largest frame no TSPEC-sized grant may fit
        # (it sends null frames while it waits) or whose traffic never starts.
        dur, notes = cfg.duration_ns, []
        for st in self.stations:
            if st.largest > st.tspec.max_msdu_bytes:
                notes.append(f"flow {st.flow}: largest frame is {st.largest} B, above "
                             f"tspec.max_msdu_bytes {st.tspec.max_msdu_bytes} B; grants "
                             f"sized from the TSPEC may never fit it")
            if st.start >= dur:
                notes.append(f"flow {st.flow}: traffic starts at {st.start / NS_PER_S:g} s, "
                             f"not before the end of the run at {dur / NS_PER_S:g} s; "
                             f"it sends nothing")
        self.traffic_notes = notes
        tspecs = [s.tspec for s in self.stations]
        self.si_ns, self.divisor = assign_si(cfg.beacon_interval_ns, min_msi(tspecs))
        rejected = []
        if cfg.admission == "on":
            verdicts = admit(tspecs, cfg.beacon_interval_ns, cfg.phy)
            rejected = [(st.flow, why) for st, why in zip(self.stations, verdicts)
                        if why is not None]
        self.admission_notes = [f"flow {flow} rejected: {why}" for flow, why in rejected]
        if rejected and cfg.on_reject == "abort":
            flow, why = rejected[0]
            raise SimulationError(
                f"admission control rejected flow {flow} ({why}); "
                f"set on_reject: run or admission: off to simulate anyway")

    def run(self) -> SimReport:
        cfg, p, stations = self.cfg, self.cfg.phy, self.stations
        dur, beacon_ns = cfg.duration_ns, cfg.beacon_interval_ns
        si_ns, divisor = self.si_ns, self.divisor
        adaptive, exact, loss_p = cfg.scheduler == "adaptive", cfg.qs_exact, cfg.loss_p
        lossy = loss_p > 0
        record_polls, polls = cfg.record_polls, []
        draw = random.Random(cfg.seed).random

        # PHY and grant constants, once per run. Frame air times, the
        # adaptive and minimal grants and the queue-size report below expand
        # phylib.data_tx_time, sched.adaptive_txop / minimal_txop and
        # decode_qs(encode_qs(size)) with them. A byte's air time at a rate
        # is the fraction _ns_per_byte(rate), 8e9 / rate reduced by its gcd
        # once per run (the data rate) or per flow (its TSPEC rate, in
        # polled): 8000 / 11 at 11 Mb/s. ceil(bytes * num / den) is written
        # -(-bytes * num // den), exact for any integer rate. A frame of up
        # to 134 217 B times 8000 stays below 2**30, one CPython digit, where
        # times 8e9 it takes two, and one-digit ints take CPython's fast
        # multiply and divide: on Python 3.11 (-288000 - a*8000) // 11 took
        # 75 ns where (-288e9 - a*8e9) // 11e6 took 163 ns. A rate that
        # shares no factor with 8e9 keeps the unreduced speed. A data
        # frame's air time, its MAC header and payload plus the whole-ns PHY
        # header, is one ceiling: -(neg_hdr_num - size * air_num) // air_den.
        poll_lead = phylib.ctrl_tx_time(p.poll_frame_bytes, p) + p.sifs_ns
        ack_ifs = p.sifs_ns + phylib.ctrl_tx_time(p.ack_frame_bytes, p) + p.sifs_ns
        beacon_air = phylib.ctrl_tx_time(BEACON_FRAME_BYTES, p)
        null_air = phylib.data_tx_time(0, p)
        air_num, air_den = _ns_per_byte(p.data_rate_bps)
        neg_hdr_num = -p.mac_header_bytes * air_num - p.phy_header_ns() * air_den
        txop_o1 = phylib.txop_overhead(1, p)
        minimal_grant = txop_o1 + null_air
        qs_unit, qs_cap = QS_UNIT_BYTES, QS_MAX_UNITS * QS_UNIT_BYTES

        # The run's own state, per flow: the send cursor (frames [0:next_tx)
        # are sent), the receive log, the lost frames' indices and the AP's
        # feedback value, None before the first poll. A log is written by
        # index and cut to the cursor after the loop: storing an array item
        # converts the value once, appending converts it twice; a lost
        # frame's index is appended, as its loss is only known when drawn.
        next_tx = [0] * len(stations)
        feedback = [None] * len(stations)
        logs = [array(COLUMN_TYPECODE, [0]) * len(st.sizes) for st in stations]
        lost_ats = [array(COLUMN_TYPECODE) for _ in stations]
        polled = [(st.flow, *_ns_per_byte(st.tspec.phys_rate_bps), st.sizes, logs[st.flow],
                   lost_ats[st.flow], st.start, st.interval, len(st.sizes),
                   reference_txop(st.tspec, si_ns, p))
                  for st in stations]

        n_caps = n_overruns = n_null = 0
        n_reference = n_adaptive = n_fallback = n_minimal = 0
        busy_until = next_beacon = t_cap = 0
        while t_cap < dur:
            # A beacon due at or before this CAP goes out first, deferred
            # while the medium is still busy with the previous CAP.
            while next_beacon <= t_cap:
                busy_until = (next_beacon if next_beacon > busy_until else busy_until) + beacon_air
                next_beacon += beacon_ns
            n_caps += 1
            t = cap_start = t_cap if t_cap > busy_until else busy_until
            for (flow, grant_num, grant_den, sizes, log, lost_at, start, interval, n_frames,
                 ref_txop) in polled:
                if t >= dur:
                    break
                if t < start:
                    continue  # stream not set up yet; not on the polling list
                # Frames generated by t_cap; <= 0 while the CAP fell due
                # before the stream started.
                arrived = (t_cap - start) // interval + 1
                if arrived > n_frames:
                    arrived = n_frames

                if not adaptive:
                    grant, branch = ref_txop, "reference"
                    n_reference += 1
                elif (reported := feedback[flow]) is None:
                    grant, branch = ref_txop, "fallback"
                    n_fallback += 1
                elif reported:
                    grant = txop_o1 - (-reported * grant_num) // grant_den
                    branch = "adaptive"
                    n_adaptive += 1
                else:
                    grant, branch = minimal_grant, "minimal"
                    n_minimal += 1

                # Poll + TXOP: frames go out while the whole exchange fits
                # the grant; the AP decodes the piggybacked next-frame size
                # from every frame it receives.
                budget_end = t + grant
                tx = t + poll_lead
                first = nt = next_tx[flow]
                reported_at = None
                while nt < arrived:
                    data_end = tx - (neg_hdr_num - sizes[nt] * air_num) // air_den
                    acked = data_end + ack_ifs
                    if acked > budget_end or data_end > dur:
                        break
                    if lossy and draw() < loss_p:
                        log[nt] = LOST
                        lost_at.append(nt)
                    else:
                        log[nt] = data_end
                        reported_at = nt + 1
                    nt += 1
                    tx = acked
                next_tx[flow] = nt
                if nt == first:
                    null_end = tx + null_air
                    if null_end + ack_ifs <= budget_end and null_end <= dur:
                        # Nothing sent (empty queue, or head frame larger than
                        # the grant): one null data frame keeps the feedback
                        # loop alive.
                        n_null += 1
                        if not (lossy and draw() < loss_p):
                            reported_at = nt
                        tx = null_end + ack_ifs
                # Each received frame reports the frame queued behind it; the
                # last one received sets the next grant. A prerecorded source
                # knows its own future, so the report names that frame even
                # before it arrives. Nothing is reported past the last frame.
                # No reference grant reads the feedback, so only an adaptive
                # run keeps it.
                if adaptive:
                    if reported_at is None:
                        feedback[flow] = None
                    elif reported_at >= n_frames:
                        feedback[flow] = 0
                    elif exact:
                        feedback[flow] = sizes[reported_at]
                    else:
                        reported = -(-sizes[reported_at] // qs_unit) * qs_unit
                        feedback[flow] = reported if reported < qs_cap else qs_cap
                if record_polls:
                    polls.append(PollRecord(flow, t, grant, tx - t, branch, nt - first))
                t += grant
            # t grew by exactly the grants made, none of them negative, so
            # the CAP ran past its SI if their sum did.
            if t - cap_start > si_ns:
                n_overruns += 1
            # CAPs serialize on the medium: a late-running CAP pushes the next
            # one past its nominal SI boundary (back-to-back rounds under
            # overload, grid-locked polling otherwise).
            busy_until = t
            # The n_caps-th SI boundary, re-anchored at each beacon so a
            # non-dividing divisor never drifts.
            k, r = divmod(n_caps, divisor)
            t_cap = k * beacon_ns + (r * beacon_ns) // divisor
            if t_cap < t:
                t_cap = t
        for log, nt in zip(logs, next_tx):
            del log[nt:]

        flows = {st.flow: FlowLog(st.flow, st.start, st.interval, st.seqs, st.sizes,
                                  logs[st.flow], lost_ats[st.flow],
                                  len(st.sizes) - next_tx[st.flow])
                 for st in stations}
        counters = Counters(
            # Every beacon instant before the end counts, deferred or not.
            beacons=-(-dur // beacon_ns), caps=n_caps, overruns=n_overruns,
            polls_reference=n_reference, polls_adaptive=n_adaptive,
            polls_fallback=n_fallback, polls_minimal=n_minimal,
            data_frames=sum(len(log.recv_ns) for log in flows.values()),
            null_frames=n_null, lost_frames=sum(log.lost for log in flows.values()))
        return SimReport(
            cfg=cfg, si_ns=si_ns, divisor=divisor, flows=flows, polls=polls,
            counters=counters,
            admission_notes=list(self.admission_notes),
            traffic_notes=list(self.traffic_notes))


def run(cfg: ScenarioConfig) -> SimReport:
    """Simulate one scenario and return its report."""
    return Simulation(cfg).run()
