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
  is parsed once per set-up, and its stations share its columns. A CAP
  sees every frame generated up to the instant it fell due, so frames
  generated while a CAP is under way become pollable only from the next
  CAP.
* The AP keeps one feedback value per station, set at each poll: None
  when no frame from it was received (the next grant falls back to the
  TSPEC-based one), 0 when the last frame received reported nothing
  pending (the minimal grant), else the next-frame size that frame
  reported, in bytes (the adaptive grant for that size).
* Packet logs are columns: per flow, one receive time (LOST for a lost
  frame) per sent frame. Generation times, sizes and sequence numbers come
  from the station's schedule, and per-packet records are only built on
  request. Every per-frame column is an array('q') (a synthetic
  schedule's sequence numbers are a range), 8 bytes per value and no int
  object per frame. A run allocates each flow's receive log for every
  frame of its schedule, stores frame k's receive time at index k when it
  goes out, and cuts the log to the frames sent when the loop ends.

Building a Simulation is the one set-up: it parses the trace files,
builds the schedules, picks the SI and runs admission control (`hccasim
validate` stops there). Set-up (Simulation.stations and the schedule
arrays that stations and sweep cells share) is read-only. Simulation.run()
builds the state it changes, the send cursors, receive logs and feedback
values, so it may be called again and gives the same report. The engine
never forks.

All bookkeeping is in integer nanoseconds; runs are bitwise reproducible
for a fixed (scenario, seed).
"""

from __future__ import annotations

import io
import os
import random
from array import array
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import compress, islice, repeat
from operator import ne
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


class SimulationError(RuntimeError):
    pass


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
    flow: int
    seq: int
    gen_ns: int
    recv_ns: int | None
    size_bytes: int
    lost: bool


@dataclass(frozen=True)
class PollRecord:
    flow: int
    poll_ns: int
    grant_ns: int
    used_ns: int
    branch: str             # reference | adaptive | minimal | fallback
    frames_sent: int


@dataclass
class Counters:
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
    is frame k's receive time, LOST when it was lost. queued_end is the
    station's backlog at the end of the run, taken from its send cursor,
    the same cursor the log was cut to: conserved() holds by construction
    and checks no independent count."""

    flow: int
    start_ns: int
    interval_ns: int
    seqs: Sequence[int]
    sizes: Sequence[int]
    recv_ns: array
    queued_end: int

    @property
    def generated(self) -> int:
        return len(self.sizes)

    @cached_property
    def lost(self) -> int:
        # Counted once: array.count boxes every element, and lost is read
        # for the run's counters, its summary and conserved().
        return self.recv_ns.count(LOST)

    @property
    def delivered(self) -> int:
        return len(self.recv_ns) - self.lost

    @property
    def delivered_bytes(self) -> int:
        # The mask and the sum run in C: the received frames' sizes.
        return sum(compress(self.sizes, map(ne, self.recv_ns, repeat(LOST))))

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
        It is filled PACKET_CSV_CHUNK_ROWS values at a time, so no list of every
        delay is held; a comprehension per chunk is faster than filling the
        array from a map."""
        delays, pairs = array(COLUMN_TYPECODE), zip(self.gen_ns(), self.recv_ns)
        for _ in range(0, len(self.recv_ns), PACKET_CSV_CHUNK_ROWS):
            delays.fromlist([recv - gen for gen, recv in islice(pairs, PACKET_CSV_CHUNK_ROWS)
                             if recv != LOST])
        return delays


@dataclass
class SimReport:
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
        rows per write, so the whole log is never held as one string."""
        fh.write(self.PACKET_CSV_HEADER + "\n")
        for log in self.flows.values():
            flow, rows = log.flow, log.rows()
            for _ in range(0, len(log.recv_ns), PACKET_CSV_CHUNK_ROWS):
                fh.write("".join([f"{flow},{seq},{gen},{recv},{size},0\n" if recv != LOST
                                  else f"{flow},{seq},{gen},,{size},1\n"
                                  for seq, gen, recv, size
                                  in islice(rows, PACKET_CSV_CHUNK_ROWS)]))

    def packets_csv(self) -> str:
        """The packet log CSV as one string; write_packets_csv's text."""
        buf = io.StringIO()
        self.write_packets_csv(buf)
        return buf.getvalue()

    def conservation_ok(self) -> bool:
        return all(log.conserved() for log in self.flows.values())

    def active_window_ns(self) -> int:
        cfg = self.cfg
        if cfg.throughput_window == "full":
            return cfg.duration_ns
        return max(0, cfg.duration_ns - cfg.traffic_start_ns)


class StationSchedule(NamedTuple):
    """One QSTA's arrival schedule, in coding order; read-only. Frame k has
    size sizes[k] and sequence number seqs[k] and is generated at start +
    k * interval; the frames generated before the run ends are listed.
    sizes and seqs are array('q') columns (seqs a range for a synthetic
    schedule) shared with every station and sweep cell that replays the
    same schedule. The station joins the polling list at start, when its
    stream is set up; CAPs before that skip it."""

    flow: int
    tspec: Tspec
    start: int
    interval: int
    sizes: Sequence[int]
    seqs: Sequence[int]


def _rotate(pattern: str, steps: int) -> str:
    r = steps % len(pattern)
    return pattern[r:] + pattern[:r]


@lru_cache(maxsize=SCHEDULE_CACHE_SIZE)
def _synth_schedule(pattern: str, base_sizes: tuple[int, int, int], jitter: float,
                    n: int, seed: int) -> array:
    """synth_sizes as an array('q'), built once per process for each key.
    Station i replays the same schedule in every cell of a sweep, so the
    cells share this one object rather than rebuild it; nothing writes
    to it."""
    return array(COLUMN_TYPECODE, synth_sizes(pattern, base_sizes, jitter, n, seed))


def _build_stations(cfg: ScenarioConfig) -> list[StationSchedule]:
    """Every station's schedule, in one pass over the station list. Each
    trace file is parsed once, however its path is spelled and at whatever
    frame interval its stations replay it, and they all share the parsed
    VideoTrace's array('q') columns. A file that cannot be read, is not
    UTF-8 or is malformed is a ConfigError naming the first station that
    replays it. Nothing is kept across calls, so a file rewritten between
    two runs is read again."""
    stations = []
    # (size_bytes, seqs) of each trace file, keyed by every path as written
    # and by the file's realpath (a realpath is its own realpath), so
    # realpath runs once per spelling.
    traces = {}
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
                        traces[file] = trace.size_bytes, trace.seqs
                except (OSError, ValueError) as e:
                    raise ConfigError(f"stations[{i}].traffic.path", str(e)) from e
                traces[tc.path] = traces[file]
            # An array slice always copies: stations that replay the whole
            # file share its columns, and only a shorter run slices them.
            sizes, seqs = (column if n >= len(column) else column[:n]
                           for column in traces[tc.path])
        else:
            pattern = _rotate(tc.pattern, GOP_ROTATE_STEP * i) if tc.rotate_gop else tc.pattern
            base_seed = cfg.seed if tc.seed is None else tc.seed
            sizes = _synth_schedule(pattern, tc.base_sizes(), tc.jitter, n,
                                    base_seed + i) if n else array(COLUMN_TYPECODE)
            seqs = range(n)
        stations.append(StationSchedule(i, spec.tspec, start_ns, interval, sizes, seqs))
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
            biggest = max(st.sizes, default=0)
            if biggest > st.tspec.max_msdu_bytes:
                notes.append(f"flow {st.flow}: largest frame is {biggest} B, above "
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
            verdicts = admit(tspecs, cfg.beacon_interval_ns, cfg.phy, cfg.overhead_mode)
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
        # decode_qs(encode_qs(size)) with them, writing ceil(bits * 1e9 /
        # rate) as -(-bits * 1e9 // rate).
        poll_lead = phylib.ctrl_tx_time(p.poll_frame_bytes, p) + p.sifs_ns
        ack_ifs = p.sifs_ns + phylib.ctrl_tx_time(p.ack_frame_bytes, p) + p.sifs_ns
        beacon_air = phylib.ctrl_tx_time(BEACON_FRAME_BYTES, p)
        null_air = phylib.data_tx_time(0, p)
        phy_hdr = p.phy_header_ns()
        bit_ns = 8 * NS_PER_S
        neg_mac_num = -p.mac_header_bytes * bit_ns
        data_rate = p.data_rate_bps
        txop_o1 = phylib.txop_overhead(1, p)
        minimal_grant = txop_o1 + null_air
        qs_unit, qs_cap = QS_UNIT_BYTES, QS_MAX_UNITS * QS_UNIT_BYTES

        # The run's own state, per flow: the send cursor (frames [0:next_tx)
        # are sent), the receive log and the AP's feedback value, None
        # before the first poll. A log is written by index and cut to the
        # cursor after the loop: storing an array item converts the value
        # once, appending converts it twice.
        next_tx = [0] * len(stations)
        feedback = [None] * len(stations)
        logs = [array(COLUMN_TYPECODE, [0]) * len(st.sizes) for st in stations]
        polled = [(st.flow, st.tspec.phys_rate_bps, st.sizes, logs[st.flow], st.start,
                   st.interval, len(st.sizes),
                   reference_txop(st.tspec, si_ns, p, cfg.overhead_mode))
                  for st in stations]

        n_beacons = n_caps = n_overruns = n_null = 0
        n_reference = n_adaptive = n_fallback = n_minimal = 0
        busy_until = next_beacon = j = t_cap = 0
        while t_cap < dur:
            # A beacon due at or before this CAP goes out first, deferred
            # while the medium is still busy with the previous CAP.
            while next_beacon <= t_cap:
                busy_until = max(next_beacon, busy_until) + beacon_air
                n_beacons += 1
                next_beacon += beacon_ns
            n_caps += 1
            t = cap_start = max(t_cap, busy_until)
            for flow, phys_rate, sizes, log, start, interval, n_frames, ref_txop in polled:
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
                    grant = txop_o1 - (-reported * bit_ns) // phys_rate
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
                    data_end = tx + phy_hdr - (neg_mac_num - sizes[nt] * bit_ns) // data_rate
                    if data_end + ack_ifs > budget_end or data_end > dur:
                        break
                    if lossy and draw() < loss_p:
                        log[nt] = LOST
                    else:
                        log[nt] = data_end
                        reported_at = nt + 1
                    nt += 1
                    tx = data_end + ack_ifs
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
            j += 1
            # j-th SI boundary, re-anchored at each beacon so a non-dividing
            # divisor never drifts.
            k, r = divmod(j, divisor)
            t_cap = max(k * beacon_ns + (r * beacon_ns) // divisor, t)
        if next_beacon < dur:
            n_beacons += -(-(dur - next_beacon) // beacon_ns)
        for log, nt in zip(logs, next_tx):
            del log[nt:]

        flows = {st.flow: FlowLog(st.flow, st.start, st.interval, st.seqs, st.sizes,
                                  logs[st.flow], len(st.sizes) - next_tx[st.flow])
                 for st in stations}
        counters = Counters(
            beacons=n_beacons, caps=n_caps, overruns=n_overruns,
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
