"""Deterministic discrete-event simulation of the HCCA polling loop.

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
  fixed interval. A CAP sees every frame generated up to the instant it
  fell due, so frames generated while a CAP is under way become pollable
  only from the next CAP.
* Packet logs are columns: per flow, one receive time (or None for a lost
  frame) per sent frame. Generation times, sizes and sequence numbers come
  from the station's schedule, and per-packet records are only built on
  request.

All bookkeeping is in integer nanoseconds; runs are bitwise reproducible
for a fixed (scenario, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from . import phy as phylib
from .config import ScenarioConfig, check_run_size
from .phy import NS_PER_S
from .sched import AdmissionState, admit, assign_si, min_msi, reference_txop
from .traffic import load_trace, synth_sizes

BEACON_FRAME_BYTES = 60       # management frame, sent at basic rate
QS_UNIT_BYTES = 256           # queue-size field granularity (8-bit field)
QS_MAX_UNITS = 254
GOP_ROTATE_STEP = 5           # per-station GoP phase shift, coprime with 12


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


@dataclass
class FlowTally:
    generated: int = 0
    delivered: int = 0
    lost: int = 0
    queued_end: int = 0
    delivered_bytes: int = 0

    def conserved(self) -> bool:
        return self.generated == self.delivered + self.lost + self.queued_end


@dataclass(frozen=True)
class FlowLog:
    """One flow's packet log as columns. Sent frame k was generated at
    start_ns + k * interval_ns with sequence number seqs[k] and size
    sizes[k]; recv_ns[k] is its receive time, None when it was lost."""

    flow: int
    start_ns: int
    interval_ns: int
    seqs: Sequence[int]
    sizes: list
    recv_ns: list

    def gen_ns(self) -> range:
        return range(self.start_ns, self.start_ns + len(self.recv_ns) * self.interval_ns,
                     self.interval_ns)

    def rows(self):
        """(seq, gen_ns, recv_ns, size_bytes) per sent frame."""
        return zip(self.seqs, self.gen_ns(), self.recv_ns, self.sizes)

    def delays_ns(self) -> list[int]:
        return [recv - gen for gen, recv in zip(self.gen_ns(), self.recv_ns)
                if recv is not None]


@dataclass
class SimReport:
    scheduler: str
    stations: int
    quality: str
    seed: int
    si_ns: int
    divisor: int
    beacon_interval_ns: int
    duration_ns: int
    traffic_start_ns: int
    loss_p: float
    qs_exact: bool
    overhead_mode: str
    throughput_window: str
    logs: dict = field(default_factory=dict)       # flow -> FlowLog
    polls: list = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    flows: dict = field(default_factory=dict)      # flow -> FlowTally
    admission_notes: list = field(default_factory=list)
    traffic_notes: list = field(default_factory=list)

    PACKET_CSV_HEADER = "flow,seq,gen_ts_ns,recv_ts_ns,size_bytes,lost"

    @property
    def packets(self) -> list[PacketRecord]:
        """Per-packet records in (flow, gen_ns) order, built from the logs
        on every access."""
        return [PacketRecord(log.flow, seq, gen, recv, size, recv is None)
                for log in self.logs.values() for seq, gen, recv, size in log.rows()]

    def packets_csv(self) -> str:
        lines = [self.PACKET_CSV_HEADER]
        for log in self.logs.values():
            flow = log.flow
            lines += [f"{flow},{seq},{gen},{recv},{size},0" if recv is not None
                      else f"{flow},{seq},{gen},,{size},1"
                      for seq, gen, recv, size in log.rows()]
        return "\n".join(lines) + "\n"

    def conservation_ok(self) -> bool:
        return all(t.conserved() for t in self.flows.values())

    def active_window_ns(self) -> int:
        if self.throughput_window == "full":
            return self.duration_ns
        return max(0, self.duration_ns - self.traffic_start_ns)


class _Station:
    """One QSTA plus the AP-side mirror of its feedback state.

    The arrival schedule is columnar, in coding order: frame k has size
    sizes[k] and sequence number seqs[k] and is generated at
    start + k * interval; the n frames generated before the run ends are
    listed. next_tx splits sent frames [0:next_tx) from the rest, and a CAP
    that fell due at t_cap sees frames [0:(t_cap - start) // interval + 1).
    A prerecorded source knows its own future, so the queue-size report
    always names sizes[next_tx] even when the queue is momentarily empty.
    recv_ns logs one receive time per sent frame, None for a lost one.

    The station enters the polling list at start (its traffic start, when
    the stream is set up); CAPs before that skip it entirely.
    """

    __slots__ = ("flow", "tspec", "start", "interval", "n", "sizes", "seqs",
                 "next_tx", "recv_ns", "ref_txop_ns", "feedback_valid", "reported_bytes")

    def __init__(self, flow, tspec, start, interval, sizes, seqs):
        self.flow = flow
        self.tspec = tspec
        self.start = start
        self.interval = interval
        self.n = len(sizes)
        self.sizes = sizes
        self.seqs = seqs
        self.next_tx = 0
        self.recv_ns = []
        self.ref_txop_ns = 0
        self.feedback_valid = False   # no data frame received yet
        self.reported_bytes = 0


def _rotate(pattern: str, steps: int) -> str:
    if not pattern:
        return pattern
    r = steps % len(pattern)
    return pattern[r:] + pattern[:r]


def _build_stations(cfg: ScenarioConfig) -> list[_Station]:
    check_run_size(cfg)
    stations = []
    dur = cfg.duration_ns
    for i, spec in enumerate(cfg.station_list()):
        tc = spec.traffic
        start_ns = cfg.traffic_start_ns + i * int(round(tc.stagger_ms * phylib.NS_PER_MS))
        interval = tc.frame_interval_ns
        n = max(0, -(-(dur - start_ns) // interval))   # frames generated before dur
        if tc.kind == "trace":
            records = load_trace(tc.path, interval).records[:n]
            sizes = [r.size_bytes for r in records]
            seqs = [r.seq for r in records]
        else:
            pattern = _rotate(tc.pattern, GOP_ROTATE_STEP * i) if tc.rotate_gop else tc.pattern
            base_seed = cfg.seed if tc.seed is None else tc.seed
            sizes = synth_sizes(pattern, tc.base_sizes(), tc.jitter, n,
                                base_seed + i) if n else []
            seqs = range(n)
        stations.append(_Station(i, spec.tspec, start_ns, interval, sizes, seqs))
    return stations


def _oversize_notes(stations) -> list[str]:
    """One note per station whose largest frame exceeds its TSPEC maximum
    MSDU size: grants sized from the TSPEC may never fit such a frame, and
    the station then sends null frames while the frame waits."""
    notes = []
    for st in stations:
        biggest = max(st.sizes, default=0)
        if biggest > st.tspec.max_msdu_bytes:
            notes.append(f"flow {st.flow}: largest frame is {biggest} B, above "
                         f"tspec.max_msdu_bytes {st.tspec.max_msdu_bytes} B; grants "
                         f"sized from the TSPEC may never fit it")
    return notes


class Simulation:
    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.phy = cfg.phy
        self.stations = _build_stations(cfg)
        self.traffic_notes = _oversize_notes(self.stations)
        self.si_ns, self.divisor = assign_si(
            cfg.beacon_interval_ns, min_msi([s.tspec for s in self.stations]))
        self.admission_notes: list[str] = []
        for st in self.stations:
            st.ref_txop_ns = reference_txop(st.tspec, self.si_ns, self.phy,
                                            cfg.overhead_mode)
        self._run_admission()

    def _run_admission(self):
        if self.cfg.admission != "on":
            return
        state = AdmissionState(self.cfg.beacon_interval_ns, 0)
        rejected = []
        for st in self.stations:
            decision = admit(state, st.tspec, self.phy,
                             self.cfg.overhead_mode, flow_id=st.flow)
            if decision.accepted:
                state = decision.state
            else:
                rejected.append((st.flow, decision.reason))
        for flow, reason in rejected:
            self.admission_notes.append(f"flow {flow} rejected: {reason}")
        if rejected and self.cfg.on_reject == "abort":
            flow, reason = rejected[0]
            raise SimulationError(
                f"admission control rejected flow {flow} ({reason}); "
                f"set on_reject: run or admission: off to simulate anyway")

    def _cap_boundary(self, j: int) -> int:
        # j-th SI boundary; re-anchored at each beacon so a non-dividing
        # divisor never drifts.
        beacon_ns = self.cfg.beacon_interval_ns
        k, r = divmod(j, self.divisor)
        return k * beacon_ns + (r * beacon_ns) // self.divisor

    def run(self) -> SimReport:
        cfg, p = self.cfg, self.phy
        dur, beacon_ns, si_ns = cfg.duration_ns, cfg.beacon_interval_ns, self.si_ns
        adaptive, exact, loss_p = cfg.scheduler == "adaptive", cfg.qs_exact, cfg.loss_p
        record_polls, polls = cfg.record_polls, []
        draw = random.Random(cfg.seed).random

        # PHY and grant constants, once per run. Frame air times and the
        # adaptive and minimal grants below expand phylib.data_tx_time and
        # sched.adaptive_txop / minimal_txop with them, writing
        # ceil(bits * 1e9 / rate) as -(-bits * 1e9 // rate).
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
        polled = [(st, st.tspec.phys_rate_bps, st.sizes, st.recv_ns) for st in self.stations]

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
            t = max(t_cap, busy_until)
            grant_sum = 0
            overran = False
            for st, phys_rate, sizes, log in polled:
                if t >= dur:
                    break
                start = st.start
                if t < start:
                    continue  # stream not set up yet; not on the polling list
                n_frames = st.n
                # Frames generated by t_cap; <= 0 while the CAP fell due
                # before the stream started.
                arrived = min(n_frames, (t_cap - start) // st.interval + 1)

                if not adaptive:
                    grant, branch = st.ref_txop_ns, "reference"
                    n_reference += 1
                elif not st.feedback_valid:
                    grant, branch = st.ref_txop_ns, "fallback"
                    n_fallback += 1
                elif st.reported_bytes:
                    grant = txop_o1 - (-st.reported_bytes * bit_ns) // phys_rate
                    branch = "adaptive"
                    n_adaptive += 1
                else:
                    grant, branch = minimal_grant, "minimal"
                    n_minimal += 1
                grant_sum += grant
                if grant_sum > si_ns and not overran:
                    overran = True
                    n_overruns += 1

                # Poll + TXOP: frames go out while the whole exchange fits
                # the grant; the AP decodes the piggybacked next-frame size
                # from every frame it receives.
                budget_end = t + grant
                tx = t + poll_lead
                first = nt = st.next_tx
                received = False
                while nt < arrived:
                    data_end = tx + phy_hdr - (neg_mac_num - sizes[nt] * bit_ns) // data_rate
                    if data_end + ack_ifs > budget_end or data_end > dur:
                        break
                    nt += 1
                    if loss_p > 0 and draw() < loss_p:
                        log.append(None)
                    else:
                        log.append(data_end)
                        received, reported_at = True, nt
                    tx = data_end + ack_ifs
                st.next_tx = nt
                null_end = tx + null_air
                if nt == first and null_end + ack_ifs <= budget_end and null_end <= dur:
                    # Nothing sent (empty queue, or head frame larger than the
                    # grant): one null data frame keeps the feedback loop alive.
                    n_null += 1
                    if not (loss_p > 0 and draw() < loss_p):
                        received, reported_at = True, nt
                    tx = null_end + ack_ifs
                st.feedback_valid = received
                if received:
                    # Each received frame reports the frame queued behind it;
                    # the last one received sets the next grant.
                    next_size = sizes[reported_at] if reported_at < n_frames else 0
                    st.reported_bytes = decode_qs(encode_qs(next_size, exact), exact)
                if record_polls:
                    polls.append(PollRecord(st.flow, t, grant, tx - t, branch, nt - first))
                t += grant
            # CAPs serialize on the medium: a late-running CAP pushes the next
            # one past its nominal SI boundary (back-to-back rounds under
            # overload, grid-locked polling otherwise).
            busy_until = t
            j += 1
            t_cap = max(self._cap_boundary(j), t)
        if next_beacon < dur:
            n_beacons += -(-(dur - next_beacon) // beacon_ns)

        # Each flow sends its frames in arrival order, so its log lines up
        # with the head of its schedule. The tallies count the logs; the
        # backlog comes from the send cursor, so conservation checks one
        # against the other.
        logs, flows = {}, {}
        for st in self.stations:
            log = st.recv_ns
            sent = len(log)
            sizes = st.sizes[:sent]
            lost = log.count(None)
            logs[st.flow] = FlowLog(st.flow, st.start, st.interval, st.seqs[:sent],
                                    sizes, log)
            flows[st.flow] = FlowTally(
                generated=st.n, delivered=sent - lost, lost=lost,
                queued_end=st.n - st.next_tx,
                delivered_bytes=sum(s for s, r in zip(sizes, log) if r is not None))
        counters = Counters(
            beacons=n_beacons, caps=n_caps, overruns=n_overruns,
            polls_reference=n_reference, polls_adaptive=n_adaptive,
            polls_fallback=n_fallback, polls_minimal=n_minimal,
            data_frames=sum(len(log.recv_ns) for log in logs.values()),
            null_frames=n_null, lost_frames=sum(t.lost for t in flows.values()))
        report = SimReport(
            scheduler=cfg.scheduler, stations=len(self.stations),
            quality=cfg.quality, seed=cfg.seed, si_ns=si_ns,
            divisor=self.divisor, beacon_interval_ns=beacon_ns,
            duration_ns=dur, traffic_start_ns=cfg.traffic_start_ns,
            loss_p=loss_p, qs_exact=exact,
            overhead_mode=cfg.overhead_mode,
            throughput_window=cfg.throughput_window,
            logs=logs, polls=polls, counters=counters, flows=flows,
            admission_notes=self.admission_notes, traffic_notes=self.traffic_notes)
        if not report.conservation_ok():
            raise SimulationError("packet conservation violated (internal error)")
        return report


def run(cfg: ScenarioConfig) -> SimReport:
    """Simulate one scenario and return its report."""
    return Simulation(cfg).run()
