"""Reference engine for the tests: the HCCA polling loop written as a
discrete-event simulation, independently of hccasim.engine.

It is the specification that hccasim.engine.Simulation.run is checked
against (tests/test_oracle.py). Where the library runs one loop over SI
boundaries with per-run constants and gcd-reduced rate fractions, this
engine keeps an event heap and computes every air time and grant through
the unreduced formulas: phy.data_tx_time, sched.adaptive_txop,
sched.reference_txop and, held here because no library code needs them,
encode_qs, decode_qs and minimal_txop. It keeps its own per-flow tallies
and raises on a conservation violation at the end of a run.

One CAP runs at every SI boundary. The HC polls the active stations in
admission (FIFO) order; a station joins the polling list when its traffic
stream starts. Each poll grants a TXOP from the mean TSPEC (reference
scheduler) or from the next-frame size the station piggybacked in the
queue-size field of its previous QoS data frame (adaptive scheduler).
A granted TXOP occupies the medium in full.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

from hccasim import phy as phylib
from hccasim.config import ScenarioConfig
from hccasim.engine import Counters, PacketRecord, PollRecord, SimulationError
from hccasim.sched import Tspec, adaptive_txop, admit, assign_si, min_msi, reference_txop
from hccasim.traffic import load_trace, synth_sizes

BEACON_FRAME_BYTES = 60       # management frame, sent at basic rate
QS_UNIT_BYTES = 256           # queue-size field granularity (8-bit field)
QS_MAX_UNITS = 254
GOP_ROTATE_STEP = 5           # per-station GoP phase shift, coprime with 12

# Event dispatch order at equal timestamps.
_PRIO_END = 0
_PRIO_ARRIVAL = 1
_PRIO_BEACON = 2
_PRIO_CAP = 3


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


def minimal_txop(t: Tspec, p: phylib.PhyParams) -> int:
    """Grant for a station that reported an empty queue: just enough for a
    null data frame so the station stays pollable and can refresh its report."""
    return phylib.txop_overhead(1, p) + phylib.data_tx_time(0, p)


@dataclass(frozen=True)
class QosDataFrame:
    """A data frame as the AP receives it: its payload (0 for a null
    frame), the queue-size field it carries and its packet's generation
    time and sequence number (-1 for a null frame)."""

    flow: int
    payload_bytes: int
    qs_field: int
    gen_ns: int
    seq: int = -1


@dataclass
class FlowTally:
    """One flow's frame counts, kept as the frames are generated, received
    and lost, and its backlog at the end of the run."""

    generated: int = 0
    delivered: int = 0
    lost: int = 0
    queued_end: int = 0
    delivered_bytes: int = 0

    def conserved(self) -> bool:
        return self.generated == self.delivered + self.lost + self.queued_end


@dataclass
class OracleReport:
    """What one oracle run produced."""

    si_ns: int
    divisor: int
    packets: list = field(default_factory=list)     # PacketRecord, (flow, gen_ns, seq) order
    polls: list = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    flows: dict = field(default_factory=dict)       # flow -> FlowTally
    admission_notes: list = field(default_factory=list)


class _Station:
    """One QSTA plus the AP-side mirror of its feedback state.

    frames is the full arrival schedule (gen_ns, size, seq) in coding order;
    indices split it into sent [0:next_tx), queued [next_tx:arrived) and
    not-yet-generated [arrived:). A prerecorded source knows its own future,
    so the queue-size report always names frames[next_tx] even when the
    queue is momentarily empty.
    """

    __slots__ = ("flow", "tspec", "frames", "active_from", "arrived", "next_tx",
                 "ref_txop_ns", "feedback_valid", "reported_bytes")

    def __init__(self, flow, tspec, frames, active_from):
        self.flow = flow
        self.tspec = tspec
        self.frames = frames
        self.active_from = active_from
        self.arrived = 0
        self.next_tx = 0
        self.ref_txop_ns = 0
        self.feedback_valid = False   # no data frame received yet
        self.reported_bytes = 0

    def queued(self) -> int:
        return self.arrived - self.next_tx

    def next_unsent_size(self) -> int:
        if self.next_tx < len(self.frames):
            return self.frames[self.next_tx][1]
        return 0


def _rotate(pattern: str, steps: int) -> str:
    r = steps % len(pattern)
    return pattern[r:] + pattern[:r]


def _build_stations(cfg: ScenarioConfig) -> list[_Station]:
    stations = []
    for i, spec in enumerate(cfg.station_list()):
        tc = spec.traffic
        start_ns = cfg.traffic_start_ns + i * tc.stagger_ns
        horizon = cfg.duration_ns - start_ns
        sized: list = []
        if tc.kind == "trace":
            trace = load_trace(tc.path)
            sized = list(zip(trace.size_bytes, trace.seqs))
        elif horizon > 0:
            n = -(-horizon // tc.frame_interval_ns)
            pattern = _rotate(tc.pattern, GOP_ROTATE_STEP * i)
            base_seed = cfg.seed if tc.seed is None else tc.seed
            sizes = synth_sizes(pattern, tc.base_sizes(), tc.jitter, n, base_seed + i)
            sized = [(size, k) for k, size in enumerate(sizes)]
        frames = [(start_ns + k * tc.frame_interval_ns, size, seq)
                  for k, (size, seq) in enumerate(sized)]
        frames = [a for a in frames if a[0] < cfg.duration_ns]
        stations.append(_Station(i, spec.tspec, frames, start_ns))
    return stations


class Simulation:
    """One scenario's event-driven run."""

    def __init__(self, cfg: ScenarioConfig):
        self.cfg = cfg
        self.phy = cfg.phy
        self.stations = _build_stations(cfg)
        self.si_ns, self.divisor = assign_si(
            cfg.beacon_interval_ns, min_msi([s.tspec for s in self.stations]))
        self.counters = Counters()
        self.packets: list[PacketRecord] = []
        self.polls: list[PollRecord] = []
        self.admission_notes: list[str] = []
        self.rng = random.Random(cfg.seed)
        self.busy_until = 0
        self._heap: list = []
        self._evseq = 0

        p = self.phy
        self.poll_air = phylib.ctrl_tx_time(p.poll_frame_bytes, p)
        self.ack_air = phylib.ctrl_tx_time(p.ack_frame_bytes, p)
        self.beacon_air = phylib.ctrl_tx_time(BEACON_FRAME_BYTES, p)
        self.null_air = phylib.data_tx_time(0, p)

        for st in self.stations:
            st.ref_txop_ns = reference_txop(st.tspec, self.si_ns, p)

        self._run_admission()

    def _run_admission(self):
        if self.cfg.admission != "on":
            return
        verdicts = admit([st.tspec for st in self.stations],
                         self.cfg.beacon_interval_ns, self.phy)
        rejected = [(st.flow, reason) for st, reason in zip(self.stations, verdicts)
                    if reason is not None]
        for flow, reason in rejected:
            self.admission_notes.append(f"flow {flow} rejected: {reason}")
        if rejected and self.cfg.on_reject == "abort":
            flow, reason = rejected[0]
            raise SimulationError(
                f"admission control rejected flow {flow} ({reason}); "
                f"set on_reject: run or admission: off to simulate anyway")

    # -- event queue ----------------------------------------------------

    def _push(self, t, prio, kind, data=None):
        heapq.heappush(self._heap, (t, prio, self._evseq, kind, data))
        self._evseq += 1

    def _cap_boundary(self, j: int) -> int:
        # j-th SI boundary; re-anchored at each beacon so a non-dividing
        # divisor never drifts.
        beacon_ns = self.cfg.beacon_interval_ns
        k, r = divmod(j, self.divisor)
        return k * beacon_ns + (r * beacon_ns) // self.divisor

    def run(self) -> OracleReport:
        cfg = self.cfg
        dur = cfg.duration_ns
        flows = {st.flow: FlowTally() for st in self.stations}

        self._push(dur, _PRIO_END, "end")
        if dur > 0:
            self._push(0, _PRIO_BEACON, "beacon", 0)
            self._push(0, _PRIO_CAP, "cap", 0)
        for st in self.stations:
            for gen_ns, _size, _seq in st.frames:
                self._push(gen_ns, _PRIO_ARRIVAL, "arrival", st.flow)

        while self._heap:
            t, _prio, _seq, kind, data = heapq.heappop(self._heap)
            if kind == "end":
                break
            if kind == "arrival":
                st = self.stations[data]
                st.arrived += 1
                flows[st.flow].generated += 1
            elif kind == "beacon":
                start = max(t, self.busy_until)
                self.busy_until = start + self.beacon_air
                self.counters.beacons += 1
                nxt = (data + 1) * cfg.beacon_interval_ns
                if nxt < dur:
                    self._push(nxt, _PRIO_BEACON, "beacon", data + 1)
            elif kind == "cap":
                cap_end = self._cap_cycle(t, flows)
                # CAPs serialize on the medium: a late-running CAP pushes the
                # next one past its nominal SI boundary.
                nxt = max(self._cap_boundary(data + 1), cap_end)
                if nxt < dur:
                    self._push(nxt, _PRIO_CAP, "cap", data + 1)

        for st in self.stations:
            flows[st.flow].queued_end = st.queued()
        if not all(t.conserved() for t in flows.values()):
            raise SimulationError("packet conservation violated (internal error)")
        return OracleReport(
            si_ns=self.si_ns, divisor=self.divisor,
            packets=sorted(self.packets, key=lambda p: (p.flow, p.gen_ns, p.seq)),
            polls=self.polls, counters=self.counters, flows=flows,
            admission_notes=self.admission_notes)

    # -- HCCA polling ---------------------------------------------------

    def _grant_for(self, st: _Station) -> tuple[int, str]:
        if self.cfg.scheduler == "reference":
            return st.ref_txop_ns, "reference"
        if st.feedback_valid:
            if st.reported_bytes > 0:
                return adaptive_txop(st.reported_bytes, st.tspec, self.phy), "adaptive"
            return minimal_txop(st.tspec, self.phy), "minimal"
        return st.ref_txop_ns, "fallback"

    def _cap_cycle(self, t_event: int, flows: dict) -> int:
        t = max(t_event, self.busy_until)
        self.counters.caps += 1
        grant_sum = 0
        overran = False
        for st in self.stations:
            if t >= self.cfg.duration_ns:
                break
            if t < st.active_from:
                continue  # stream not set up yet; not on the polling list
            grant, branch = self._grant_for(st)
            setattr(self.counters, "polls_" + branch,
                    getattr(self.counters, "polls_" + branch) + 1)
            grant_sum += grant
            if grant_sum > self.si_ns and not overran:
                overran = True
                self.counters.overruns += 1
            used, frames_sent = self._poll_exchange(st, t, grant, flows)
            if self.cfg.record_polls:
                self.polls.append(PollRecord(st.flow, t, grant, used, branch,
                                             frames_sent))
            t += grant
        self.busy_until = max(self.busy_until, t)
        return t

    def _poll_exchange(self, st: _Station, t_poll: int, grant_ns: int,
                       flows: dict) -> tuple[int, int]:
        """Run one poll + TXOP for a station; returns (air time actually used,
        data frames sent). Feedback validity for the next SI is set from
        whether the AP received anything."""
        cfg = self.cfg
        p = self.phy
        sifs = p.sifs_ns
        budget_end = t_poll + grant_ns
        t = t_poll + self.poll_air + sifs
        sent = 0
        received_any = False
        tally = flows[st.flow]

        while st.next_tx < st.arrived:
            gen_ns, size, fseq = st.frames[st.next_tx]
            data_air = phylib.data_tx_time(size, p)
            exchange = data_air + sifs + self.ack_air + sifs
            if t + exchange > budget_end:
                break
            data_end = t + data_air
            if data_end > cfg.duration_ns:
                break
            st.next_tx += 1
            sent += 1
            qs = encode_qs(st.next_unsent_size(), cfg.qs_exact)
            frame = QosDataFrame(st.flow, size, qs, gen_ns, fseq)
            self.counters.data_frames += 1
            if self._ap_receive(st, frame, data_end, tally):
                received_any = True
            t += exchange

        if sent == 0:
            # Nothing sent (empty queue, or head frame larger than the grant):
            # one null data frame keeps the feedback loop alive.
            exchange = self.null_air + sifs + self.ack_air + sifs
            if t + exchange <= budget_end and t + self.null_air <= cfg.duration_ns:
                qs = encode_qs(st.next_unsent_size(), cfg.qs_exact)
                frame = QosDataFrame(st.flow, 0, qs, t_poll)
                self.counters.null_frames += 1
                if self._ap_receive(st, frame, t + self.null_air, tally):
                    received_any = True
                t += exchange

        st.feedback_valid = received_any
        return t - t_poll, sent

    def _ap_receive(self, st: _Station, frame: QosDataFrame, data_end: int,
                    tally: FlowTally) -> bool:
        """AP side of one data frame: Bernoulli loss draw, delivery accounting,
        and queue-size decoding. Returns True when the frame got through."""
        cfg = self.cfg
        lost = cfg.loss_p > 0 and self.rng.random() < cfg.loss_p
        if frame.payload_bytes > 0:
            if lost:
                self.counters.lost_frames += 1
                tally.lost += 1
                self.packets.append(PacketRecord(
                    frame.flow, frame.seq, frame.gen_ns, None,
                    frame.payload_bytes, True))
            else:
                tally.delivered += 1
                tally.delivered_bytes += frame.payload_bytes
                self.packets.append(PacketRecord(
                    frame.flow, frame.seq, frame.gen_ns, data_end,
                    frame.payload_bytes, False))
        if lost:
            return False
        st.reported_bytes = decode_qs(frame.qs_field, cfg.qs_exact)
        return True


def run(cfg: ScenarioConfig) -> OracleReport:
    """Simulate one scenario with the reference engine."""
    return Simulation(cfg).run()
