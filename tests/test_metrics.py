import io
import itertools
import random
import sys
import tracemalloc
from array import array
from dataclasses import replace

import pytest

from conftest import check_flow_delays, make_scenario
from hccasim import engine, metrics
from hccasim.engine import LOST, PACKET_CSV_CHUNK_ROWS as CHUNK, FlowLog, PacketRecord


def pkt(flow=0, seq=0, gen=0, recv=None, size=1000, lost=False):
    return PacketRecord(flow, seq, gen, recv, size, lost)


def test_mean_delay_simple():
    log = [pkt(seq=0, gen=0, recv=2_000_000), pkt(seq=1, gen=0, recv=4_000_000)]
    assert metrics.mean_e2e_delay(log) == 3_000_000


def test_mean_delay_undefined_when_empty():
    assert metrics.mean_e2e_delay([]) is None
    assert metrics.mean_e2e_delay([pkt(lost=True)]) is None


def test_mean_delay_reorder_invariant():
    rng = random.Random(3)
    log = [pkt(seq=i, gen=i * 10, recv=i * 10 + rng.randrange(1, 10**6))
           for i in range(100)]
    shuffled = log[:]
    rng.shuffle(shuffled)
    assert metrics.mean_e2e_delay(log) == metrics.mean_e2e_delay(shuffled)


def test_throughput_arithmetic():
    log = [pkt(seq=i, recv=1, size=1000) for i in range(100)]
    assert metrics.aggregate_throughput(log, 10 * 10**9) == pytest.approx(80_000.0)
    assert metrics.aggregate_throughput([], 10**9) == 0.0
    with pytest.raises(ValueError):
        metrics.aggregate_throughput(log, 0)


def test_throughput_linear_in_bytes():
    base = [pkt(seq=i, recv=1, size=500) for i in range(10)]
    double = base + [pkt(flow=1, seq=i, recv=1, size=500) for i in range(10)]
    w = 5 * 10**9
    assert metrics.aggregate_throughput(double, w) == \
        pytest.approx(2 * metrics.aggregate_throughput(base, w))


def test_nearest_rank_percentile():
    vals = list(range(1, 101))
    assert metrics.nearest_rank_percentile(vals, 95) == 95
    assert metrics.nearest_rank_percentile(vals, 100) == 100
    assert metrics.nearest_rank_percentile([7], 95) == 7
    assert metrics.nearest_rank_percentile([], 95) is None


def _delay_log(flow, delays, lost_at=(), start=1_000_000, interval=40_000_000):
    """A FlowLog whose delivered frames, in order, have the given delays;
    the frames at the indices in lost_at, among len(delays) + len(lost_at)
    sent, were lost."""
    sent = len(delays) + len(lost_at)
    lost, it = set(lost_at), iter(delays)
    recv = array("q", [LOST if k in lost else start + k * interval + next(it)
                       for k in range(sent)])
    return FlowLog(flow, start, interval, range(sent), array("q", [1000] * sent), recv,
                   array("q", sorted(lost)), 0)


def _logs(rng, values):
    """values split at random points into FlowLogs, some empty, each
    losing no frame, a tenth as many as it delivers, or as many."""
    cuts = sorted(rng.randrange(len(values) + 1) for _ in range(rng.randrange(4)))
    bounds = [0] + cuts + [len(values)]
    logs = []
    for flow, (a, b) in enumerate(zip(bounds, bounds[1:])):
        lost = rng.choice([0, (b - a) // 10, b - a])
        logs.append(_delay_log(flow, values[a:b], rng.sample(range(b - a + lost), lost),
                               start=rng.randrange(10**6),
                               interval=rng.choice([1, 40_000_000])))
    return logs


SHIFT = 16   # 1 << 16 ns: a 65.5 us range of delays


@pytest.mark.parametrize("seed", range(30))
def test_top_delays_start_at_the_sorted_nearest_rank(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 3, 20, 500, 5000])
    shape = seed % 3
    if shape == 0:      # duplicates: a handful of distinct values
        pool = [rng.randrange(10**9) for _ in range(rng.randrange(1, 6))]
        values = [rng.choice(pool) for _ in range(n)]
    elif shape == 1:    # every value in one 65.5 us range
        base = rng.randrange(10**5) << SHIFT
        values = [base + rng.randrange(1 << SHIFT) for _ in range(n)]
    else:               # from 0 up to tens of seconds in ns, and beyond
        values = [rng.randrange(rng.choice([1 << 17, 10**10, 2**62])) for _ in range(n)]
    logs = _logs(rng, values)
    assert sum(log.delivered for log in logs) == n
    for q in (0.001, 1, 50, 95, 99.9, 100):
        assert metrics.top_delays(logs, q)[0] == \
            metrics.nearest_rank_percentile(sorted(values), q), (q, n)


def test_top_delays_edges():
    assert metrics.top_delays([], 95) == []
    assert metrics.top_delays([_delay_log(0, []), _delay_log(1, [])], 95) == []
    assert metrics.top_delays([_delay_log(0, [], lost_at=[0, 1, 2])], 95) == []
    assert metrics.top_delays([_delay_log(0, [7])], 95) == [7]
    assert metrics.top_delays([_delay_log(0, [7], lost_at=[0])], 100) == [7]
    shift = SHIFT
    log = _delay_log(0, [3 << shift, 1, 5 << shift, 1 << shift], lost_at=[1, 4])
    assert metrics.top_delays([log], 100) == [5 << shift]
    assert metrics.top_delays([log], 25) == [1, 1 << shift, 3 << shift, 5 << shift]
    assert metrics.top_delays([log], 50)[0] == 1 << shift
    with pytest.raises(ValueError):
        metrics.top_delays([log], 0)


@pytest.mark.parametrize("sampled", ["largest", "smallest", "lost"])
@pytest.mark.parametrize("seed", range(6))
def test_top_delays_when_the_sample_misleads(seed, sampled):
    # top_delays takes its threshold from every SAMPLE_STRIDE-th frame of
    # each flow. Where those positions hold the largest delays, the first
    # threshold keeps little more than the sample and has to be lowered;
    # where they hold the smallest, it keeps far more than it needs; where
    # they hold lost frames, the threshold is a lost frame's negative
    # value, below every delay.
    rng = random.Random(seed)
    stride = metrics.SAMPLE_STRIDE
    logs, values = [], []
    for flow in range(rng.randrange(1, 5)):
        length = rng.choice([1, stride, 3 * stride + 2, 40 * stride + 5, 600 * stride + 1])
        high, low = (0, 10**9) if sampled == "smallest" else (10**9, 0)
        lost_at = range(0, length, stride) if sampled == "lost" else ()
        delays = [(high if k % stride == 0 else low) + rng.randrange(10**6)
                  for k in range(length) if k not in lost_at]
        logs.append(_delay_log(flow, delays, lost_at))
        values += delays
    want = sorted(values)
    for q in (0.001, 1, 50, 95, 99.9, 100):
        top = metrics.top_delays(logs, q)
        assert top[:1] == ([metrics.nearest_rank_percentile(want, q)] if want else []), q
        assert top == want[len(want) - len(top):]


def _reference_summary_row(report, packets):
    """summary_row's fields from the run's PacketRecords packets, with every
    delay sorted."""
    delays = sorted(p.recv_ns - p.gen_ns for p in packets if not p.lost)
    window = report.active_window_ns()
    thr = metrics.aggregate_throughput(packets, window) if window > 0 else 0.0
    fmt, cfg = metrics._fmt_us, report.cfg
    return (f"{cfg.scheduler},{cfg.stations},{cfg.quality},"
            f"{fmt(metrics.mean_e2e_delay(packets))},"
            f"{fmt(metrics.nearest_rank_percentile(delays, 95))},"
            f"{fmt(delays[-1] if delays else None)},{thr:.1f},{len(delays)},"
            f"{sum(p.lost for p in packets)},{report.counters.overruns}")


@pytest.mark.parametrize("log", ["records", "packets_csv"])
@pytest.mark.parametrize("seed", range(12))
def test_summary_row_matches_the_sorted_reference(seed, log):
    # The reference reads the run's PacketRecords, or packets.csv's text
    # parsed back: a summary row recomputed from the serialized log is the
    # simulator's own.
    rng = random.Random(seed)
    # A stagger of 1 s starts the last stations after the end of the run:
    # their flows have no delay.
    cfg = make_scenario(preset="vbr-high", scheduler=rng.choice(["reference", "adaptive"]),
                        stations=rng.randrange(1, 13), duration_s=rng.uniform(20.5, 26),
                        seed=rng.randrange(10**6), qs_exact=rng.random() < 0.5,
                        loss_p=rng.choice([0.0, 0.02, 0.1, 0.5, 1.0]),
                        traffic={"stagger_ms": rng.choice([0.0, 7.0, 300.0, 1000.0])})
    report = engine.run(cfg)
    packets = (report.packets if log == "records"
               else metrics.parse_packets_csv(report.packets_csv()))
    assert metrics.summary_row(report) == _reference_summary_row(report, packets)


def test_run_and_summary_hold_few_bytes_per_frame():
    # Every per-frame column is an array('q'): the schedule's sizes and the
    # receive log take 8 bytes a value each, and nothing builds an int
    # object or a list entry per frame for the whole run. The summary reads
    # those columns and keeps no per-frame column of its own. A list of
    # boxed ints costs about 40 bytes per value; one more array('q') of the
    # run's delays, built inside the summary, 8. The peak is read at two
    # durations and bounded per frame by its slope, so the costs that do
    # not grow with the run cancel and a short run keeps the resolution.
    def peak_and_frames(duration_s):
        cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=8,
                            duration_s=duration_s, seed=3)
        engine._synth_schedule.cache_clear()
        tracemalloc.start()
        try:
            report = engine.run(cfg)
            metrics.summary_row(report)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            engine._synth_schedule.cache_clear()
        return peak, sum(log.generated for log in report.flows.values())

    (short_peak, short_frames), (long_peak, long_frames) = map(peak_and_frames, (24, 32))
    frames = long_frames - short_frames
    assert frames >= 1_600
    assert (long_peak - short_peak) / frames <= 28, (long_peak - short_peak) / frames


def test_summary_recomputes_from_serialized_log():
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=3,
                        duration_s=24, seed=5, loss_p=0.1)
    report = engine.run(cfg)
    text = report.packets_csv()
    parsed = metrics.parse_packets_csv(text)
    assert parsed == report.packets
    assert metrics.mean_e2e_delay(parsed) == metrics.mean_e2e_delay(report.packets)
    assert metrics.aggregate_throughput(parsed, report.active_window_ns()) == \
        metrics.aggregate_throughput(report.packets, report.active_window_ns())


def test_summarize_cardinality_and_order():
    reports = []
    for sched in ("reference", "adaptive"):
        for n in (1, 2, 3):
            cfg = make_scenario(preset="vbr-high", scheduler=sched, stations=n,
                                duration_s=22, seed=2)
            reports.append(engine.run(cfg))
    random.Random(0).shuffle(reports)
    text = metrics.summarize(reports)
    lines = text.strip().splitlines()
    assert lines[0] == metrics.SUMMARY_CSV_HEADER
    assert len(lines) == 7
    cells = [tuple(l.split(",")[:2]) for l in lines[1:]]
    assert cells == [("adaptive", "1"), ("adaptive", "2"), ("adaptive", "3"),
                     ("reference", "1"), ("reference", "2"), ("reference", "3")]


def test_summary_counts_the_stations_simulated():
    cfg = make_scenario(stations=[{}, {}, {}], duration_s=21)
    assert metrics.summary_row(engine.run(cfg)).split(",")[1] == "3"


def test_summarize_rejects_mixed_templates():
    a = engine.run(make_scenario(preset="vbr-high", stations=1, duration_s=21, seed=2))
    b = engine.run(make_scenario(preset="vbr-high", stations=1, duration_s=22, seed=2))
    with pytest.raises(ValueError):
        metrics.summarize([a, b])


def test_throughput_is_taken_after_traffic_start():
    report = engine.run(make_scenario(preset="cbr-nominal", stations=1,
                                      duration_s=30, seed=2))
    assert report.active_window_ns() == 10 * 10**9
    # the active-window sink rate approaches the source mean bit rate
    assert metrics.aggregate_throughput(report.packets, report.active_window_ns()) == \
        pytest.approx(760_000, rel=0.02)


def test_summary_row_undefined_delay_prints_empty():
    report = engine.run(make_scenario(preset="vbr-high", stations=1, duration_s=1, seed=2))
    row = metrics.summary_row(report)
    assert row.split(",")[3] == ""


@pytest.mark.parametrize("seed, loss_p, stagger_ms, covers", [
    # Every flow delivers some frames and loses some.
    (8, 0.1, 30.0, lambda lost: all(True in flow and False in flow for flow in lost)),
    # Flow 0's first frame and flow 2's last frame are lost.
    (43, 0.05, 30.0, lambda lost: lost[0][0] and lost[2][-1]),
    # Lossless; flow 2 starts after the end of the run and sends nothing.
    (8, 0.0, 2500.0, lambda lost: lost[2] == [] and not any(map(any, lost))),
    # Every frame is lost.
    (8, 1.0, 30.0, lambda lost: all(flow and all(flow) for flow in lost)),
], ids=["some-lost", "first-and-last-lost", "lossless-idle-flow", "all-lost"])
def test_column_metrics_match_the_packet_reference(seed, loss_p, stagger_ms, covers):
    # summary_row reads the report's FlowLogs, columns and counts; the
    # PacketRecord functions over the serialized log must agree, each
    # flow's lost_at must list the positions of its lost rows, and its
    # delay total and top delays must be its sorted delays' own.
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=3,
                        duration_s=24, seed=seed, loss_p=loss_p,
                        traffic={"stagger_ms": stagger_ms})
    report = engine.run(cfg)
    parsed = metrics.parse_packets_csv(report.packets_csv())
    assert sorted(report.flows) == [0, 1, 2]
    lost = [[p.lost for p in parsed if p.flow == flow] for flow in report.flows]
    assert covers(lost)
    for flow, fl in report.flows.items():
        log = [p for p in parsed if p.flow == flow]
        assert fl.lost_at.tolist() == [k for k, p in enumerate(log) if p.lost]
        assert fl.delivered == sum(not p.lost for p in log)
        assert fl.lost == sum(p.lost for p in log)
        assert fl.delivered_bytes == sum(p.size_bytes for p in log if not p.lost)
        assert fl.generated == len(log) + fl.queued_end
        check_flow_delays(metrics, fl, log)
    fields = metrics.summary_row(report).split(",")
    mean_ns = metrics.mean_e2e_delay(parsed)
    thr = metrics.aggregate_throughput(parsed, report.active_window_ns())
    assert fields[3] == metrics._fmt_us(mean_ns)
    assert fields[6] == f"{thr:.1f}"
    assert fields[7:9] == [str(sum(not p.lost for p in parsed)),
                           str(sum(p.lost for p in parsed))]


def _report_with_logs(sent_per_flow, lost_at=(), flows=None, seqs=range):
    """A report whose k-th flow, numbered flows[k] (k by default), sent
    sent_per_flow[k] frames, 40 ms apart, numbered seqs(1000, 1000 + sent),
    their sizes an array('q') as a run's are; the frames at the indices in
    lost_at were lost."""
    base = engine.run(make_scenario(preset="vbr-high", duration_s=0))
    logs = {}
    for flow, sent in zip(flows or range(len(sent_per_flow)), sent_per_flow):
        start = 20_000_000_000 + flow
        lost = array("q", sorted(k for k in set(lost_at) if k < sent))
        recv = array("q", [start + k * 40_000_000 + 3_000_000 for k in range(sent)])
        for k in lost:
            recv[k] = LOST
        logs[flow] = FlowLog(flow, start, 40_000_000, seqs(1000, 1000 + sent),
                             array("q", [12160 - k % 9000 for k in range(sent)]), recv,
                             lost, 0)
    return replace(base, flows=logs)


def _row_csv(report):
    """Reference packet log: one line per PacketRecord, joined at once."""
    lines = [report.PACKET_CSV_HEADER]
    lines += [f"{p.flow},{p.seq},{p.gen_ns},{'' if p.lost else p.recv_ns},"
              f"{p.size_bytes},{int(p.lost)}" for p in report.packets]
    return "\n".join(lines) + "\n"


def test_packet_log_writer_matches_the_row_reference_across_chunks():
    # Flow 0 spans two chunks and a partial one, flow 1 sent nothing and
    # flow 2 fills exactly two chunks; the lost frames sit on either side
    # of the first chunk boundary and at the end of the second.
    lost_at = {CHUNK - 1, CHUNK, 2 * CHUNK - 1}
    report = _report_with_logs([2 * CHUNK + 5, 0, 2 * CHUNK], lost_at)
    buf = io.StringIO()
    report.write_packets_csv(buf)
    text = buf.getvalue()
    assert text == report.packets_csv() == _row_csv(report)
    rows = text.splitlines()[1:]
    assert len(rows) == 4 * CHUNK + 5
    assert [k for k, row in enumerate(rows) if row.endswith(",1")] == \
        sorted(lost_at) + [2 * CHUNK + 5 + k for k in sorted(lost_at)]


@pytest.mark.parametrize("sent, lost_at, flows", [
    # Row templates differ in width per flow: one-digit flows beside
    # two- and three-digit ones, with lost rows in each.
    ([CHUNK + 3, 5, CHUNK, 2], {1, CHUNK - 1, CHUNK + 1}, [9, 10, 3, 123]),
    # A chunk in which every row is lost, between two that lose none.
    ([3 * CHUNK + 2], range(CHUNK, 2 * CHUNK), None),
    # The first and last rows lost, of a partial last chunk and of a
    # one-row flow.
    ([CHUNK + 7, 1, 4], {0, CHUNK + 6}, [0, 1, 12]),
])
def test_packet_log_writer_edge_cases_match_the_row_reference(sent, lost_at, flows):
    report = _report_with_logs(sent, lost_at, flows)
    buf = io.StringIO()
    report.write_packets_csv(buf)
    assert buf.getvalue() == _row_csv(report)


@pytest.mark.parametrize("lost_at, seqs", [
    (range(0, 3 * CHUNK, 7), range),
    # Lossless, numbered by an array('q') as a trace's frames are.
    ((), lambda first, stop: array("q", range(first, stop))),
], ids=["lossy", "lossless-array-seqs"])
def test_packet_log_writer_holds_one_chunk_at_a_time(lost_at, seqs):
    # Flow 0 spans two full chunks and a remainder, flow 1 one short chunk.
    # A writer that holds one chunk at a time peaks at its largest chunk's
    # cost: its % arguments, each value boxed once, in a tuple; its row
    # template twice (the flow's repeated row and the chunk's joined
    # template); and its text, which the formatter over-allocates by up to
    # a quarter as it grows. A writer that also keeps the list it filled
    # the tuple from, one pointer per value, or any part of a second
    # chunk, peaks above that.
    report = _report_with_logs([2 * CHUNK + 99, 40], lost_at, seqs=seqs)

    class LargestWrite:
        chars = size = rows = 0
        first_row = ""

        def write(self, text):
            self.chars += len(text)
            if sys.getsizeof(text) > self.size:
                self.size, self.rows = sys.getsizeof(text), text.count("\n")
                self.first_row = text[:text.index("\n")]

    sink = LargestWrite()
    tracemalloc.start()
    try:
        report.write_packets_csv(sink)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sink.chars == len(report.packets_csv())
    assert sink.rows == CHUNK
    flow, seq = map(int, sink.first_row.split(",")[:2])
    log = report.flows[flow]
    start = log.seqs.index(seq)
    args = tuple(value for row in itertools.islice(log.rows(), start, start + sink.rows)
                 for value in row)
    template = sys.getsizeof(f"{log.flow},%d,%d,%d,%d,0\n" * sink.rows)
    chunk = sys.getsizeof(args) + sum(map(sys.getsizeof, args)) + 2 * template
    assert peak < chunk + sink.size * 5 / 4
