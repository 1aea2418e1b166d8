import random

import pytest

from conftest import make_scenario
from hccasim import engine, metrics
from hccasim.engine import PacketRecord


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


def test_flow_metrics_counts():
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=2,
                        duration_s=23, seed=5, loss_p=0.2)
    report = engine.run(cfg)
    per_flow = metrics.flow_metrics(report)
    assert [m.flow for m in per_flow] == [0, 1]
    for m in per_flow:
        tally = report.flows[m.flow]
        assert m.delivered == tally.delivered
        assert m.lost == tally.lost
        assert m.delivered_bytes == tally.delivered_bytes
        if m.delivered:
            assert m.mean_delay_ns <= m.max_delay_ns
            assert m.p95_delay_ns <= m.max_delay_ns


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


def test_summarize_rejects_mixed_templates():
    a = engine.run(make_scenario(preset="vbr-high", stations=1, duration_s=21, seed=2))
    b = engine.run(make_scenario(preset="vbr-high", stations=1, duration_s=22, seed=2))
    with pytest.raises(ValueError):
        metrics.summarize([a, b])


def test_throughput_window_modes():
    active = engine.run(make_scenario(preset="cbr-nominal", stations=1,
                                      duration_s=30, seed=2))
    full = engine.run(make_scenario(preset="cbr-nominal", stations=1,
                                    duration_s=30, seed=2,
                                    throughput_window="full"))
    assert active.packets_csv() == full.packets_csv()
    t_active = metrics.aggregate_throughput(active.packets, active.active_window_ns())
    t_full = metrics.aggregate_throughput(full.packets, full.active_window_ns())
    # the full window dilutes throughput by the 20 s warm-up
    assert t_full == pytest.approx(t_active * 10 / 30)
    # the active-window sink rate approaches the source mean bit rate
    assert t_active == pytest.approx(760_000, rel=0.02)


def test_summary_row_undefined_delay_prints_empty():
    report = engine.run(make_scenario(preset="vbr-high", stations=1, duration_s=1, seed=2))
    row = metrics.summary_row(report)
    assert row.split(",")[3] == ""


def test_column_metrics_match_the_packet_reference():
    # summary_row and flow_metrics read the report's columns and tallies;
    # the PacketRecord functions over the serialized log must agree.
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=3,
                        duration_s=24, seed=8, loss_p=0.1,
                        traffic={"stagger_ms": 30.0})
    report = engine.run(cfg)
    parsed = metrics.parse_packets_csv(report.packets_csv())
    for m in metrics.flow_metrics(report):
        log = [p for p in parsed if p.flow == m.flow]
        delays = sorted(p.recv_ns - p.gen_ns for p in log if not p.lost)
        assert m.delivered == len(delays) > 0
        assert m.lost == sum(p.lost for p in log) > 0
        assert m.delivered_bytes == sum(p.size_bytes for p in log if not p.lost)
        assert m.generated == len(log) + report.flows[m.flow].queued_end
        assert m.mean_delay_ns == metrics.mean_e2e_delay(log)
        assert (m.p95_delay_ns, m.max_delay_ns) == \
            (metrics.nearest_rank_percentile(delays, 95), delays[-1])
    fields = metrics.summary_row(report).split(",")
    mean_ns = metrics.mean_e2e_delay(parsed)
    thr = metrics.aggregate_throughput(parsed, report.active_window_ns())
    assert fields[3] == str(round(mean_ns / 1000))
    assert fields[6] == f"{thr:.1f}"
    assert fields[7:9] == [str(sum(not p.lost for p in parsed)),
                           str(sum(p.lost for p in parsed))]
