"""Evaluation metrics over per-packet logs: mean end-to-end delay,
aggregate throughput, per-flow breakdowns and the sweep summary table.

The per-flow breakdowns and the summary table read a report's columnar
logs (delays) and its flow tallies (counts and bytes), which are counted
from those logs. mean_e2e_delay and aggregate_throughput take a list of
PacketRecords instead, such as parse_packets_csv returns, so recomputing
a summary from a serialized CSV reproduces the simulator's own exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import PacketRecord, SimReport

SUMMARY_CSV_HEADER = ("scheduler,stations,quality,mean_delay_us,p95_delay_us,"
                      "max_delay_us,throughput_bps,delivered,lost,overruns")


@dataclass(frozen=True)
class FlowMetrics:
    flow: int
    generated: int
    delivered: int
    lost: int
    mean_delay_ns: float | None
    p95_delay_ns: int | None
    max_delay_ns: int | None
    delivered_bytes: int


def _delays_ns(log) -> list[int]:
    return [p.recv_ns - p.gen_ns for p in log if not p.lost and p.recv_ns is not None]


def mean_e2e_delay(log) -> float | None:
    """Mean of (recv - gen) over delivered packets, in ns. None when the log
    holds no delivered packets (undefined, deliberately not zero)."""
    delays = _delays_ns(log)
    if not delays:
        return None
    return sum(delays) / len(delays)


def nearest_rank_percentile(sorted_values, q: float):
    """Nearest-rank percentile (no interpolation) of an ascending list."""
    if not sorted_values:
        return None
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    rank = -(-len(sorted_values) * q // 100)  # ceil(n*q/100), 1-based
    return sorted_values[int(rank) - 1]


def aggregate_throughput(log, window_ns: int) -> float:
    """Delivered payload bits divided by the measurement window, in bit/s."""
    if window_ns <= 0:
        raise ValueError(f"window must be positive, got {window_ns}")
    bits = sum(p.size_bytes for p in log if not p.lost and p.recv_ns is not None) * 8
    return bits * 1e9 / window_ns


def flow_metrics(report: SimReport) -> list[FlowMetrics]:
    out = []
    for flow in sorted(report.flows):
        tally = report.flows[flow]
        delays = sorted(report.logs[flow].delays_ns())
        out.append(FlowMetrics(
            flow=flow,
            generated=tally.generated,
            delivered=tally.delivered,
            lost=tally.lost,
            mean_delay_ns=(sum(delays) / len(delays)) if delays else None,
            p95_delay_ns=nearest_rank_percentile(delays, 95),
            max_delay_ns=delays[-1] if delays else None,
            delivered_bytes=tally.delivered_bytes,
        ))
    return out


def _fmt_us(value_ns) -> str:
    if value_ns is None:
        return ""
    return str(round(value_ns / 1000))


def summary_row(report: SimReport) -> str:
    delays = []
    for log in report.logs.values():
        delays += log.delays_ns()
    delays.sort()
    mean_ns = (sum(delays) / len(delays)) if delays else None
    p95_ns = nearest_rank_percentile(delays, 95)
    max_ns = delays[-1] if delays else None
    tallies = report.flows.values()
    window = report.active_window_ns()
    # Same arithmetic as aggregate_throughput, over the tallied bytes.
    bits = sum(t.delivered_bytes for t in tallies) * 8
    thr = bits * 1e9 / window if window > 0 else 0.0
    delivered = sum(t.delivered for t in tallies)
    lost = sum(t.lost for t in tallies)
    return (f"{report.scheduler},{report.stations},{report.quality},"
            f"{_fmt_us(mean_ns)},{_fmt_us(p95_ns)},{_fmt_us(max_ns)},"
            f"{thr:.1f},{delivered},{lost},{report.counters.overruns}")


def _template_key(report: SimReport):
    return (report.quality, report.beacon_interval_ns, report.duration_ns,
            report.traffic_start_ns, report.loss_p, report.qs_exact,
            report.overhead_mode, report.throughput_window)


def summarize(reports) -> str:
    """Summary CSV for a sweep: one row per (scheduler, station count),
    sorted. Reports must come from the same scenario template."""
    reports = list(reports)
    if not reports:
        return SUMMARY_CSV_HEADER + "\n"
    keys = {_template_key(r) for r in reports}
    if len(keys) > 1:
        raise ValueError(f"reports mix {len(keys)} incompatible scenario templates")
    rows = sorted(reports, key=lambda r: (r.scheduler, r.stations))
    return "\n".join([SUMMARY_CSV_HEADER] + [summary_row(r) for r in rows]) + "\n"


def parse_packets_csv(text: str) -> list[PacketRecord]:
    """Read back a packet log CSV; inverse of SimReport.packets_csv."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != SimReport.PACKET_CSV_HEADER:
        raise ValueError("not a packet log CSV (bad header)")
    out = []
    for line in lines[1:]:
        flow, seq, gen, recv, size, lost = line.split(",")
        out.append(PacketRecord(int(flow), int(seq), int(gen),
                                int(recv) if recv else None,
                                int(size), lost == "1"))
    return out
