"""Evaluation metrics over per-packet logs: mean end-to-end delay,
aggregate throughput and the sweep summary table.

The summary table reads a report's per-flow FlowLogs: their columns for
delays and the counts they derive from them. mean_e2e_delay and
aggregate_throughput take a list of PacketRecords instead, such as
parse_packets_csv returns, so recomputing a summary from a serialized CSV
reproduces the simulator's own exactly.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import rshift

from .engine import PacketRecord, SimReport

SUMMARY_CSV_HEADER = ("scheduler,stations,quality,mean_delay_us,p95_delay_us,"
                      "max_delay_us,throughput_bps,delivered,lost,overruns")
BUCKET_SHIFT = 16   # bucketed_percentile counts values per value >> 16 (65.5 us of delay)


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


def bucketed_percentile(columns, q: float):
    """nearest_rank_percentile of the values of all columns taken together,
    without sorting them all. Values are counted per value >> BUCKET_SHIFT
    bucket, and only the bucket that holds the rank is sorted, so no list
    of every value is built."""
    n = sum(map(len, columns))
    if not n:
        return None
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    rank = int(-(-n * q // 100))  # ceil(n*q/100), 1-based
    counts = Counter()
    for column in columns:
        counts.update(map(rshift, column, repeat(BUCKET_SHIFT)))
    # A high percentile sits near the top: walk the buckets down from the
    # largest, counting the values at or above the rank.
    from_top = n - rank + 1
    for bucket in sorted(counts, reverse=True):
        if from_top <= counts[bucket]:
            break
        from_top -= counts[bucket]
    members = sorted(v for column in columns for v in column
                     if v >> BUCKET_SHIFT == bucket)
    return members[-from_top]


def aggregate_throughput(log, window_ns: int) -> float:
    """Delivered payload bits divided by the measurement window, in bit/s."""
    if window_ns <= 0:
        raise ValueError(f"window must be positive, got {window_ns}")
    bits = sum(p.size_bytes for p in log if not p.lost and p.recv_ns is not None) * 8
    return bits * 1e9 / window_ns


def _fmt_us(value_ns) -> str:
    if value_ns is None:
        return ""
    return str(round(value_ns / 1000))


def summary_row(report: SimReport) -> str:
    # Each flow's delays are an array('q'): they are summed and bucketed per
    # flow, so no list of every delay is built.
    logs = report.flows.values()
    delays = [log.delays_ns() for log in logs]
    delivered = sum(map(len, delays))
    mean_ns = sum(map(sum, delays)) / delivered if delivered else None
    p95_ns = bucketed_percentile(delays, 95)
    max_ns = max(map(max, filter(None, delays)), default=None)  # a flow may have no delay
    window = report.active_window_ns()
    # Same arithmetic as aggregate_throughput, over the logged bytes.
    bits = sum(log.delivered_bytes for log in logs) * 8
    thr = bits * 1e9 / window if window > 0 else 0.0
    lost = sum(log.lost for log in logs)
    cfg = report.cfg
    return (f"{cfg.scheduler},{cfg.stations},{cfg.quality},"
            f"{_fmt_us(mean_ns)},{_fmt_us(p95_ns)},{_fmt_us(max_ns)},"
            f"{thr:.1f},{delivered},{lost},{report.counters.overruns}")


def _template_key(cfg):
    return (cfg.quality, cfg.beacon_interval_ns, cfg.duration_ns, cfg.traffic_start_ns,
            cfg.loss_p, cfg.qs_exact, cfg.overhead_mode, cfg.throughput_window)


def summary_csv(cfgs, rows) -> str:
    """Summary CSV from the summary_row of each run of the scenarios cfgs,
    sorted by scheduler, then by station count. The scenarios must share
    one template."""
    cfgs = list(cfgs)
    keys = {_template_key(cfg) for cfg in cfgs}
    if len(keys) > 1:
        raise ValueError(f"reports mix {len(keys)} incompatible scenario templates")
    runs = sorted(zip(cfgs, rows), key=lambda run: (run[0].scheduler, run[0].stations))
    return "\n".join([SUMMARY_CSV_HEADER] + [row for _, row in runs]) + "\n"


def summarize(reports) -> str:
    """Summary CSV for a sweep: one row per (scheduler, station count),
    sorted. Reports must come from the same scenario template."""
    reports = list(reports)
    return summary_csv([r.cfg for r in reports], map(summary_row, reports))


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
