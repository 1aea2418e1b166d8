"""Evaluation metrics over per-packet logs: mean end-to-end delay,
aggregate throughput and the sweep summary table.

The summary table reads a report's per-flow FlowLogs, their columns and
counts, and keeps no per-frame delay column. Each flow's delay total is
exact in closed form from its receive times and lost indices
(delay_total_ns). The p95 and max delay come from one exact nearest-rank
selection, top_delays, which filters the stream recv - gen of each flow
against a sampled threshold and sorts only what is kept; its first value
is the percentile. Throughput is taken over the report's active window,
from traffic start to the end of the run. mean_e2e_delay and
aggregate_throughput take a list of PacketRecords instead, such as
parse_packets_csv returns, so recomputing a summary from a serialized
CSV reproduces the simulator's own exactly.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from operator import le, sub

from .engine import LOST, FlowLog, PacketRecord, SimReport

SUMMARY_CSV_HEADER = ("scheduler,stations,quality,mean_delay_us,p95_delay_us,"
                      "max_delay_us,throughput_bps,delivered,lost,overruns")
SAMPLE_STRIDE = 17  # top_delays samples every 17th value, coprime with a 12-frame GoP


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


def delay_total_ns(log: FlowLog) -> int:
    """The sum of recv - gen over log's delivered frames, exact, from sums
    over its columns: frame k was generated at start_ns + k * interval_ns,
    and each lost frame's receive time is LOST."""
    n, lost = len(log.recv_ns), log.lost
    return (sum(log.recv_ns) - LOST * lost - (n - lost) * log.start_ns
            - log.interval_ns * (n * (n - 1) // 2 - sum(log.lost_at)))


def top_delays(logs, q: float) -> list:
    """The delays recv - gen of the delivered frames of all logs taken
    together, from their nearest-rank q-th percentile up, ascending: the
    percentile first, the largest delay last; [] when no frame was
    delivered. Each flow's delays are a stream over its columns, and only a
    top slice of them is kept and sorted. A threshold taken from every
    SAMPLE_STRIDE-th frame keeps the delays at or above it, in one C-level
    filter pass per flow, and is lowered until enough of them are kept.
    A lost frame's LOST - gen is negative and a delivered frame's delay is
    not, so lost frames stay in the streams and rank below every delay."""
    n = sum(log.delivered for log in logs)
    if not n:
        return []
    if not 0 < q <= 100:
        raise ValueError("percentile must be in (0, 100]")
    from_top = n - int(-(-n * q // 100)) + 1   # n - ceil(n*q/100) + 1 delays
    stride = SAMPLE_STRIDE
    sample = sorted(chain.from_iterable(map(sub, log.recv_ns[::stride], log.gen_ns()[::stride])
                                        for log in logs))
    # At least `above` delays are kept, and about SAMPLE_STRIDE times as
    # many: aim at twice the delays needed, then four times as far down.
    above = 2 * (from_top // stride + 1)
    while above < len(sample):
        keep = partial(le, sample[-above])
        top = list(chain.from_iterable(filter(keep, map(sub, log.recv_ns, log.gen_ns()))
                                       for log in logs))
        if len(top) >= from_top:
            break
        above *= 4
    else:
        top = list(chain.from_iterable(map(sub, log.recv_ns, log.gen_ns()) for log in logs))
    top.sort()
    return top[-from_top:]


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
    logs = report.flows.values()
    delivered = sum(log.delivered for log in logs)
    mean_ns = sum(map(delay_total_ns, logs)) / delivered if delivered else None
    top = top_delays(logs, 95)
    p95_ns, max_ns = (top[0], top[-1]) if top else (None, None)
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
            cfg.loss_p, cfg.qs_exact)


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
