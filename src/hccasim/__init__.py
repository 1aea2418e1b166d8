"""hccasim: deterministic simulator of IEEE 802.11e HCCA polling with a
mean-based reference TXOP scheduler and a next-frame-size adaptive one."""

from .config import ScenarioConfig, TrafficConfig, load_scenario, scenario_from_dict
from .engine import FlowLog, SimReport, SimulationError, run
from .phy import PhyParams, ctrl_tx_time, data_tx_time, txop_overhead
from .sched import (Tspec, adaptive_txop, admit, assign_si, min_msi, msdu_count,
                    reference_txop, tspec_preset)
from .traffic import (FrameRecord, VideoTrace, load_trace, parse_trace, synth_sizes,
                      trace_stats)

__version__ = "0.1.0"

__all__ = [
    "FlowLog", "FrameRecord", "PhyParams", "ScenarioConfig",
    "SimReport", "SimulationError", "TrafficConfig", "Tspec", "VideoTrace",
    "adaptive_txop", "admit", "assign_si", "ctrl_tx_time",
    "data_tx_time", "load_scenario", "load_trace", "min_msi", "msdu_count",
    "parse_trace", "reference_txop", "run", "scenario_from_dict",
    "synth_sizes", "trace_stats", "tspec_preset",
    "txop_overhead",
]
