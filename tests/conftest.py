import pathlib

import pytest

from hccasim.config import scenario_from_dict
from hccasim.engine import LOST
from hccasim.phy import PhyParams

DATA_DIR = pathlib.Path(__file__).parent / "data"
FRAGMENT_PATH = DATA_DIR / "trace_fragment_high.txt"

# Optional real movie trace (not redistributable); drop it here to enable
# the Table-III-scale statistics check.
REAL_TRACE_PATH = DATA_DIR / "jurassic_high_full.txt"

FRAGMENT_SIZES = [8124, 6442, 6237, 7581, 6184, 6173, 7482, 6331, 6567, 7130, 6410, 6223]


@pytest.fixture(scope="session")
def default_phy():
    return PhyParams()


@pytest.fixture(scope="session")
def zero_overhead_phy():
    """Overhead-free PHY: every O() term collapses to zero so payload air
    time can be checked in isolation."""
    return PhyParams(sifs_ns=0, preamble_bits=0, plcp_header_bits=0,
                     mac_header_bytes=0, ack_frame_bytes=0, poll_frame_bytes=0)


@pytest.fixture(scope="session")
def fragment_path():
    return FRAGMENT_PATH


def make_scenario(**kwargs):
    return scenario_from_dict(dict(kwargs))


def lost_positions(log):
    """The reference for a FlowLog's lost_at: the indices of LOST in its
    receive log."""
    return [k for k, recv in enumerate(log.recv_ns) if recv == LOST]


def check_flow_delays(metrics, fl, log):
    """The metrics module's delay total and top delays of the FlowLog fl
    against the delays of log, fl's PacketRecords: the total exact, not
    rounded to a mean, and the delays from the nearest-rank p95 up."""
    delays = sorted(p.recv_ns - p.gen_ns for p in log if not p.lost)
    assert metrics.delay_total_ns(fl) == sum(delays)
    rank = -(-len(delays) * 95 // 100)          # ceil(n * 0.95), 1-based
    assert metrics.top_delays([fl], 95) == (delays[rank - 1:] if delays else [])


@pytest.fixture(scope="session")
def vbr_sweep_reports():
    """Shared 1..8 station sweep of both schedulers on the bursty VBR
    workload (acceptance criteria 4 and 5 read from this)."""
    from hccasim import engine
    from hccasim.cli import sweep_cells

    base = make_scenario(preset="vbr-high", duration_s=50, seed=17)
    cells = sweep_cells(base, range(1, 9), ["reference", "adaptive"])
    return {(c.scheduler, c.stations): engine.run(c) for c in cells}
