"""hccasim.engine against the reference engine in oracle_engine.py.

The differential test runs both engines on random multi-station scenarios
and requires identical results. The mutant table shows what the checks
catch: the comparison on fixed examples, three scenarios built on an
exact-nanosecond tie, and metrics.py's delay columns against the packet
reference. Each row is one library file with one line changed, loaded in
this process, and must fail its named check, while each file as written
passes every check.
"""

import pathlib
import sys
import types
from dataclasses import astuple, replace

import pytest
from hypothesis import example, given, note, settings, strategies as st

import oracle_engine
from conftest import FRAGMENT_PATH, check_flow_delays
from hccasim import engine, metrics
from hccasim.config import SCHEDULERS, scenario_from_dict
from hccasim.phy import NS_PER_MS
from hccasim.sched import adaptive_txop

FLOW_COUNTS = ("generated", "delivered", "lost", "queued_end", "delivered_bytes")


def observed(report) -> dict:
    """What a run of either engine must agree on, as plain values."""
    return {
        "si_ns": report.si_ns,
        "divisor": report.divisor,
        "admission_notes": list(report.admission_notes),
        "counters": astuple(report.counters),
        "flows": {flow: tuple(getattr(t, name) for name in FLOW_COUNTS)
                  for flow, t in report.flows.items()},
        "packets": [astuple(p) for p in report.packets],
        "polls": [astuple(p) for p in report.polls],
    }


def assert_agrees(eng, cfg):
    """eng.run(cfg) matches the oracle; a mismatch names the first
    differing key and, in a list, the first differing entry."""
    got, want = observed(eng.run(cfg)), observed(oracle_engine.run(cfg))
    for key, value in want.items():
        if got[key] != value and isinstance(value, list):
            at = next((i for i, (a, b) in enumerate(zip(got[key], value)) if a != b),
                      min(len(got[key]), len(value)))
            assert got[key][at:at + 1] == value[at:at + 1], \
                f"{key}[{at}] differs ({len(got[key])} vs {len(value)} entries)"
        assert got[key] == value, key


# -- scenarios ---------------------------------------------------------------

FRAGMENT = str(FRAGMENT_PATH)
FRAME_SIZES = st.integers(1, 16_000) | st.just(70_000)
PHYS_RATES = st.integers(1_000_000, 54_000_000)
# A PHY in file units; sifs_us carries whole nanoseconds.
PHYS = st.fixed_dictionaries({
    "sifs_us": st.integers(0, 50_000).map(lambda ns: ns / 1000),
    "preamble_bits": st.integers(0, 200),
    "plcp_header_bits": st.integers(0, 100),
    "mac_header_bytes": st.integers(0, 60),
    "data_rate_bps": st.integers(2_000_000, 54_000_000),
    "basic_rate_bps": st.integers(500_000, 2_000_000),
    "ack_frame_bytes": st.integers(0, 20),
    "poll_frame_bytes": st.integers(0, 40),
})
INTERVALS_MS = st.sampled_from([10.0, 20.0, 25.0, 40.0])
STAGGERS_MS = st.sampled_from([0.0, 7.5, 40.0])
TRAFFIC = st.fixed_dictionaries({
    "kind": st.just("synth"),
    "pattern": st.sampled_from(["IBBPBBPBBPBB", "IPB", "I"]),
    "i_size": FRAME_SIZES, "p_size": FRAME_SIZES, "b_size": FRAME_SIZES,
    "jitter": st.sampled_from([0.0, 0.3]),
    "frame_interval_ms": INTERVALS_MS,
    "stagger_ms": STAGGERS_MS,
    "seed": st.none() | st.integers(0, 99),
}) | st.fixed_dictionaries({
    "kind": st.just("trace"), "path": st.just(FRAGMENT),
    "frame_interval_ms": INTERVALS_MS, "stagger_ms": STAGGERS_MS,
})


@st.composite
def custom_tspecs(draw):
    nominal = draw(st.integers(200, 4000))
    return {"rho_bps": draw(st.sampled_from([1.5e5, 7.6e5, 2e6])),
            "nominal_bytes": nominal, "max_bytes": nominal + draw(st.integers(0, 20_000)),
            "delay_bound_ms": 80.0, "msi_ms": draw(st.sampled_from([10.0, 20.0, 40.0])),
            "phys_rate_bps": draw(PHYS_RATES)}


TSPECS = st.sampled_from(["jurassic-low", "jurassic-high"]) | custom_tspecs()
STATION = st.fixed_dictionaries({"traffic": TRAFFIC, "tspec": TSPECS})


@st.composite
def scenarios(draw):
    """A scenario mapping for scenario_from_dict: 1..12 stations, given as
    a count with shared traffic and TSPEC or as a list."""
    n = draw(st.integers(1, 12))
    scenario = {
        "scheduler": draw(st.sampled_from(SCHEDULERS)),
        "beacon_interval_ms": draw(st.sampled_from([120.0, 100.0, 70.0, 7.3])),
        "traffic_start_s": draw(st.sampled_from([0.0, 0.03])),
        "duration_s": draw(st.integers(1, 6)) / 10,
        "loss_p": draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])),
        "qs_exact": draw(st.booleans()),
        "admission": draw(st.sampled_from(["on", "off"])),
        "on_reject": "run",
        "seed": draw(st.integers(0, 999)),
        "record_polls": True,
        "phy": draw(st.just({}) | PHYS),
    }
    if draw(st.booleans()):
        scenario.update(draw(STATION), stations=n)
    else:
        scenario["stations"] = draw(st.lists(STATION, min_size=n, max_size=n))
    return scenario


def one_station(phy, sizes, jitter, phys_rate, qs_exact, loss_p):
    """One adaptive station of IPB traffic with the given frame sizes and
    TSPEC rate, for 0.4 s from t = 0."""
    return {"scheduler": "adaptive", "stations": 1, "traffic_start_s": 0.0,
            "duration_s": 0.4, "seed": 1, "qs_exact": qs_exact, "loss_p": loss_p,
            "record_polls": True, "phy": phy,
            "traffic": {"pattern": "IPB", "i_size": sizes[0], "p_size": sizes[1],
                        "b_size": sizes[2], "jitter": jitter},
            "tspec": {"rho_bps": 760000.0, "nominal_bytes": 3800, "max_bytes": 16745,
                      "delay_bound_ms": 80.0, "msi_ms": 40.0, "phys_rate_bps": phys_rate}}


VBR = {"kind": "synth", "pattern": "IBBPBBPBBPBB", "i_size": 12160, "p_size": 4800,
       "b_size": 2400, "jitter": 0.25}
# Fixed scenarios, run first by the differential test and in this order by
# the mutant table. Together they take all four grant branches, send null
# frames, lose frames, overrun an SI and cap a quantized report at 254 units
# (test_the_examples_cover_every_branch).
EXAMPLES = [
    # Twelve reference stations overrun every SI, and admission rejects most.
    {"scheduler": "reference", "stations": 12, "traffic_start_s": 0.0, "duration_s": 0.5,
     "seed": 3, "loss_p": 0.1, "admission": "on", "on_reject": "run", "record_polls": True,
     "traffic": VBR, "tspec": "jurassic-high"},
    # Adaptive stations that lose frames, on a 100 ms beacon (three CAPs of
    # 33.3 ms each), one replaying a trace that ends: its polls turn minimal.
    {"scheduler": "adaptive", "traffic_start_s": 0.03, "duration_s": 0.8, "seed": 7,
     "loss_p": 0.2, "beacon_interval_ms": 100.0, "record_polls": True, "stations": [
         {"traffic": {"kind": "trace", "path": FRAGMENT, "frame_interval_ms": 20.0},
          "tspec": "jurassic-high"},
         *[{"traffic": {**VBR, "stagger_ms": 7.5}, "tspec": "jurassic-high"}] * 5]},
    # Frames above 65 024 B (254 queue-size units) in quantized mode: their
    # report is capped, and a 2 Mbps TSPEC rate gives grants that still fit them.
    one_station({}, (70_000, 20_000, 66_000), 0.0, 2_000_000, False, 0.0),
    # The engine reduces each rate's ns-per-byte fraction 8e9 / rate by its
    # gcd: rates that share no factor with 8e9 (the fraction stays as it is),
    # rates that divide it (denominator 1), and the default 11 Mb/s with loss.
    one_station({"data_rate_bps": 2_000_003}, (12_000, 4_000, 1_500), 0.3, 1_000_003,
                False, 0.0),
    one_station({"data_rate_bps": 2_000_003}, (12_001, 4_001, 1_501), 0.0, 1_000_003,
                True, 0.3),
    one_station({"data_rate_bps": 8_000_000}, (12_000, 4_000, 1_500), 0.3, 8_000_000,
                True, 0.0),
    one_station({"data_rate_bps": 8_000_000}, (9_999, 3_333, 777), 0.0, 8_000_000,
                False, 0.3),
    one_station({}, (12_160, 4_560, 1_520), 0.3, 11_000_000, False, 0.3),
]


def with_examples(test):
    for scenario in reversed(EXAMPLES):
        test = example(scenario=scenario)(test)
    return test


@settings(max_examples=80, derandomize=True, deadline=None)
@given(scenario=scenarios())
@with_examples
def test_engine_matches_the_oracle(scenario):
    note(f"scenario_from_dict({scenario!r})")
    assert_agrees(engine, scenario_from_dict(scenario))


def test_the_examples_cover_every_branch():
    reports = [engine.run(scenario_from_dict(s)) for s in EXAMPLES]
    totals = {name: sum(getattr(r.counters, name) for r in reports) for name in (
        "polls_reference", "polls_adaptive", "polls_fallback", "polls_minimal",
        "null_frames", "lost_frames", "overruns")}
    assert all(totals.values()), totals
    assert any(r.admission_notes for r in reports)
    capped = [p for r in reports if not r.cfg.qs_exact for p in r.polls
              if p.branch == "adaptive" and p.grant_ns == adaptive_txop(
                  oracle_engine.QS_MAX_UNITS * oracle_engine.QS_UNIT_BYTES,
                  r.cfg.station_list()[p.flow].tspec, r.cfg.phy)]
    assert capped


# -- checks of the mutant table ----------------------------------------------
# Each takes an engine module. The last three build an exact-nanosecond tie.

def check_examples(eng, tmp_path):
    for scenario in EXAMPLES:
        assert_agrees(eng, scenario_from_dict(scenario))


def check_frame_received_at_the_end(eng, tmp_path):
    # A run that ends at the instant a frame's air time ends still
    # receives that frame.
    cfg = scenario_from_dict({"preset": "vbr-high", "scheduler": "adaptive",
                              "traffic_start_s": 0.0, "duration_s": 1.0, "seed": 5})
    recv = next(p.recv_ns for p in eng.run(cfg).packets if p.recv_ns > 500 * NS_PER_MS)
    cut = replace(cfg, duration_ns=recv)
    assert [p.recv_ns for p in eng.run(cut).packets][-1] == recv
    assert_agrees(eng, cut)


def check_grants_that_fill_the_si(eng, tmp_path):
    # Two reference grants of 20 ms on a PHY without overhead fill the
    # 40 ms SI exactly: no CAP overruns.
    rate = 8_000_000_000
    cfg = scenario_from_dict({
        "scheduler": "reference", "stations": 2, "traffic_start_s": 0.0,
        "duration_s": 1.0, "record_polls": True,
        "phy": {"sifs_us": 0, "preamble_bits": 0, "plcp_header_bits": 0,
                "mac_header_bytes": 0, "ack_frame_bytes": 0, "poll_frame_bytes": 0,
                "data_rate_bps": rate},
        "tspec": {"rho_bps": 1.0, "nominal_bytes": 100, "max_bytes": 20_000_000,
                  "delay_bound_ms": 80.0, "msi_ms": 40.0, "phys_rate_bps": rate}})
    r = eng.run(cfg)
    assert r.si_ns == 40 * NS_PER_MS
    assert {p.grant_ns for p in r.polls} == {20 * NS_PER_MS}
    assert r.counters.caps == 25 and r.counters.overruns == 0
    assert_agrees(eng, cfg)


def check_minimal_grant_fits_the_null_exchange(eng, tmp_path):
    # Without PHY and MAC headers the minimal grant is exactly the poll and
    # null-frame exchange, so every minimal poll still sends its null frame.
    path = tmp_path / "short.txt"
    path.write_text("0 I 0 5000\n1 P 40 4000\n2 B 80 3000\n")
    cfg = scenario_from_dict({
        "scheduler": "adaptive", "duration_s": 21, "traffic_start_s": 20, "seed": 1,
        "record_polls": True, "traffic": {"kind": "trace", "path": str(path)},
        "tspec": "jurassic-high",
        "phy": {"preamble_bits": 0, "plcp_header_bits": 0, "mac_header_bytes": 0}})
    r = eng.run(cfg)
    assert r.counters.null_frames == 22
    assert all(p.used_ns == p.grant_ns for p in r.polls if p.branch == "minimal")
    assert_agrees(eng, cfg)


def check_delay_columns(mod, tmp_path):
    # A metrics module's delay total and top delays of each flow of a run
    # that delivers and loses frames, against its packet log. Dropping a
    # term of the total moves the mean by less than 1 ns, so the summary
    # row's whole microseconds cannot show it.
    cfg = scenario_from_dict({"preset": "vbr-high", "scheduler": "adaptive",
                              "stations": 3, "duration_s": 24, "seed": 8, "loss_p": 0.1})
    report = engine.run(cfg)
    packets = report.packets
    assert report.counters.lost_frames
    for flow, fl in report.flows.items():
        check_flow_delays(mod, fl, [p for p in packets if p.flow == flow])


# -- mutant table -------------------------------------------------------------

ENGINE_PATH = pathlib.Path(engine.__file__)
METRICS_PATH = pathlib.Path(metrics.__file__)

# (name, file, old text, new text, the check it must fail). Each old text
# occurs exactly once in its file.
MUTANTS = [
    ("no beacon deferral", ENGINE_PATH,
     "(next_beacon if next_beacon > busy_until else busy_until) + beacon_air",
     "next_beacon + beacon_air", check_examples),
    ("no back-to-back CAP push", ENGINE_PATH,
     "if t_cap < t:\n                t_cap = t", "pass", check_examples),
    ("arrival cursor <= becomes <", ENGINE_PATH,
     "arrived = (t_cap - start) // interval + 1",
     "arrived = (t_cap - start - 1) // interval + 1", check_examples),
    ("arrival cursor + 1 becomes + 2", ENGINE_PATH,
     "arrived = (t_cap - start) // interval + 1",
     "arrived = (t_cap - start) // interval + 2", check_examples),
    ("feedback kept after a poll that received nothing", ENGINE_PATH,
     "feedback[flow] = None", "pass", check_examples),
    ("a beacon due at the CAP is sent after it", ENGINE_PATH,
     "while next_beacon <= t_cap:", "while next_beacon < t_cap:", check_examples),
    ("a frame whose exchange fills the grant is not sent", ENGINE_PATH,
     "if acked > budget_end or data_end > dur:",
     "if acked >= budget_end or data_end > dur:", check_examples),
    ("no loss draw for null frames", ENGINE_PATH,
     "if not (lossy and draw() < loss_p):", "if True:", check_examples),
    ("the medium frees when the last exchange ends, not the last grant", ENGINE_PATH,
     "            busy_until = t\n", "            busy_until = tx\n", check_examples),
    ("a frame ending at the end of the run is dropped", ENGINE_PATH,
     "data_end > dur", "data_end >= dur", check_frame_received_at_the_end),
    ("grants that fill the SI count as an overrun", ENGINE_PATH,
     "t - cap_start > si_ns", "t - cap_start >= si_ns", check_grants_that_fill_the_si),
    ("a null exchange that fills the grant is not sent", ENGINE_PATH,
     "null_end + ack_ifs <= budget_end", "null_end + ack_ifs < budget_end",
     check_minimal_grant_fits_the_null_exchange),
    ("the delay total keeps each lost frame's LOST",
     METRICS_PATH, "sum(log.recv_ns) - LOST * lost - ", "sum(log.recv_ns) - ",
     check_delay_columns),
    ("the top delays are counted over the sent frames",
     METRICS_PATH, "n = sum(log.delivered for log in logs)",
     "n = sum(len(log.recv_ns) for log in logs)", check_delay_columns),
]


def load_module(path: pathlib.Path, source: str) -> types.ModuleType:
    """source, the text of the library file path, as a fresh module of the
    hccasim package. It is in sys.modules while it executes, as dataclass
    needs."""
    module = types.ModuleType(f"hccasim._mutant_{path.stem}")
    module.__package__ = "hccasim"
    sys.modules[module.__name__] = module
    try:
        exec(compile(source, str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.mark.parametrize("check", dict.fromkeys(row[4] for row in MUTANTS),
                         ids=lambda f: f.__name__)
def test_the_source_passes_every_check(check, tmp_path):
    # The file its mutants change, loaded as they are: a mutant fails its
    # check for its one changed line, not for the way it was loaded.
    path = next(row[1] for row in MUTANTS if row[4] is check)
    check(load_module(path, path.read_text(encoding="utf-8")), tmp_path)


@pytest.mark.parametrize("path, old, new, check", [row[1:] for row in MUTANTS],
                         ids=[row[0] for row in MUTANTS])
def test_each_mutant_fails_its_check(path, old, new, check, tmp_path):
    source = path.read_text(encoding="utf-8")
    assert source.count(old) == 1
    mutant = load_module(path, source.replace(old, new))
    with pytest.raises(AssertionError):
        check(mutant, tmp_path)
