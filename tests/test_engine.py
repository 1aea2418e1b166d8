from array import array
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from conftest import lost_positions, make_scenario
from hccasim import engine
from hccasim.config import ConfigError
from hccasim.engine import SimulationError
from hccasim.metrics import summary_row
from hccasim.phy import NS_PER_MS, ctrl_tx_time
from hccasim.sched import adaptive_txop, reference_txop, tspec_preset
from oracle_engine import decode_qs, encode_qs


def total(report, attr):
    return sum(getattr(t, attr) for t in report.flows.values())


def test_single_station_cbr_delivers_everything():
    cfg = make_scenario(preset="cbr-nominal", scheduler="adaptive", stations=1,
                        duration_s=30, seed=1)
    r = engine.run(cfg)
    assert total(r, "generated") == 250          # 10 s of 25 fps
    assert total(r, "delivered") == 250
    assert total(r, "lost") == 0
    assert r.flows[0].lost_at.tolist() == lost_positions(r.flows[0]) == []
    assert r.conservation_ok()
    # every frame served within one SI of its arrival
    assert all(p.recv_ns - p.gen_ns <= r.si_ns for p in r.packets)


def test_zero_duration_run_is_empty():
    cfg = make_scenario(preset="vbr-high", duration_s=0)
    r = engine.run(cfg)
    assert r.packets == []
    assert total(r, "generated") == 0
    assert r.counters.caps == 0


def test_determinism_byte_identical():
    for loss in (0.0, 0.3):
        cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=3,
                            duration_s=25, seed=11, loss_p=loss)
        a = engine.run(cfg).packets_csv()
        b = engine.run(cfg).packets_csv()
        assert a == b
    c = engine.run(make_scenario(preset="vbr-high", scheduler="adaptive",
                                 stations=3, duration_s=25, seed=12)).packets_csv()
    assert a != c


def test_a_simulation_runs_again_with_the_same_report():
    # Lossy adaptive run with frames left queued, so every piece of run
    # state (send cursors, receive logs, last reports, loss draws) counts.
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=10,
                        duration_s=25, seed=3, loss_p=0.1, record_polls=True)
    sim = engine.Simulation(cfg)
    first = sim.run()
    assert total(first, "queued_end") > 0 and total(first, "lost") > 0
    columns = {flow: (log.recv_ns.tolist(), log.lost_at.tolist(), log.queued_end)
               for flow, log in first.flows.items()}
    csv, row = first.packets_csv(), summary_row(first)
    second = sim.run()
    assert second.packets_csv() == csv
    assert summary_row(second) == row
    assert second.counters == first.counters
    assert second.polls == first.polls and first.polls
    assert {flow: (log.recv_ns.tolist(), log.lost_at.tolist(), log.queued_end)
            for flow, log in first.flows.items()} == columns
    assert all(log.lost_at.tolist() == lost_positions(log) for log in second.flows.values())
    assert first.conservation_ok() and second.conservation_ok()


def test_conservation_across_scenarios():
    scenarios = [
        dict(preset="vbr-high", scheduler="reference", stations=5, duration_s=24),
        dict(preset="vbr-high", scheduler="adaptive", stations=5, duration_s=24),
        dict(preset="vbr-high", scheduler="adaptive", stations=2, duration_s=24, loss_p=0.2),
        dict(preset="cbr-nominal", scheduler="reference", stations=4, duration_s=24),
    ]
    for kw in scenarios:
        r = engine.run(make_scenario(seed=5, **kw))
        assert r.conservation_ok(), kw
        assert total(r, "generated") > 0


def test_conservation_checks_the_cursor_against_the_log():
    r = engine.run(make_scenario(preset="vbr-high", scheduler="adaptive", stations=2,
                                 duration_s=24, seed=5, loss_p=0.2))
    log = r.flows[1]
    assert log.conserved() and log.lost > 0
    assert log.generated == len(log.recv_ns) + log.queued_end
    # A backlog that disagrees with the log by one frame either way.
    for skew in (-1, 1):
        bad = replace(log, queued_end=log.queued_end + skew)
        assert not bad.conserved()
        assert not replace(r, flows={**r.flows, 1: bad}).conservation_ok()
    short = replace(log, recv_ns=log.recv_ns[:-1])
    assert not short.conserved()


def test_clock_monotonic_per_flow():
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=4,
                        duration_s=24, seed=2)
    r = engine.run(cfg)
    for flow in r.flows:
        recv = [p.recv_ns for p in r.packets if p.flow == flow and not p.lost]
        assert recv == sorted(recv)


def test_total_loss_exercises_fallback_branch():
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=2,
                        duration_s=23, seed=4, loss_p=1.0)
    r = engine.run(cfg)
    assert total(r, "delivered") == 0
    assert total(r, "lost") > 0
    assert all(log.lost_at.tolist() == lost_positions(log) == list(range(len(log.recv_ns)))
               for log in r.flows.values())
    assert r.conservation_ok()
    # nothing ever received, so every poll keeps using the mean-based formula
    assert r.counters.polls_adaptive == 0
    assert r.counters.polls_fallback > 0


def test_partial_loss_rate_plausible():
    cfg = make_scenario(preset="cbr-nominal", scheduler="adaptive", stations=2,
                        duration_s=40, seed=9, loss_p=0.2)
    r = engine.run(cfg)
    frames = total(r, "delivered") + total(r, "lost")
    assert frames > 500
    rate = total(r, "lost") / frames
    assert 0.15 < rate < 0.25
    assert r.counters.polls_fallback > 0     # lost frames invalidate feedback


def test_cbr_reference_equals_adaptive_exact_qs():
    # at exactly the nominal size with N=1, the mean-based and the
    # feedback-based grant formulas coincide, so the timelines match
    logs = {}
    for sched in ("reference", "adaptive"):
        cfg = make_scenario(preset="cbr-nominal", scheduler=sched, stations=3,
                            duration_s=30, seed=6, qs_exact=True)
        logs[sched] = engine.run(cfg).packets_csv()
    assert logs["reference"] == logs["adaptive"]


def test_error_free_feasible_same_delivered_set():
    sets = {}
    for sched in ("reference", "adaptive"):
        cfg = make_scenario(preset="vbr-high", scheduler=sched, stations=3,
                            duration_s=30, seed=8)
        r = engine.run(cfg)
        assert r.counters.overruns == 0
        sets[sched] = {(p.flow, p.seq) for p in r.packets if not p.lost}
    assert sets["reference"] == sets["adaptive"]


def test_overruns_recorded_when_admission_off():
    cfg = make_scenario(preset="vbr-high", scheduler="reference", stations=8,
                        duration_s=24, seed=3)
    r = engine.run(cfg)
    assert r.counters.overruns > 0           # 8 * max-MSDU grants >> SI
    assert r.conservation_ok()


def test_adaptive_bootstrap_cap_overrun_at_four_stations():
    # every station's first poll uses the mean-based fallback grant; four
    # max-MSDU-sized grants exceed one SI, so the bootstrap CAP records a
    # single overrun before feedback shrinks the grants
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=4,
                        duration_s=50, seed=17)
    r = engine.run(cfg)
    assert r.counters.overruns == 1
    assert r.counters.polls_fallback == 4


@pytest.mark.parametrize("scheduler, traffic, counts", [
    # (overruns, polls_reference, polls_adaptive, polls_fallback,
    #  polls_minimal, null_frames, lost_frames)
    ("reference", {}, (63, 753, 0, 0, 0, 0, 228)),
    ("reference", {"i_size": 20000}, (63, 753, 0, 0, 0, 718, 8)),
    ("adaptive", {}, (164, 0, 1861, 190, 0, 11, 241)),
    ("adaptive", {"i_size": 20000}, (148, 0, 1641, 175, 0, 27, 209)),
])
def test_overloaded_lossy_run_counters_are_pinned(scheduler, traffic, counts):
    # Twelve stations overload the SI and lose a tenth of their frames;
    # I-frames of 20 000 B outgrow the reference grant, so its polls send
    # null frames. The overrun count checks the CAP's grant total, the
    # branch counts check the feedback the adaptive grants read.
    cfg = make_scenario(preset="vbr-high", scheduler=scheduler, stations=12,
                        duration_s=30, seed=3, loss_p=0.1, traffic=traffic)
    c = engine.run(cfg).counters
    assert (c.overruns, c.polls_reference, c.polls_adaptive, c.polls_fallback,
            c.polls_minimal, c.null_frames, c.lost_frames) == counts


def test_admission_on_feasible_never_overruns():
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=3,
                        duration_s=30, seed=3, admission="on", loss_p=0.2)
    r = engine.run(cfg)
    assert r.admission_notes == []
    assert r.counters.overruns == 0


def test_admission_abort_and_run_modes():
    base = dict(preset="vbr-high", scheduler="reference", stations=4,
                duration_s=22, admission="on")
    reason = ("utilization 1.3210 exceeds 1.0000 "
              "(sum TXOP 52841456 ns over SI 40000000 ns)")
    with pytest.raises(SimulationError) as e:
        engine.run(make_scenario(**base))
    assert str(e.value) == (f"admission control rejected flow 3 ({reason}); "
                            f"set on_reject: run or admission: off to simulate anyway")
    r = engine.run(make_scenario(on_reject="run", **base))
    assert r.admission_notes == [f"flow 3 rejected: {reason}"]  # only the 4th fails Eq. (5)
    assert total(r, "delivered") > 0


def test_polling_starts_with_traffic():
    cfg = make_scenario(preset="vbr-high", scheduler="reference", stations=2,
                        duration_s=25, traffic_start_s=20, seed=1, record_polls=True)
    r = engine.run(cfg)
    assert min(p.poll_ns for p in r.polls) >= 20_000_000_000
    assert r.counters.caps > 500             # CAP grid still runs from t=0


def test_first_poll_uses_mean_based_grant():
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=3,
                        duration_s=22, seed=1, record_polls=True)
    r = engine.run(cfg)
    first = {}
    for p in r.polls:
        first.setdefault(p.flow, p)
    assert all(p.branch == "fallback" for p in first.values())
    assert r.counters.polls_fallback == 3


def test_arrival_at_boundary_served_in_same_cap():
    # frame 0 lands exactly on an SI boundary; the same-instant CAP serves it
    cfg = make_scenario(preset="cbr-nominal", scheduler="adaptive", stations=1,
                        duration_s=21, traffic_start_s=20, seed=1)
    r = engine.run(cfg)
    p0 = r.packets[0]
    assert p0.gen_ns == 20_000_000_000
    assert p0.recv_ns - p0.gen_ns < r.si_ns


def test_second_poll_grant_matches_reported_next_size():
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=1,
                        duration_s=22, seed=13, qs_exact=True, record_polls=True)
    r = engine.run(cfg)
    sizes = [p.size_bytes for p in r.packets]
    tspec = tspec_preset("jurassic-high")
    data_polls = [p for p in r.polls if p.frames_sent > 0]
    # poll k+1's grant is exactly the feedback grant for frame k+1's size
    for poll, size in zip(data_polls[1:], sizes[1:]):
        assert poll.branch == "adaptive"
        assert poll.grant_ns == adaptive_txop(size, tspec, cfg.phy)


def test_grant_always_covers_actual_use():
    for kw in (dict(preset="vbr-high", scheduler="adaptive", stations=4, qs_exact=False),
               dict(preset="vbr-high", scheduler="reference", stations=4),
               dict(preset="vbr-high", scheduler="adaptive", stations=2, loss_p=0.3)):
        cfg = make_scenario(duration_s=24, seed=21, record_polls=True, **kw)
        r = engine.run(cfg)
        assert r.polls
        assert all(p.used_ns <= p.grant_ns for p in r.polls), kw


def test_stream_end_turns_polls_minimal(tmp_path):
    # three-frame trace, long run: once drained the station reports 0 and
    # gets null-frame polls with the minimal grant
    path = tmp_path / "short.txt"
    path.write_text("0 I 0 5000\n1 P 40 4000\n2 B 80 3000\n")
    cfg = make_scenario(scheduler="adaptive", duration_s=21, traffic_start_s=20,
                        seed=1, record_polls=True,
                        traffic={"kind": "trace", "path": str(path)},
                        tspec="jurassic-high")
    r = engine.run(cfg)
    assert total(r, "delivered") == 3
    assert r.counters.polls_minimal > 0
    assert r.counters.null_frames > 0
    branches = [p.branch for p in r.polls if p.poll_ns > 20_200_000_000]
    assert set(branches) == {"minimal"}


def test_each_trace_file_is_parsed_once_per_run(tmp_path, monkeypatch):
    parsed, traces = [], []

    def load_trace(path):
        parsed.append(path)
        traces.append(real_load(path))
        return traces[-1]

    real_load = engine.load_trace
    monkeypatch.setattr(engine, "load_trace", load_trace)
    paths = [tmp_path / f"t{i}.txt" for i in range(3)]
    for path in paths:
        path.write_text("0 I 0 5000\n1 P 40 4000\n")

    def scenario(station_paths):
        return make_scenario(duration_s=21, traffic_start_s=20, stations=[
            {"traffic": {"kind": "trace", "path": str(p)}} for p in station_paths])

    sim = engine.Simulation(scenario([paths[0]] * 12))
    assert parsed == [str(paths[0])]
    # The run uses the whole file, so the 12 stations share the parsed
    # trace's own columns.
    first = sim.stations[0]
    assert first.sizes == array("q", [5000, 4000]) and first.seqs == array("q", [0, 1])
    assert all(st.sizes is traces[0].size_bytes and st.seqs is traces[0].seqs
               for st in sim.stations)
    engine.Simulation(scenario(paths))
    assert parsed == [str(paths[0])] + [str(p) for p in paths]
    # Not across runs: a file rewritten between runs is read again.
    paths[0].write_text("0 I 0 700\n")
    sim = engine.Simulation(scenario([paths[0]] * 12))
    assert parsed[-1] == str(paths[0]) and len(parsed) == 5
    assert all(st.sizes == array("q", [700]) for st in sim.stations)
    # A run shorter than the file slices each station's own copy of its head.
    paths[0].write_text("".join(f"{k} I {40 * k} {900 + k}\n" for k in range(40)))
    sim = engine.Simulation(scenario([paths[0]] * 2))
    assert [list(st.sizes) for st in sim.stations] == [list(range(900, 925))] * 2
    # One file however it is spelled: parsed once, under the first spelling.
    monkeypatch.chdir(tmp_path)
    del parsed[:], traces[:]
    sim = engine.Simulation(scenario(["t1.txt", "./t1.txt", paths[1], "t1.txt"]))
    assert parsed == ["t1.txt"]
    assert all(st.sizes is traces[0].size_bytes and st.seqs is traces[0].seqs
               for st in sim.stations)
    # One file at two frame intervals: parsed once, each station keeping
    # its own interval.
    del parsed[:], traces[:]
    sim = engine.Simulation(make_scenario(duration_s=21, traffic_start_s=20, stations=[
        {"traffic": {"kind": "trace", "path": "t2.txt", "frame_interval_ms": ms}}
        for ms in (40, 20)]))
    assert parsed == ["t2.txt"]
    assert all(st.sizes is traces[0].size_bytes and st.seqs is traces[0].seqs
               for st in sim.stations)
    assert [st.interval for st in sim.stations] == [40_000_000, 20_000_000]


def test_a_set_up_replays_the_first_of_the_stations_it_is_given():
    # A 2-station cell on a 4-station set-up's schedules, as a sweep runs
    # it: another scheduler and run seed, the same traffic seed.
    cfg = make_scenario(preset="vbr-high", stations=4, duration_s=22, loss_p=0.1,
                        traffic={"seed": 3})
    big = engine.Simulation(cfg)
    cell = replace(cfg, stations=2, scheduler="reference", seed=9)
    sim = engine.Simulation(cell, big.stations)
    assert sim.stations == big.stations[:2]
    assert sim.run().packets_csv() == engine.run(cell).packets_csv()
    # Fewer schedules than stations is refused, not a smaller run.
    with pytest.raises(ValueError, match="^2 station schedules for 4 stations$"):
        engine.Simulation(cfg, sim.stations)


@pytest.mark.parametrize("duration_s, note", [(20.08, False), (20.14, True), (20.2, True)])
def test_largest_frame_note_reads_the_frames_the_run_replays(tmp_path, duration_s, note):
    # Frame 3 is above the TSPEC maximum MSDU (16 745 B); a run that ends
    # before it is generated replays a head without it and notes nothing.
    # The shorter runs slice the file; the longest replays all of it.
    path = tmp_path / "t.txt"
    path.write_text("0 I 0 900\n1 P 40 800\n2 B 80 700\n3 I 120 20000\n4 P 160 600\n")
    sim = engine.Simulation(make_scenario(
        duration_s=duration_s, traffic_start_s=20, tspec="jurassic-high",
        stations=[{"traffic": {"kind": "trace", "path": str(path)}}] * 2))
    assert [st.largest for st in sim.stations] == [20000 if note else 900] * 2
    assert sim.traffic_notes == [
        f"flow {i}: largest frame is 20000 B, above tspec.max_msdu_bytes 16745 B; "
        f"grants sized from the TSPEC may never fit it" for i in range(2)] * note


def test_a_bad_shared_trace_names_the_first_station(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 I 0 900\n1 Q 40 800\n")
    cfg = make_scenario(duration_s=21, stations=[
        {"traffic": {"kind": "trace", "path": str(path)}}] * 12)
    with pytest.raises(ConfigError,
                       match=r"^stations\[0\]\.traffic\.path: line 2: unknown frame type"):
        engine.run(cfg)


def test_reference_scheduler_ignores_feedback(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("0 I 0 5000\n1 P 40 4000\n")
    cfg = make_scenario(scheduler="reference", duration_s=21, traffic_start_s=20,
                        seed=1, record_polls=True,
                        traffic={"kind": "trace", "path": str(path)},
                        tspec="jurassic-high")
    r = engine.run(cfg)
    want = reference_txop(tspec_preset("jurassic-high"), r.si_ns, cfg.phy)
    assert all(p.grant_ns == want and p.branch == "reference" for p in r.polls)


def test_stagger_offsets_station_starts():
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=3,
                        duration_s=23, seed=2,
                        traffic={"stagger_ms": 120.0})
    r = engine.run(cfg)
    firsts = {}
    for p in r.packets:
        firsts.setdefault(p.flow, p.gen_ns)
    assert firsts[1] - firsts[0] == 120 * NS_PER_MS
    assert firsts[2] - firsts[0] == 240 * NS_PER_MS


def test_phy_overrides_flow_through(tmp_path):
    # grants are computed at the TSPEC physical rate, so a slower PHY needs
    # a matching phys_rate_bps or nothing fits the granted budget
    cfg = make_scenario(stations=1, duration_s=21,
                        phy={"sifs_us": 16, "data_rate_bps": 5_500_000},
                        traffic={"kind": "synth", "pattern": "I", "i_size": 3800,
                                 "p_size": 3800, "b_size": 3800, "jitter": 0.0},
                        tspec={"rho_bps": 760000.0, "nominal_bytes": 3800,
                               "max_bytes": 3800, "delay_bound_ms": 80.0,
                               "msi_ms": 40.0, "phys_rate_bps": 5_500_000})
    assert cfg.phy.sifs_ns == 16_000
    assert cfg.phy.data_rate_bps == 5_500_000
    r = engine.run(cfg)
    assert total(r, "delivered") == total(r, "generated") > 0


def test_non_dividing_beacon_interval_grid_reanchors():
    # 100 ms beacon with 40 ms MSI gives x=3 and si floor(100/3) ms; boundaries
    # re-anchor every beacon so three CAPs land in each beacon, drift-free
    cfg = make_scenario(preset="cbr-nominal", stations=1, duration_s=23,
                        beacon_interval_ms=100.0, seed=1)
    r = engine.run(cfg)
    assert r.divisor == 3
    assert r.si_ns == 100_000_000 // 3
    assert r.counters.caps == 3 * r.counters.beacons == 690
    assert sum(t.delivered for t in r.flows.values()) == \
        sum(t.generated for t in r.flows.values()) > 0


def test_beacon_air_time_charged():
    cfg = make_scenario(preset="cbr-nominal", stations=1, duration_s=21, seed=1)
    r = engine.run(cfg)
    assert r.counters.beacons == 175          # every 120 ms over 21 s
    # frames arriving at a beacon-aligned boundary wait out the beacon
    beacon_air = ctrl_tx_time(engine.BEACON_FRAME_BYTES, cfg.phy)
    delayed = [p for p in r.packets if p.gen_ns % r.cfg.beacon_interval_ns == 0]
    undelayed = [p for p in r.packets if p.gen_ns % r.cfg.beacon_interval_ns != 0]
    assert delayed and undelayed
    gap = (p := delayed[0]).recv_ns - p.gen_ns
    base = (q := undelayed[0]).recv_ns - q.gen_ns
    assert gap - base == beacon_air


OVERLOAD = dict(preset="vbr-high", scheduler="adaptive", stations=12, seed=11,
                traffic={"i_size": 30000, "p_size": 12000, "b_size": 6000})


@pytest.mark.parametrize("kwargs, beacons", [
    (dict(duration_s=0), 0),
    # 100 ms beacons over a 33.3 ms SI grid; the run ends mid-interval
    (dict(preset="cbr-nominal", beacon_interval_ms=100.0, duration_s=23.05), 231),
    # 7.3 ms beacons, one CAP each: overloaded once traffic starts
    (dict(OVERLOAD, beacon_interval_ms=7.3, duration_s=21.7), 2973),
    (dict(OVERLOAD, beacon_interval_ms=100.0, duration_s=24), 240),
])
def test_every_beacon_instant_before_the_end_is_counted(kwargs, beacons):
    # Counters.beacons is ceil(duration / beacon interval), as
    # config.check_run_size counts them: a beacon deferred by a CAP that
    # holds the medium still goes out, and one due after the last CAP
    # started still counts.
    cfg = make_scenario(record_polls=True, **kwargs)
    r = engine.run(cfg)
    bi = cfg.beacon_interval_ns
    assert r.counters.beacons == len(range(0, cfg.duration_ns, bi)) == beacons
    if cfg.stations == 12:
        assert r.counters.overruns > 0
        # a beacon instant falls strictly inside a granted TXOP, so the
        # beacon waits for the CAP to end
        assert any(p.poll_ns < -(-p.poll_ns // bi) * bi < p.poll_ns + p.grant_ns
                   for p in r.polls)


# -- queue-size field (the oracle's formulas; the engine inlines them) -------

@given(st.integers(min_value=1, max_value=65024))
def test_quantized_report_never_underestimates(size):
    assert decode_qs(encode_qs(size, exact=False), exact=False) >= size


@given(st.integers(min_value=1, max_value=10**7))
def test_exact_report_round_trips(size):
    assert decode_qs(encode_qs(size, exact=True), exact=True) == size


def test_qs_examples():
    assert encode_qs(6442, exact=False) == 26
    assert decode_qs(26, exact=False) == 6656
    assert encode_qs(0, exact=False) == 0
    assert decode_qs(0, exact=True) == 0
    assert encode_qs(10**6, exact=False) == 254      # capped


def test_quantized_slack_stays_under_one_unit():
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=1,
                        duration_s=23, seed=3, qs_exact=False, record_polls=True)
    r = engine.run(cfg)
    quantum_air = (256 * 8 * 10**9 + cfg.phy.data_rate_bps - 1) // cfg.phy.data_rate_bps
    polls = [p for p in r.polls if p.branch == "adaptive" and p.frames_sent > 0]
    assert polls
    for p in polls:
        assert p.grant_ns - p.used_ns < quantum_air + 2
