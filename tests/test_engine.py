import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_scenario
from hccasim import engine
from hccasim.engine import SimulationError, decode_qs, encode_qs
from hccasim.phy import NS_PER_MS, PhyParams, ctrl_tx_time, data_tx_time
from hccasim.sched import adaptive_txop, minimal_txop, reference_txop, tspec_preset


def total(report, attr):
    return sum(getattr(t, attr) for t in report.flows.values())


def test_single_station_cbr_delivers_everything():
    cfg = make_scenario(preset="cbr-nominal", scheduler="adaptive", stations=1,
                        duration_s=30, seed=1)
    r = engine.run(cfg)
    assert total(r, "generated") == 250          # 10 s of 25 fps
    assert total(r, "delivered") == 250
    assert total(r, "lost") == 0
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


def test_admission_on_feasible_never_overruns():
    cfg = make_scenario(preset="vbr-high", scheduler="adaptive", stations=3,
                        duration_s=30, seed=3, admission="on", loss_p=0.2)
    r = engine.run(cfg)
    assert r.admission_notes == []
    assert r.counters.overruns == 0


def test_admission_abort_and_run_modes():
    base = dict(preset="vbr-high", scheduler="reference", stations=4,
                duration_s=22, admission="on")
    with pytest.raises(SimulationError) as e:
        engine.run(make_scenario(**base))
    assert "rejected" in str(e.value)
    r = engine.run(make_scenario(on_reject="run", **base))
    assert len(r.admission_notes) == 1       # only the 4th flow fails Eq. (5)
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


@settings(max_examples=60, deadline=None)
@given(phy=st.builds(PhyParams,
                     sifs_ns=st.integers(0, 50_000),
                     preamble_bits=st.integers(0, 200),
                     plcp_header_bits=st.integers(0, 100),
                     mac_header_bytes=st.integers(0, 60),
                     data_rate_bps=st.integers(2_000_000, 54_000_000),
                     basic_rate_bps=st.integers(500_000, 2_000_000),
                     ack_frame_bytes=st.integers(0, 20),
                     poll_frame_bytes=st.integers(0, 40)),
       sizes=st.tuples(*[st.integers(1, 16_000)] * 3),
       jitter=st.sampled_from([0.0, 0.3]),
       phys_rate=st.integers(1_000_000, 54_000_000),
       qs_exact=st.booleans(),
       loss_p=st.sampled_from([0.0, 0.3]))
def test_timeline_matches_phy_and_sched_formulas(phy, sizes, jitter, phys_rate,
                                                 qs_exact, loss_p):
    # Rebuild one station's whole poll/TXOP timeline from phy.* and sched.*:
    # the engine's per-run constants and inline air-time and grant formulas
    # must agree with them exactly.
    cfg = make_scenario(
        scheduler="adaptive", stations=1, traffic_start_s=0, duration_s=0.4,
        seed=1, qs_exact=qs_exact, loss_p=loss_p, record_polls=True, phy=phy,
        traffic={"pattern": "IPB", "i_size": sizes[0], "p_size": sizes[1],
                 "b_size": sizes[2], "jitter": jitter},
        tspec={"rho_bps": 760000.0, "nominal_bytes": 3800, "max_bytes": 16745,
               "delay_bound_ms": 80.0, "msi_ms": 40.0, "phys_rate_bps": phys_rate})
    r = engine.run(cfg)
    station = engine._build_stations(cfg)[0]
    sizes, seqs = station.sizes, station.seqs
    poll_lead = ctrl_tx_time(phy.poll_frame_bytes, phy) + phy.sifs_ns
    ack_ifs = phy.sifs_ns + ctrl_tx_time(phy.ack_frame_bytes, phy) + phy.sifs_ns

    def report_for(index):
        size = sizes[index] if index < len(sizes) else 0
        return decode_qs(encode_qs(size, qs_exact), qs_exact)

    packets = iter(r.packets)
    sent, reported = 0, None
    for poll in r.polls:
        if poll.branch == "adaptive":
            assert poll.grant_ns == adaptive_txop(reported, cfg.tspec, phy)
        elif poll.branch == "minimal":
            assert reported == 0
            assert poll.grant_ns == minimal_txop(cfg.tspec, phy)
        else:
            assert poll.branch == "fallback"
            assert poll.grant_ns == reference_txop(cfg.tspec, r.si_ns, phy)
        tx = poll.poll_ns + poll_lead
        for _ in range(poll.frames_sent):
            rec = next(packets)
            assert (rec.seq, rec.size_bytes) == (seqs[sent], sizes[sent])
            air = data_tx_time(rec.size_bytes, phy)
            assert rec.recv_ns in (None, tx + air)
            tx += air + ack_ifs
            sent += 1
            if not rec.lost:
                reported = report_for(sent)
        if poll.frames_sent == 0 and poll.used_ns != poll_lead:
            tx += data_tx_time(0, phy) + ack_ifs    # null frame
            reported = report_for(sent)             # unused if the null was lost
        assert poll.used_ns == tx - poll.poll_ns
    assert next(packets, None) is None


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
    delayed = [p for p in r.packets if p.gen_ns % r.beacon_interval_ns == 0]
    undelayed = [p for p in r.packets if p.gen_ns % r.beacon_interval_ns != 0]
    assert delayed and undelayed
    gap = (p := delayed[0]).recv_ns - p.gen_ns
    base = (q := undelayed[0]).recv_ns - q.gen_ns
    assert gap - base == beacon_air


# -- queue-size field -------------------------------------------------------

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
