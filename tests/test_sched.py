import math
import random
from fractions import Fraction

import pytest

from hccasim.phy import NS_PER_MS, FieldError, data_tx_time, txop_overhead
from hccasim.sched import (Tspec, adaptive_txop, admit, assign_si, min_msi, minimal_txop,
                           msdu_count, reference_txop, tspec_preset)

MS = NS_PER_MS
MBPS11 = 11_000_000


def make_tspec(rho=7.7e5, L=3800, M=16745, D=80 * MS, msi=40 * MS, R=MBPS11):
    return Tspec(rho, L, M, D, msi, R)


def test_tspec_validation():
    # One case per check; code-built TSPECs name their own attribute.
    for kwargs, field in [
            ({"rho": 0}, "mean_data_rate_bps"),
            ({"L": 0}, "nominal_msdu_bytes"),
            ({"M": -1}, "max_msdu_bytes"),
            ({"D": 0}, "delay_bound_ns"),
            ({"msi": 0}, "max_service_interval_ns"),
            ({"R": -1}, "phys_rate_bps"),
            ({"L": 5000, "M": 4000}, "max_msdu_bytes"),                # nominal above max
            ({"msi": 100 * MS, "D": 80 * MS}, "max_service_interval_ns"),  # MSI above D
            ({"rho": "fast"}, "mean_data_rate_bps"),                    # wrong types
            ({"L": 3800.0}, "nominal_msdu_bytes")]:
        with pytest.raises(FieldError, match=f"^{field} ") as e:
            make_tspec(**kwargs)
        assert e.value.field == field
        assert isinstance(e.value, ValueError)


def test_presets_match_traffic_parameter_table():
    low = tspec_preset("jurassic-low")
    med = tspec_preset("jurassic-medium")
    high = tspec_preset("jurassic-high")
    assert (low.mean_data_rate_bps, low.nominal_msdu_bytes, low.max_msdu_bytes) == (1.5e5, 770, 8154)
    assert (med.mean_data_rate_bps, med.nominal_msdu_bytes, med.max_msdu_bytes) == (2.7e5, 1300, 8511)
    assert (high.mean_data_rate_bps, high.nominal_msdu_bytes, high.max_msdu_bytes) == (7.7e5, 3800, 16745)
    for t in (low, med, high):
        assert t.delay_bound_ns == 80 * MS
        assert t.max_service_interval_ns == 40 * MS
        assert t.phys_rate_bps == MBPS11
    with pytest.raises(KeyError):
        tspec_preset("nope")


def test_min_msi():
    specs = [make_tspec(msi=m) for m in (40 * MS, 60 * MS, 50 * MS)]
    assert min_msi(specs) == 40 * MS
    assert min_msi(specs[:1]) == 40 * MS
    assert min_msi([tspec_preset(n) for n in
                    ("jurassic-low", "jurassic-medium", "jurassic-high")]) == 40 * MS
    with pytest.raises(ValueError):
        min_msi([])


def test_assign_si_examples():
    assert assign_si(120 * MS, 40 * MS) == (40 * MS, 3)
    si, x = assign_si(100 * MS, 40 * MS)
    assert x == 3 and si == (100 * MS) // 3        # 33.333.. ms floored
    assert assign_si(100 * MS, 100 * MS) == (100 * MS, 1)


def test_assign_si_is_smallest_valid_divisor():
    rng = random.Random(7)
    for _ in range(300):
        beacon = rng.randrange(1 * MS, 500 * MS)
        msi = rng.randrange(1 * MS, 200 * MS)
        si, x = assign_si(beacon, msi)
        # brute-force scan: first divisor whose SI does not exceed MSI_min
        want = next(k for k in range(1, beacon + 2) if Fraction(beacon, k) <= msi)
        assert x == want
        assert Fraction(beacon, x) <= msi
        assert si == beacon // x
        if beacon % x == 0:
            assert x * si == beacon


def test_msdu_count_examples():
    assert msdu_count(40 * MS, make_tspec(rho=7.7e5, L=3800)) == 2
    assert msdu_count(40 * MS, make_tspec(rho=1.5e5, L=770, M=8154)) == 1
    # si*rho exactly one nominal MSDU of bits
    assert msdu_count(1_000_000_000, make_tspec(rho=8000, L=1000, M=1000)) == 1


def test_reference_txop_values(default_phy, zero_overhead_phy):
    high = tspec_preset("jurassic-high")
    low = tspec_preset("jurassic-low")
    # overhead zeroed: pure payload air time, max(N*L, M) arm
    assert reference_txop(high, 40 * MS, zero_overhead_phy) == 12_178_182
    assert reference_txop(low, 40 * MS, zero_overhead_phy) == 5_930_182
    # full overheads
    assert reference_txop(high, 40 * MS, default_phy) == 12_178_182 + 1_032_182
    # N*L == M with zero overhead: both arms equal
    t = make_tspec(rho=8000, L=1000, M=1000)
    assert reference_txop(t, 1_000_000_000, zero_overhead_phy) == \
        (1000 * 8 * 10**9 + MBPS11 - 1) // MBPS11
    # N = 10 nominal MSDUs outweigh one maximum MSDU: that arm charges the
    # overhead of all ten
    t = make_tspec(rho=2e6, L=1000, M=1000)
    assert msdu_count(40 * MS, t) == 10
    assert reference_txop(t, 40 * MS, default_phy) == \
        7_272_728 + txop_overhead(10, default_phy) == 7_272_728 + 5_911_820


def test_adaptive_txop_values(zero_overhead_phy, default_phy):
    high = tspec_preset("jurassic-high")
    assert adaptive_txop(8124, high, zero_overhead_phy) == 5_908_364
    assert adaptive_txop(6442, high, zero_overhead_phy) == 4_685_091
    # one second of payload when next_size*8 == R
    t = make_tspec(rho=1e5, L=1000, M=2_000_000, R=8_000_000)
    assert adaptive_txop(1_000_000, t, zero_overhead_phy) == 1_000_000_000
    with pytest.raises(ValueError):
        adaptive_txop(0, high, default_phy)


def test_adaptive_txop_monotone_and_bounded_below(default_phy):
    high = tspec_preset("jurassic-high")
    prev = 0
    for size in range(1, 20000, 97):
        g = adaptive_txop(size, high, default_phy)
        assert g > prev
        assert g >= (size * 8 * 10**9) // MBPS11
        prev = g


def test_adaptive_never_exceeds_reference_at_nominal(default_phy):
    # CBR at exactly L with N=1: the reference max() includes the M arm,
    # so the feedback grant for L can never exceed it
    for name in ("jurassic-low", "jurassic-medium", "jurassic-high"):
        t = tspec_preset(name)
        ref = reference_txop(t, 40 * MS, default_phy)
        assert adaptive_txop(t.nominal_msdu_bytes, t, default_phy) <= ref


def test_minimal_txop(default_phy):
    high = tspec_preset("jurassic-high")
    assert minimal_txop(high, default_phy) == \
        txop_overhead(1, default_phy) + data_tx_time(0, default_phy)


# ---------------------------------------------------------------------------
# Admission control vs a from-scratch oracle.
# ---------------------------------------------------------------------------

def oracle_admit_sequence(tspecs, beacon_ns, phy, t_cp_ns=0):
    """Independent re-derivation: for each candidate, recompute everything
    from first principles with Fraction arithmetic and brute-force scans.
    The MSDU count uses the floored integer-ns SI (the artifact's documented
    time quantization); the budget inequality uses the exact rational SI."""
    admitted = []
    decisions = []
    for cand in tspecs:
        group = admitted + [cand]
        msi_min = min(t.max_service_interval_ns for t in group)
        x = next(k for k in range(1, beacon_ns + 2)
                 if Fraction(beacon_ns, k) <= msi_min)
        si = Fraction(beacon_ns, x)
        si_q = beacon_ns // x
        total = Fraction(0)
        for t in group:
            n = math.ceil(Fraction(si_q) * Fraction(t.mean_data_rate_bps)
                          / (10**9 * t.nominal_msdu_bytes * 8))
            n = max(1, n)
            o_n = _oracle_overhead(n, phy)
            o_1 = _oracle_overhead(1, phy)
            arm1 = _ceil(Fraction(n * t.nominal_msdu_bytes * 8, t.phys_rate_bps) * 10**9) + o_n
            arm2 = _ceil(Fraction(t.max_msdu_bytes * 8, t.phys_rate_bps) * 10**9) + o_1
            total += max(arm1, arm2)
        ok = total / si <= Fraction(beacon_ns - t_cp_ns, beacon_ns)
        decisions.append(bool(ok))
        if ok:
            admitted.append(cand)
    return decisions


def _ceil(frac):
    return math.ceil(frac)


def _oracle_overhead(n, p):
    basic, data = p.basic_rate_bps, p.data_rate_bps
    poll = _ceil(Fraction((p.preamble_bits + p.plcp_header_bits + p.poll_frame_bytes * 8)
                          * 10**9, basic))
    ack = _ceil(Fraction((p.preamble_bits + p.plcp_header_bits + p.ack_frame_bytes * 8)
                         * 10**9, basic))
    phy_hdr = _ceil(Fraction((p.preamble_bits + p.plcp_header_bits) * 10**9, basic))
    mac_hdr = _ceil(Fraction(p.mac_header_bytes * 8 * 10**9, data))
    return poll + p.sifs_ns + n * (phy_hdr + mac_hdr + p.sifs_ns + ack + p.sifs_ns)


def run_admit_sequence(tspecs, beacon_ns, phy):
    """(accept decisions, rejection reasons) of admit over the sequence."""
    reasons = admit(tspecs, beacon_ns, phy)
    return [r is None for r in reasons], reasons


def test_admit_trivial_accept(default_phy):
    high = tspec_preset("jurassic-high")
    assert admit([high], 120 * MS, default_phy) == [None]
    assert assign_si(120 * MS, min_msi([high])) == (40 * MS, 3)


def test_admit_rejects_over_budget(default_phy):
    # five admitted flows totalling ~95% utilization; a ~10% candidate
    # pushes the total to ~1.05 and must be rejected
    beacon = si = 100 * MS
    fat = make_tspec(rho=1e5, L=1000, M=24705, msi=si, D=si)
    cand = make_tspec(rho=1e5, L=1000, M=12330, msi=si, D=si)
    tiny = make_tspec(rho=1e4, L=200, M=200, msi=si, D=si)
    fat_txop = reference_txop(fat, si, default_phy)
    cand_txop = reference_txop(cand, si, default_phy)
    tiny_txop = reference_txop(tiny, si, default_phy)
    assert abs(5 * fat_txop / si - 0.95) < 0.001
    assert abs(cand_txop / si - 0.10) < 0.001
    assert 5 * fat_txop + tiny_txop <= si
    total = 5 * fat_txop + cand_txop
    reason = (f"utilization {total / si:.4f} exceeds 1.0000 "
              f"(sum TXOP {total} ns over SI {si} ns)")
    # The admitted set is unchanged on reject: the second candidate meets
    # the same five flows, and the tiny stream still fits after both.
    assert admit([fat] * 5 + [cand, cand, tiny], beacon, default_phy) == \
        [None] * 5 + [reason, reason, None]


def test_admit_low_quality_boundary(default_phy):
    # M-arm TXOP of the low preset is 6962364 ns, so exactly five 40 ms
    # flows fit a 120 ms beacon; the sixth must be rejected
    low = tspec_preset("jurassic-low")
    assert reference_txop(low, 40 * MS, default_phy) == 6_962_364
    decisions, _ = run_admit_sequence([low] * 12, 120 * MS, default_phy)
    assert decisions == [True] * 5 + [False] * 7


def test_admit_matches_oracle_on_presets(default_phy):
    presets = [tspec_preset(n) for n in
               ("jurassic-low", "jurassic-medium", "jurassic-high")]
    for beacon in (100 * MS, 120 * MS, 200 * MS):
        for reps in (1, 4, 12):
            tspecs = (presets * reps)[:12]
            got, _ = run_admit_sequence(tspecs, beacon, default_phy)
            assert got == oracle_admit_sequence(tspecs, beacon, default_phy)


def random_tspec(rng):
    L = rng.randrange(200, 4000)
    M = L + rng.randrange(0, 20000)
    msi = rng.randrange(10, 101) * MS
    return Tspec(
        mean_data_rate_bps=rng.randrange(50_000, 3_000_000),
        nominal_msdu_bytes=L,
        max_msdu_bytes=M,
        delay_bound_ns=msi + rng.randrange(0, 100) * MS,
        max_service_interval_ns=msi,
        phys_rate_bps=rng.choice([1_000_000, 2_000_000, 5_500_000, 11_000_000]),
    )


def test_admit_matches_oracle_randomized(default_phy):
    rng = random.Random(20240811)
    for _ in range(120):
        tspecs = [random_tspec(rng) for _ in range(rng.randrange(1, 13))]
        beacon = rng.randrange(40, 301) * MS
        got, _ = run_admit_sequence(tspecs, beacon, default_phy)
        want = oracle_admit_sequence(tspecs, beacon, default_phy)
        assert got == want, (beacon, tspecs)


def test_admit_monotone_in_load(default_phy):
    # if an admitted set rejects a candidate, a strictly more loaded set does too
    rng = random.Random(99)
    beacon = 120 * MS
    for _ in range(50):
        cand = random_tspec(rng)
        flows = [random_tspec(rng) for _ in range(6)]
        rejected_at = None
        for i in range(len(flows)):
            probe = admit(flows[:i + 1] + [cand], beacon, default_phy)[-1]
            if rejected_at is not None:
                assert probe is not None
            elif probe is not None:
                rejected_at = i


def test_admit_recomputes_txops_when_si_shrinks(default_phy):
    # admitted flow whose N*L arm dominates: its TXOP must shrink when a
    # short-MSI candidate drags the SI down, and only the shrunk TXOP lets
    # the candidate in
    beacon = 120 * MS
    heavy = make_tspec(rho=3e6, L=1000, M=1000, msi=40 * MS, D=80 * MS)
    shortmsi = make_tspec(rho=1e5, L=500, M=500, msi=20 * MS, D=40 * MS)
    assert assign_si(beacon, min_msi([heavy, shortmsi])) == (20 * MS, 6)
    txop_at_40 = reference_txop(heavy, 40 * MS, default_phy)
    txop_at_20 = reference_txop(heavy, 20 * MS, default_phy)
    short_txop = reference_txop(shortmsi, 20 * MS, default_phy)
    assert txop_at_20 < txop_at_40
    assert (txop_at_20 + short_txop) * 6 <= beacon < (txop_at_40 + short_txop) * 6
    assert admit([heavy], beacon, default_phy) == [None]
    assert admit([heavy, shortmsi], beacon, default_phy) == [None, None]


def test_schedule_grants_fit_si(default_phy):
    beacon = 120 * MS
    tspecs = [tspec_preset("jurassic-low")] * 12
    admitted = [t for t, r in zip(tspecs, admit(tspecs, beacon, default_phy)) if r is None]
    assert admitted
    si_ns, divisor = assign_si(beacon, min_msi(admitted))
    grants = [reference_txop(t, si_ns, default_phy) for t in admitted]
    assert sum(grants) <= si_ns
    # utilization: sum of TXOP_i / SI
    assert sum(grants) * divisor / beacon <= 1.0
