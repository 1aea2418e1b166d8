from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from hccasim.phy import (FieldError, PhyParams, ctrl_tx_time, data_tx_time,
                         per_msdu_overhead, tx_duration_ns, txop_overhead)


def test_defaults_match_standard_parameter_table(default_phy):
    p = default_phy
    assert p.sifs_ns == 10_000
    assert p.preamble_bits == 144
    assert p.plcp_header_bits == 48
    assert p.mac_header_bytes == 36
    assert p.data_rate_bps == 11_000_000
    assert p.basic_rate_bps == 1_000_000
    assert p.ack_frame_bytes == 14
    assert p.poll_frame_bytes == 36
    # No PIFS or slot time: no timing in the model reads one.
    assert {f.name for f in fields(p)} == {
        "sifs_ns", "preamble_bits", "plcp_header_bits", "mac_header_bytes",
        "data_rate_bps", "basic_rate_bps", "ack_frame_bytes", "poll_frame_bytes"}


def test_validation():
    with pytest.raises(ValueError):
        PhyParams(data_rate_bps=0)
    with pytest.raises(ValueError):
        PhyParams(basic_rate_bps=2_000_000, data_rate_bps=1_000_000)
    with pytest.raises(ValueError):
        PhyParams(sifs_ns=-1)
    # A value of the wrong type is refused with its name, before the range checks.
    with pytest.raises(FieldError, match="^sifs_ns must be int, got '10'$"):
        PhyParams(sifs_ns="10")
    with pytest.raises(FieldError, match="^data_rate_bps must be int, got 11000000.0$"):
        PhyParams(data_rate_bps=11e6)


# Hand-evaluated from the duration rule: preamble+PLCP at basic rate,
# MAC header + payload at data rate, ceil to whole ns.
def test_data_tx_time_values(default_phy):
    assert data_tx_time(0, default_phy) == 218_182          # 192us + 288b/11Mbps
    assert data_tx_time(3800, default_phy) == 2_981_819     # 192us + 30688b/11Mbps
    single_rate = PhyParams(data_rate_bps=1_000_000)
    assert data_tx_time(0, single_rate) == 480_000          # (144+48+288)b at 1Mbps


def test_ctrl_tx_time_values(default_phy):
    assert ctrl_tx_time(14, default_phy) == 304_000         # ACK
    assert ctrl_tx_time(36, default_phy) == 480_000         # QoS CF-Poll
    bare = PhyParams(preamble_bits=0, plcp_header_bits=0)
    assert ctrl_tx_time(1, bare) == 8_000                   # 8 bits at 1Mbps


def test_txop_overhead_values(default_phy, zero_overhead_phy):
    assert txop_overhead(1, default_phy) == 1_032_182       # 480+10+542.182 us
    assert txop_overhead(2, default_phy) == 1_574_364       # 480+10+2*542.182 us
    assert txop_overhead(1, zero_overhead_phy) == 0


def test_txop_overhead_rejects_zero_msdus(default_phy):
    with pytest.raises(ValueError):
        txop_overhead(0, default_phy)


def test_data_tx_time_rejects_negative_payload(default_phy):
    with pytest.raises(ValueError):
        data_tx_time(-1, default_phy)


@given(st.integers(min_value=0, max_value=100_000))
def test_data_tx_time_affine_in_payload(payload):
    p = PhyParams()
    base = data_tx_time(payload, p)
    # strictly increasing, and the increment per byte is the byte's air time
    step = data_tx_time(payload + 1, p) - base
    assert base < data_tx_time(payload + 1, p)
    assert step in (tx_duration_ns(8, p.data_rate_bps), tx_duration_ns(8, p.data_rate_bps) - 1,
                    tx_duration_ns(8, p.data_rate_bps) + 1)


@given(st.integers(min_value=0, max_value=100_000))
def test_data_tx_exceeds_raw_payload_time(payload):
    p = PhyParams()
    assert data_tx_time(payload, p) > tx_duration_ns(payload * 8, p.data_rate_bps)


@given(st.integers(min_value=1, max_value=50))
def test_txop_overhead_affine_in_msdu_count(n):
    p = PhyParams()
    delta = txop_overhead(n + 1, p) - txop_overhead(n, p)
    assert delta == per_msdu_overhead(p)
    assert delta > 0


def test_all_durations_are_integer_ns(default_phy):
    for val in (data_tx_time(1234, default_phy), ctrl_tx_time(14, default_phy),
                txop_overhead(3, default_phy)):
        assert isinstance(val, int)


def test_rate_division_rounds_up():
    # 1 bit at 3 bit/s is 333333333.33.. ns; must round up, never truncate
    assert tx_duration_ns(1, 3) == 333_333_334
    assert tx_duration_ns(3, 3) == 1_000_000_000
