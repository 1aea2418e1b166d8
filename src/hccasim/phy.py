"""802.11b PHY/MAC timing model.

All durations are integer nanoseconds; every rate division rounds up to
the next nanosecond so simulation time never accumulates float error.
Defaults follow the long-preamble 11 Mbps parameter set: PHY preamble and
PLCP header always go out at the basic rate, the MAC header and payload
at the data rate, and control frames (poll, ACK) entirely at the basic
rate.
"""

from __future__ import annotations

import types
import typing
from dataclasses import dataclass
from functools import cache

NS_PER_S = 1_000_000_000
NS_PER_MS = 1_000_000
NS_PER_US = 1_000


def _ceil_div(num: int, den: int) -> int:
    return -(-num // den)


def tx_duration_ns(bits: int, rate_bps: int) -> int:
    """Air time of `bits` at `rate_bps`, rounded up to whole nanoseconds."""
    if bits < 0:
        raise ValueError(f"bits must be >= 0, got {bits}")
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive, got {rate_bps}")
    return _ceil_div(bits * NS_PER_S, rate_bps)


class FieldError(ValueError):
    """A config object's field out of range; `field` names the attribute."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname} {message}")
        self.field = fieldname
        self.detail = message


@cache
def _field_types(cls) -> dict:
    """Attribute -> the types its annotation accepts; a float field takes
    an int too."""
    accepted = {}
    for name, hint in typing.get_type_hints(cls).items():
        kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        accepted[name] = kinds + (int,) if float in kinds else kinds
    return accepted


def check_types(obj) -> None:
    """Raise a FieldError naming the first field of the dataclass obj whose
    value is not of its annotated type, before any range check compares it.
    A bool passes only for a bool field, as in a file."""
    for name, kinds in _field_types(type(obj)).items():
        value = getattr(obj, name)
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            names = " or ".join("None" if k is type(None) else k.__name__ for k in kinds)
            raise FieldError(name, f"must be {names}, got {value!r}")


@dataclass(frozen=True)
class PhyParams:
    """PHY/MAC constants. Defaults: SIFS 10 us, 144-bit preamble, 48-bit
    PLCP header, 36-byte MAC header, 11 Mbps data / 1 Mbps basic rate,
    14-byte ACK, 36-byte QoS CF-Poll."""

    sifs_ns: int = 10_000
    preamble_bits: int = 144
    plcp_header_bits: int = 48
    mac_header_bytes: int = 36
    data_rate_bps: int = 11_000_000
    basic_rate_bps: int = 1_000_000
    ack_frame_bytes: int = 14
    poll_frame_bytes: int = 36

    def __post_init__(self):
        check_types(self)
        for name in ("data_rate_bps", "basic_rate_bps"):
            if getattr(self, name) <= 0:
                raise FieldError(name, "must be positive")
        if self.basic_rate_bps > self.data_rate_bps:
            raise FieldError("basic_rate_bps", f"{self.basic_rate_bps} exceeds "
                             f"data_rate_bps {self.data_rate_bps}")
        for name in ("sifs_ns", "preamble_bits", "plcp_header_bits",
                     "mac_header_bytes", "ack_frame_bytes", "poll_frame_bytes"):
            if getattr(self, name) < 0:
                raise FieldError(name, "must be >= 0")

    # Component times used by both the duration model and the TXOP overhead.
    def phy_header_ns(self) -> int:
        return tx_duration_ns(self.preamble_bits + self.plcp_header_bits,
                              self.basic_rate_bps)

    def mac_header_ns(self) -> int:
        return tx_duration_ns(self.mac_header_bytes * 8, self.data_rate_bps)


def data_tx_time(payload_bytes: int, p: PhyParams) -> int:
    """Air time of a data frame: preamble+PLCP at basic rate, then MAC
    header plus payload at data rate. Payload 0 is a null (QoS-Null) frame."""
    if payload_bytes < 0:
        raise ValueError(f"payload must be >= 0, got {payload_bytes}")
    body_bits = (p.mac_header_bytes + payload_bytes) * 8
    return p.phy_header_ns() + tx_duration_ns(body_bits, p.data_rate_bps)


def ctrl_tx_time(frame_bytes: int, p: PhyParams) -> int:
    """Air time of a control frame (poll, ACK) sent wholly at basic rate."""
    if frame_bytes < 0:
        raise ValueError(f"frame must be >= 0, got {frame_bytes}")
    bits = p.preamble_bits + p.plcp_header_bits + frame_bytes * 8
    return tx_duration_ns(bits, p.basic_rate_bps)


def per_msdu_overhead(p: PhyParams) -> int:
    """Non-payload air time one MSDU exchange costs inside a TXOP:
    PHY header + MAC header + SIFS + ACK + SIFS."""
    return (p.phy_header_ns() + p.mac_header_ns() + p.sifs_ns
            + ctrl_tx_time(p.ack_frame_bytes, p) + p.sifs_ns)


def txop_overhead(n_msdus: int, p: PhyParams) -> int:
    """Overhead term of a TXOP carrying `n_msdus` MSDUs: one poll + SIFS,
    then per-MSDU header/ACK/IFS costs. Affine in n_msdus."""
    if n_msdus < 1:
        raise ValueError(f"n_msdus must be >= 1, got {n_msdus}")
    poll = ctrl_tx_time(p.poll_frame_bytes, p)
    return poll + p.sifs_ns + n_msdus * per_msdu_overhead(p)
