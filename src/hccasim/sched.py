"""TXOP scheduling math: TSPEC model, service-interval assignment,
per-stream TXOP computation for the reference (mean-based) and adaptive
(next-frame-size) schedulers, and admission control.

Times are integer nanoseconds throughout; the admission inequality is
evaluated exactly in integers, never in floats. The reference TXOP
charges the overhead of every MSDU it budgets for. For each shipped TSPEC
its one-maximum-MSDU arm is the larger at every beacon interval from 1 to
2 000 ms, so a single overhead per TXOP would grant the same time.

The engine's CAP loop inlines the adaptive and minimal grants with per-run
constants, and tests/oracle_engine.py, the loop's specification, computes
them unreduced. adaptive_txop stays here all the same: it is public
(hccasim.__all__), and the acceptance tests check it against hand-derived
grants.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .phy import NS_PER_S, FieldError, PhyParams, check_types, tx_duration_ns, txop_overhead

@dataclass(frozen=True)
class Tspec:
    """Negotiated traffic specification for one uplink stream."""

    mean_data_rate_bps: float      # rho
    nominal_msdu_bytes: int        # L
    max_msdu_bytes: int            # M
    delay_bound_ns: int            # D
    max_service_interval_ns: int   # MSI
    phys_rate_bps: int             # R

    def __post_init__(self):
        check_types(self)
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise FieldError(f.name, "must be positive")
        if self.nominal_msdu_bytes > self.max_msdu_bytes:
            raise FieldError("max_msdu_bytes", f"{self.max_msdu_bytes} is below the nominal "
                             f"MSDU size {self.nominal_msdu_bytes}")
        if self.max_service_interval_ns > self.delay_bound_ns:
            raise FieldError("max_service_interval_ns", "must not exceed the delay bound")


# Jurassic Park 1 MPEG-4 presets: (rho bit/s, L bytes, M bytes, D, MSI, R).
TSPEC_PRESETS = {
    "jurassic-low": Tspec(1.5e5, 770, 8154, 80 * 10**6, 40 * 10**6, 11_000_000),
    "jurassic-medium": Tspec(2.7e5, 1300, 8511, 80 * 10**6, 40 * 10**6, 11_000_000),
    "jurassic-high": Tspec(7.7e5, 3800, 16745, 80 * 10**6, 40 * 10**6, 11_000_000),
}


def tspec_preset(name: str) -> Tspec:
    try:
        return TSPEC_PRESETS[name]
    except KeyError:
        raise KeyError(
            f"unknown TSPEC preset {name!r}; choose from {sorted(TSPEC_PRESETS)}"
        ) from None


def min_msi(tspecs) -> int:
    """Smallest maximum service interval over the given streams."""
    tspecs = list(tspecs)
    if not tspecs:
        raise ValueError("min_msi of an empty stream set is undefined")
    return min(t.max_service_interval_ns for t in tspecs)


def assign_si(beacon_ns: int, msi_min_ns: int) -> tuple[int, int]:
    """Pick the largest SI = beacon/x (integer x >= 1) with SI <= MSI_min.

    Returns (si_ns, x). si_ns is floored when x does not divide the beacon;
    callers that need drift-free boundaries should place them at
    (k * beacon_ns) // x.
    """
    if beacon_ns <= 0 or msi_min_ns <= 0:
        raise ValueError("beacon and MSI_min must be positive")
    x = max(1, -(-beacon_ns // msi_min_ns))
    return beacon_ns // x, x


def msdu_count(si_ns: int, t: Tspec) -> int:
    """Expected MSDU arrivals per SI at the mean rate: ceil(SI*rho / (L*8)),
    floored at 1 so every grant carries at least one MSDU's worth of time.
    Exact in integers: rho is the ratio num/den of its float value."""
    if si_ns <= 0:
        raise ValueError("si must be positive")
    num, den = t.mean_data_rate_bps.as_integer_ratio()
    return max(1, -(-si_ns * num // (den * NS_PER_S * t.nominal_msdu_bytes * 8)))


def reference_txop(t: Tspec, si_ns: int, p: PhyParams) -> int:
    """Mean-characteristics TXOP: the larger of time for N nominal MSDUs and
    time for one maximum MSDU, each plus the overhead of its MSDU count.
    Payload bits ride at the TSPEC physical rate."""
    n = msdu_count(si_ns, t)
    nominal_arm = (tx_duration_ns(n * t.nominal_msdu_bytes * 8, t.phys_rate_bps)
                   + txop_overhead(n, p))
    max_arm = tx_duration_ns(t.max_msdu_bytes * 8, t.phys_rate_bps) + txop_overhead(1, p)
    return max(nominal_arm, max_arm)


def adaptive_txop(next_size_bytes: int, t: Tspec, p: PhyParams) -> int:
    """Feedback-driven TXOP: air time of exactly one MSDU of the reported
    next-frame size, plus single-MSDU overhead."""
    if next_size_bytes <= 0:
        raise ValueError(
            "next_size must be positive; a zero report gets a minimal poll grant"
        )
    return tx_duration_ns(next_size_bytes * 8, t.phys_rate_bps) + txop_overhead(1, p)


def admit(tspecs, beacon_ns: int, p: PhyParams) -> list[str | None]:
    """Admission control over streams in request order: None for each
    admitted stream, else the reason it was rejected.

    Each candidate is tested against the streams admitted before it: the SI
    is recomputed over them plus the candidate, every TXOP is recomputed at
    that SI, and the candidate is admitted iff the total fits the SI. The
    acceptance test sum(TXOP_i)/SI <= (T - T_CP)/T, with no contention period
    reserved (T_CP = 0), is evaluated exactly: with SI = T/x it reduces to
    sum(TXOP_i) * x <= T.
    """
    admitted, verdicts = [], []
    for cand in tspecs:
        group = admitted + [cand]
        si_ns, x = assign_si(beacon_ns, min_msi(group))
        total = sum(reference_txop(t, si_ns, p) for t in group)
        if total * x > beacon_ns:
            verdicts.append(f"utilization {float(total * x) / beacon_ns:.4f} exceeds "
                            f"1.0000 (sum TXOP {total} ns over SI {si_ns} ns)")
        else:
            admitted.append(cand)
            verdicts.append(None)
    return verdicts
