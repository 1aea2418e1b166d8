"""Scenario configuration: dataclasses, named workload presets, YAML
loading, and dotted-path `--set key=value` overrides.

A scenario file is a flat YAML mapping. A `preset` key expands a named
workload (traffic shape + TSPEC) first; explicit keys then override it.
`stations` is either a count (all stations share the scenario's traffic
and TSPEC) or a list of per-station mappings with their own `traffic` /
`tspec` sections.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace

import yaml

from .phy import NS_PER_MS, NS_PER_S, PhyParams
from .sched import OVERHEAD_MODES, OVERHEAD_PER_MSDU, TSPEC_PRESETS, Tspec, tspec_preset
from .traffic import FRAME_TYPES

SCHEDULERS = ("reference", "adaptive")
VALIDATED_STATION_RANGE = (1, 12)

# Largest number of synthetic frames plus beacons a run may generate: about
# 86 times the largest benchmark and acceptance runs (116k frames). Memory
# grows with it: two million generated frames, most left unsent, peaked at
# 97 MiB (Python 3.11, x86-64); sent frames add their log and CSV lines.
MAX_RUN_FRAMES = 10_000_000


class ConfigError(ValueError):
    """Invalid scenario configuration; names the offending field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.field = fieldname
        self.detail = message

    def __reduce__(self):
        # Sweep workers hand exceptions back pickled.
        return type(self), (self.field, self.detail)


@dataclass(frozen=True)
class TrafficConfig:
    """Per-station workload source: a synthetic GoP stream or a trace file."""

    kind: str = "synth"                    # "synth" | "trace"
    pattern: str = "IBBPBBPBBPBB"
    i_size: int = 12160
    p_size: int = 4800
    b_size: int = 2400
    jitter: float = 0.25
    frame_interval_ms: float = 40.0
    rotate_gop: bool = True                # rotate GoP phase per station
    stagger_ms: float = 0.0                # extra start offset per station index
    seed: int | None = None                # synth base seed; defaults to scenario seed
    path: str | None = None                # trace file for kind="trace"

    @property
    def frame_interval_ns(self) -> int:
        return int(round(self.frame_interval_ms * NS_PER_MS))

    def base_sizes(self) -> tuple[int, int, int]:
        return (self.i_size, self.p_size, self.b_size)


@dataclass(frozen=True)
class StationSpec:
    traffic: TrafficConfig
    tspec: Tspec


@dataclass(frozen=True)
class ScenarioConfig:
    scheduler: str = "reference"
    stations: int = 1
    beacon_interval_ms: float = 120.0
    traffic_start_s: float = 20.0
    duration_s: float = 50.0
    loss_p: float = 0.0
    qs_exact: bool = False
    overhead_mode: str = OVERHEAD_PER_MSDU
    admission: str = "off"                 # "off" | "on"
    on_reject: str = "abort"               # "abort" | "run" (poll unadmitted anyway)
    throughput_window: str = "active"      # "active" | "full"
    seed: int = 1
    record_polls: bool = False
    quality: str = "custom"                # label carried into summary CSV
    phy: PhyParams = field(default_factory=PhyParams)
    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    tspec: Tspec = field(default_factory=lambda: tspec_preset("jurassic-high"))
    station_specs: tuple = ()              # per-station overrides; empty = uniform

    @property
    def beacon_interval_ns(self) -> int:
        return int(round(self.beacon_interval_ms * NS_PER_MS))

    @property
    def traffic_start_ns(self) -> int:
        return int(round(self.traffic_start_s * NS_PER_S))

    @property
    def duration_ns(self) -> int:
        return int(round(self.duration_s * NS_PER_S))

    def station_list(self) -> list[StationSpec]:
        if self.station_specs:
            return list(self.station_specs)
        return [StationSpec(self.traffic, self.tspec) for _ in range(self.stations)]


# Named workloads: traffic shape plus the TSPEC negotiated for it.
# vbr-high mimics the high-quality movie trace (mean ~3.8 kB, size
# peak/mean ~4); cbr-nominal sends constant frames exactly at the nominal
# MSDU size so mean-based and feedback-based grants coincide.
WORKLOAD_PRESETS = {
    "vbr-high": {
        "quality": "vbr-high",
        "traffic": {"kind": "synth", "pattern": "IBBPBBPBBPBB",
                     "i_size": 12160, "p_size": 4800, "b_size": 2400,
                     "jitter": 0.25},
        "tspec": "jurassic-high",
    },
    "cbr-nominal": {
        "quality": "cbr-nominal",
        "traffic": {"kind": "synth", "pattern": "I",
                     "i_size": 3800, "p_size": 3800, "b_size": 3800,
                     "jitter": 0.0},
        "tspec": {"rho_bps": 760000.0, "nominal_bytes": 3800, "max_bytes": 3800,
                   "delay_bound_ms": 80.0, "msi_ms": 40.0, "phys_rate_bps": 11000000},
    },
}


def _tspec_from(value, fieldname: str) -> Tspec:
    if isinstance(value, Tspec):
        return value
    if isinstance(value, str):
        if value not in TSPEC_PRESETS:
            raise ConfigError(fieldname, f"unknown TSPEC preset {value!r}")
        return tspec_preset(value)
    if isinstance(value, dict):
        def get(key, caster):
            if key not in value:
                raise ConfigError(fieldname, f"missing TSPEC key {key!r}")
            return _cast(caster, value[key], f"{fieldname}.{key}")

        kwargs = dict(
            mean_data_rate_bps=get("rho_bps", _as_float),
            nominal_msdu_bytes=get("nominal_bytes", _as_int),
            max_msdu_bytes=get("max_bytes", _as_int),
            delay_bound_ns=int(round(get("delay_bound_ms", _as_float) * NS_PER_MS)),
            max_service_interval_ns=int(round(get("msi_ms", _as_float) * NS_PER_MS)),
            phys_rate_bps=get("phys_rate_bps", _as_int),
        )
        try:
            return Tspec(**kwargs)
        except ValueError as e:
            raise ConfigError(fieldname, str(e)) from None
    raise ConfigError(fieldname, "must be a preset name or a mapping")


def _traffic_from(value, fieldname: str) -> TrafficConfig:
    if isinstance(value, TrafficConfig):
        return value
    if not isinstance(value, dict):
        raise ConfigError(fieldname, "must be a mapping")
    unknown = set(value) - set(_TRAFFIC_FIELDS)
    if unknown:
        raise ConfigError(fieldname, f"unknown keys {sorted(unknown)}")
    tc = TrafficConfig(**{key: _cast(_TRAFFIC_FIELDS[key], raw, f"{fieldname}.{key}")
                          for key, raw in value.items()})
    if tc.kind not in ("synth", "trace"):
        raise ConfigError(f"{fieldname}.kind", f"must be 'synth' or 'trace', got {tc.kind!r}")
    if tc.kind == "trace" and not tc.path:
        raise ConfigError(f"{fieldname}.path", "required when kind is 'trace'")
    if not tc.pattern or set(tc.pattern.upper()) - set(FRAME_TYPES):
        raise ConfigError(f"{fieldname}.pattern", "must be a non-empty string of I, P and B")
    for name in ("i_size", "p_size", "b_size"):
        if getattr(tc, name) <= 0:
            raise ConfigError(f"{fieldname}.{name}", "must be positive")
    if not 0 <= tc.jitter < 1:
        raise ConfigError(f"{fieldname}.jitter", "must be in [0, 1)")
    if tc.frame_interval_ns <= 0:
        raise ConfigError(f"{fieldname}.frame_interval_ms", "must be positive")
    if tc.stagger_ms < 0:
        raise ConfigError(f"{fieldname}.stagger_ms", "must be >= 0")
    return tc


def _phy_from(value, fieldname: str) -> PhyParams:
    if isinstance(value, PhyParams):
        return value
    if not isinstance(value, dict):
        raise ConfigError(fieldname, "must be a mapping")
    # Human units in the file: microseconds, bits, bytes, bit/s.
    key_map = {
        "sifs_us": ("sifs_ns", NS_PER_MS // 1000),
        "pifs_us": ("pifs_ns", NS_PER_MS // 1000),
        "slot_us": ("slot_ns", NS_PER_MS // 1000),
        "preamble_bits": ("preamble_bits", 1),
        "plcp_header_bits": ("plcp_header_bits", 1),
        "mac_header_bytes": ("mac_header_bytes", 1),
        "data_rate_bps": ("data_rate_bps", 1),
        "basic_rate_bps": ("basic_rate_bps", 1),
        "ack_frame_bytes": ("ack_frame_bytes", 1),
        "poll_frame_bytes": ("poll_frame_bytes", 1),
    }
    kwargs = {}
    for key, raw in value.items():
        if key not in key_map:
            raise ConfigError(f"{fieldname}.{key}", "unknown PHY parameter")
        dest, scale = key_map[key]
        kwargs[dest] = int(round(_cast(_as_float, raw, f"{fieldname}.{key}") * scale))
    try:
        return PhyParams(**kwargs)
    except ValueError as e:
        raise ConfigError(fieldname, str(e)) from None


def _on_off(value) -> str:
    # YAML 1.1 reads bare on/off as booleans; accept both spellings
    if value is True:
        return "on"
    if value is False:
        return "off"
    return str(value)


def _as_bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError("expected true or false")
    return value


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("expected an integer")
    return value


def _as_float(value) -> float:
    # Numeric strings stay accepted: YAML 1.1 reads 1e-3 (no dot) as a string.
    if isinstance(value, bool):
        raise ValueError("expected a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("must be finite")
    return number


def _optional(caster):
    return lambda value: None if value is None else caster(value)


def _cast(caster, value, fieldname: str):
    try:
        return caster(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(fieldname, f"cannot interpret {value!r} ({e})") from None


_SCALAR_FIELDS = {
    "scheduler": str, "beacon_interval_ms": _as_float, "traffic_start_s": _as_float,
    "duration_s": _as_float, "loss_p": _as_float, "qs_exact": _as_bool,
    "overhead_mode": str, "admission": _on_off, "on_reject": str,
    "throughput_window": str, "seed": _as_int, "record_polls": _as_bool, "quality": str,
}

_TRAFFIC_FIELDS = {
    "kind": str, "pattern": str, "i_size": _as_int, "p_size": _as_int,
    "b_size": _as_int, "jitter": _as_float, "frame_interval_ms": _as_float,
    "rotate_gop": _as_bool, "stagger_ms": _as_float, "seed": _optional(_as_int),
    "path": _optional(str),
}


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a plain mapping (parsed YAML)."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario", "config must be a mapping")
    data = copy.deepcopy(raw)

    preset_name = data.pop("preset", None)
    if preset_name is not None:
        if preset_name not in WORKLOAD_PRESETS:
            raise ConfigError("preset", f"unknown preset {preset_name!r}; "
                                        f"choose from {sorted(WORKLOAD_PRESETS)}")
        merged = copy.deepcopy(WORKLOAD_PRESETS[preset_name])
        for key, val in data.items():
            if key in ("traffic",) and isinstance(val, dict) and key in merged:
                merged[key].update(val)
            else:
                merged[key] = val
        data = merged

    kwargs = {key: _cast(caster, data.pop(key), key)
              for key, caster in _SCALAR_FIELDS.items() if key in data}

    if "phy" in data:
        kwargs["phy"] = _phy_from(data.pop("phy"), "phy")
    if "traffic" in data:
        kwargs["traffic"] = _traffic_from(data.pop("traffic"), "traffic")
    if "tspec" in data:
        kwargs["tspec"] = _tspec_from(data.pop("tspec"), "tspec")

    stations = data.pop("stations", 1)
    if isinstance(stations, list):
        specs = []
        base_traffic = kwargs.get("traffic", TrafficConfig())
        base_tspec = kwargs.get("tspec", tspec_preset("jurassic-high"))
        for i, entry in enumerate(stations):
            if not isinstance(entry, dict):
                raise ConfigError(f"stations[{i}]", "must be a mapping")
            traffic = (_traffic_from(entry["traffic"], f"stations[{i}].traffic")
                       if "traffic" in entry else base_traffic)
            tspec = (_tspec_from(entry["tspec"], f"stations[{i}].tspec")
                     if "tspec" in entry else base_tspec)
            extra = set(entry) - {"traffic", "tspec"}
            if extra:
                raise ConfigError(f"stations[{i}]", f"unknown keys {sorted(extra)}")
            specs.append(StationSpec(traffic, tspec))
        kwargs["station_specs"] = tuple(specs)
        kwargs["stations"] = len(specs)
    else:
        kwargs["stations"] = _cast(_as_int, stations, "stations")

    if data:
        raise ConfigError(sorted(data)[0], "unknown configuration key")

    cfg = ScenarioConfig(**kwargs)
    validate_scenario(cfg)
    return cfg


def validate_scenario(cfg: ScenarioConfig) -> None:
    if cfg.scheduler not in SCHEDULERS:
        raise ConfigError("scheduler", f"must be one of {SCHEDULERS}, got {cfg.scheduler!r}")
    if cfg.stations < 1:
        raise ConfigError("stations", f"must be >= 1, got {cfg.stations}")
    if cfg.beacon_interval_ns <= 0:
        raise ConfigError("beacon_interval_ms", "must be positive")
    if cfg.duration_s < 0:
        raise ConfigError("duration_s", "must be >= 0")
    if cfg.traffic_start_s < 0:
        raise ConfigError("traffic_start_s", "must be >= 0")
    if not 0.0 <= cfg.loss_p <= 1.0:
        raise ConfigError("loss_p", f"must be in [0, 1], got {cfg.loss_p}")
    if cfg.overhead_mode not in OVERHEAD_MODES:
        raise ConfigError("overhead_mode", f"must be one of {OVERHEAD_MODES}")
    if cfg.admission not in ("on", "off"):
        raise ConfigError("admission", "must be 'on' or 'off'")
    if cfg.on_reject not in ("abort", "run"):
        raise ConfigError("on_reject", "must be 'abort' or 'run'")
    if cfg.throughput_window not in ("active", "full"):
        raise ConfigError("throughput_window", "must be 'active' or 'full'")
    for i, spec in enumerate(cfg.station_list()):
        if spec.traffic.kind == "trace" and not spec.traffic.path:
            raise ConfigError(f"stations[{i}].traffic.path", "trace path missing")
    check_run_size(cfg)


def check_run_size(cfg: ScenarioConfig) -> None:
    """Refuse a run that would generate more than MAX_RUN_FRAMES synthetic
    frames and beacons, before anything per frame is built. Each synthetic
    station is counted from traffic start to the end of the run (stagger
    only shortens that). The error names the interval behind the larger
    count when that interval is shorter than its default, else duration_s."""
    dur = cfg.duration_ns
    horizon = dur - cfg.traffic_start_ns
    beacons = -(-dur // cfg.beacon_interval_ns)
    frames, fastest = 0, None
    for i, spec in enumerate(cfg.station_list()):
        tc = spec.traffic
        if tc.kind == "synth" and horizon > 0:
            frames += -(-horizon // tc.frame_interval_ns)
            if fastest is None or tc.frame_interval_ns < fastest[1].frame_interval_ns:
                fastest = (i, tc)
    if frames + beacons <= MAX_RUN_FRAMES:
        return
    if frames >= beacons:
        i, tc = fastest
        culprit = tc.frame_interval_ms < TrafficConfig.frame_interval_ms
        section = f"stations[{i}].traffic" if cfg.station_specs else "traffic"
        fieldname = f"{section}.frame_interval_ms"
    else:
        culprit = cfg.beacon_interval_ms < ScenarioConfig.beacon_interval_ms
        fieldname = "beacon_interval_ms"
    raise ConfigError(fieldname if culprit else "duration_s",
                      f"run would generate about {frames} frames and {beacons} "
                      f"beacons, above the limit of {MAX_RUN_FRAMES}")


def stations_warning(cfg: ScenarioConfig) -> str | None:
    lo, hi = VALIDATED_STATION_RANGE
    if cfg.stations > hi:
        return (f"stations={cfg.stations} is outside the validated "
                f"{lo}..{hi} preset range")
    return None


def load_scenario(path, overrides: list[str] | None = None) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh)
    if raw is None:
        raw = {}
    return scenario_from_dict(apply_overrides(raw, overrides or []))


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply `--set key=value` items onto a raw config mapping. Keys use
    dotted paths (e.g. traffic.jitter=0.3); values are parsed as YAML."""
    data = copy.deepcopy(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError("--set", f"expected key=value, got {item!r}")
        key, _, text = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError("--set", f"empty key in {item!r}")
        try:
            value = yaml.safe_load(text)
        except yaml.YAMLError:
            value = text
        node = data
        parts = key.split(".")
        for part in parts[:-1]:
            nxt = node.get(part)
            if not isinstance(nxt, dict):
                nxt = {}
                node[part] = nxt
            node = nxt
        node[parts[-1]] = value
    return data


def with_overrides(cfg: ScenarioConfig, **kwargs) -> ScenarioConfig:
    new = replace(cfg, **kwargs)
    validate_scenario(new)
    return new
