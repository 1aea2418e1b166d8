"""Scenario configuration: dataclasses, named workload presets, YAML
loading, and dotted-path `--set key=value` overrides.

A scenario file is a flat YAML mapping. A `preset` key expands a named
workload (traffic shape + TSPEC) first; explicit keys then override it.
`stations` is either a count (all stations share the scenario's traffic
and TSPEC) or a list of per-station mappings with their own `traffic` /
`tspec` sections.

Files give times in human units (`beacon_interval_ms`, `duration_s`,
`phy.sifs_us`, ...); every config object holds them as integer
nanoseconds. Each file mapping is read by `_read` from a table of its
keys, and `_scaled` does every unit conversion. An integer or boolean
key's value is handed on as it is.

Every config object checks itself on construction, also in code and in
`dataclasses.replace`: each field's type first (`phy.check_types`), then
its range. `PhyParams`, `Tspec` and `TrafficConfig` raise a
`phy.FieldError` naming the attribute, which `_section` renames to its
file key; `ScenarioConfig` raises `ConfigError` naming the file key.

Three choices are fixed, not keys, because no scenario changes them: the
reference TXOP charges overhead per MSDU, throughput is taken over the
window after traffic start, and station i's GoP starts 5 frames after
station i-1's. A `traffic.path` is read only under `kind: trace` and
refused under `kind: synth`.
"""

from __future__ import annotations

import copy
import math
from dataclasses import MISSING, dataclass, fields, replace

import yaml

from .phy import NS_PER_MS, NS_PER_S, NS_PER_US, FieldError, PhyParams, check_types
from .sched import TSPEC_PRESETS, Tspec, assign_si, min_msi
from .traffic import COLUMN_LIMIT, DEFAULT_FRAME_INTERVAL_NS, FRAME_TYPES, open_text_file

SCHEDULERS = ("reference", "adaptive")
VALIDATED_STATION_RANGE = (1, 12)

# Largest number of synthetic frames plus beacons a run may generate: about
# 86 times the largest benchmark and acceptance runs (116k frames). Memory
# grows with it: two million generated frames, most left unsent, peaked at
# 97 MiB (Python 3.11, x86-64); sent frames add their log and CSV lines.
MAX_RUN_FRAMES = 10_000_000
# Largest number of station polls (stations x CAPs) a run may make. The CAP
# loop visits every station at every SI, whether or not its traffic has
# started, so a run of many stations is long even when it generates no
# frame.
MAX_RUN_POLLS = 10_000_000
# Largest number of stations a run may set up. Set-up builds every station,
# about 1.2 KiB and 21 us each, even for a run of no CAP: 100 000 stations
# peaked at 122 MiB and took 2.2 s (Python 3.11, x86-64).
MAX_RUN_STATIONS = 100_000
# Largest number of station polls all the cells of a sweep may make together:
# about a minute of CPU at the README sweep's rate (195 000 polls in 0.12 s).
# A cell that makes no CAP still sets up, logs and summarizes every station,
# so it counts each of them as one poll.
MAX_SWEEP_POLLS = 10 * MAX_RUN_POLLS


class ConfigError(ValueError):
    """Invalid scenario configuration; names the offending field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.field = fieldname
        self.detail = message


@dataclass(frozen=True)
class TrafficConfig:
    """Per-station workload source: a synthetic GoP stream or a trace file."""

    kind: str = "synth"                    # "synth" | "trace"
    pattern: str = "IBBPBBPBBPBB"
    i_size: int = 12160
    p_size: int = 4800
    b_size: int = 2400
    jitter: float = 0.25
    frame_interval_ns: int = DEFAULT_FRAME_INTERVAL_NS
    stagger_ns: int = 0                    # extra start offset per station index
    seed: int | None = None                # synth base seed; defaults to scenario seed
    path: str | None = None                # trace file; kind="trace" only

    def __post_init__(self):
        check_types(self)
        if self.kind not in ("synth", "trace"):
            raise FieldError("kind", f"must be 'synth' or 'trace', got {self.kind!r}")
        if self.kind == "trace" and not self.path:
            raise FieldError("path", "required when kind is 'trace'")
        if self.kind == "synth" and self.path is not None:
            raise FieldError("path", "is read only when kind is 'trace'")
        if not self.pattern or set(self.pattern.upper()) - set(FRAME_TYPES):
            raise FieldError("pattern", "must be a non-empty string of I, P and B")
        for name in ("i_size", "p_size", "b_size"):
            if getattr(self, name) <= 0:
                raise FieldError(name, "must be positive")
            # A jittered size is below twice its base, so it then fits a
            # 64-bit frame-size column.
            if getattr(self, name) >= COLUMN_LIMIT // 2:
                raise FieldError(name, "must be below 2**62")
        if not 0 <= self.jitter < 1:
            raise FieldError("jitter", "must be in [0, 1)")
        if self.frame_interval_ns <= 0:
            raise FieldError("frame_interval_ns", "must be positive")
        if self.stagger_ns < 0:
            raise FieldError("stagger_ns", "must be >= 0")

    def base_sizes(self) -> tuple[int, int, int]:
        return (self.i_size, self.p_size, self.b_size)


@dataclass(frozen=True)
class StationSpec:
    """One station's traffic source and the TSPEC it negotiates."""

    traffic: TrafficConfig
    tspec: Tspec

    def __post_init__(self):
        check_types(self)


@dataclass(frozen=True)
class ScenarioConfig:
    """A resolved, checked scenario, in integer nanoseconds: the scheduler,
    the stations and their traffic and TSPECs, timing, loss, admission and
    seed. Building one raises ConfigError naming the first bad field."""

    scheduler: str = "reference"
    stations: int = 1
    beacon_interval_ns: int = 120 * NS_PER_MS
    traffic_start_ns: int = 20 * NS_PER_S
    duration_ns: int = 50 * NS_PER_S
    loss_p: float = 0.0
    qs_exact: bool = False
    admission: str = "off"                 # "off" | "on"
    on_reject: str = "abort"               # "abort" | "run" (poll unadmitted anyway)
    seed: int = 1
    record_polls: bool = False
    quality: str = "custom"                # label carried into summary CSV
    phy: PhyParams = PhyParams()
    traffic: TrafficConfig = TrafficConfig()
    tspec: Tspec = TSPEC_PRESETS["jurassic-high"]
    station_specs: tuple = ()              # one StationSpec per station; empty = uniform

    def __post_init__(self):
        try:
            check_types(self)
        except FieldError as e:
            raise ConfigError(_file_key(_SCENARIO_KEYS, e.field), e.detail) from None
        if not all(isinstance(spec, StationSpec) for spec in self.station_specs):
            raise ConfigError("station_specs", "must hold StationSpec entries only")
        if self.scheduler not in SCHEDULERS:
            raise ConfigError("scheduler",
                              f"must be one of {SCHEDULERS}, got {self.scheduler!r}")
        if self.stations < 1:
            raise ConfigError("stations", f"must be >= 1, got {self.stations}")
        if self.station_specs and len(self.station_specs) != self.stations:
            raise ConfigError("stations", f"{self.stations} does not match the "
                                          f"{len(self.station_specs)} station_specs")
        if self.beacon_interval_ns <= 0:
            raise ConfigError("beacon_interval_ms", "must be positive")
        if self.duration_ns < 0:
            raise ConfigError("duration_s", "must be >= 0")
        if self.duration_ns >= COLUMN_LIMIT:
            # Receive times, at most the duration, are held in a 64-bit column.
            raise ConfigError("duration_s", "must be below 2**63 ns (about 292 years)")
        if self.traffic_start_ns < 0:
            raise ConfigError("traffic_start_s", "must be >= 0")
        if not 0.0 <= self.loss_p <= 1.0:
            raise ConfigError("loss_p", f"must be in [0, 1], got {self.loss_p}")
        if self.admission not in ("on", "off"):
            raise ConfigError("admission", "must be 'on' or 'off'")
        if self.on_reject not in ("abort", "run"):
            raise ConfigError("on_reject", "must be 'abort' or 'run'")
        if set(self.quality) & {",", "\r", "\n"}:
            raise ConfigError("quality", "must not contain a comma or a line break "
                                         "(it is a summary.csv field)")
        check_run_size(self)

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


# A caster takes a file value and its dotted key and returns the attribute
# value. A scalar caster raises TypeError, ValueError or OverflowError, which
# _read turns into a ConfigError naming the key; a section's caster (phy,
# traffic, tspec) names its own keys under it.

def _as_is(value, name):
    # An int or bool key converts nothing: its config object's check_types
    # is the one check of its type.
    return value


def _as_float(value, name) -> float:
    # Numeric strings stay accepted: YAML 1.1 reads 1e-3 (no dot) as a string.
    if isinstance(value, bool):
        raise ValueError("expected a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError("must be finite")
    return number


def _as_str(value, name) -> str:
    # Other scalars keep their YAML spelling (quality: 2024 is the label "2024").
    if isinstance(value, (list, dict)):
        raise ValueError("expected a string")
    return str(value)


def _on_off(value, name) -> str:
    # YAML 1.1 reads bare on/off as booleans; accept both spellings
    if value is True:
        return "on"
    if value is False:
        return "off"
    return _as_str(value, name)


def _optional(caster):
    return lambda value, name: None if value is None else caster(value, name)


def _scaled(scale: int):
    """Caster for a number given in a file unit: value * scale rounded to an
    integer (half to even). Scales ms, s and us to ns. The only rounding of
    a config value."""
    def cast(value, name) -> int:
        return int(round(_as_float(value, name) * scale))
    return cast


def _whole(value, name) -> int:
    """Caster for a PHY bit, byte or rate count: a number or numeric string
    with a whole value (2e7, YAML's '11e6'), never rounded."""
    number = _as_float(value, name)
    if not number.is_integer():
        raise ValueError("must be a whole number")
    return int(number)


def _read(raw, table: dict, section: str, noun: str) -> dict:
    """Keyword arguments for a config type from the file mapping raw. table
    maps each file key to (attribute, caster); a caster of a nested section
    raises ConfigErrors of its own. Every error names `section.key`."""
    if not isinstance(raw, dict):
        raise ConfigError(section, "must be a mapping")
    kwargs = {}
    for key, value in raw.items():
        name = f"{section}.{key}" if section else str(key)
        if key not in table:
            raise ConfigError(name, f"unknown {noun}")
        attr, caster = table[key]
        try:
            kwargs[attr] = caster(value, name)
        except ConfigError:
            raise
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(name, f"cannot interpret {value!r} ({e})") from None
    return kwargs


def _section(cls, table: dict, noun: str):
    """Caster of a nested section into cls. An instance of cls passes
    through. A mapping is read by _read, must give every key whose
    attribute has no default, and a FieldError of cls names its file key."""
    no_default = {f.name for f in fields(cls) if f.default is MISSING}
    required = [key for key, (attr, _) in table.items() if attr in no_default]

    def cast(value, section: str):
        if isinstance(value, cls):
            return value
        kwargs = _read(value, table, section, noun)
        missing = [key for key in required if key not in value]
        if missing:
            raise ConfigError(section, f"missing {noun} {missing[0]!r}")
        try:
            return cls(**kwargs)
        except FieldError as e:
            raise ConfigError(f"{section}.{_file_key(table, e.field)}", e.detail) from None
    return cast


def _tspec_from(value, section: str) -> Tspec:
    if isinstance(value, str):
        if value not in TSPEC_PRESETS:
            raise ConfigError(section, f"unknown TSPEC preset {value!r}")
        return TSPEC_PRESETS[value]
    if not isinstance(value, (dict, Tspec)):
        raise ConfigError(section, "must be a preset name or a mapping")
    return _tspec_section(value, section)


def _file_key(table: dict, attr: str) -> str:
    """The file key that table reads into attribute attr; attr itself for
    an attribute no file key sets (ScenarioConfig.station_specs)."""
    return next((key for key, (name, _) in table.items() if name == attr), attr)


_TRAFFIC_KEYS = {
    "kind": ("kind", _as_str),
    "pattern": ("pattern", _as_str),
    "i_size": ("i_size", _as_is),
    "p_size": ("p_size", _as_is),
    "b_size": ("b_size", _as_is),
    "jitter": ("jitter", _as_float),
    "frame_interval_ms": ("frame_interval_ns", _scaled(NS_PER_MS)),
    "stagger_ms": ("stagger_ns", _scaled(NS_PER_MS)),
    "seed": ("seed", _as_is),
    "path": ("path", _optional(_as_str)),
}

# Human units in the file: microseconds, then bit, byte and bit/s counts.
_PHY_KEYS = {
    "sifs_us": ("sifs_ns", _scaled(NS_PER_US)),
    **{key: (key, _whole) for key in (
        "preamble_bits", "plcp_header_bits", "mac_header_bytes", "data_rate_bps",
        "basic_rate_bps", "ack_frame_bytes", "poll_frame_bytes")},
}

_TSPEC_KEYS = {
    "rho_bps": ("mean_data_rate_bps", _as_float),
    "nominal_bytes": ("nominal_msdu_bytes", _as_is),
    "max_bytes": ("max_msdu_bytes", _as_is),
    "delay_bound_ms": ("delay_bound_ns", _scaled(NS_PER_MS)),
    "msi_ms": ("max_service_interval_ns", _scaled(NS_PER_MS)),
    "phys_rate_bps": ("phys_rate_bps", _as_is),
}

_tspec_section = _section(Tspec, _TSPEC_KEYS, "TSPEC key")

# Keys of a stations[i] entry; each defaults to the scenario's own section.
_STATION_KEYS = {"traffic": ("traffic", _section(TrafficConfig, _TRAFFIC_KEYS, "traffic key")),
                 "tspec": ("tspec", _tspec_from)}

_SCENARIO_KEYS = {
    "scheduler": ("scheduler", _as_str),
    "stations": ("stations", _as_is),
    "beacon_interval_ms": ("beacon_interval_ns", _scaled(NS_PER_MS)),
    "traffic_start_s": ("traffic_start_ns", _scaled(NS_PER_S)),
    "duration_s": ("duration_ns", _scaled(NS_PER_S)),
    "loss_p": ("loss_p", _as_float),
    "qs_exact": ("qs_exact", _as_is),
    "admission": ("admission", _on_off),
    "on_reject": ("on_reject", _as_str),
    "seed": ("seed", _as_is),
    "record_polls": ("record_polls", _as_is),
    "quality": ("quality", _as_str),
    "phy": ("phy", _section(PhyParams, _PHY_KEYS, "PHY parameter")),
    **_STATION_KEYS,
}


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a plain mapping (parsed YAML)."""
    if not isinstance(raw, dict):
        raise ConfigError("scenario", "config must be a mapping")
    data = dict(raw)

    preset_name = data.pop("preset", None)
    if preset_name is not None:
        if not isinstance(preset_name, str) or preset_name not in WORKLOAD_PRESETS:
            raise ConfigError("preset", f"unknown preset {preset_name!r}; "
                                        f"choose from {sorted(WORKLOAD_PRESETS)}")
        merged = copy.deepcopy(WORKLOAD_PRESETS[preset_name])
        for key, val in data.items():
            if key in ("traffic",) and isinstance(val, dict) and key in merged:
                merged[key].update(val)
            else:
                merged[key] = val
        data = merged

    # A station list is read against the scenario's own traffic and TSPEC, so
    # the scenario is built once, with its stations resolved.
    entries = data.pop("stations") if isinstance(data.get("stations"), list) else None
    kwargs = _read(data, _SCENARIO_KEYS, "", "configuration key")
    if entries is not None:
        base = StationSpec(kwargs.get("traffic", ScenarioConfig.traffic),
                           kwargs.get("tspec", ScenarioConfig.tspec))
        kwargs["station_specs"] = tuple(
            replace(base, **_read(entry, _STATION_KEYS, f"stations[{i}]", "station key"))
            for i, entry in enumerate(entries))
        kwargs["stations"] = len(entries)
    return ScenarioConfig(**kwargs)


def check_run_size(cfg: ScenarioConfig) -> None:
    """Refuse a run that would generate more than MAX_RUN_FRAMES synthetic
    frames and beacons, poll more than MAX_RUN_POLLS stations over its
    CAPs, or set up more than MAX_RUN_STATIONS stations; ScenarioConfig
    calls it on construction, before anything per station or per frame is
    built. A uniform station list is counted in closed form. Each synthetic
    station is counted from traffic start to the end of the run (stagger
    only shortens that). The frame error names the interval behind the
    larger count when that interval is shorter than its default; else, as
    the poll error does, stations when there are more than the validated
    range, else duration_s."""
    dur = cfg.duration_ns
    horizon = dur - cfg.traffic_start_ns
    beacons = -(-dur // cfg.beacon_interval_ns)
    traffics = [s.traffic for s in cfg.station_specs] or [cfg.traffic]
    per_spec = 1 if cfg.station_specs else cfg.stations
    culprit = "stations" if cfg.stations > VALIDATED_STATION_RANGE[1] else "duration_s"
    frames, fastest = 0, None
    for i, tc in enumerate(traffics):
        if tc.kind == "synth" and horizon > 0:
            frames += per_spec * -(-horizon // tc.frame_interval_ns)
            if fastest is None or tc.frame_interval_ns < fastest[1].frame_interval_ns:
                fastest = (i, tc)
    if frames + beacons > MAX_RUN_FRAMES:
        if frames >= beacons:
            i, tc = fastest
            if tc.frame_interval_ns < TrafficConfig.frame_interval_ns:
                section = f"stations[{i}].traffic" if cfg.station_specs else "traffic"
                culprit = f"{section}.frame_interval_ms"
        elif cfg.beacon_interval_ns < ScenarioConfig.beacon_interval_ns:
            culprit = "beacon_interval_ms"
        raise ConfigError(culprit, f"run would generate about {frames} frames and "
                                   f"{beacons} beacons, above the limit of {MAX_RUN_FRAMES}")
    caps = _caps(cfg)
    if cfg.stations * caps > MAX_RUN_POLLS:
        raise ConfigError(culprit, f"run would poll {cfg.stations} stations in each of "
                                   f"about {caps} CAPs, above the limit of "
                                   f"{MAX_RUN_POLLS} polls")
    if cfg.stations > MAX_RUN_STATIONS:
        raise ConfigError("stations", f"run would set up {cfg.stations} stations, above "
                                      f"the limit of {MAX_RUN_STATIONS}")


def check_sweep_size(base: ScenarioConfig, stations: range, n_schedulers: int) -> None:
    """Refuse a sweep of base over stations and n_schedulers schedulers whose
    cells would together poll more than MAX_SWEEP_POLLS stations, naming
    stations; call it before any cell is built. Every cell makes base's
    CAPs, since a cell changes only its scheduler, station count and seed;
    a cell of no CAP counts each of its stations once."""
    first, last = stations[0], stations[-1]
    count = last - first + 1
    caps = _caps(base)
    polls = n_schedulers * max(caps, 1) * (first + last) * count // 2
    if polls > MAX_SWEEP_POLLS:
        cells = f"{n_schedulers * count} cells of the sweep"
        what = (f"poll stations {polls} times over the {cells}, about {caps} CAPs each"
                if caps else f"set up stations {polls} times over the {cells}, which "
                             f"make no CAP and count a set-up as a poll")
        raise ConfigError("stations", f"run would {what}, above the limit of "
                                      f"{MAX_SWEEP_POLLS} polls")


def _caps(cfg: ScenarioConfig) -> int:
    """The most CAPs cfg's run makes: the engine's CAPs fall at SI
    boundaries before the end of the run."""
    tspecs = [s.tspec for s in cfg.station_specs] or [cfg.tspec]
    _, divisor = assign_si(cfg.beacon_interval_ns, min_msi(tspecs))
    return -(-cfg.duration_ns * divisor // cfg.beacon_interval_ns)


def stations_warning(cfg: ScenarioConfig) -> str | None:
    """A note when more stations are simulated than the presets were
    validated for."""
    lo, hi = VALIDATED_STATION_RANGE
    if cfg.stations > hi:
        return f"stations={cfg.stations} is outside the validated {lo}..{hi} preset range"
    return None


def load_scenario(path, overrides: list[str] | None = None) -> ScenarioConfig:
    """Load a scenario YAML file; a file that cannot be read, is not a
    regular file, is not UTF-8, is not YAML or is not a mapping is a
    ConfigError naming `config`."""
    try:
        with open_text_file(path, "utf-8") as fh:
            raw = yaml.safe_load(fh)
    except (OSError, UnicodeError, yaml.YAMLError) as e:
        raise ConfigError("config", str(e)) from e
    if raw is None:
        raw = {}
    elif not isinstance(raw, dict):
        # Refused before --set overrides, which descend into a mapping.
        raise ConfigError("config", f"top level must be a mapping, "
                                    f"got {type(raw).__name__}")
    return scenario_from_dict(apply_overrides(raw, overrides or []))


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply `--set key=value` items onto a raw config mapping. Keys use
    dotted paths (e.g. traffic.jitter=0.3); values are parsed as YAML. A
    path that steps into a present value that is not a mapping is a
    ConfigError naming that prefix; an absent key starts a new mapping."""
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
        for i, part in enumerate(parts[:-1]):
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(".".join(parts[:i + 1]),
                                  f"must be a mapping to --set {key}, "
                                  f"got {type(node).__name__}")
        node[parts[-1]] = value
    return data
