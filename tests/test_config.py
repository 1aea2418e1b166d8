import hashlib
import re
from dataclasses import replace

import pytest

from hccasim import config, engine
from hccasim.config import (ConfigError, ScenarioConfig, TrafficConfig, apply_overrides,
                            scenario_from_dict)
from hccasim.phy import FieldError, PhyParams
from hccasim.sched import tspec_preset

INLINE_TSPEC = {"rho_bps": 1e5, "nominal_bytes": 500, "max_bytes": 900,
                "delay_bound_ms": 80, "msi_ms": 40, "phys_rate_bps": 11000000}


def test_preset_expansion_with_overrides():
    cfg = scenario_from_dict({"preset": "vbr-high", "stations": 3,
                              "traffic": {"jitter": 0.1}})
    assert cfg.quality == "vbr-high"
    assert cfg.tspec == tspec_preset("jurassic-high")
    assert cfg.traffic.jitter == 0.1          # merged over the preset
    assert cfg.traffic.i_size == 12160        # preset value kept
    with pytest.raises(ConfigError, match="preset"):
        scenario_from_dict({"preset": "nope"})


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="shceduler"):
        scenario_from_dict({"shceduler": "adaptive"})
    with pytest.raises(ConfigError, match="traffic"):
        scenario_from_dict({"traffic": {"sizes": 3}})
    with pytest.raises(ConfigError, match=r"^tspec\.msi_typo: unknown TSPEC key$"):
        scenario_from_dict({"tspec": dict(INLINE_TSPEC, msi_typo=5)})


def test_inline_tspec_and_errors():
    cfg = scenario_from_dict({"tspec": {"rho_bps": 1e5, "nominal_bytes": 500,
                                        "max_bytes": 900, "delay_bound_ms": 80,
                                        "msi_ms": 40, "phys_rate_bps": 11000000}})
    assert cfg.tspec.nominal_msdu_bytes == 500
    with pytest.raises(ConfigError, match="tspec"):
        scenario_from_dict({"tspec": {"rho_bps": 1e5}})
    with pytest.raises(ConfigError, match="tspec"):
        scenario_from_dict({"tspec": "unknown-preset"})


def test_per_station_list(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("0 I 0 700\n1 P 40 600\n2 B 80 500\n3 B 120 400\n")
    cfg = scenario_from_dict({
        "scheduler": "adaptive",
        "duration_s": 21,
        "stations": [
            {"traffic": {"kind": "trace", "path": str(path)}, "tspec": "jurassic-low"},
            {"tspec": "jurassic-medium"},
        ],
    })
    assert cfg.stations == 2
    specs = cfg.station_list()
    assert specs[0].traffic.kind == "trace"
    assert specs[0].tspec == tspec_preset("jurassic-low")
    assert specs[1].traffic.kind == "synth"   # falls back to scenario default
    assert specs[1].tspec == tspec_preset("jurassic-medium")
    r = engine.run(cfg)
    assert r.flows[0].generated == 4
    assert r.flows[0].delivered == 4
    assert r.flows[1].delivered > 0


def test_station_list_validation():
    with pytest.raises(ConfigError, match=r"stations\[0\]"):
        scenario_from_dict({"stations": [{"bogus": 1}]})
    with pytest.raises(ConfigError, match=r"^stations\[1\]\.bogus: unknown station key$"):
        scenario_from_dict({"stations": [{}, {"bogus": 1}]})
    with pytest.raises(ConfigError, match=r"^stations\[0\]\.tspec\.msi_typo: unknown TSPEC"):
        scenario_from_dict({"stations": [{"tspec": dict(INLINE_TSPEC, msi_typo=5)}]})
    with pytest.raises(ConfigError, match="path"):
        scenario_from_dict({"stations": [{"traffic": {"kind": "trace"}}]})


def _file_keys():
    """(dotted key, mapping builder) for every key a scenario file accepts."""
    yield "preset", lambda v: {"preset": v}
    for key in config._SCENARIO_KEYS:
        yield key, lambda v, key=key: {key: v}
    for section, table in [("traffic", config._TRAFFIC_KEYS), ("phy", config._PHY_KEYS)]:
        for key in table:
            yield f"{section}.{key}", lambda v, s=section, key=key: {s: {key: v}}
    for key in config._TSPEC_KEYS:
        yield f"tspec.{key}", lambda v, key=key: {"tspec": dict(INLINE_TSPEC, **{key: v})}
    for key in config._STATION_KEYS:
        yield f"stations[0].{key}", lambda v, key=key: {"stations": [{key: v}]}


FILE_KEYS = list(_file_keys())


@pytest.mark.parametrize("name, build", FILE_KEYS, ids=[name for name, _ in FILE_KEYS])
def test_every_file_key_parses_or_names_itself(name, build):
    # 1e303 is finite, but as ns (x 1e6 or 1e9) it overflows a float.
    for value in ([1], {"a": 1}, float("inf"), 1e303, "abc"):
        try:
            scenario_from_dict(build(value))
        except ConfigError as e:
            # The error names the key, or a key or entry inside its value.
            assert re.match(rf"^{re.escape(name)}[.\[:]", str(e)), (value, str(e))
        else:
            # No key takes a list of non-mappings or a mapping of unknown keys.
            assert not isinstance(value, (list, dict)), value


# Twenty values that each key either takes or refuses, and inputs beyond one
# key: station lists, run sizes, missing TSPEC keys.
PROBE_VALUES = ([1], {"a": 1}, float("inf"), float("nan"), 1e303, -1e303, "abc", "",
                None, True, False, 0, -1, 0.5, -0.5, 2.0, 1e-9, "a,b", "IXB", "trace")
PROBE_SCENARIOS = [
    [], 3, {"stations": []}, {"stations": [{}, 3]}, {"stations": [{}] * 13},
    {"stations": [{"traffic": {"kind": "trace"}}]},
    {"stations": [{"traffic": {"kind": "trace", "path": "t.txt"}}],
     "traffic": {"frame_interval_ms": 1e-6}},
    {"duration_s": 40, "traffic": {"frame_interval_ms": 1e-6}},
    {"duration_s": 40, "beacon_interval_ms": 1e-4},
    {"duration_s": 1e6, "stations": 12},
    {"preset": "cbr-nominal", "traffic": {"pattern": "IPX"}},
    {"scheduler": "rr", "stations": [{"bogus": 1}]},
    {"phy": {"basic_rate_bps": 2e7}}, {"tspec": dict(INLINE_TSPEC, msi_ms=100)},
    {"stations": [{"tspec": dict(INLINE_TSPEC, max_bytes=400)}]},
] + [{"tspec": {k: v for k, v in INLINE_TSPEC.items() if k != key}} for key in INLINE_TSPEC]
# sha256 of every probe's outcome. Messages quote CPython's own float() and
# int() errors, so the hash is tied to their wording (Python 3.11).
ERROR_TEXT_SHA256 = "753bdb217d52a4cda864dbea9767155a2500f66e9aa491676e38570438ee1e04"


def _probe_outcomes():
    def outcome(raw):
        try:
            scenario_from_dict(raw)
        except ConfigError as e:
            return str(e)
        return "ok"
    for name, build in FILE_KEYS:
        for value in PROBE_VALUES:
            yield f"{name}\t{value!r}\t{outcome(build(value))}"
    for raw in PROBE_SCENARIOS:
        yield f"{raw!r}\t{outcome(raw)}"


def test_error_text_is_pinned():
    text = "\n".join(_probe_outcomes())
    assert hashlib.sha256(text.encode()).hexdigest() == ERROR_TEXT_SHA256


def test_sweep_size_counts_the_polls_of_every_cell():
    base = scenario_from_dict({"duration_s": 1})           # 25 CAPs of 40 ms
    config.check_sweep_size(base, range(1, 2000), 2)       # 99 950 000 polls
    with pytest.raises(ConfigError, match=r"^stations: run would poll stations 100050000 "
                                          r"times over the 4000 cells of the sweep, "):
        config.check_sweep_size(base, range(1, 2001), 2)
    # A range too long for len() is counted too.
    with pytest.raises(ConfigError, match=r"^stations: run would poll "):
        config.check_sweep_size(base, range(1, 10**20), 1)
    # A cell of no CAP still sets up every station: each counts as a poll.
    with pytest.raises(ConfigError, match=r"^stations: run would set up stations "
                                          r"\d+ times over the \d+ cells of the sweep, "
                                          r"which make no CAP "):
        config.check_sweep_size(replace(base, duration_ns=0), range(1, 10**20), 2)
    config.check_sweep_size(replace(base, duration_ns=0), range(1, 10000), 2)  # 99 990 000
    with pytest.raises(ConfigError, match=r"^stations: run would set up stations 100010000 "):
        config.check_sweep_size(replace(base, duration_ns=0), range(1, 10001), 2)


def test_stations_warning_counts_the_stations_simulated():
    cfg = scenario_from_dict({"stations": [{}] * 13, "duration_s": 21})
    assert config.stations_warning(cfg) == \
        "stations=13 is outside the validated 1..12 preset range"
    # A config built in code cannot give a count its station_specs disagree with.
    with pytest.raises(ConfigError, match="^stations: 1 does not match the 13 station_specs$"):
        replace(cfg, stations=1)
    assert config.stations_warning(scenario_from_dict({"stations": 12})) is None


def test_apply_overrides_nested_paths():
    raw = apply_overrides({"traffic": {"jitter": 0.2}},
                          ["traffic.jitter=0.4", "phy.sifs_us=16", "seed=9"])
    assert raw == {"traffic": {"jitter": 0.4}, "phy": {"sifs_us": 16}, "seed": 9}
    with pytest.raises(ConfigError, match="--set"):
        apply_overrides({}, ["no-equals-sign"])
    with pytest.raises(ConfigError, match=r"^--set: empty key in '=5'$"):
        apply_overrides({}, ["=5"])
    with pytest.raises(ConfigError, match=r"^--set: empty key in ' =5'$"):
        apply_overrides({}, [" =5"])
    # A path into a present value that is not a mapping names its prefix;
    # the value is not replaced by a new mapping.
    with pytest.raises(ConfigError, match=r"^traffic: must be a mapping to --set "
                                          r"traffic\.jitter, got int$"):
        apply_overrides({"traffic": 5}, ["traffic.jitter=0.1"])
    with pytest.raises(ConfigError, match=r"^phy: must be a mapping to --set phy\.sifs_us, "):
        apply_overrides({}, ["phy=3", "phy.sifs_us=10"])
    with pytest.raises(ConfigError, match=r"^traffic\.pattern: must be a mapping "):
        apply_overrides({}, ["traffic.pattern=IPB", "traffic.pattern.x=1"])


def test_override_values_parse_as_yaml():
    raw = apply_overrides({}, ["qs_exact=true", "loss_p=0.25", "quality=foo"])
    cfg = scenario_from_dict(raw)
    assert cfg.qs_exact is True
    assert cfg.loss_p == 0.25
    assert cfg.quality == "foo"


def test_override_value_that_is_not_yaml_is_kept_as_text():
    # "[draft" opens a flow sequence it never closes: not YAML, so a string.
    raw = apply_overrides({}, ["quality=[draft", "traffic.pattern=IBBP: x: y"])
    assert raw == {"quality": "[draft", "traffic": {"pattern": "IBBP: x: y"}}
    assert scenario_from_dict(apply_overrides({}, ["quality=[draft"])).quality == "[draft"


def test_empty_config_file_gives_the_defaults(tmp_path):
    path = tmp_path / "empty.yaml"
    path.write_text("")
    assert config.load_scenario(str(path)) == scenario_from_dict({}) == ScenarioConfig()
    assert config.load_scenario(str(path), ["seed=4"]) == replace(ScenarioConfig(), seed=4)


def test_admission_accepts_yaml_booleans():
    assert scenario_from_dict({"admission": True}).admission == "on"
    assert scenario_from_dict({"admission": "off"}).admission == "off"


def test_validation_field_names():
    for key, bad in [("scheduler", "rr"), ("beacon_interval_ms", 0),
                     ("duration_s", -1), ("loss_p", -0.1), ("loss_p", 2.0),
                     ("on_reject", "x"), ("quality", "a,b"), ("quality", "a\rb"),
                     ("quality", "a\nb"), ("stations", 0), ("traffic_start_s", -1),
                     ("admission", "x")]:
        with pytest.raises(ConfigError, match=key):
            scenario_from_dict({key: bad})
        # Built in code, the same value is refused at construction.
        attr, cast = config._SCENARIO_KEYS[key]
        with pytest.raises(ConfigError, match=f"^{key}: "):
            replace(ScenarioConfig(), **{attr: cast(bad, key)})
    # A count that disagrees with the station list, in either direction.
    specs = scenario_from_dict({"stations": [{}] * 13, "duration_s": 21}).station_specs
    for n in (1, 12, 14):
        with pytest.raises(ConfigError, match=f"^stations: {n} does not match the 13 "):
            ScenarioConfig(stations=n, station_specs=specs, duration_ns=21 * 10**9)
    # Built in code, a value of the wrong type is refused before any range
    # check compares it, naming the field.
    for attr, bad in [("quality", 5), ("stations", "3"), ("stations", True),
                      ("loss_p", "0.1"), ("qs_exact", 1), ("traffic", {}),
                      ("station_specs", [])]:
        with pytest.raises(ConfigError, match=f"^{attr}: must be "):
            ScenarioConfig(**{attr: bad})
    with pytest.raises(ConfigError, match="^duration_s: must be int, got 1.5$"):
        ScenarioConfig(duration_ns=1.5)
    with pytest.raises(ConfigError, match="^station_specs: must hold StationSpec entries"):
        ScenarioConfig(stations=1, station_specs=({},))


def test_strict_scalar_casts():
    for key, bad in [("qs_exact", "false"), ("record_polls", 1), ("seed", 1.9),
                     ("seed", True), ("stations", 2.7), ("stations", "3"),
                     ("duration_s", float("inf")), ("loss_p", float("nan")),
                     ("beacon_interval_ms", "fast")]:
        with pytest.raises(ConfigError, match=f"^{key}:"):
            scenario_from_dict({key: bad})
    # YAML 1.1 reads exponent-only numbers as strings; they still count as numbers
    assert scenario_from_dict({"loss_p": "1e-3"}).loss_p == 0.001


def test_traffic_fields_validated_at_load():
    for key, bad in [("i_size", -5), ("p_size", 0), ("b_size", 2400.5),
                     ("jitter", 1.0), ("jitter", "abc"), ("frame_interval_ms", 0),
                     ("frame_interval_ms", float("inf")), ("pattern", "IXB"),
                     ("pattern", ""), ("stagger_ms", -1.0), ("seed", 0.5)]:
        with pytest.raises(ConfigError, match=rf"^traffic\.{key}:"):
            scenario_from_dict({"preset": "vbr-high", "traffic": {key: bad}})
        # Built in code, a value of the right type is refused at construction.
        attr, cast = config._TRAFFIC_KEYS[key]
        try:
            value = cast(bad, key)
        except (TypeError, ValueError):
            continue
        with pytest.raises(FieldError, match=f"^{attr} ") as e:
            replace(TrafficConfig(), **{attr: value})
        assert e.value.field == attr
    with pytest.raises(FieldError, match="^kind must be 'synth' or 'trace', got 'bogus'$"):
        TrafficConfig(kind="bogus")
    with pytest.raises(FieldError, match="^path required when kind is 'trace'$"):
        TrafficConfig(kind="trace")
    # Built in code, a value of the wrong type is refused with its name.
    for attr, bad in [("pattern", 5), ("i_size", "12160"), ("jitter", "0.2"),
                      ("jitter", True), ("seed", 1.5), ("path", 3)]:
        with pytest.raises(FieldError, match=f"^{attr} must be ") as e:
            TrafficConfig(**{attr: bad})
        assert e.value.field == attr
    assert scenario_from_dict({"traffic": {"seed": None}}).traffic.seed is None


def test_a_trace_path_is_refused_under_synthetic_traffic(tmp_path):
    # A synthetic station never reads a path, so one given there is refused
    # rather than ignored, wherever it is given.
    message = "is read only when kind is 'trace'"
    with pytest.raises(FieldError, match=f"^path {message}$") as e:
        TrafficConfig(path="movie.txt")
    assert e.value.field == "path"
    path = tmp_path / "scenario.yaml"
    path.write_text("preset: vbr-high\ntraffic:\n  path: movie.txt\n")
    for load, named in [
            (lambda: config.load_scenario(str(path)), "traffic.path"),
            (lambda: scenario_from_dict({"traffic": {"kind": "synth", "path": ""}}),
             "traffic.path"),
            (lambda: scenario_from_dict({"stations": [
                {"traffic": {"kind": "trace", "path": "movie.txt"}},
                {"traffic": {"path": "movie.txt"}}]}), "stations[1].traffic.path")]:
        with pytest.raises(ConfigError) as e:
            load()
        assert (e.value.field, e.value.detail) == (named, message)
    # Unset, or set under trace traffic, it is taken.
    assert scenario_from_dict({"traffic": {"path": None}}).traffic.path is None
    assert config.load_scenario(str(path), ["traffic.kind=trace"]).traffic.path == "movie.txt"


def test_values_above_a_64_bit_column_are_refused():
    # Base frame sizes stay below 2**62, so a jittered size (below twice its
    # base) fits a 64-bit column; receive times (at most the duration) too.
    for key in ("i_size", "p_size", "b_size"):
        with pytest.raises(FieldError, match=f"^{key} must be below 2\\*\\*62$"):
            TrafficConfig(**{key: 2**62})
        for raw, named in [({"traffic": {key: 2**62}}, f"traffic.{key}"),
                           ({"stations": [{}, {"traffic": {key: 10**20}}]},
                            f"stations[1].traffic.{key}")]:
            with pytest.raises(ConfigError) as e:
                scenario_from_dict(raw)
            assert (e.value.field, e.value.detail) == (named, "must be below 2**62")
    with pytest.raises(ConfigError, match=r"^duration_s: must be below 2\*\*63 ns"):
        scenario_from_dict({"duration_s": 1e13})
    # The largest base size and jitter still build a schedule.
    cfg = scenario_from_dict({"duration_s": 21, "traffic": {
        "i_size": 2**62 - 1, "p_size": 2**62 - 1, "b_size": 2**62 - 1, "jitter": 0.999}})
    assert max(engine._build_stations(cfg)[0].sizes) < 2**63


def test_phy_and_tspec_values_name_their_key():
    with pytest.raises(ConfigError, match=r"^phy\.sifs_us:"):
        scenario_from_dict({"phy": {"sifs_us": float("inf")}})
    with pytest.raises(ConfigError, match=r"^phy\.preamble_bits:"):
        scenario_from_dict({"phy": {"preamble_bits": "abc"}})
    # The model has no PIFS or slot time, so these keys are unknown.
    for key in ("pifs_us", "slot_us"):
        with pytest.raises(ConfigError, match=rf"^phy\.{key}: unknown PHY parameter$"):
            scenario_from_dict({"phy": {key: 30}})
    for key, bad in [("rho_bps", float("inf")), ("nominal_bytes", 500.5),
                     ("msi_ms", "soon")]:
        with pytest.raises(ConfigError, match=rf"^tspec\.{key}:"):
            scenario_from_dict({"tspec": dict(INLINE_TSPEC, **{key: bad})})


def test_phy_range_errors_name_the_file_key():
    for key, bad, message in [
            ("basic_rate_bps", 2e7, "20000000 exceeds data_rate_bps 11000000"),
            ("data_rate_bps", 5e5, "1000000 exceeds data_rate_bps 500000"),
            ("data_rate_bps", 0, "must be positive"),
            ("sifs_us", -1, "must be >= 0"),
            ("ack_frame_bytes", -14, "must be >= 0")]:
        with pytest.raises(ConfigError) as e:
            scenario_from_dict({"phy": {key: bad}})
        named = "basic_rate_bps" if "exceeds" in message else key
        assert str(e.value) == f"phy.{named}: {message}"
    # Code-built PhyParams keep the checks, naming their own attributes.
    with pytest.raises(ValueError, match="^sifs_ns must be >= 0$"):
        PhyParams(sifs_ns=-1)


@pytest.mark.parametrize("section", ["tspec", "stations[0].tspec"])
@pytest.mark.parametrize("key, bad, named, message", [
    (key, 0, key, "must be positive") for key in config._TSPEC_KEYS] + [
    ("max_bytes", 400, "max_bytes", "400 is below the nominal MSDU size 500"),
    ("nominal_bytes", 1000, "max_bytes", "900 is below the nominal MSDU size 1000"),
    ("msi_ms", 100, "msi_ms", "must not exceed the delay bound"),
    ("delay_bound_ms", 20, "msi_ms", "must not exceed the delay bound")])
def test_tspec_range_errors_name_the_file_key(section, key, bad, named, message):
    tspec = dict(INLINE_TSPEC, **{key: bad})
    raw = {"tspec": tspec} if section == "tspec" else {"stations": [{"tspec": tspec}]}
    with pytest.raises(ConfigError) as e:
        scenario_from_dict(raw)
    assert str(e.value) == f"{section}.{named}: {message}"


def test_run_size_limit_names_the_field():
    big = config.MAX_RUN_FRAMES
    # 20 s of traffic at 40 ms is 500 frames per station; beacons every 120 ms.
    with pytest.raises(ConfigError, match=r"^traffic\.frame_interval_ms: run would"):
        scenario_from_dict({"stations": 4, "duration_s": 40,
                            "traffic": {"frame_interval_ms": 40 * 2000 / big}})
    with pytest.raises(ConfigError, match=r"^stations\[1\]\.traffic\.frame_interval_ms:"):
        scenario_from_dict({"duration_s": 40, "stations": [
            {}, {"traffic": {"frame_interval_ms": 40 * 250 / big}}]})
    with pytest.raises(ConfigError, match=r"^beacon_interval_ms: run would"):
        scenario_from_dict({"duration_s": 40, "beacon_interval_ms": 0.001})
    with pytest.raises(ConfigError, match=r"^duration_s: run would"):
        scenario_from_dict({"stations": 12, "duration_s": big * 0.04 / 12})
    # Trace stations are bounded by their file and not counted.
    scenario_from_dict({"duration_s": 40, "traffic": {
        "kind": "trace", "path": "t.txt", "frame_interval_ms": 1e-6}})
    # Nor is a scenario-wide synthetic traffic that every station overrides.
    cfg = scenario_from_dict({"duration_s": 40, "traffic": {"frame_interval_ms": 1e-6},
                              "stations": [{"traffic": {"kind": "trace", "path": "t.txt"}}] * 2})
    assert [spec.traffic.kind for spec in cfg.station_list()] == ["trace", "trace"]


def test_run_size_limit_boundary():
    # One station from t=0: ceil(dur / interval) frames + ceil(dur / BI) beacons.
    limit = config.MAX_RUN_FRAMES
    base = {"traffic_start_s": 0, "beacon_interval_ms": 1000.0,
            "traffic": {"frame_interval_ms": 0.001}}         # 1 us frames
    beacons = 10
    at_limit = (limit - beacons) / 1e6                       # seconds of 1 us frames
    scenario_from_dict(dict(base, duration_s=at_limit))
    with pytest.raises(ConfigError, match="duration_s|frame_interval_ms"):
        scenario_from_dict(dict(base, duration_s=at_limit + 1e-6))


def test_run_poll_limit_boundary():
    # Traffic never starts, so no frame counts; the default TSPEC gives a
    # 40 ms SI, so 40 s is 1000 CAPs, each polling every station.
    limit = config.MAX_RUN_POLLS
    base = {"traffic_start_s": 100, "stations": limit // 1000}
    cfg = scenario_from_dict(dict(base, duration_s=40))
    assert cfg.stations == limit // 1000
    with pytest.raises(ConfigError, match=r"^stations: run would poll 10000 stations "
                                          r"in each of about 1001 CAPs"):
        scenario_from_dict(dict(base, duration_s=40.04))
    # A long run of few stations names its duration, a short MSI its CAPs.
    with pytest.raises(ConfigError, match=r"^duration_s: run would poll 1 stations"):
        scenario_from_dict({"duration_s": 1e6, "traffic": {"frame_interval_ms": 1000}})
    tspec = dict(INLINE_TSPEC, msi_ms=0.001)
    with pytest.raises(ConfigError, match=r"^duration_s: .* about 50000000 CAPs"):
        scenario_from_dict({"tspec": tspec})


def test_run_station_limit_boundary():
    # These runs have no CAP or one, so they poll at most MAX_RUN_POLLS
    # stations and generate nothing, yet set-up would build every station.
    # The count is checked in closed form: no station is built here.
    limit = config.MAX_RUN_STATIONS
    assert scenario_from_dict({"duration_s": 0, "stations": limit}).stations == limit
    for duration_s, stations in [(0, limit + 1), (0, 10**8), (0.001, 10**7)]:
        with pytest.raises(ConfigError, match=f"^stations: run would set up {stations} "
                                              f"stations, above the limit of {limit}$"):
            scenario_from_dict({"duration_s": duration_s, "stations": stations})


def test_engine_checks_run_size_of_unvalidated_configs():
    cfg = scenario_from_dict({"duration_s": 600})
    with pytest.raises(ConfigError, match="traffic.frame_interval_ms"):
        replace(cfg, traffic=replace(TrafficConfig(), frame_interval_ns=1))

