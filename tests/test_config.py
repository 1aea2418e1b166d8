import pickle
from dataclasses import replace

import pytest

from hccasim import config, engine
from hccasim.config import (ConfigError, TrafficConfig, apply_overrides,
                            scenario_from_dict, with_overrides)
from hccasim.sched import tspec_preset


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
    with pytest.raises(ConfigError, match="path"):
        scenario_from_dict({"stations": [{"traffic": {"kind": "trace"}}]})


def test_apply_overrides_nested_paths():
    raw = apply_overrides({"traffic": {"jitter": 0.2}},
                          ["traffic.jitter=0.4", "phy.sifs_us=16", "seed=9"])
    assert raw == {"traffic": {"jitter": 0.4}, "phy": {"sifs_us": 16}, "seed": 9}
    with pytest.raises(ConfigError, match="--set"):
        apply_overrides({}, ["no-equals-sign"])


def test_override_values_parse_as_yaml():
    raw = apply_overrides({}, ["qs_exact=true", "loss_p=0.25", "quality=foo"])
    cfg = scenario_from_dict(raw)
    assert cfg.qs_exact is True
    assert cfg.loss_p == 0.25
    assert cfg.quality == "foo"


def test_admission_accepts_yaml_booleans():
    assert scenario_from_dict({"admission": True}).admission == "on"
    assert scenario_from_dict({"admission": "off"}).admission == "off"


def test_with_overrides_revalidates():
    cfg = scenario_from_dict({"preset": "cbr-nominal"})
    with pytest.raises(ConfigError, match="loss_p"):
        with_overrides(cfg, loss_p=2.0)


def test_validation_field_names():
    for key, bad in [("scheduler", "rr"), ("beacon_interval_ms", 0),
                     ("duration_s", -1), ("loss_p", -0.1),
                     ("overhead_mode", "x"), ("throughput_window", "x"),
                     ("on_reject", "x")]:
        with pytest.raises(ConfigError, match=key):
            scenario_from_dict({key: bad})


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
                     ("pattern", ""), ("stagger_ms", -1.0), ("rotate_gop", "no"),
                     ("seed", 0.5)]:
        with pytest.raises(ConfigError, match=rf"^traffic\.{key}:"):
            scenario_from_dict({"preset": "vbr-high", "traffic": {key: bad}})
    assert scenario_from_dict({"traffic": {"seed": None}}).traffic.seed is None


def test_phy_and_tspec_values_name_their_key():
    with pytest.raises(ConfigError, match=r"^phy\.sifs_us:"):
        scenario_from_dict({"phy": {"sifs_us": float("inf")}})
    with pytest.raises(ConfigError, match=r"^phy\.slot_us:"):
        scenario_from_dict({"phy": {"slot_us": "abc"}})
    tspec = {"rho_bps": 1e5, "nominal_bytes": 500, "max_bytes": 900,
             "delay_bound_ms": 80, "msi_ms": 40, "phys_rate_bps": 11000000}
    for key, bad in [("rho_bps", float("inf")), ("nominal_bytes", 500.5),
                     ("msi_ms", "soon")]:
        with pytest.raises(ConfigError, match=rf"^tspec\.{key}:"):
            scenario_from_dict({"tspec": dict(tspec, **{key: bad})})


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


def test_engine_checks_run_size_of_unvalidated_configs():
    cfg = replace(scenario_from_dict({"duration_s": 600}),
                  traffic=replace(TrafficConfig(), frame_interval_ms=1e-6))
    with pytest.raises(ConfigError, match="traffic.frame_interval_ms"):
        engine.Simulation(cfg)


def test_config_error_survives_pickling():
    # Sweep workers hand exceptions back to the parent pickled.
    err = pickle.loads(pickle.dumps(ConfigError("traffic.i_size", "must be positive")))
    assert isinstance(err, ConfigError)
    assert err.field == "traffic.i_size"
    assert str(err) == "traffic.i_size: must be positive"
