"""Golden-output regression: the sha256 of each scenario's packet log plus
summary CSV, and of its poll records, pinned across engine rewrites.

The cases cover both schedulers, 1/4/12 stations, loss 0 and 0.1, both
queue-size modes, a per-station start stagger, trace-file replay (one trace
with contiguous sequence numbers, one whose numbers start at 1000, skip
values and are written out of order, and which outlasts the run), and an
overloaded grid where CAPs run back-to-back and beacons fall inside CAPs.
"""

import hashlib
import random

import pytest
import yaml

from conftest import lost_positions, make_scenario
from hccasim import cli, engine, metrics
from hccasim.phy import ctrl_tx_time, data_tx_time
from hccasim.traffic import synth_sizes

CASES = {
    "ref-1": (dict(preset="vbr-high", scheduler="reference", stations=1, seed=3),
              "7a83f2d7c7d7cf4007c634b1a4c6a26fcebe3e185a2dbb8f2134a5b9fe01737a",
              "d466b752cac22e938b061f83a108ccacf2b5b0fa17938d770a448b500b75549c"),
    "ada-1": (dict(preset="vbr-high", scheduler="adaptive", stations=1, seed=3),
              "4ce5da3959b0a3b7bb7695e5178246b99a4a31576618c5309e87f8ff0e03aabf",
              "593980ac08e4007b5174ac3dc04e0e9ae47e5cec9f8d3006c38fc2fa4f2e0c40"),
    "ref-4-loss": (dict(preset="vbr-high", scheduler="reference", stations=4, seed=5,
                        loss_p=0.1),
                   "bf0271621be57d3a934a78e33ea8027f57d51528913913874714b163f4d5c8a9",
                   "19096d2c9a200c14bbcf6480fcfc692ec53541b8df517846548c2859e53ae8e7"),
    "ada-4-loss": (dict(preset="vbr-high", scheduler="adaptive", stations=4, seed=5,
                        loss_p=0.1),
                   "cac346204ad72a706450f72d2993453a07073a4832deb3e442186a05535bab12",
                   "9d0bb3ff5ec2e2857e7ba4aed14c24fb10ef7a1a97f88e12031411e86c72267e"),
    "ada-4-exact": (dict(preset="vbr-high", scheduler="adaptive", stations=4, seed=7,
                         qs_exact=True),
                    "a9d076ad1d04318205493c321430882faa3223629eb38c97092be0241330053d",
                    "559e8e9d113a32a66e8262987b215730aa745008f0769c29164b636bf21c0c96"),
    "ada-4-exact-loss": (dict(preset="vbr-high", scheduler="adaptive", stations=4,
                              seed=7, qs_exact=True, loss_p=0.1),
                         "f7ea642e23bc95218c1007129d8eeb85c69dc0c2372cb1e6efc3615547d0de76",
                         "d97c83c97c2cfcf8f925f1f5f94620f0f86b893e2d300df8b4c4a020a2715cda"),
    "ref-12": (dict(preset="vbr-high", scheduler="reference", stations=12, seed=9),
               "113fd4ca38809c4d9c99b918634d46354b8603abae998ff0b8eea701df57b303",
               "b0571ca60ca5c3fd274874a14b596c45e75c85c3b27858b2ef32a4300110f515"),
    "ada-12-loss": (dict(preset="vbr-high", scheduler="adaptive", stations=12, seed=9,
                         loss_p=0.1),
                    "2019bbe152f0adf0e5ad36b2631232b46faaa373f89bc913626fafbeb439b649",
                    "c29a85d2dd6909c6d52d8e59462b403b68dff077671018ac52ad715e8ae74888"),
    "ada-3-stagger": (dict(preset="vbr-high", scheduler="adaptive", stations=3, seed=2,
                           traffic={"stagger_ms": 50.0}),
                      "1c2ca4d4cbff1025cc9abfe5e97f74b803aeaadd2600d2a3a2b04827d8a3d4b5",
                      "97cdd0a89e20aaf00c41ec68afe0612652312aa1ab81c414de13ec5d6b87f04e"),
    "cbr-ref-2": (dict(preset="cbr-nominal", scheduler="reference", stations=2, seed=4,
                       beacon_interval_ms=100.0),
                  "25df42f3e8727bdc99f4b052c80528732df6b9606f31cd7ebd18cbde603d3b6a",
                  "bb2e5170e3b108fc6bb77e3392e85242bc81ca7a31683b85df357fb0c1c254bf"),
    "trace-ada-3-loss": (dict(scheduler="adaptive", stations=3, seed=6, loss_p=0.1,
                              tspec="jurassic-high"),
                         "ae4442a8dccc4e6d8e45f3fa3b9d129c68fb96902729dee9fd597ed96f821864",
                         "a03b01a6c6f83fb382c16822bda2f35855d995edeca38c2909f0a07f5a8cb6c4"),
    "trace-gaps-ada-2-loss": (dict(scheduler="adaptive", stations=2, seed=8, loss_p=0.1,
                                   tspec="jurassic-high"),
                              "a2f065119aa4975122fadfe90b7d48f44e2d1abfcebdd8b3e27845071f9d68b3",
                              "c77e4b6a6f1ed38d282be28e7e3e89866c7bdd7698a3924157590268904f00ed"),
    "overload-ada-12": (dict(preset="vbr-high", scheduler="adaptive", stations=12,
                             seed=11, beacon_interval_ms=100.0,
                             traffic={"i_size": 30000, "p_size": 12000,
                                      "b_size": 6000}),
                        "781e9537afe6a97d44e45193ff932097583f27e9a855a4cfa4fc1ea45de5b3ba",
                        "2f0008c30577a318bbcb9f89c2dc89bc1972d0b0bb699e843fb1852ea8cf2ed8"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _polls_text(polls) -> str:
    return "".join(f"{p.flow},{p.poll_ns},{p.grant_ns},{p.used_ns},{p.branch},"
                   f"{p.frames_sent}\n" for p in polls)


TRACE_GOP = "IBBPBBPBBPBB"


def _trace_lines(rng_seed, seq_of=lambda k: k) -> list[str]:
    # 150 frames (6 s, longer than the 4 s of traffic in a case); frame k
    # is numbered seq_of(k), typed from the GoP and displayed at 40 * k ms.
    sizes = synth_sizes(TRACE_GOP, (12160, 4800, 2400), 0.25, 150, rng_seed)
    return [f"{seq_of(k)} {TRACE_GOP[k % len(TRACE_GOP)]} {40 * k} {size}"
            for k, size in enumerate(sizes)]


def _gapped_trace_text() -> str:
    # Numbered 1000, 1004, 1006, 1010, ... and written in shuffled order.
    lines = _trace_lines(98, lambda k: 1000 + 3 * k + k % 2)
    random.Random(5).shuffle(lines)
    return "\n".join(lines) + "\n"


def _scenario_dict(name, tmp_path):
    kwargs = dict(CASES[name][0], duration_s=24, record_polls=True)
    if name.startswith("trace-"):
        path = tmp_path / "trace.txt"
        if name.startswith("trace-gaps-"):
            path.write_text(_gapped_trace_text())
        else:
            path.write_text("".join(f"{line}\n" for line in _trace_lines(99)))
        kwargs["traffic"] = {"kind": "trace", "path": str(path)}
    return kwargs


def _scenario(name, tmp_path):
    return make_scenario(**_scenario_dict(name, tmp_path))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs(name, tmp_path):
    report = engine.run(_scenario(name, tmp_path))
    # A count the log does not give by construction: the frames each flow
    # was polled to send, from its poll records.
    sent = [sum(p.frames_sent for p in report.polls if p.flow == f) for f in report.flows]
    assert sent == [len(log.recv_ns) for log in report.flows.values()]
    assert report.conservation_ok()
    assert all(log.lost_at.tolist() == lost_positions(log) for log in report.flows.values())
    # The medium is exclusive: each poll starts no earlier than the poll
    # before it plus that poll's grant, and no exchange outlasts its grant.
    polls = report.polls
    assert all(p.poll_ns >= q.poll_ns + q.grant_ns for q, p in zip(polls, polls[1:]))
    assert all(p.used_ns <= p.grant_ns for p in polls)
    # Causality: a delivered frame arrives no sooner than a poll and the
    # frame's own air time after it was generated, so no delay is negative.
    phy = report.cfg.phy
    poll_lead = ctrl_tx_time(phy.poll_frame_bytes, phy) + phy.sifs_ns
    assert all(recv - gen >= poll_lead + data_tx_time(size, phy)
               for log in report.flows.values() for _, gen, recv, size in log.rows()
               if recv != engine.LOST)
    _, want_packets, want_polls = CASES[name]
    assert _sha(report.packets_csv() + metrics.summarize([report])) == want_packets
    assert _sha(_polls_text(report.polls)) == want_polls


@pytest.mark.parametrize("name", ["ada-4-loss", "ref-12"])
def test_cli_simulate_writes_the_golden_files(name, tmp_path):
    # The CLI streams packets.csv to disk; its files must hash as the
    # report's packets_csv() and summary do.
    config = tmp_path / "scenario.yaml"
    config.write_text(yaml.safe_dump(_scenario_dict(name, tmp_path)))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out),
                     "--quiet"]) == 0
    files = (out / "packets.csv").read_bytes() + (out / "summary.csv").read_bytes()
    assert hashlib.sha256(files).hexdigest() == CASES[name][1]


def test_record_polls_leaves_outputs_unchanged(tmp_path):
    cfg = _scenario("ada-4-loss", tmp_path)
    quiet = engine.run(make_scenario(**dict(CASES["ada-4-loss"][0], duration_s=24)))
    loud = engine.run(cfg)
    assert quiet.polls == []
    assert quiet.packets_csv() == loud.packets_csv()


def test_overload_case_covers_back_to_back_caps_and_inner_beacons(tmp_path):
    # The overload case must keep exercising both scheduling corner cases:
    # a CAP that starts late because the previous one ran past its SI
    # boundary, and a beacon instant that falls strictly inside a CAP.
    report = engine.run(_scenario("overload-ada-12", tmp_path))
    caps, bi = [], report.cfg.beacon_interval_ns
    for p in report.polls:
        if p.flow == 0:
            caps.append([])
        caps[-1].append(p)
    ends = [c[-1].poll_ns + c[-1].grant_ns for c in caps]
    assert any(nxt[0].poll_ns == end for nxt, end in zip(caps[1:], ends))
    assert any(c[0].poll_ns < -(-c[0].poll_ns // bi) * bi < end
               for c, end in zip(caps, ends))


def test_gapped_trace_case_keeps_its_properties(tmp_path):
    # The case must keep exercising what the contiguous trace cannot: seq
    # numbers that are not frame indices, out-of-order lines, and a trace
    # cut short by the end of the run.
    text = _gapped_trace_text()
    seqs = [int(line.split()[0]) for line in text.splitlines()]
    assert seqs != sorted(seqs)
    assert min(seqs) == 1000 and max(seqs) - min(seqs) + 1 > len(seqs)
    report = engine.run(_scenario("trace-gaps-ada-2-loss", tmp_path))
    sent = [p.seq for p in report.packets if p.flow == 0]
    assert sent == sorted(seqs)[:len(sent)]
    assert 0 < report.flows[0].generated < len(seqs)
