"""Fast self-check of the benchmark (about half a minute on 2 CPUs).

    python3 perfbench/selfcheck.py

Runs every workload at a fifth of its simulated length, untraced and
traced, and asserts that each metric named in BENCHMARK.json is emitted
with its unit, that the outputs pass their checks, that layer_map.json
covers every per-layer metric, and that the benchmark refuses to run
(non-zero exit, no result) in a directory without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.2"   # long enough for the generated traces' peak-to-mean check


def require(ok, what):
    if not ok:
        raise SystemExit(f"selfcheck failed: {what}")


def run(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--scale", SCALE]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())["layers"]
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"] for m in spec["end_to_end"]}

    per_layer = [m["name"] for m in spec["per_layer"]]
    require(sorted(layer_map) == sorted(per_layer),
            "layer_map.json must cover per_layer exactly")
    for name, entry in layer_map.items():
        require(set(entry["moves"]) <= e2e, name)
        require(set(entry["on"]) | set(entry["no_change_on"]) <= set(workloads), name)

    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            require(proc.returncode == 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            require(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                    result.keys())
            require(result["correct"] is True, proc.stdout[-3000:])
            require(result["attempted"] >= 1 and result["failed"] == 0, result)
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == expected, (workload, trace, got))
            for name, m in result["metrics"].items():
                require(isinstance(m["value"], (int, float)), (workload, name))
                if key == "end_to_end":
                    require(m["value"] > 0, (workload, name))
            print(f"ok {workload} trace={trace}: {len(got)} metrics")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = run(bare, workloads[0], 0)
    require(proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout)
    shutil.rmtree(bare)
    print("ok refuses to run without src/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
