"""Smoke check of the benchmark itself, at tiny sizes.

    python3 bench/smoke.py

Runs every workload once untraced and once traced with tiny request lists,
and asserts that each run passes its checks and prints every metric that
BENCHMARK.json declares, with its unit. Then it plants a wrong known answer
and asserts that the run counts the failure (failed_ratio above 0).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import spans
import workloads


def run_tiny(workload: str, trace: int) -> tuple:
    """The info and result lines of one tiny run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                         "--trace", str(trace)], tiny=True)
    assert code == 0, f"{workload}: exit code {code}"
    lines = out.getvalue().strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    declared = {0: spec["end_to_end"], 1: spec["per_layer"]}
    assert [(m["name"], m["unit"], m["better"]) for m in declared[0]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared[1]] == list(spans.PER_LAYER)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            info, result = run_tiny(workload, trace)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            assert result["attempted"] >= 1
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in declared[trace]}, (workload, trace)
            print(f"ok: {workload} trace={trace} ({result['attempted']} requests)")
    workloads.KNOWN["cells_threshold"] -= 1
    info, result = run_tiny("threshold-scan", 0)
    assert info["failed_ratio"] > 0 and result["failed"] > 0 and not result["correct"]
    print(f"ok: a planted wrong answer gives failed_ratio {info['failed_ratio']:.3f}")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
