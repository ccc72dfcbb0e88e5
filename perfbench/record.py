"""Measure a baseline: repeated runs of every workload, then one traced run.

Usage (from the repository root):

    python3 perfbench/record.py --out perfbench/baseline.json

For each workload and each of the seeds 1 to 10 it runs ``run.py --trace
0`` for BENCHMARK.json's ``run_seconds`` (40 s) and reports, per
end-to-end metric, the median, the quartiles and the spread (interquartile
range over median) of the per-run values; then it runs ``--trace 1`` once
per workload for the per-layer table. Only the ``measured`` entry of the
output file is replaced; other entries are kept.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
SEEDS = range(1, 11)

import workloads  # noqa: E402


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line for line in lines if line.startswith("#")]


def _summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    measured = {"seeds": list(SEEDS), "run_seconds": seconds,
                "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                            "platform": platform.platform()},
                "end_to_end": {}, "per_layer": {}, "notes": {}}
    for workload in workloads.WORKLOADS:
        runs = []
        for seed in SEEDS:
            result, notes = _run(workload, seed, seconds, 0)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result {result}")
            runs.append(result)
            measured["notes"].setdefault(workload, []).append(notes)
            print(workload, seed, {k: round(v["value"], 6) for k, v in result["metrics"].items()},
                  flush=True)
        measured["end_to_end"][workload] = {
            name: {**_summary([r["metrics"][name]["value"] for r in runs]),
                   "unit": runs[0]["metrics"][name]["unit"]}
            for name in runs[0]["metrics"]
        }
        traced, _ = _run(workload, SEEDS[0], seconds, 1)
        measured["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    for workload, table in measured["end_to_end"].items():
        for name, s in table.items():
            print(f"{workload:13s} {name:12s} median={s['median']:.6g} spread={s['spread']:.4f}")

    baseline = json.loads(args.out.read_text()) if args.out.exists() else {}
    baseline["measured"] = measured
    args.out.write_text(json.dumps(baseline, indent=2) + "\n")


if __name__ == "__main__":
    main()
