"""Run the benchmark over ten seeds and summarise each metric by median and quartiles.

    python3 perfbench/collect.py --out perfbench/baseline.json

For every workload in BENCHMARK.json it runs ``run.py`` once per seed (1 to 10),
untraced, then once traced for the first seed. It prints, per metric, the
median, the quartiles and their distance as a share of the median (the
spread that each end-to-end bound must cover), and with ``--out`` it writes
all of it, with every per-class outcome and each class's median share of
known defects, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def _defect_shares(lines: list[str]) -> dict[str, float]:
    """Known-defect share of each op class, read from the class table that run.py prints."""
    shares = {}
    for line in lines:
        fields = line.split()
        if len(fields) == 9 and fields[1].isdigit() and fields[4].isdigit():
            shares[fields[0]] = int(fields[4]) / int(fields[1])
    return shares


def _summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {
        "machine": {"cpus": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(), "numpy": np.__version__},
        "run_seconds": spec["run_seconds"], "seeds": SEEDS, "workloads": {},
    }
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = [_run(workload, seed, spec["run_seconds"], 0) for seed in report["seeds"]]
        entry = {"end_to_end": {}, "attempted": [r["attempted"] for r, _ in runs],
                 "failed": [r["failed"] for r, _ in runs], "classes": [lines for _, lines in runs]}
        shares = [_defect_shares(lines) for _, lines in runs]
        entry["known_defect_share"] = {
            kind: statistics.median(s.get(kind, 0.0) for s in shares)
            for kind in sorted(set().union(*shares))}
        print(f"{workload}: attempted {entry['attempted']}, failed {entry['failed']},"
              f" known-defect shares {entry['known_defect_share']}")
        for name in bounds:
            stats = _summarise([r["metrics"][name]["value"] for r, _ in runs])
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {name:<12} median {stats['median']:<12.6g} q1 {stats['q1']:<12.6g}"
                  f" q3 {stats['q3']:<12.6g} spread {stats['spread']:.4f}"
                  f" (bound {bounds[name]}){flag}")
            print("    " + " ".join(f"{v:.6g}" for v in stats["values"]))
        seed = report["seeds"][0]
        traced, lines = _run(workload, seed, spec["run_seconds"], 1)
        entry["per_layer"] = {"seed": seed, "classes": lines,
                              "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
