"""The brightdark benchmark: end-to-end metrics by default, per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload pulse_train --seed 1 --seconds 36 --trace 0

Run it from a checkout that holds ``src/brightdark``; it builds nothing and
imports the package from there. Every sample runs in a fresh child process
with one thread for the maths libraries: one child runs the workload, and
``SETUP_SAMPLES - 1`` children only set up, half of them before it and half
after, so that set-up time samples the host over the same stretch of time as
the run does. The workloads, their ops and the checks on every op are in
``workloads.py``; ``BENCHMARK.json`` at the root of the repository lists the
metrics.

The load is a closed loop: one client in one thread issues ops back to back.
End-to-end metrics (``--trace 0``):

* ``setup_s``: from the child's first line to ready (import brightdark and
  brightdark.cli, one warm-up op), median of the children. Inputs are made
  block by block during the run, outside the timed calls;
* ``ops_per_s``: ops that passed their check over the time spent inside the
  timed calls. Making inputs and checking outputs are left out, because the
  oracles can cost more than the calls they check; this makes it the
  mean-latency view of a run, which weighs the heavy ops that p50 and p90
  do not;
* ``op_p50_ms``, ``op_p90_ms``: op latency percentiles over every op attempted;
* ``peak_rss_mb``: the running child's ``ru_maxrss`` at exit;
* ``pass_ratio``: ops that passed their check over ops attempted. Known
  defects (see ``workloads.LATE_DEFECT_SYMPTOMS``) do not pass, and are not
  counted as ``failed`` either: ``failed`` counts ops that raised, returned a
  wrong exit code or failed a check in any other way.

With ``--trace 1`` the child runs a fixed list of ops (the workload's
``trace_blocks``), each op once to warm up, once untraced and once traced, and
the metrics are the per-layer ones of ``spans.METRICS``; the spans themselves
are written to ``.perfbench/spans-<workload>-<seed>.jsonl`` in the checkout.

The last line of standard output is one JSON object; the lines before it
give the outcome of each op class, with each class's share of known defects
beside its share in ``baseline.json``, so that new defect rows stand out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
SETUP_SAMPLES = 9  # odd: the measuring child and an even number of set-up-only children
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "pass_ratio": "fraction",
}


def _child(args, mode: str) -> dict:
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"benchmark child failed ({mode}, exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _percentile_ms(latencies: list[float], q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def _baseline_defect_shares(workload: str) -> dict[str, float]:
    """Known-defect share of each op class in the stored baseline, median over its seeds."""
    entry = json.loads(BASELINE.read_text())["workloads"].get(workload, {})
    return entry.get("known_defect_share", {})


def _class_report(classes: dict, base: dict[str, float]) -> list[str]:
    lines = [f"{'class':<20} {'attempted':>9} {'passed':>7} {'failed':>7} {'defect':>7}"
             f" {'share':>7} {'base':>7} {'p50_ms':>9} {'p90_ms':>9}"]
    for kind, row in sorted(classes.items()):
        lat = row["latencies"]
        p90 = _percentile_ms(lat, 90) if len(lat) > 1 else lat[0] * 1e3
        base_share = f"{base[kind]:.3f}" if kind in base else "-"
        lines.append(f"{kind:<20} {row['attempted']:>9} {row['passed']:>7} {row['failed']:>7}"
                     f" {row['known_defect']:>7} {row['known_defect'] / row['attempted']:>7.3f}"
                     f" {base_share:>7} {statistics.median(lat) * 1e3:>9.3f} {p90:>9.3f}")
        lines += [f"  {m}" for m in row["messages"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "brightdark" / "__init__.py").is_file():
        sys.exit(f"no brightdark sources under {ROOT / 'src'}; run from a full checkout")

    setups = [_child(args, "setup") for _ in range(SETUP_SAMPLES // 2)]
    main_run = _child(args, "trace" if args.trace else "run")
    setups += [_child(args, "setup") for _ in range(SETUP_SAMPLES // 2)]
    setups.append(main_run)

    classes = main_run["classes"]
    attempted = sum(row["attempted"] for row in classes.values())
    passed = sum(row["passed"] for row in classes.values())
    # The warm-up op is not timed, but a wrong answer there is a failure too.
    warmup = {f"warm-up {kind}": row for kind, row in main_run["warmup"].items()}
    failed = sum(row["failed"] for row in [*classes.values(), *warmup.values()])
    if args.trace:
        values = dict(main_run["per_layer"])
        values["import.brightdark_s"] = statistics.median(s["import_s"] for s in setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spans.METRICS}
    else:
        lat = main_run["latencies_s"]
        values = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "ops_per_s": passed / main_run["busy_s"],
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": _percentile_ms(lat, 90),
            "peak_rss_mb": main_run["peak_rss_mb"],
            "pass_ratio": passed / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(f"workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}:"
          f" {attempted} ops attempted, {passed} passed, {failed} failed")
    print("\n".join(_class_report({**classes, **warmup}, _baseline_defect_shares(args.workload))))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
