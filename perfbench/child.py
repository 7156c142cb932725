"""One benchmark process: set up brightdark, then run a workload's ops.

``run.py`` starts this script in a fresh interpreter for every sample, so that
set-up time and peak memory belong to one workload alone:

    python3 perfbench/child.py --workload pulse_train --seed 1 --seconds 36 --mode run

It imports brightdark from ``src/`` of the checkout that holds this script.

Modes: ``setup`` stops once set-up is done; ``run`` is the closed loop of one
client issuing ops back to back, untraced; ``trace`` runs each op of a fixed
list untraced and traced, and reports per-layer metrics. The last line of
standard output is one JSON object.
"""

import time

T0 = time.perf_counter()  # the child's first line: set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

MIN_OPS = 100  # op_p90_ms needs at least ten samples above it
MAX_LOOP_S = 150.0  # a run ends by then whatever --seconds asks
MESSAGES_PER_CLASS = 3
ROOT = Path(__file__).resolve().parents[1]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    return parser.parse_args(argv)


class Stats:
    """Outcome of every op, by class: latency and pass, fail or known defect."""

    def __init__(self):
        self.latencies: list[float] = []
        self.busy_s = 0.0
        self.classes: dict[str, dict] = {}

    def record(self, kind: str, latency: float, status: str, message: str | None) -> None:
        self.latencies.append(latency)
        self.busy_s += latency
        row = self.classes.setdefault(
            kind, {"attempted": 0, "passed": 0, "failed": 0, "known_defect": 0,
                   "latencies": [], "messages": []})
        row["attempted"] += 1
        row[status] += 1
        row["latencies"].append(latency)
        if message and message not in row["messages"] and len(row["messages"]) < MESSAGES_PER_CLASS:
            row["messages"].append(message)

    def to_dict(self) -> dict:
        return {"latencies_s": self.latencies, "busy_s": self.busy_s, "classes": self.classes}


def run_op(workloads, op, stats: Stats, tracer=None, op_id: int = 0) -> float:
    """Time one op's call, check its output outside the timed region, and return the latency."""
    call = workloads.prepare(op)
    if tracer is not None:
        tracer.op_id, tracer.active = op_id, True
    start = time.perf_counter()
    try:
        output, error = call(), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        output, error = None, exc
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    status, message = "passed", None
    if error is not None:
        status, message = "failed", f"raised {type(error).__name__}: {error}"
    else:
        try:
            workloads.check(op, output)
        except workloads.CheckFailed as exc:
            status = "known_defect" if workloads.known_defect(op, exc) else "failed"
            message = str(exc)
    if message is not None:
        message = f"{status}: {message} ({op.params})"[:400]
    stats.record(op.kind, latency, status, message)
    return latency


def timed_loop(workloads, name: str, seed: int, seconds: float) -> Stats:
    """Closed loop: the pinned ops, then whole blocks until the time is up."""
    stats = Stats()
    stream = workloads.blocks(name, seed)
    start = time.perf_counter()
    for op in workloads.WORKLOADS[name].pinned:
        run_op(workloads, op, stats)
    while True:
        for op in next(stream):
            run_op(workloads, op, stats)
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(stats.latencies) >= MIN_OPS) or elapsed >= MAX_LOOP_S:
            return stats


def trace_run(workloads, spans, name: str, seed: int, out_path: Path):
    """Run each op of a fixed list three times: once to warm up, then untraced and traced.

    Per-layer metrics come from the traced calls. Within each op class the
    traced call goes first on every other op, and the overhead is the median
    of the per-op ratios, traced over untraced, so that neither call order
    nor the spread of op sizes decides it.
    """
    stream = workloads.blocks(name, seed)
    ops = list(workloads.WORKLOADS[name].pinned)
    for _ in range(workloads.WORKLOADS[name].trace_blocks):
        ops += next(stream)
    tracer = spans.Tracer()
    tracer.install()
    stats, ratios, seen = Stats(), [], {}
    for op_id, op in enumerate(ops):
        seen[op.kind] = seen.get(op.kind, -1) + 1
        run_op(workloads, op, stats)
        latency = [0.0, 0.0]
        for traced in (seen[op.kind] % 2, 1 - seen[op.kind] % 2):
            latency[traced] = run_op(workloads, op, stats, tracer if traced else None, op_id)
        ratios.append(latency[1] / latency[0])
    tracer.write(out_path)
    metrics = tracer.per_layer()
    metrics["trace.overhead_ratio"] = statistics.median(ratios)
    return stats, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import brightdark
    import brightdark.cli  # noqa: F401  (the CLI is part of what a session imports)

    import_s = time.perf_counter() - start
    if src not in Path(brightdark.__file__).resolve().parents:
        sys.exit(f"brightdark was imported from {brightdark.__file__}, not from {src}")

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    warm = Stats()
    run_op(workloads, workloads.warmup(args.workload), warm)
    setup_s = time.perf_counter() - T0

    result = {"setup_s": setup_s, "import_s": import_s, "warmup": warm.classes}
    if args.mode == "run":
        result.update(timed_loop(workloads, args.workload, args.seed, args.seconds).to_dict())
    elif args.mode == "trace":
        out_path = ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.jsonl"
        stats, metrics = trace_run(workloads, spans, args.workload, args.seed, out_path)
        result.update(stats.to_dict(), per_layer=metrics)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
