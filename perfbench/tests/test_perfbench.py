"""The benchmark's own tests: seeded inputs, checks that catch planted errors, smoke runs.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from itertools import islice

import numpy as np
import pytest

import child
import run
import spans
import workloads
from brightdark import pulses
from brightdark.classify import Label

from conftest import BENCH

ROOT = BENCH.parent


def _ops(workload, seed, blocks=3):
    return [op for block in islice(workloads.blocks(workload, seed), blocks) for op in block]


def _first(kind, **want):
    workload = next(w for w, spec in workloads.WORKLOADS.items() if kind in spec.mix)
    return next(op for op in _ops(workload, 3, 20)
                if op.kind == kind and all(op.params.get(k) == v for k, v in want.items()))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(workload):
    as_data = lambda ops: [(op.kind, op.params) for op in ops]  # noqa: E731
    assert as_data(_ops(workload, 7)) == as_data(_ops(workload, 7))
    assert as_data(_ops(workload, 7)) != as_data(_ops(workload, 8))


def _bump_beta(result, scale=1e-6):
    return dataclasses.replace(result, beta=result.beta * (1 + scale) + scale)


def _drop_sample(series):
    return pulses.IntensitySeries(series.t[:-1], series.intensity[:-1], series.metadata)


def _late(amp):
    amp = amp.copy()
    amp[len(amp) // 2] += 1e-3 * np.max(np.abs(amp))
    return amp


def _flip_first_label(scan):
    (phi, result), *rest = scan
    return [(phi, dataclasses.replace(result, label=Label.DARK))] + rest


def _exit_code(out):
    code, stdout, stderr = out
    return code + 1, stdout, stderr


def _cli_doc(edit):
    def plant(out):
        code, stdout, stderr = out
        doc = json.loads(stdout)
        edit(doc["results"])
        return code, json.dumps(doc), stderr
    return plant


PLANTED = {
    "locked": [lambda o: (_drop_sample(o[0]), o[1]),
               lambda o: (o[0], dataclasses.replace(o[1], peak=o[1].peak * (1 + 1e-9)))],
    "unlocked": [_drop_sample,
                 lambda s: pulses.IntensitySeries(s.t, s.intensity * (1 + 1e-6), s.metadata)],
    "late_window": [_late, lambda a: a[1:]],
    "csv": [lambda text: "\n".join(text.splitlines()[:-1]) + "\n",
            lambda text: text.rsplit(",", 1)[0] + ",-1\n"],
    "single": [_bump_beta],
    "ladder": [_bump_beta],
    "coherent": [lambda o: (o[0], _bump_beta(o[1], 1e-4))],
    "scan": [_flip_first_label, lambda s: s[:-1]],
    "basis": [lambda o: (o[0], o[1], o[2] * (1 + 1e-9), o[3])],
    "cli_classify": [_exit_code, _cli_doc(lambda r: r.update(beta=r["beta"] + 1e-6))],
    "cli_count_dark": [_exit_code, _cli_doc(lambda r: r.update(ratio=r["ratio"] * 1.001))],
    "cli_estimate_cavity": [_exit_code, _cli_doc(lambda r: r.update(M=r["M"] + 1))],
    "cli_scan_phase": [_exit_code, _cli_doc(lambda r: r.update(dark_points=r["dark_points"] - 1))],
    "cli_pulse_train": [_exit_code, lambda o: (o[0], o[1][: len(o[1]) // 2], o[2])],
    "cli_invalid": [_exit_code, lambda o: (o[0], "{}", o[2])],
}


def test_every_op_class_has_planted_errors():
    assert set(PLANTED) == set(workloads.KINDS)


@pytest.mark.parametrize("kind", sorted(PLANTED))
def test_check_accepts_the_output_and_rejects_planted_errors(kind):
    want = {"exponent": 2} if kind == "late_window" else {}
    if kind == "cli_count_dark":
        want = {"enumerate": True}
    op = _first(kind, **want)
    output = workloads.prepare(op)()
    workloads.check(op, output)
    for plant in PLANTED[kind]:
        with pytest.raises(workloads.CheckFailed):
            workloads.check(op, plant(output))


def test_rerun_check_catches_output_that_changes():
    op = _first("cli_classify", rerun=True)
    code, stdout, stderr = workloads.prepare(op)()
    with pytest.raises(workloads.CheckFailed, match="byte-identical"):
        workloads.check(op, (code, stdout.replace("\n", " \n", 1), stderr))


def test_known_defect_is_reported_apart_from_failures():
    stats = child.Stats()
    for exponent in range(7):
        op = _first("late_window", exponent=exponent)
        late = exponent >= workloads.LATE_DEFECT_EXPONENT
        for symptom in workloads.LATE_DEFECT_SYMPTOMS:
            assert workloads.known_defect(op, workloads.CheckFailed(f"{symptom} by 0.5")) == late
        assert not workloads.known_defect(op, workloads.CheckFailed("sample count"))
        child.run_op(workloads, op, stats)
    row = stats.classes["late_window"]
    assert row["attempted"] == 7 and row["failed"] == 0
    assert row["passed"] >= workloads.LATE_DEFECT_EXPONENT


def _late_failure(planted):
    def prepare(op):
        call = workloads.KINDS[op.kind].prepare(op.params)
        return lambda: planted(call())
    return prepare


def _raise(output):
    raise FloatingPointError("planted")


@pytest.mark.parametrize("planted", [lambda a: a[1:], lambda a: a * np.nan, _raise])
def test_other_failures_of_a_late_window_op_are_failures(monkeypatch, planted):
    op = _first("late_window", exponent=6)
    monkeypatch.setattr(workloads, "prepare", _late_failure(planted))
    stats = child.Stats()
    child.run_op(workloads, op, stats)
    assert stats.classes["late_window"]["failed"] == 1


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tracer.spans = [
        ("classify.scan_phase", 0.0, 10.0, -1, 0),
        ("classify.classify_fock", 1.0, 4.0, 0, 0),
        ("fock.apply_field", 2.0, 3.0, 1, 0),
        ("classify.classify_fock", 5.0, 6.0, 0, 0),
    ]
    tracer.counts["fock.apply_field.terms_in"] = 3
    layer = tracer.per_layer()
    assert layer["classify.scan_phase.incl_s"] == 10.0
    assert layer["classify.scan_phase.self_s"] == 6.0
    assert layer["classify.classify_fock.calls"] == 2
    assert layer["classify.classify_fock.self_s"] == 3.0
    assert layer["classify.self_s"] == 9.0 and layer["fock.self_s"] == 1.0
    assert layer["fock.apply_field.terms_in"] == 3


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in spans.METRICS]


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= child.MIN_OPS
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer_metric():
    proc = _run("--workload", "cli_session", "--seed", "5", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    assert list(metrics) == [name for name, _, _ in spans.METRICS]
    # classify_fock reaches apply_field through brightdark.classify's own binding.
    assert metrics["fock.apply_field.calls"]["value"] > 0
    session = workloads.WORKLOADS["cli_session"]
    assert metrics["cli.main.calls"]["value"] == session.trace_blocks * sum(session.mix.values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "pulse_train", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
