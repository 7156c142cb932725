"""Command-line interface: dispatch, output schema, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_properties import _oracle_round_sig, _oracle_series_to_csv

from brightdark import cli
from brightdark.classify import SCAN_MAX_POINTS, classify_fock
from brightdark.cli import build_parser, main
from brightdark.counting import COUNT_MAX_MODES, ENUMERATION_MAX_MODES
from brightdark.fock import ModePhases
from brightdark.pulses import (
    SERIES_MAX_SAMPLES,
    LaserField,
    intensity_series,
    pulse_metrics,
    unlocked_intensity,
)
from brightdark.states import single_photon_state

SRC = Path(__file__).resolve().parents[1] / "src"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_pulse_train_json_schema(capsys):
    code, doc = run_json(
        capsys, ["pulse-train", "--n-side", "5", "--samples", "128", "--format", "json"]
    )
    assert code == 0
    assert doc["command"] == "pulse-train"
    assert doc["params"]["n_side"] == 5
    results = doc["results"]
    assert len(results["intensity"]) == 128
    assert results["metrics"]["peak"] == pytest.approx(121.0)
    assert results["metadata"]["m_total"] == 11


def test_pulse_train_defaults_to_csv_with_metrics_footer(capsys):
    code = main(["pulse-train", "--n-side", "2", "--samples", "32"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert "t_prime,intensity" in lines
    assert any(line.startswith("# peak=25") for line in lines)
    assert any(line.startswith("# duty_ratio=") for line in lines)


def test_pulse_train_rejects_zero_side_modes(capsys):
    assert main(["pulse-train", "--n-side", "0"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--unlocked"]])
@pytest.mark.parametrize("flag", ["--e0", "--delta-omega", "--phi"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_pulse_train_non_finite_field_exits_2(capsys, extra, flag, bad):
    # A NaN field would print NaN tokens, which are not JSON.
    assert main(["pulse-train", "--n-side", "5", "--format", "json", f"{flag}={bad}"] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag[2:].replace('-', '_')} must be finite" in captured.err


def test_pulse_train_unlocked_deterministic(capsys):
    argv = [
        "pulse-train", "--n-side", "4", "--samples", "64",
        "--periods", "2", "--unlocked", "--seed", "9",
    ]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical


def _oracle_pulse_train(n_side, samples, periods=1, seed=None, fmt="csv"):
    """The pulse-train document through the per-row CSV writer and per-element rounding."""
    field = LaserField(n_side=n_side)
    if seed is None:
        series = intensity_series(field, samples, periods)
        pm = pulse_metrics(series)
        metrics = {"fwhm": pm.fwhm, "period": pm.period, "duty_ratio": pm.duty_ratio, "peak": pm.peak}
    else:
        series = unlocked_intensity(field, seed, samples, periods)
        metrics = {
            "mean_intensity": float(np.mean(series.intensity)),
            "max_intensity": float(np.max(series.intensity)),
        }
    if fmt == "csv":
        footer = "".join(f"# {k}={_oracle_round_sig(v)}\n" for k, v in sorted(metrics.items()))
        return _oracle_series_to_csv(series) + footer
    params = {
        "n_side": n_side, "e0": 1.0, "delta_omega": 1.0, "phi": 0.0,
        "samples": samples, "periods": periods, "unlocked": seed is not None,
    }
    if seed is not None:
        params["seed"] = seed
    results = {
        "metadata": series.metadata,
        "metrics": metrics,
        "t_prime": list(series.t),
        "intensity": list(series.intensity),
    }
    doc = {
        "command": "pulse-train",
        "params": _oracle_round_sig(params),
        "results": _oracle_round_sig(results),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "n_side, samples, periods, seed",
    [
        (5, 128, 1, None),
        (4, 64, 2, 9),
        (3, 256, 3, None),
        (3, 100, 3, 11),
        (5, 16, 1, 3),  # under-resolved: the header carries a warning
    ],
)
def test_pulse_train_bytes_match_the_per_row_oracle(capsys, fmt, n_side, samples, periods, seed):
    argv = ["pulse-train", "--n-side", str(n_side), "--samples", str(samples),
            "--periods", str(periods), "--format", fmt]
    if seed is not None:
        argv += ["--unlocked", "--seed", str(seed)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == _oracle_pulse_train(n_side, samples, periods, seed, fmt)
    if samples < 4 * (2 * n_side + 1) and fmt == "csv":
        assert "# warning=" in out


def test_cli_import_leaves_scipy_out():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import sys, brightdark.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_classify_bright(capsys):
    code, doc = run_json(capsys, ["classify", "--m", "4", "--phase", "0"])
    assert code == 0
    assert doc["results"]["label"] == "Bright"
    assert doc["results"]["beta"] == pytest.approx(2.0)


def test_classify_dark_decimal_phase(capsys):
    # 7-digit pi/2: the CLI default tolerance absorbs the decimal loss.
    code, doc = run_json(
        capsys,
        ["classify", "--m", "4", "--phase", "1.5707963", "--family", "coherent"],
    )
    assert code == 0
    assert doc["results"]["label"] == "Dark"


def test_classify_intermediate(capsys):
    code, doc = run_json(capsys, ["classify", "--m", "4", "--phase", "0.3"])
    assert code == 0
    assert doc["results"]["label"] == "Intermediate"
    assert doc["results"]["beta"] == pytest.approx(1.889, abs=1e-3)


def test_classify_phase_frac_exact_dark(capsys):
    code, doc = run_json(
        capsys, ["classify", "--m", "4", "--phase-frac", "1/4", "--tol", "1e-10"]
    )
    assert code == 0
    assert doc["results"]["label"] == "Dark"
    assert doc["params"]["phase"] == pytest.approx(math.pi / 2)


def test_classify_bad_phase_frac(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--m", "4", "--phase-frac", "x/y"])
    assert exc.value.code == 2


def test_classify_requires_a_phase(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--m", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("m, frac", [(4, "1/4"), (5, "2/5"), (7, "3/10"), (16, "5/16")])
def test_classify_agrees_with_the_fock_route(capsys, m, frac):
    code, doc = run_json(capsys, ["classify", "--m", str(m), "--phase-frac", frac])
    assert code == 0
    num, den = map(int, frac.split("/"))
    state = single_photon_state(ModePhases.locked(m, 2 * math.pi * num / den))
    oracle = classify_fock(state, ModePhases.zero(m), 1e-6)
    assert doc["results"]["beta"] == pytest.approx(oracle.beta, rel=1e-11, abs=1e-12)
    assert doc["results"]["label"] == oracle.label.value


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--m", "1", "--phase", "0.5"],
        ["classify", "--m", "0", "--phase", "0.5", "--family", "coherent"],
        ["classify", "--m", "4", "--phase", "0.5", "--family", "coherent", "--alpha", "0"],
        ["classify", "--m", "4", "--phase", "0.5", "--family", "coherent", "--alpha", "nan"],
        ["classify", "--m", "4", "--phase", "inf"],
        ["classify", "--m", "4", "--phase", "0.5", "--tol", "0.7"],
    ],
)
def test_classify_rejects_invalid_input(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("extra", [[], ["--unlocked"]])
def test_pulse_train_past_the_sample_bound_exits_3(capsys, extra):
    periods = SERIES_MAX_SAMPLES // 1000 + 1
    argv = ["pulse-train", "--n-side", "2", "--samples", "1000", "--periods", str(periods)]
    assert main(argv + extra) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "samples" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # Several MB of CSV: the write itself meets the closed pipe.
        ["pulse-train", "--n-side", "2", "--samples", "200000"],
        # A few hundred bytes: the pipe shows closed only when stdout is flushed.
        ["classify", "--m", "4", "--phase", "0.3"],
    ],
)
def test_closed_stdout_exits_cleanly(argv):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "brightdark.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader goes away before the command writes
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_count_dark_enumerated(capsys):
    code, doc = run_json(capsys, ["count-dark", "--m", "6", "--enumerate"])
    assert code == 0
    res = doc["results"]
    assert res["pi_phase_count"] == 10
    assert res["enumerated_count"] == 10
    assert res["locked_dark_count"] == 5


def test_count_dark_closed_form_only(capsys):
    code, doc = run_json(capsys, ["count-dark", "--m", "4"])
    assert code == 0
    assert doc["results"]["pi_phase_count"] == 3
    assert doc["results"]["enumerated_count"] is None


def test_count_dark_odd(capsys):
    code, doc = run_json(capsys, ["count-dark", "--m", "7", "--enumerate"])
    assert code == 0
    res = doc["results"]
    assert res["pi_phase_count"] is None
    assert res["enumerated_count"] == 0
    assert res["locked_dark_count"] == 6
    assert len(res["locked_dark_phases"]) == 6


def test_count_dark_resource_limit(capsys):
    assert main(["count-dark", "--m", "30", "--enumerate"]) == 3
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("m, code", [(COUNT_MAX_MODES, 0), (COUNT_MAX_MODES + 2, 3)])
def test_count_dark_mode_bound(capsys, m, code):
    assert main(["count-dark", "--m", str(m)]) == code
    out = capsys.readouterr().out
    if code == 0:  # the count, about 0.301*M digits, still prints
        assert json.loads(out)["results"]["pi_phase_count"] == math.comb(m, m // 2) // 2
    else:
        assert out == ""


@pytest.mark.parametrize("m, code", [(ENUMERATION_MAX_MODES, 0), (ENUMERATION_MAX_MODES + 1, 3)])
def test_count_dark_enumeration_bound(capsys, m, code):
    assert main(["count-dark", "--m", str(m), "--enumerate"]) == code
    out = capsys.readouterr().out
    if code == 0:  # all 2^23 sign masks tallied
        assert json.loads(out)["results"]["enumerated_count"] == 1352078
    else:
        assert out == ""


def _session(capsys):
    """Exit code, stdout and stderr of a valid call, an argparse rejection, a
    resource-limit exit and the valid call again, all in one process."""
    argvs = [
        ["classify", "--m", "4", "--phase-frac", "1/4"],
        ["count-dark"],
        ["count-dark", "--m", str(ENUMERATION_MAX_MODES + 1), "--enumerate"],
        ["classify", "--m", "4", "--phase-frac", "1/4"],
    ]
    runs = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        runs.append((code, *capsys.readouterr()))
    return runs


def test_parser_reuse_matches_a_fresh_parser(capsys, monkeypatch):
    assert build_parser() is build_parser()
    cached = _session(capsys)
    assert [run[0] for run in cached] == [0, 2, 3, 0]
    assert cached[0] == cached[3]
    monkeypatch.setattr(cli, "build_parser", lambda: build_parser.__wrapped__())
    assert _session(capsys) == cached


def test_estimate_cavity_reference(capsys):
    code, doc = run_json(
        capsys,
        [
            "estimate-cavity", "--lambda0-nm", "780", "--dlambda-nm", "30",
            "--l-mm", "250", "--n", "1", "--pulse-ns", "45", "--rep-ms", "1",
        ],
    )
    assert code == 0
    res = doc["results"]
    assert res["orders_match"] is True
    assert res["measured_ratio"] == pytest.approx(4.5e-5)
    assert 1e4 <= res["M"] < 1e5
    assert res["quoted_M"] == 4e4


def test_estimate_cavity_length_doubles_modes(capsys):
    _, doc250 = run_json(
        capsys,
        ["estimate-cavity", "--lambda0-nm", "780", "--dlambda-nm", "30", "--l-mm", "250"],
    )
    _, doc500 = run_json(
        capsys,
        ["estimate-cavity", "--lambda0-nm", "780", "--dlambda-nm", "30", "--l-mm", "500"],
    )
    assert doc500["results"]["M"] == pytest.approx(2 * doc250["results"]["M"], abs=1)


def test_estimate_cavity_missing_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate-cavity", "--lambda0-nm", "780"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", ["--l-mm", "--n", "--pulse-ns"])
@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_estimate_cavity_non_finite_exits_2(capsys, flag, bad):
    argv = ["estimate-cavity", "--lambda0-nm", "780", "--dlambda-nm", "30", "--l-mm", "250"]
    assert main(argv + [flag, bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


def test_scan_phase_counts(capsys):
    code, doc = run_json(capsys, ["scan-phase", "--m", "4", "--grid", "16"])
    assert code == 0
    assert doc["results"]["dark_points"] == 3
    assert doc["results"]["bright_points"] == 1
    assert doc["results"]["intermediate_points"] == 12


def test_scan_phase_m5_single_photon(capsys):
    code, doc = run_json(
        capsys, ["scan-phase", "--m", "5", "--grid", "20", "--family", "single-photon"]
    )
    assert code == 0
    assert doc["results"]["dark_points"] == 4
    assert doc["results"]["bright_points"] == 1


def test_scan_phase_past_the_point_bound_exits_3(capsys):
    grid = (SCAN_MAX_POINTS // 4 + 1) * 4
    assert main(["scan-phase", "--m", "4", "--grid", str(grid)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "scan points" in captured.err


def test_output_file_and_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("BRIGHTDARK_OUTPUT_DIR", str(tmp_path))
    code = main(["count-dark", "--m", "4", "--output", "census.json"])
    assert code == 0
    written = tmp_path / "census.json"
    assert written.exists()
    doc = json.loads(written.read_text())
    assert doc["results"]["pi_phase_count"] == 3


def test_twelve_significant_digits(capsys):
    code, doc = run_json(capsys, ["classify", "--m", "4", "--phase", "0.3"])
    assert code == 0
    beta = doc["results"]["beta"]
    assert beta == float(f"{beta:.12g}")
