"""Command-line interface: dispatch, output schema, exit codes, determinism."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from test_properties import _oracle_round_sig, _oracle_series_to_csv

from brightdark import classify, cli, pulses
from brightdark.cavity import CavityDesign, ratio_report
from brightdark.classify import SCAN_MAX_POINTS, Classification, _locked, classify_fock, scan_phase
from brightdark.cli import build_parser, main
from brightdark.counting import (
    COUNT_MAX_MODES,
    ENUMERATION_MAX_MODES,
    dark_census,
    locked_dark_phases,
)
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
    return _oracle_doc("pulse-train", params, results)


def _oracle_doc(command, params, results):
    """A command's document through per-element rounding and the standard library encoder."""
    doc = {
        "command": command,
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


def _stdout(capsys, argv):
    assert main(argv) == 0
    return capsys.readouterr().out


def _oracle_classification(result):
    return {"beta": result.beta, "label": result.label.value,
            "beta_max": result.beta_max, "tol": result.tol}


@pytest.mark.parametrize("family", ["single-photon", "coherent"])
@pytest.mark.parametrize(
    "m, phase_arg, phase",
    [
        (4, ["--phase", "0.3"], 0.3),
        (4, ["--phase", "0"], 0.0),
        (5, ["--phase", "1e-05"], 1e-05),
        (16, ["--phase-frac", "5/16"], 2 * math.pi * 5 / 16),
        (7, ["--phase-frac=-3/7"], 2 * math.pi * -3 / 7),
        (64, ["--phase-frac", "1/2"], math.pi),
    ],
)
def test_classify_bytes_match_the_oracle(capsys, family, m, phase_arg, phase):
    argv = ["classify", "--m", str(m), "--family", family, *phase_arg]
    if family == "coherent":
        argv += ["--alpha", "0.5+1j"]
    params = {"m": m, "family": family, "phase": phase, "tol": cli.CLI_TOL}
    if family == "coherent":
        params["alpha"] = repr(0.5 + 1j)
    betas, labels, beta_max = _locked(m, np.array([phase]), cli.CLI_TOL)
    result = Classification(float(betas[0]), labels[0], beta_max, cli.CLI_TOL)
    assert _stdout(capsys, argv) == _oracle_doc("classify", params, _oracle_classification(result))


@pytest.mark.parametrize(
    "m, enumerate_",
    [(m, False) for m in (2, 3, 6, 7, 16, 64, 65, 200)] + [(m, True) for m in (2, 3, 6, 7, 16)],
)
def test_count_dark_bytes_match_the_oracle(capsys, m, enumerate_):
    census = dark_census(m, enumerate_states=enumerate_)
    results = {
        "pi_phase_count": census.pi_phase_count,
        "enumerated_count": census.enumerated_count,
        "locked_dark_count": census.locked_dark_count,
        "bright_count": census.bright_count,
        "ratio": census.ratio,
    }
    if m <= 64:
        results["locked_dark_phases"] = locked_dark_phases(m)
    argv = ["count-dark", "--m", str(m)] + (["--enumerate"] if enumerate_ else [])
    want = _oracle_doc("count-dark", {"m": m, "enumerate": enumerate_}, results)
    assert _stdout(capsys, argv) == want


@pytest.mark.parametrize(
    "values",
    [
        {"lambda0_nm": 780.0, "dlambda_nm": 30.0, "l_mm": 250.0, "n": 1.0,
         "pulse_ns": 45.0, "rep_ms": 1.0},
        {"lambda0_nm": 1550.5, "dlambda_nm": 0.125, "l_mm": 1999.0, "n": 1.45,
         "pulse_ns": 1.5, "rep_ms": 0.01},
    ],
)
def test_estimate_cavity_bytes_match_the_oracle(capsys, values):
    argv = ["estimate-cavity"]
    for key, value in values.items():
        argv += [f"--{key.replace('_', '-')}", repr(value)]
    design = CavityDesign(
        lambda0=values["lambda0_nm"] * 1e-9,
        dlambda_g=values["dlambda_nm"] * 1e-9,
        length=values["l_mm"] * 1e-3,
        n_index=values["n"],
        pulse_duration=values["pulse_ns"] * 1e-9,
        rep_period=values["rep_ms"] * 1e-3,
    )
    want = _oracle_doc("estimate-cavity", values, ratio_report(design).to_dict())
    assert _stdout(capsys, argv) == want


@pytest.mark.parametrize("family", ["single-photon", "coherent"])
@pytest.mark.parametrize("tol", [None, "1e-3"])
@pytest.mark.parametrize("m", [2, 3, 4, 7, 16, 64])
@pytest.mark.parametrize("per_mode", [2, 5, 8])
def test_scan_phase_bytes_match_the_oracle(capsys, family, tol, m, per_mode):
    grid = m * per_mode
    argv = ["scan-phase", "--m", str(m), "--grid", str(grid), "--family", family]
    if tol is not None:
        argv += ["--tol", tol]
    tol_value = 1e-10 if tol is None else float(tol)
    scan = scan_phase(m, family.replace("-", "_"), grid, tol_value)
    labels = [r.label.value for _, r in scan]
    results = {
        "points": [{"phi": phi, **_oracle_classification(r)} for phi, r in scan],
        "dark_points": labels.count("Dark"),
        "bright_points": labels.count("Bright"),
        "intermediate_points": labels.count("Intermediate"),
    }
    params = {"m": m, "grid": grid, "family": family, "tol": tol_value}
    assert _stdout(capsys, argv) == _oracle_doc("scan-phase", params, results)


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


def test_classify_refuses_both_phase_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--m", "4", "--phase", "0.3", "--phase-frac", "1/4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument --phase" in captured.err


_BIG = "1" + "0" * 400  # no float holds it


@pytest.mark.parametrize(
    "frac", [f"1/{_BIG}", f"{_BIG}/3", f"-{_BIG}/7"], ids=["1/BIG", "BIG/3", "-BIG/7"]
)
def test_classify_phase_frac_past_the_float_range_exits_2(capsys, frac):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--m", "4", "--phase-frac", frac])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("argument --phase-frac: K or M is past the largest float\n")


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
        ["classify", "--m", _BIG, "--phase", "0.5"],  # math.sqrt(m) would overflow
        ["classify", "--m", _BIG, "--phase", "0.5", "--family", "coherent"],
        # m fits a float, but m*x/2 in the kernel's sine overflows to inf and a NaN beta
        ["classify", "--m", str(int(sys.float_info.max)), "--phase", "3"],
    ],
)
def test_classify_rejects_invalid_input(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")
    assert captured.err.count("\n") == 1 and _BIG not in captured.err


@pytest.mark.parametrize("extra", [[], ["--unlocked"]])
def test_pulse_train_past_the_sample_bound_exits_3(capsys, extra):
    periods = SERIES_MAX_SAMPLES // 1000 + 1
    argv = ["pulse-train", "--n-side", "2", "--samples", "1000", "--periods", str(periods)]
    assert main(argv + extra) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "samples" in captured.err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_locked_pulse_train_past_the_kernel_mode_bound_exits_2(capsys, fmt):
    argv = ["pulse-train", "--n-side", str(2**60), "--format", fmt]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: too many modes")
    assert captured.err.count("\n") == 1


def test_pulse_train_unlocked_past_the_mode_bound_exits_3(capsys):
    # 2e9 drawn phases would take about 110 GB; the refusal comes first.
    argv = ["pulse-train", "--n-side", "1000000000", "--unlocked", "--samples", "64"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error:") and "modes" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # Several MB of CSV: the write itself meets the closed pipe.
        ["pulse-train", "--n-side", "2", "--samples", "200000"],
        # A few hundred bytes: the pipe shows closed only when stdout is flushed.
        ["classify", "--m", "4", "--phase", "0.3"],
        # Several MB of JSON chunks: the pipe closes in the middle of the stream.
        ["pulse-train", "--n-side", "2", "--samples", "200000", "--format", "json"],
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


@pytest.mark.parametrize(
    "extra",
    [
        # lambda0**2 overflows
        ["--lambda0-nm", "1e300", "--dlambda-nm", "1e299", "--l-mm", "1e300"],
        ["--l-mm", "1e300", "--n", "1e300"],  # n*L overflows: zero mode spacing
        ["--lambda0-nm", "1e-200", "--dlambda-nm", "1e-201"],  # lambda0**2 underflows to 0
        ["--lambda0-nm", "1e-150", "--dlambda-nm", "1e-151", "--l-mm", "1e300"],  # M overflows
        ["--pulse-ns", "1e-300", "--rep-ms", "1e300"],  # the duty ratio underflows to 0
    ],
)
def test_estimate_cavity_out_of_float_range_exits_2(capsys, extra):
    argv = ["estimate-cavity", "--lambda0-nm", "780", "--dlambda-nm", "30", "--l-mm", "250"]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "extra",
    [
        ["--e0", "1e200", "--unlocked"],
        ["--e0", "1e200"],
        ["--delta-omega", "1e-320"],
        ["--e0", "1e153", "--unlocked"],  # the peak fits a float, the intensity sum does not
        ["--delta-omega", "4e-308", "--periods", "2"],  # the period fits, two do not
        ["--n-side", "1" + "0" * 400],  # no float holds the mode count
        ["--n-side", "1" + "0" * 400, "--unlocked"],
    ],
)
def test_pulse_train_overflow_exits_2(capsys, extra):
    argv = ["pulse-train", "--n-side", "5", "--samples", "64", "--format", "json"]
    assert main(argv + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("unlocked", [False, True], ids=["locked", "unlocked"])
@pytest.mark.parametrize("e0", ["1e-300", "1e-160", "0"])
def test_pulse_train_underflowing_peak_exits_2(capsys, e0, unlocked):
    # Refused before any series is built: no half-maximum search on zeros,
    # no all-zero unlocked series, no subnormal peak.
    argv = ["pulse-train", "--n-side", "2", "--samples", "32", "--e0", e0]
    assert main(argv + ["--unlocked"] * unlocked) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: (e0*m_total)^2 underflows: e0={float(e0)}\n"


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


# Half a unit in the 12th significant digit, the most that printing moves a
# value, and five times the 1e-12 of the intensity bound: the bound holds for
# the values that were run, and on the printed ones it holds only up to this.
_PRINTED = 5e-12


def _assert_valid_document(out):
    """An exit-0 document is strict JSON, every beta it holds is within its
    beta_max, and every intensity within (e0*m_total)**2, up to printing."""
    results = json.loads(out, parse_constant=_no_constant)["results"]
    for point in results.get("points", [results]):
        assert "beta" not in point or point["beta"] <= point["beta_max"], point
    if "intensity" in results:
        meta = results["metadata"]
        bound = (meta["e0"] * meta["m_total"]) ** 2 * (1 + 1e-12)
        assert max(results["intensity"]) <= bound * (1 + _PRINTED) / (1 - _PRINTED) ** 2, meta


_extreme_floats = st.one_of(
    st.sampled_from([0.0, math.nan, math.inf, -math.inf]),
    st.floats(1e-320, 1e300).flatmap(lambda x: st.sampled_from([x, -x])),
)
_CONTRACT_FLAGS = {  # command: (the float flags drawn, the fixed arguments)
    "estimate-cavity": (
        ["--lambda0-nm", "--dlambda-nm", "--l-mm", "--n", "--pulse-ns", "--rep-ms"], []
    ),
    "pulse-train": (
        ["--e0", "--delta-omega", "--phi"],
        ["--n-side", "2", "--samples", "48", "--periods", "2", "--format", "json"],
    ),
    "classify": (["--phase", "--tol", "--alpha"], ["--m", "4", "--family", "coherent"]),
    "scan-phase": (["--tol"], ["--m", "4", "--grid", "16"]),
}


@pytest.mark.parametrize("command", sorted(_CONTRACT_FLAGS))
# capsys is read after every call, so one capture serves every example.
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(values=st.lists(_extreme_floats, min_size=6, max_size=6), unlocked=st.booleans())
def test_cli_contract_on_float_extremes(capsys, command, values, unlocked):
    flags, fixed = _CONTRACT_FLAGS[command]
    argv = [command, *fixed]
    for flag, value in zip(flags, values):
        argv += [flag, repr(value)]
    if command == "pulse-train" and unlocked:
        argv.append("--unlocked")
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3)
    if code == 0:
        _assert_valid_document(out)
    else:
        assert out == "" and err.startswith("error:") and err.count("\n") == 1


_EXTREME_INTS = [_BIG, f"-{_BIG}", str(2**63), "0", "-1"]
_INT_CONTRACT = {  # case: (argv with a {} slot per int, a valid value for each slot)
    "classify": ("classify --m={} --phase-frac={}/{}", ["4", "1", "4"]),
    "classify-coherent": ("classify --family=coherent --m={} --phase-frac={}/{}", ["4", "1", "4"]),
    "scan-phase": ("scan-phase --m={} --grid={}", ["4", "16"]),
    "count-dark": ("count-dark --m={}", ["6"]),
    "count-dark-enumerate": ("count-dark --enumerate --m={}", ["6"]),
    "pulse-train": (
        "pulse-train --format=json --n-side={} --samples={} --periods={} --seed={}",
        ["2", "24", "2", "0"],
    ),
    "pulse-train-unlocked": (
        "pulse-train --format=json --unlocked --n-side={} --samples={} --periods={} --seed={}",
        ["2", "24", "2", "0"],
    ),
}


@pytest.mark.parametrize("case", sorted(_INT_CONTRACT))
def test_cli_contract_on_int_extremes(capsys, monkeypatch, case):
    # Every int slot takes a valid value or each extreme, in every combination.
    monkeypatch.setattr(pulses, "SERIES_MAX_SAMPLES", 4096)
    monkeypatch.setattr(classify, "SCAN_MAX_POINTS", 64)
    template, valid = _INT_CONTRACT[case]
    broken = []
    for values in itertools.product(*([v, *_EXTREME_INTS] for v in valid)):
        argv = template.format(*values).split()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the argv, as in _session
            code = exc.code
        out, err = capsys.readouterr()
        try:
            assert code in (0, 2, 3)
            if code == 0:
                _assert_valid_document(out)
            else:
                assert out == "" and err.count("error:") == 1
        except AssertionError:
            broken.append((argv, code, err[-200:]))
    assert not broken, f"{len(broken)} argv break the contract, first: {broken[0]}"


_MALFORMED = {  # flag: text that no parse or check should take
    "--phase-frac": ["1/", "/4", "1/2/3", "1.5/4", "1/0", "1/-4", "-1/0", ""],
    "--alpha": ["1+", "(", "1+2", "nan", "-infj", "1e999j", "-nanj", "j1", "1jj", "--1j"],
}


@pytest.mark.parametrize(
    "flag, text", [(flag, text) for flag, texts in _MALFORMED.items() for text in texts]
)
@pytest.mark.parametrize("joined", [False, True], ids=["spaced", "joined"])
def test_cli_contract_on_malformed_text(capsys, flag, text, joined):
    argv = ["classify", "--m", "4", "--family", "coherent"]
    argv += [] if flag == "--phase-frac" else ["--phase", "0.5"]
    argv += [f"{flag}={text}"] if joined else [flag, text]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the text
        code = exc.code
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and "error:" in err


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_failing_mid_stream_keeps_the_old_file(tmp_path, monkeypatch, capsys, fmt):
    target = tmp_path / "train.out"
    target.write_bytes(b"old bytes\n")
    chunks = cli._json_chunks if fmt == "json" else cli._csv_chunks

    def failing(*args):
        for n, chunk in enumerate(chunks(*args)):
            if n == 3:
                raise ValueError("disk went away")
            yield chunk

    monkeypatch.setattr(cli, chunks.__name__, failing)
    argv = ["pulse-train", "--n-side", "2", "--samples", "5000", "--periods", "2",
            "--format", fmt, "--output", str(target)]
    assert main(argv) == 2
    assert "disk went away" in capsys.readouterr().err
    assert target.read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["train.out"]


@pytest.mark.parametrize(
    "argv",
    [
        ["pulse-train", "--n-side", "3", "--samples", "5000", "--format", "csv"],
        ["pulse-train", "--n-side", "3", "--samples", "5000", "--format", "json"],
        ["classify", "--m", "7", "--phase-frac", "2/7", "--family", "coherent"],
        ["count-dark", "--m", "6", "--enumerate"],
        ["estimate-cavity", "--lambda0-nm", "780", "--dlambda-nm", "30", "--l-mm", "250"],
        ["scan-phase", "--m", "4", "--grid", "16"],
    ],
    ids=["csv", "json", "classify", "count-dark", "estimate-cavity", "scan-phase"],
)
def test_output_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    target = tmp_path / "sub" / "train.out"
    target.parent.mkdir()
    target.write_text("an older, longer document\n" * 1000)
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert main(argv + ["--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    # Only stdout ends a JSON document with a newline.
    assert target.read_text() == (stdout if argv[-1] == "csv" else stdout[:-1])
    assert [p.name for p in target.parent.iterdir()] == ["train.out"]


def _tree(root):
    """Every path under ``root``, hidden ones too, with a file's bytes."""
    return {p.relative_to(root): p.is_file() and p.read_bytes() for p in root.rglob("*")}


@pytest.mark.parametrize(
    "output, env_dir, message",
    [
        ("dir", None, "Is a directory: 'dir'"),
        ("empty", None, "Is a directory: 'empty'"),
        ("file/x.json", None, "file"),
        ("x.json", "file", "file"),
        ("", None, "names no file"),
        ("n" * 255, None, None),  # the longest name the file system takes is written
    ],
    ids=["a-directory", "an-empty-directory", "under-a-file", "env-dir-a-file", "empty-name",
         "255-byte-name"],
)
def test_output_that_cannot_be_written_exits_2(tmp_path, monkeypatch, capsys, output,
                                               env_dir, message):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BRIGHTDARK_OUTPUT_DIR", raising=False)
    if env_dir is not None:
        monkeypatch.setenv("BRIGHTDARK_OUTPUT_DIR", env_dir)
    (tmp_path / "dir").mkdir()
    (tmp_path / "dir" / "kept").write_bytes(b"old bytes\n")
    (tmp_path / "empty").mkdir()
    (tmp_path / "file").write_bytes(b"old bytes\n")
    before = _tree(tmp_path)
    argv = ["count-dark", "--m", "4"]
    code = main(argv + ["--output", output])
    err = capsys.readouterr().err
    if message is None:
        assert code == 0 and err == ""
        assert main(argv) == 0
        assert (tmp_path / output).read_text() == capsys.readouterr().out[:-1]
        before[Path(output)] = (tmp_path / output).read_bytes()
    else:
        assert code == 2
        assert err.startswith("error: ") and message in err and ".tmp" not in err
    assert _tree(tmp_path) == before


_COHERENT_ALPHA = ["classify", "--m", "4", "--phase", "0.5", "--family", "coherent", "--alpha"]


@pytest.mark.parametrize(
    "argv, value",
    [
        (["classify", "--m", "4", "--phase"], "-2.5e-1"),
        (["classify", "--m", "4", "--phase"], "-1E+2"),
        (["classify", "--m", "7", "--phase-frac"], "-3/7"),
        (["classify", "--m", "4", "--tol", "1e-3", "--phase"], "-.5e0"),
        (["pulse-train", "--n-side", "2", "--samples", "32", "--phi"], "-1e5"),
        (["scan-phase", "--m", "4", "--grid", "8", "--tol"], "-1e-3"),
        *((_COHERENT_ALPHA, value) for value in
          ["-1j", "-0.5+1j", "-1-2j", "-j", "-1+j", "-2.5E-1-1e+2J", "-.5j", "-inf+0j"]),
        # Underscored digits, which complex() and float() read.
        (["classify", "--m", "4", "--phase"], "-1_0"),
        (["pulse-train", "--n-side", "2", "--samples", "32", "--phi"], "-1_000.5"),
        (_COHERENT_ALPHA, "-1_0j"),
        (["classify", "--m", "7", "--phase-frac"], "-1_0/7"),
    ],
)
def test_negative_values_with_exponents_are_values(capsys, argv, value):
    code = main(argv + [value])
    captured = capsys.readouterr()
    assert main(argv[:-1] + [f"{argv[-1]}={value}"]) == code
    assert capsys.readouterr() == captured


def test_options_stay_options_beside_complex_values(capsys):
    code, doc = run_json(capsys, _COHERENT_ALPHA + ["-0.5+1j", "--tol", "1e-3"])
    assert code == 0 and doc["params"]["tol"] == 1e-3 and doc["params"]["alpha"] == "(-0.5+1j)"
    with pytest.raises(SystemExit) as exc:
        main(_COHERENT_ALPHA + ["-h"])
    assert exc.value.code == 2 and "expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["classify", "-h"])
    assert exc.value.code == 0 and "--alpha" in capsys.readouterr().out


@pytest.mark.parametrize("bad", ["-inf", "-Infinity", "-nan"])
def test_negative_non_finite_phi_exits_2(capsys, bad):
    assert main(["pulse-train", "--n-side", "2", "--phi", bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "phi must be finite" in captured.err


def test_twelve_significant_digits(capsys):
    code, doc = run_json(capsys, ["classify", "--m", "4", "--phase", "0.3"])
    assert code == 0
    beta = doc["results"]["beta"]
    assert beta == float(f"{beta:.12g}")
