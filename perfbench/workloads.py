"""Workloads of the brightdark benchmark: seeded ops, the calls they time, and their checks.

A workload is an endless stream of blocks. A block holds a fixed number of
ops of each class, in a seeded order. An op is one library call, or one
``cli.main(argv)`` call, on generated arguments:

* ``prepare(op)`` builds the op's inputs and returns the zero-argument call
  that the harness times;
* ``check(op, output)`` compares the output with an oracle that does not go
  through the code under test, and raises ``CheckFailed`` on a mismatch.

Op sizes come from a low-discrepancy (Kronecker) sequence with a fixed
start, so that runs of every seed cover each size range the same way and do
the same work; the seed draws everything else (field constants, phases,
probe points, the order of the ops in a block). Library functions are
looked up on their module at call time, so that the wrappers of a traced run
see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from brightdark import classify, cli, collective, fock, pulses, states

TWO_PI = 2.0 * math.pi
SPEED_OF_LIGHT = 299792458.0  # m/s, exact by the SI definition
CLI_TOL = 1e-6  # the classify command's default tolerance

# amplitude_closed misses the removable singularity once delta_omega*t carries
# rounding error near k*pi: from 1e4 periods on, a window that starts at a
# period start is off by up to the whole peak (ROADMAP item 2). These ops
# still run and are checked. When their check fails with one of the two
# symptoms of that defect, they are reported as known defects, not failures;
# any other failure of theirs (a raise, a wrong sample count, a non-finite
# sample) is a failure as on every other class.
LATE_DEFECT_EXPONENT = 4
LATE_DEFECT_SYMPTOMS = ("|A| above E0*M", "window off the first period")


class CheckFailed(AssertionError):
    """An op's output disagrees with its oracle."""


def _expect(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Op:
    kind: str
    params: dict


@dataclass(frozen=True)
class Kind:
    """One op class: how to draw its arguments, call the library, and check the output."""

    dims: int  # low-discrepancy coordinates that set the op's size
    make: Callable[[np.ndarray, np.random.Generator, int], dict]
    prepare: Callable[[dict], Callable[[], object]]
    check: Callable[[dict, object], None]
    known_defect: Callable[[dict, str], bool] = lambda params, symptom: False


def _pick(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi] at quantile u of the range."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _span(u: float, lo: float, hi: float) -> float:
    return lo + u * (hi - lo)


class _Sizes:
    """Kronecker sequence in [0, 1)^dims from the centre of the cube (Roberts' R_d step)."""

    def __init__(self, dims: int):
        phi = 2.0
        for _ in range(64):
            phi = (1.0 + phi) ** (1.0 / (dims + 1))
        self.step = phi ** -np.arange(1.0, dims + 1)
        self.start = np.full(dims, 0.5)
        self.index = 0

    def next(self) -> np.ndarray:
        self.index += 1
        return (self.start + self.index * self.step) % 1.0


# ---------------------------------------------------------------------------
# pulse_train: the comb kernel and its memory


def _field(p: dict) -> pulses.LaserField:
    return pulses.LaserField(p["n_side"], e0=p["e0"], delta_omega=p["delta_omega"])


def _mode_sum(p: dict, t: np.ndarray) -> np.ndarray:
    """Oracle: the locked comb summed mode by mode, E0 * sum_m exp(i*m*delta_omega*t)."""
    m = np.arange(-p["n_side"], p["n_side"] + 1)
    return p["e0"] * np.exp(1j * np.multiply.outer(p["delta_omega"] * t, m)).sum(axis=-1)


def _comb(rng: np.random.Generator) -> dict:
    return {"e0": float(rng.uniform(0.5, 2.0)), "delta_omega": float(rng.uniform(0.5, 2.0))}


def _make_locked(u, rng, i):
    n_side = _pick(u[0], 5, 100)
    samples = max(4 * (2 * n_side + 1), 2 ** _pick(u[1], 10, 13))
    periods = _pick(u[2], 1, 50)
    probe = rng.choice(samples * periods, 63, replace=False)
    return {
        "n_side": n_side, **_comb(rng), "samples": samples, "periods": periods,
        "probe": [0] + sorted(int(k) for k in probe),
    }


def _prepare_locked(p):
    field_ = _field(p)

    def call():
        series = pulses.intensity_series(field_, p["samples"], p["periods"])
        return series, pulses.pulse_metrics(series)

    return call


def _check_locked(p, out):
    series, metrics = out
    m_total = 2 * p["n_side"] + 1
    peak = p["e0"] * m_total
    period = TWO_PI / p["delta_omega"]
    intensity = np.asarray(series.intensity)
    _expect(intensity.shape == (p["samples"] * p["periods"],), "sample count")
    probe = np.array(p["probe"])
    ref = np.abs(_mode_sum(p, probe * (period / p["samples"])))
    err = np.max(np.abs(np.sqrt(intensity[probe]) - ref))
    _expect(err <= 1e-10 * peak, f"closed form off the mode sum by {err / peak:.3g} of peak")
    _expect(intensity.max() <= peak**2 * (1 + 1e-12), "intensity above (E0*M)^2")
    _expect(abs(metrics.peak - peak**2) <= 1e-12 * peak**2, "peak is not (E0*M)^2")
    _expect(abs(metrics.period - period) <= 1e-12 * period, "period is not 2*pi/delta_omega")
    # The main-lobe FWHM of the Dirichlet kernel is about 0.886 * period / M.
    _expect(0.75 < metrics.fwhm * m_total / period < 1.05, "FWHM off the main lobe")


def _make_unlocked(u, rng, i):
    return {
        "n_side": _pick(u[0], 4, 48), **_comb(rng),
        "samples": _pick(u[1], 512, 2048), "periods": _pick(u[2], 10, 50),
        "phase_seed": int(rng.integers(2**31)),
    }


def _prepare_unlocked(p):
    field_ = _field(p)
    return lambda: pulses.unlocked_intensity(
        field_, p["phase_seed"], p["samples"], p["periods"]
    )


def _check_unlocked(p, series):
    m_total = 2 * p["n_side"] + 1
    intensity = np.asarray(series.intensity)
    _expect(intensity.shape == (p["samples"] * p["periods"],), "sample count")
    # Over whole periods the cross terms between modes cancel exactly on a grid
    # of more than 2*n_side samples, leaving the incoherent sum E0^2 * M.
    mean = p["e0"] ** 2 * m_total
    _expect(abs(intensity.mean() - mean) <= 1e-9 * mean, "mean intensity is not E0^2*M")
    _expect(intensity.min() >= 0.0, "negative intensity")
    _expect(intensity.max() <= (p["e0"] * m_total) ** 2 * (1 + 1e-12), "intensity above (E0*M)^2")


def _make_late(u, rng, i):
    n_side = _pick(u[0], 5, 100)
    return {
        "n_side": n_side, **_comb(rng), "exponent": i % 7,
        "samples": max(4 * (2 * n_side + 1), 1024),
    }


def _late_tau(p):
    period = TWO_PI / p["delta_omega"]
    return np.arange(p["samples"]) * (period / p["samples"]), period


def _prepare_late(p):
    field_ = _field(p)
    tau, period = _late_tau(p)
    t = 10.0 ** p["exponent"] * period + tau
    return lambda: pulses.amplitude_closed(field_, t)


def _check_late(p, amp):
    peak = p["e0"] * (2 * p["n_side"] + 1)
    tau, _ = _late_tau(p)
    amp = np.asarray(amp)
    _expect(amp.shape == tau.shape, "sample count")
    _expect(np.all(np.isfinite(amp)), "non-finite amplitude")
    _expect(np.max(np.abs(amp)) <= peak * (1 + 1e-12), "|A| above E0*M")
    err = np.max(np.abs(amp - _mode_sum(p, tau).real))
    _expect(err <= 1e-6 * peak, f"window off the first period by {err / peak:.3g} of peak")


def _late_defect(p, symptom):
    return p["exponent"] >= LATE_DEFECT_EXPONENT and symptom.startswith(LATE_DEFECT_SYMPTOMS)


def _make_csv(u, rng, i):
    return {"rows": _pick(u[0], 10_000, 100_000), "value_seed": int(rng.integers(2**31))}


def _csv_series(p) -> pulses.IntensitySeries:
    rows = p["rows"]
    t = np.arange(rows) * (TWO_PI / rows)
    intensity = np.random.default_rng(p["value_seed"]).uniform(0.0, 100.0, rows)
    meta = {"kind": "locked", "n_side": 7, "samples_per_period": rows, "periods": 1,
            "resolution_ok": True}
    return pulses.IntensitySeries(t, intensity, meta)


def _prepare_csv(p):
    series = _csv_series(p)
    return lambda: pulses.series_to_csv(series)


def _check_csv(p, text):
    series = _csv_series(p)
    lines = text.splitlines()
    comments = [f"# {k}={v}" for k, v in series.metadata.items()]
    _expect(lines[: len(comments)] == comments, "metadata header")
    _expect(lines[len(comments)] == "t_prime,intensity", "column header")
    rows = lines[len(comments) + 1 :]
    _expect(len(rows) == p["rows"], f"{len(rows)} rows for {p['rows']} samples")
    values = np.array([row.split(",") for row in rows], dtype=float)
    expected = np.column_stack([series.t, series.intensity])
    _expect(np.all(np.abs(values - expected) <= 1e-11 * np.abs(expected) + 1e-300),
            "values not written to 12 significant digits")


# ---------------------------------------------------------------------------
# fock_classify: the dict-of-tuples Fock path


def _classification_ok(got_beta, got_beta_max, got_label, beta, beta_max, tol=1e-10):
    """Compare a classification with the oracle's beta; the label is checked away from its thresholds."""
    _expect(abs(got_beta - beta) <= 1e-9 * max(1.0, beta_max), f"beta {got_beta} != {beta}")
    _expect(abs(got_beta_max - beta_max) <= 1e-11 * beta_max, "beta_max")
    ratio = beta / beta_max
    if min(abs(ratio - tol), abs(ratio - 1 + tol)) > 1e-8:
        label = "Dark" if ratio < tol else "Bright" if ratio > 1 - tol else "Intermediate"
        _expect(got_label == label, f"label {got_label} != {label}")


def _make_single(u, rng, i):
    modes = _pick(u[0], 2, 64)
    step = TWO_PI * int(rng.integers(modes)) / modes if i % 2 else float(rng.uniform(0, TWO_PI))
    return {"modes": modes, "step": step, "detection": rng.uniform(0, TWO_PI, modes).tolist()}


def _prepare_single(p):
    ladder = fock.ModePhases.locked(p["modes"], p["step"])
    detection = fock.ModePhases(p["modes"], tuple(p["detection"]))
    return lambda: classify.classify_fock(states.single_photon_state(ladder), detection)


def _check_single(p, result):
    m = np.arange(p["modes"])
    beta = abs(np.exp(1j * (np.array(p["detection"]) - m * p["step"])).sum()) / math.sqrt(p["modes"])
    _classification_ok(result.beta, result.beta_max, result.label.value, beta, math.sqrt(p["modes"]))


def _make_ladder(u, rng, i):
    return {"photons": _pick(u[0], 1, 60), "phi": float(rng.uniform(0, TWO_PI)), "bright": i % 2 == 0}


def _prepare_ladder(p):
    detection = fock.ModePhases(2, (0.0, p["phi"]))

    def call():
        build = states.two_mode_bright if p["bright"] else states.two_mode_dark
        return classify.classify_fock(build(p["photons"], p["phi"]), detection)

    return call


def _check_ladder(p, result):
    beta_max = math.sqrt(2 * p["photons"])
    _classification_ok(result.beta, result.beta_max, result.label.value,
                       beta_max if p["bright"] else 0.0, beta_max)


def _make_coherent(u, rng, i):
    modes = _pick(u[0], 2, 4)
    return {
        "modes": modes, "abs_alpha": _span(u[1], 0.3, 1.0),
        "arg_alpha": float(rng.uniform(0, TWO_PI)),
        "theta": rng.uniform(0, TWO_PI, modes).tolist(),
        "detection": rng.uniform(0, TWO_PI, modes).tolist(),
    }


def _prepare_coherent(p):
    alpha = p["abs_alpha"] * complex(math.cos(p["arg_alpha"]), math.sin(p["arg_alpha"]))
    spec = states.CoherentSpec(alpha, fock.ModePhases(p["modes"], tuple(p["theta"])))
    detection = fock.ModePhases(p["modes"], tuple(p["detection"]))

    def call():
        state = states.coherent_state(spec)
        return state, classify.classify_fock(state, detection)

    return call


def _check_coherent(p, out):
    state, result = out
    norm = math.sqrt(sum(abs(a) ** 2 for a in state.terms.values()))
    _expect(1 - 1e-9 <= norm <= 1 + 1e-12, f"truncated norm {norm}")
    # A coherent state is an eigenstate of the field operator; truncation
    # changes beta only by the discarded tail.
    total = np.exp(1j * (np.array(p["theta"]) + np.array(p["detection"]))).sum()
    beta = p["abs_alpha"] * abs(total)
    _expect(abs(result.beta - beta) <= 1e-6 * max(1.0, beta), f"beta {result.beta} != {beta}")


def _make_scan(u, rng, i):
    modes = _pick(u[0], 4, 32)
    return {"modes": modes, "grid": modes * (2, 4, 8)[_pick(u[1], 0, 2)]}


def _prepare_scan(p):
    return lambda: classify.scan_phase(p["modes"], "single_photon", p["grid"])


def _dirichlet_beta(modes: int, phi: np.ndarray) -> np.ndarray:
    """Oracle: |sum_m exp(-i*m*phi)| / sqrt(M), summed mode by mode."""
    return np.abs(np.exp(-1j * np.multiply.outer(phi, np.arange(modes))).sum(axis=-1)) / math.sqrt(modes)


def _check_scan(p, scan):
    modes, grid = p["modes"], p["grid"]
    _expect(len(scan) == grid, f"{len(scan)} points for a grid of {grid}")
    labels = [r.label.value for _, r in scan]
    _expect(labels.count("Dark") == modes - 1, f"{labels.count('Dark')} dark points, not M-1")
    _expect(labels.count("Bright") == 1, f"{labels.count('Bright')} bright points, not 1")
    phi = TWO_PI * np.arange(grid) / grid
    _expect(np.allclose([x for x, _ in scan], phi, rtol=0, atol=1e-12), "phase grid")
    betas = np.array([r.beta for _, r in scan])
    _expect(np.max(np.abs(betas - _dirichlet_beta(modes, phi))) <= 1e-9, "beta off the Dirichlet kernel")


def _make_basis(u, rng, i):
    kind = ("dft", "hadamard")[i % 2]
    modes = _pick(u[0], 2, 64) if kind == "dft" else 2 ** _pick(u[0], 1, 6)
    return {
        "kind": kind, "modes": modes,
        "theta": rng.uniform(0, TWO_PI, modes).tolist(),
        "reference": rng.uniform(0, TWO_PI, modes).tolist(),
    }


def _prepare_basis(p):
    state = states.single_photon_state(fock.ModePhases(p["modes"], tuple(p["theta"])))
    reference = fock.ModePhases(p["modes"], tuple(p["reference"]))

    def call():
        basis = collective.build_basis(p["modes"], p["kind"])
        coeffs = collective.to_collective(state, basis, reference)
        return state, basis, coeffs, collective.from_collective(coeffs, basis, reference)

    return call


def _check_basis(p, out):
    state, basis, coeffs, back = out
    modes = p["modes"]
    u = np.asarray(basis.matrix)
    _expect(u.shape == (modes, modes), "basis shape")
    _expect(np.max(np.abs(u @ u.conj().T - np.eye(modes))) <= 1e-12, "basis not unitary")
    _expect(abs(np.linalg.norm(coeffs) - 1.0) <= 1e-12, "norm not preserved")
    occs = set(state.terms) | set(back.terms)
    err = max(abs(state.terms.get(o, 0) - back.terms.get(o, 0)) for o in occs)
    _expect(err <= 1e-12, f"round trip off by {err:.3g}")


# ---------------------------------------------------------------------------
# cli_session: many small requests through cli.main(argv)


def _prepare_cli(p):
    argv = list(p["argv"])

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad argv this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return call


def _cli_checked(check_doc):
    """Check the exit code, then the document; re-run the argv where the op asks for it."""

    def check(p, out):
        code, stdout, stderr = out
        _expect(code == p["expect"], f"exit code {code}, expected {p['expect']}")
        if p["expect"] == 0:
            check_doc(p, stdout)
        else:
            _expect(stdout == "" and stderr != "", "an error exit must print only to stderr")
        if p["rerun"]:
            _expect(_prepare_cli(p)() == out, "re-run output not byte-identical")

    return check


def _cli_op(argv, rng, expect=0, **extra):
    return {"argv": [str(a) for a in argv], "expect": expect,
            "rerun": bool(rng.random() < 0.25), **extra}


def _json_results(stdout: str, command: str) -> dict:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None
    _expect(doc.get("command") == command, "command field")
    return doc["results"]


def _close(got, want, rel=1e-11) -> bool:
    return abs(got - want) <= rel * abs(want) + 1e-300


def _make_cli_classify(u, rng, i):
    modes = _pick(u[0], 2, 64)
    family = ("single-photon", "coherent")[i % 2]
    if (i // 2) % 2:
        k = int(rng.integers(2 * modes))
        phase_arg, phase = ["--phase-frac", f"{k}/{modes}"], TWO_PI * k / modes
    else:
        text = f"{rng.uniform(0, TWO_PI):.6f}"
        phase_arg, phase = ["--phase", text], float(text)
    argv = ["classify", "--m", modes, "--family", family, *phase_arg]
    return _cli_op(argv, rng, modes=modes, phase=phase)


def _check_cli_classify(p, stdout):
    res = _json_results(stdout, "classify")
    _expect(res["tol"] == CLI_TOL, "CLI tolerance")
    # Both families give |sum_m exp(+-i*m*phase)| / sqrt(M) at zero detection phases.
    beta = float(_dirichlet_beta(p["modes"], np.array(p["phase"])))
    _classification_ok(res["beta"], res["beta_max"], res["label"], beta, math.sqrt(p["modes"]),
                       CLI_TOL)


def _make_cli_count_dark(u, rng, i):
    enumerate_ = i % 2 == 1
    modes = _pick(u[0], 2, 20 if enumerate_ else 64)
    argv = ["count-dark", "--m", modes] + (["--enumerate"] if enumerate_ else [])
    return _cli_op(argv, rng, modes=modes, enumerate=enumerate_)


def _check_cli_count_dark(p, stdout):
    res = _json_results(stdout, "count-dark")
    modes = p["modes"]
    even = modes % 2 == 0
    _expect(res["pi_phase_count"] == (math.comb(modes, modes // 2) // 2 if even else None),
            "pi_phase_count is not C(M, M/2)/2")
    if p["enumerate"]:
        want = math.comb(modes, modes // 2) // 2 if even else 0
        _expect(res["enumerated_count"] == want, f"enumerated {res['enumerated_count']} != {want}")
    else:
        _expect(res["enumerated_count"] is None, "enumerated without --enumerate")
    _expect(res["locked_dark_count"] == modes - 1 and res["bright_count"] == 1, "locked counts")
    _expect(_close(res["ratio"], 1 / (modes - 1)), "ratio is not 1/(M-1)")
    phases = [TWO_PI * k / modes for k in range(1, modes)]
    got = res.get("locked_dark_phases", [])
    _expect(len(got) == len(phases) and all(map(_close, got, phases)), "locked dark phases")


def _make_cli_estimate_cavity(u, rng, i):
    values = {
        "lambda0_nm": _span(u[0], 400.0, 1600.0), "dlambda_nm": float(rng.uniform(1.0, 100.0)),
        "l_mm": _span(u[1], 50.0, 2000.0), "n": float(rng.uniform(1.0, 2.0)),
        "pulse_ns": float(rng.uniform(1.0, 100.0)), "rep_ms": float(rng.uniform(0.01, 10.0)),
    }
    text = {k: f"{v:.4f}" for k, v in values.items()}
    argv = ["estimate-cavity"] + [a for k, v in text.items() for a in (f"--{k.replace('_', '-')}", v)]
    return _cli_op(argv, rng, values={k: float(v) for k, v in text.items()})


def _check_cli_estimate_cavity(p, stdout):
    res = _json_results(stdout, "estimate-cavity")
    v = p["values"]
    lambda0, dlambda = v["lambda0_nm"] * 1e-9, v["dlambda_nm"] * 1e-9
    length, n = v["l_mm"] * 1e-3, v["n"]
    spacing = math.pi * SPEED_OF_LIGHT / (n * length)
    band = 2.0 * math.pi * SPEED_OF_LIGHT * dlambda / lambda0**2
    _expect(_close(res["delta_omega"], spacing), "mode spacing is not pi*c/(n*L)")
    _expect(_close(res["delta_omega_g"], band), "gain bandwidth is not 2*pi*c*dlambda/lambda0^2")
    exact = 2.0 * n * length * dlambda / lambda0**2
    modes = res["M"]
    near = abs(exact - round(exact)) < 1e-9 * exact
    _expect(modes == math.floor(exact) or (near and modes == round(exact) - 1),
            f"M={modes}, expected floor({exact})")
    _expect(_close(res["theory_ratio"], 1 / (modes - 1)), "theory ratio is not 1/(M-1)")
    measured = v["pulse_ns"] * 1e-9 / (v["rep_ms"] * 1e-3)
    _expect(_close(res["measured_ratio"], measured), "measured duty ratio")


def _make_cli_scan_phase(u, rng, i):
    modes = _pick(u[0], 4, 16)
    grid = modes * (2, 4, 8)[_pick(u[1], 0, 2)]
    family = ("coherent", "single-photon")[i % 2]
    argv = ["scan-phase", "--m", modes, "--grid", grid, "--family", family]
    return _cli_op(argv, rng, modes=modes, grid=grid)


def _check_cli_scan_phase(p, stdout):
    res = _json_results(stdout, "scan-phase")
    modes, grid = p["modes"], p["grid"]
    _expect(len(res["points"]) == grid, "point count")
    _expect(res["dark_points"] == modes - 1, f"{res['dark_points']} dark points, not M-1")
    _expect(res["bright_points"] == 1, f"{res['bright_points']} bright points, not 1")
    _expect(res["intermediate_points"] == grid - modes, "intermediate points")


def _make_cli_pulse_train(u, rng, i):
    fmt, unlocked = ("csv", "json")[i % 2], (i // 2) % 2 == 1
    n_side = _pick(u[0], 2, 10)
    samples = _pick(u[1], 128, 1024)
    if not unlocked:
        samples = max(samples, 4 * (2 * n_side + 1))
    periods = _pick(u[2], 1, 4)
    argv = ["pulse-train", "--n-side", n_side, "--samples", samples, "--periods", periods,
            "--format", fmt]
    if unlocked:
        argv += ["--unlocked", "--seed", int(rng.integers(1000))]
    return _cli_op(argv, rng, n_side=n_side, samples=samples * periods, format=fmt,
                   unlocked=unlocked)


def _check_cli_pulse_train(p, stdout):
    m_total = 2 * p["n_side"] + 1
    if p["format"] == "json":
        res = _json_results(stdout, "pulse-train")
        count, metrics = len(res["intensity"]), res["metrics"]
    else:
        lines = stdout.splitlines()
        count = sum(1 for line in lines if line and not line.startswith(("#", "t_prime")))
        metrics = dict(line[2:].split("=", 1) for line in lines if line.startswith("# "))
        metrics = {k: float(metrics[k]) for k in ("mean_intensity", "peak") if k in metrics}
    _expect(count == p["samples"], f"{count} samples, expected {p['samples']}")
    if p["unlocked"]:
        _expect(_close(metrics.get("mean_intensity", -1.0), m_total, 1e-9), "mean intensity is not M")
    else:
        _expect(_close(metrics.get("peak", -1.0), m_total**2), "peak is not M^2")


def _make_cli_invalid(u, rng, i):
    modes = _pick(u[0], 2, 16)
    argv, expect = [
        (["classify", "--m", modes, "--phase-frac", f"{int(rng.integers(modes))}/0"], 2),
        (["pulse-train", "--n-side", int(rng.integers(-3, 1))], 2),
        (["count-dark", "--m", modes + 24, "--enumerate"], 3),
        (["classify", "--m", 1, "--phase", "0.5"], 2),
        (["scan-phase", "--m", modes, "--grid", 2 * modes - 1], 2),
        (["classify", "--m", modes], 2),
        (["estimate-cavity", "--lambda0-nm", 500, "--dlambda-nm", 600, "--l-mm", 100], 2),
    ][i % 7]
    return _cli_op(argv, rng, expect=expect)


KINDS: dict[str, Kind] = {
    "locked": Kind(3, _make_locked, _prepare_locked, _check_locked),
    "unlocked": Kind(3, _make_unlocked, _prepare_unlocked, _check_unlocked),
    "late_window": Kind(1, _make_late, _prepare_late, _check_late, _late_defect),
    "csv": Kind(1, _make_csv, _prepare_csv, _check_csv),
    "single": Kind(1, _make_single, _prepare_single, _check_single),
    "ladder": Kind(1, _make_ladder, _prepare_ladder, _check_ladder),
    "coherent": Kind(2, _make_coherent, _prepare_coherent, _check_coherent),
    "scan": Kind(2, _make_scan, _prepare_scan, _check_scan),
    "basis": Kind(1, _make_basis, _prepare_basis, _check_basis),
    "cli_classify": Kind(1, _make_cli_classify, _prepare_cli, _cli_checked(_check_cli_classify)),
    "cli_count_dark": Kind(1, _make_cli_count_dark, _prepare_cli, _cli_checked(_check_cli_count_dark)),
    "cli_estimate_cavity": Kind(2, _make_cli_estimate_cavity, _prepare_cli,
                                _cli_checked(_check_cli_estimate_cavity)),
    "cli_scan_phase": Kind(2, _make_cli_scan_phase, _prepare_cli, _cli_checked(_check_cli_scan_phase)),
    "cli_pulse_train": Kind(3, _make_cli_pulse_train, _prepare_cli, _cli_checked(_check_cli_pulse_train)),
    "cli_invalid": Kind(1, _make_cli_invalid, _prepare_cli, _cli_checked(None)),
}


@dataclass(frozen=True)
class Workload:
    mix: dict[str, int]  # ops of each class in one block
    warmup: str  # class of the set-up op, drawn at the smallest size
    trace_blocks: int  # blocks replayed by a traced run
    pinned: tuple[Op, ...] = ()  # ops that open every timed phase


# The largest unlocked run of the workload opens every timed phase, so that
# peak_rss_mb measures the S*P*M temporary and not the luck of the draw.
_LARGEST_UNLOCKED = Op("unlocked", {
    "n_side": 48, "e0": 1.0, "delta_omega": 1.0, "samples": 2048, "periods": 50, "phase_seed": 0,
})

# Each mix gives its cheap classes more than half of a block, so op_p50_ms
# measures cheap ops and op_p90_ms the heavy classes (unlocked and csv,
# coherent and scan, enumerating count-dark and pulse-train).
WORKLOADS: dict[str, Workload] = {
    "pulse_train": Workload(
        {"locked": 4, "unlocked": 2, "late_window": 5, "csv": 2}, "locked", 6,
        (_LARGEST_UNLOCKED,),
    ),
    "fock_classify": Workload(
        {"single": 4, "ladder": 3, "coherent": 1, "scan": 2, "basis": 2}, "single", 40,
    ),
    "cli_session": Workload(
        {"cli_classify": 3, "cli_count_dark": 2, "cli_estimate_cavity": 2, "cli_scan_phase": 1,
         "cli_pulse_train": 2, "cli_invalid": 2}, "cli_classify", 40,
    ),
}


def blocks(workload: str, seed: int):
    """Yield the workload's blocks of ops forever; one seed always gives the same ops."""
    mix = WORKLOADS[workload].mix
    rng = np.random.default_rng(seed)
    sizes = {kind: _Sizes(KINDS[kind].dims) for kind in mix}
    made = dict.fromkeys(mix, 0)
    while True:
        block = []
        for kind, count in mix.items():
            for _ in range(count):
                block.append(Op(kind, KINDS[kind].make(sizes[kind].next(), rng, made[kind])))
                made[kind] += 1
        yield [block[j] for j in rng.permutation(len(block))]


def warmup(workload: str) -> Op:
    """The fixed set-up op: the workload's warm-up class at its smallest size."""
    kind = WORKLOADS[workload].warmup
    return Op(kind, KINDS[kind].make(np.zeros(KINDS[kind].dims), np.random.default_rng(0), 0))


def prepare(op: Op) -> Callable[[], object]:
    return KINDS[op.kind].prepare(op.params)


def check(op: Op, output) -> None:
    """Raise CheckFailed unless the output matches the oracle; malformed output fails too."""
    try:
        KINDS[op.kind].check(op.params, output)
    except CheckFailed:
        raise
    except Exception as exc:  # a check that cannot read the output rejects it
        raise CheckFailed(f"malformed output: {type(exc).__name__}: {exc}") from exc


def known_defect(op: Op, failure: CheckFailed) -> bool:
    """Whether a failed check shows a documented defect of the program rather than a new one."""
    return KINDS[op.kind].known_defect(op.params, str(failure))
