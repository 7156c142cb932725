"""Command-line front end.

Every command prints a JSON document ``{"command", "params", "results"}``
(the pulse-train command can emit CSV instead); numbers are rounded to 12
significant digits so identical invocations produce byte-identical output.

Exit codes: 0 success, 2 validation error, 3 resource limit, 4 internal error.
A reader that closes standard output early (``brightdark ... | head``) is not
an error: the command stops writing and exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import numbers
import os
import sys
from pathlib import Path

import numpy as np

from .cavity import CavityDesign, ratio_report
from .classify import _classify_locked, scan_phase
from .counting import dark_census, locked_dark_phases
from .errors import DegenerateInputError, ResourceLimitError
from .pulses import (
    LaserField,
    _format_rows,
    intensity_series,
    pulse_metrics,
    series_to_csv,
    unlocked_intensity,
)

OUTPUT_DIR_ENV = "BRIGHTDARK_OUTPUT_DIR"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# Default classification tolerance at the CLI boundary.  Looser than the
# library default (1e-10) because phases typed as decimals carry at most
# ~15 digits; --phase-frac K/M enters dark phases without that loss.
CLI_TOL = 1e-6


def _round_sig(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(f"{float(value):.12g}")
    if isinstance(value, dict):
        return {k: _round_sig(v) for k, v in value.items()}
    if isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim == 1:
        return [float(s) for chunk in _format_rows(value) for s in chunk.split()]
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_round_sig(v) for v in value]
    return value


def _write_output(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    path = Path(output)
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir and not path.is_absolute():
        path = Path(out_dir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _emit_json(command: str, params: dict, results: dict, output: str | None) -> None:
    doc = {"command": command, "params": _round_sig(params), "results": _round_sig(results)}
    _write_output(json.dumps(doc, sort_keys=True, indent=2), output)


def _parse_phase(args, parser: argparse.ArgumentParser) -> float:
    if args.phase_frac is not None:
        try:
            num, den = args.phase_frac.split("/")
            k, m = int(num), int(den)
        except ValueError:
            parser.error(f"--phase-frac expects K/M with integers, got {args.phase_frac!r}")
        if m <= 0:
            parser.error(f"--phase-frac denominator must be positive, got {m}")
        return 2.0 * math.pi * k / m
    if args.phase is None:
        parser.error("one of --phase or --phase-frac is required")
    return args.phase


def _params(args, *drop: str) -> dict:
    """A command's JSON ``params``: its parsed options less ``drop`` and the plumbing."""
    skip = {"command", "func", "output", *drop}
    return {k: v for k, v in vars(args).items() if k not in skip}


def _classification_dict(result) -> dict:
    return {
        "beta": result.beta,
        "label": result.label.value,
        "beta_max": result.beta_max,
        "tol": result.tol,
    }


def cmd_pulse_train(args, parser) -> int:
    field = LaserField(
        n_side=args.n_side, e0=args.e0, delta_omega=args.delta_omega, phi=args.phi
    )
    if args.unlocked:
        series = unlocked_intensity(field, args.seed, args.samples, args.periods)
        metrics = {
            "mean_intensity": float(np.mean(series.intensity)),
            "max_intensity": float(np.max(series.intensity)),
        }
    else:
        series = intensity_series(field, args.samples, args.periods)
        pm = pulse_metrics(series)
        metrics = {
            "fwhm": pm.fwhm,
            "period": pm.period,
            "duty_ratio": pm.duty_ratio,
            "peak": pm.peak,
        }
    if args.format == "csv":
        text = series_to_csv(series)
        text += "".join(f"# {k}={_round_sig(v)}\n" for k, v in sorted(metrics.items()))
        _write_output(text, args.output)
    else:
        params = _params(args, "format", "seed")
        if args.unlocked:
            params["seed"] = args.seed
        results = {
            "metadata": series.metadata,
            "metrics": metrics,
            "t_prime": series.t,
            "intensity": series.intensity,
        }
        _emit_json("pulse-train", params, results, args.output)
    return EXIT_OK


def cmd_classify(args, parser) -> int:
    phase = _parse_phase(args, parser)
    if not math.isfinite(phase):
        raise ValueError(f"phase must be finite, got {phase}")
    if args.m < 1:
        raise ValueError(f"need at least one mode, got {args.m}")
    if args.family == "single-photon" and args.m < 2:
        raise DegenerateInputError(
            f"single-photon interference needs at least 2 modes, got {args.m}"
        )
    if args.family == "coherent":
        if not (math.isfinite(args.alpha.real) and math.isfinite(args.alpha.imag)):
            raise ValueError(f"alpha must be finite, got {args.alpha}")
        if args.alpha == 0:
            raise DegenerateInputError("alpha = 0 is the vacuum; trivially dark", vacuum=True)
    # The locked ladder at zero detection phases: both families share the kernel.
    (result,) = _classify_locked(args.m, [phase], args.tol)
    params = _params(args, "phase_frac", "alpha") | {"phase": phase}
    if args.family == "coherent":
        params["alpha"] = repr(args.alpha)
    _emit_json("classify", params, _classification_dict(result), args.output)
    return EXIT_OK


def cmd_count_dark(args, parser) -> int:
    census = dark_census(args.m, enumerate_states=args.enumerate)
    results = {
        "pi_phase_count": census.pi_phase_count,
        "enumerated_count": census.enumerated_count,
        "locked_dark_count": census.locked_dark_count,
        "bright_count": census.bright_count,
        "ratio": census.ratio,
    }
    if args.m <= 64:
        results["locked_dark_phases"] = locked_dark_phases(args.m, verify=True)
    _emit_json("count-dark", _params(args), results, args.output)
    return EXIT_OK


def cmd_estimate_cavity(args, parser) -> int:
    design = CavityDesign(
        lambda0=args.lambda0_nm * 1e-9,
        dlambda_g=args.dlambda_nm * 1e-9,
        length=args.l_mm * 1e-3,
        n_index=args.n,
        pulse_duration=args.pulse_ns * 1e-9,
        rep_period=args.rep_ms * 1e-3,
    )
    report = ratio_report(design)
    _emit_json("estimate-cavity", _params(args), report.to_dict(), args.output)
    return EXIT_OK


def cmd_scan_phase(args, parser) -> int:
    family = args.family.replace("-", "_")
    scan = scan_phase(args.m, family, args.grid, args.tol)
    labels = [r.label.value for _, r in scan]
    results = {
        "points": [
            {"phi": phi, **_classification_dict(r)} for phi, r in scan
        ],
        "dark_points": labels.count("Dark"),
        "bright_points": labels.count("Bright"),
        "intermediate_points": labels.count("Intermediate"),
    }
    _emit_json("scan-phase", _params(args), results, args.output)
    return EXIT_OK


@functools.cache  # parse_args leaves the parser as it found it, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brightdark",
        description="Bright/dark multimode photon states and mode-locked pulse trains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pulse-train", help="locked (or unlocked) intensity series")
    p.add_argument("--n-side", type=int, required=True, help="modes per side of the carrier")
    p.add_argument("--e0", type=float, default=1.0)
    p.add_argument("--delta-omega", type=float, default=1.0, help="mode spacing, rad/s")
    p.add_argument("--phi", type=float, default=0.0, help="locked phase offset, rad")
    p.add_argument("--samples", type=int, default=2048, help="samples per period")
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--unlocked", action="store_true", help="randomize the mode phases")
    p.add_argument("--seed", type=int, default=0, help="seed for --unlocked phases")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_pulse_train)

    p = sub.add_parser("classify", help="classify a locked phase ladder")
    p.add_argument("--m", type=int, required=True, help="number of modes")
    p.add_argument(
        "--family", choices=("single-photon", "coherent"), default="single-photon"
    )
    p.add_argument("--phase", type=float, help="phase step, rad")
    p.add_argument("--phase-frac", help="phase step as K/M, meaning 2*pi*K/M")
    p.add_argument("--alpha", type=complex, default=1.0 + 0.0j)
    p.add_argument("--tol", type=float, default=CLI_TOL)
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("count-dark", help="dark-state counts for M modes")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--enumerate", action="store_true", help="verify by exhaustive enumeration"
    )
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_count_dark)

    p = sub.add_parser("estimate-cavity", help="mode count and duty-ratio comparison")
    p.add_argument("--lambda0-nm", type=float, required=True)
    p.add_argument("--dlambda-nm", type=float, required=True)
    p.add_argument("--l-mm", type=float, required=True)
    p.add_argument("--n", type=float, default=1.0, help="refractive index")
    p.add_argument("--pulse-ns", type=float, default=45.0)
    p.add_argument("--rep-ms", type=float, default=1.0)
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_estimate_cavity)

    p = sub.add_parser("scan-phase", help="classify a grid of phase steps")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", type=int, required=True, help="grid points over [0, 2*pi)")
    p.add_argument(
        "--family", choices=("single-photon", "coherent"), default="coherent"
    )
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(func=cmd_scan_phase)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, parser)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
