"""Command-line front end.

argparse reads the argv: ``--output`` on every subcommand, and exactly one of
``classify --phase`` or ``--phase-frac K/M`` (2*pi*K/M); a command only
computes.  Every command prints a JSON document ``{"command", "params",
"results"}`` (the pulse-train command can emit CSV instead); numbers are
rounded to 12 significant digits so identical invocations produce
byte-identical output.  The text is textio's: a document is written in
chunks as it is formatted, and ``--output`` replaces its target only once
the whole document is written.

Exit codes: 0 success, 2 validation error or an ``--output`` that cannot be
written, 3 resource limit, 4 internal error, which no argv the parser accepts
should reach.  A reader that closes standard output early (``brightdark ... |
head``) is not an error: it exits 0.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import re
import sys
from itertools import chain

import numpy as np

from .cavity import CavityDesign, ratio_report
from .classify import DEFAULT_TOL, _locked, _scan_columns
from .counting import dark_census, locked_dark_phases
from .errors import DegenerateInputError, ResourceLimitError
from .pulses import LaserField, intensity_series, pulse_metrics, unlocked_intensity
from .textio import _csv_chunks, _json_chunks, _Records, _write_chunks

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# Default classification tolerance at the CLI boundary.  Looser than the
# library default (1e-10) because phases typed as decimals carry at most
# ~15 digits; --phase-frac K/M enters dark phases without that loss.
CLI_TOL = 1e-6


# argparse reads an argument that starts with "-" as an option unless it matches
# its negative-number pattern, which knows only "-5" and "-.5"; these values
# (exponents, infinities, --phase-frac fractions, complex --alpha literals such
# as -1j, -0.5+1j or -inf-nanj) would be refused as options.
_REAL = r"((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)"
_NEGATIVE_VALUE = re.compile(rf"^-({_REAL}([-+]{_REAL}?j)?|{_REAL}?j|\d+/\d+)$", re.IGNORECASE)


def _emit_json(command: str, params: dict, results: dict, output: str | None) -> None:
    chunks = _json_chunks({"command": command, "params": params, "results": results})
    # A document on stdout ends its line; a file holds the document alone.
    _write_chunks(chain(chunks, ["\n"]) if output is None else chunks, output)


def _phase_frac(text: str) -> float:
    """The phase step 2*pi*K/M of a ``--phase-frac K/M`` argument."""
    try:
        k, m = map(int, text.split("/"))
        if m > 0:
            return 2.0 * math.pi * k / m
    except ValueError:
        raise argparse.ArgumentTypeError(f"expects K/M with integers, got {text!r}") from None
    except OverflowError:  # K or M converted to a float
        raise argparse.ArgumentTypeError("K or M is past the largest float") from None
    raise argparse.ArgumentTypeError("the denominator M must be positive")


def _params(args, *drop: str) -> dict:
    """A command's JSON ``params``: its parsed options less ``drop`` and the plumbing."""
    skip = {"command", "func", "output", *drop}
    return {k: v for k, v in vars(args).items() if k not in skip}


def cmd_pulse_train(args) -> None:
    field = LaserField(
        n_side=args.n_side, e0=args.e0, delta_omega=args.delta_omega, phi=args.phi
    )
    if args.unlocked:
        series = unlocked_intensity(field, args.seed, args.samples, args.periods)
        # The mean of the whole series, which builds it: the mean of one period
        # can differ from it in the last bits.
        with np.errstate(over="ignore"):  # an overflowing sum is refused below
            mean = float(np.mean(series.intensity))
        if not math.isfinite(mean):
            raise ValueError(f"the intensity sum overflows at e0={args.e0}")
        metrics = {
            "mean_intensity": mean,
            "max_intensity": float(np.max(series.intensity)),
        }
    else:
        series = intensity_series(field, args.samples, args.periods)
        metrics = dataclasses.asdict(pulse_metrics(series))
    if args.format == "csv":
        _write_chunks(_csv_chunks(series.metadata, series._columns(), metrics), args.output)
    else:
        params = _params(args, "format", "seed")
        if args.unlocked:
            params["seed"] = args.seed
        t, intensity = series._columns()
        results = {
            "metadata": series.metadata,
            "metrics": metrics,
            "t_prime": t,
            "intensity": intensity,
        }
        _emit_json("pulse-train", params, results, args.output)


def cmd_classify(args) -> None:
    if not math.isfinite(args.phase):
        raise ValueError(f"phase must be finite, got {args.phase}")
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
    beta, label, beta_max = _locked(args.m, args.phase, args.tol)
    results = {"beta": beta, "label": label.value, "beta_max": beta_max, "tol": args.tol}
    params = _params(args, "alpha")
    if args.family == "coherent":
        params["alpha"] = repr(args.alpha)
    _emit_json("classify", params, results, args.output)


def cmd_count_dark(args) -> None:
    census = dark_census(args.m, enumerate_states=args.enumerate)
    results = dataclasses.asdict(census)
    del results["modes"]  # already in params
    if args.m <= 64:
        results["locked_dark_phases"] = locked_dark_phases(args.m)
    _emit_json("count-dark", _params(args), results, args.output)


def cmd_estimate_cavity(args) -> None:
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


def cmd_scan_phase(args) -> None:
    phis, betas, labels, beta_max = _scan_columns(args.m, args.grid, args.tol)
    points = {"phi": phis, "beta": betas, "label": labels}
    # beta_max and tol are the same at every point of the ladder.
    constants = {"beta_max": beta_max, "tol": args.tol}
    results = {
        "points": _Records(points, constants),
        "dark_points": labels.count("Dark"),
        "bright_points": labels.count("Bright"),
        "intermediate_points": labels.count("Intermediate"),
    }
    _emit_json("scan-phase", _params(args), results, args.output)


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
    p.set_defaults(func=cmd_pulse_train)

    p = sub.add_parser("classify", help="classify a locked phase ladder")
    p.add_argument("--m", type=int, required=True, help="number of modes")
    p.add_argument(
        "--family", choices=("single-photon", "coherent"), default="single-photon"
    )
    phase = p.add_mutually_exclusive_group(required=True)
    phase.add_argument("--phase", type=float, help="phase step, rad")
    phase.add_argument("--phase-frac", type=_phase_frac, dest="phase", metavar="PHASE_FRAC",
                       help="phase step as K/M, meaning 2*pi*K/M")
    p.add_argument("--alpha", type=complex, default=1.0 + 0.0j)
    p.add_argument("--tol", type=float, default=CLI_TOL)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("count-dark", help="dark-state counts for M modes")
    p.add_argument("--m", type=int, required=True)
    p.add_argument(
        "--enumerate", action="store_true", help="verify by exhaustive enumeration"
    )
    p.set_defaults(func=cmd_count_dark)

    p = sub.add_parser("estimate-cavity", help="mode count and duty-ratio comparison")
    p.add_argument("--lambda0-nm", type=float, required=True)
    p.add_argument("--dlambda-nm", type=float, required=True)
    p.add_argument("--l-mm", type=float, required=True)
    p.add_argument("--n", type=float, default=1.0, help="refractive index")
    p.add_argument("--pulse-ns", type=float, default=45.0)
    p.add_argument("--rep-ms", type=float, default=1.0)
    p.set_defaults(func=cmd_estimate_cavity)

    p = sub.add_parser("scan-phase", help="classify a grid of phase steps")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--grid", type=int, required=True, help="grid points over [0, 2*pi)")
    p.add_argument(
        "--family", choices=("single-photon", "coherent"), default="coherent"
    )
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_scan_phase)

    parser._negative_number_matcher = _NEGATIVE_VALUE
    for p in sub.choices.values():
        p.add_argument("--output", help="write here instead of stdout")
        p._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, IndexError, OSError) as exc:  # OSError: output that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
