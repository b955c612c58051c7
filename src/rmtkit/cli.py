"""Command-line front end.

Subcommands: spectrum, clean, backtest, svd, simulate, dynamics, spikes.
Exit codes: 0 success, 1 input error, 2 numerical failure.  Configuration
precedence: command-line flags > config file (plain ``key = value`` lines) >
built-in defaults.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import crosscorr, dynamics, fileio, portfolio, spectra, spikes, synth
from .cleaning import SCHEME_KINDS, CleaningScheme, apply_scheme
from .density import DensityError
from .estimators import EstimatorError, pearson, standardize
from .transforms import TransformError

__all__ = ["main", "run"]


class _InputError(Exception):
    """User-facing input problem -> exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _InputError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="rmtkit", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--config", help="file of 'key = value' overrides")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="emit an asymptotic density as CSV")
    sp.add_argument("--law", choices=["mp", "ewma", "wigner", "elliptic",
                                      "rsvd", "powerlaw-dressed"],
                    default="mp")
    sp.add_argument("--q", type=float, default=0.5)
    sp.add_argument("--mu", type=float, default=4.0)
    sp.add_argument("--alpha", type=float, default=0.35)
    sp.add_argument("--n", type=float, default=0.125,
                    help="N/T for the rsvd law")
    sp.add_argument("--m", type=float, default=0.085,
                    help="M/T for the rsvd law")
    sp.add_argument("--out", default="spectrum.csv")

    cl = sub.add_parser("clean", help="clean a correlation matrix")
    cl.add_argument("--matrix", help="dense correlation CSV")
    cl.add_argument("--panel", help="panel CSV (Pearson estimate is cleaned)")
    cl.add_argument("--scheme", choices=list(SCHEME_KINDS), default="clip")
    cl.add_argument("--alpha", type=float, default=0.5)
    cl.add_argument("--mu", type=float, default=2.0)
    cl.add_argument("--out", default="cleaned.csv")

    bt = sub.add_parser("backtest", help="rolling minimum-variance backtest")
    bt.add_argument("--panel", required=True)
    bt.add_argument("--scheme", choices=["raw", *SCHEME_KINDS], default="raw")
    bt.add_argument("--alpha", type=float, default=0.5)
    bt.add_argument("--mu", type=float, default=2.0)
    bt.add_argument("--window", type=int, default=1000)
    bt.add_argument("--horizon", type=int, default=99)
    bt.add_argument("--step", type=int, default=100)
    bt.add_argument("--predictor", choices=["momentum", "random"],
                    default="momentum")
    bt.add_argument("--seed", type=int)
    bt.add_argument("--out", default="backtest.csv")

    sv = sub.add_parser("svd", help="cross-correlation singular spectrum")
    sv.add_argument("--x", required=True, help="input panel CSV")
    sv.add_argument("--y", required=True, help="output panel CSV")
    sv.add_argument("--out", default="svd.csv")

    si = sub.add_parser("simulate", help="generate a synthetic panel")
    si.add_argument("--spec", choices=["identity", "spike", "powerlaw"],
                    default="identity")
    si.add_argument("--rho", type=float, default=0.3,
                    help="off-diagonal correlation")
    si.add_argument("--alpha", type=float, default=0.35)
    si.add_argument("--mu", type=float,
                    help="heavy-tail index; omit for Gaussian returns")
    si.add_argument("--N", type=int, default=100)
    si.add_argument("--T", type=int, default=500)
    si.add_argument("--seed", type=int)
    si.add_argument("--out", default="panel.csv")

    dy = sub.add_parser("dynamics", help="track the top eigenpair, emit variograms")
    dy.add_argument("--panel", required=True)
    dy.add_argument("--epsilon", type=float, default=0.02)
    dy.add_argument("--tau-max", type=int, default=250)
    dy.add_argument("--out", default="variogram.csv")

    sk = sub.add_parser("spikes", help="detect outlier eigenvalues")
    sk.add_argument("--panel", help="panel CSV (q inferred from the shape)")
    sk.add_argument("--matrix", help="dense correlation CSV (requires --q)")
    sk.add_argument("--q", type=float)
    sk.add_argument("--u", type=float, default=3.0)
    sk.add_argument("--out")
    p.commands = sub.choices
    return p


def _load_config(path) -> dict:
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise _InputError(
                        f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                out[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _InputError(f"cannot read config file: {exc}") from exc
    return out


def _parse(parser: _Parser, argv) -> argparse.Namespace:
    """Parse ``argv`` with precedence flags > config file > defaults.

    The config file's keys for the chosen subcommand become that
    subparser's defaults, and ``argv`` is parsed again.  A value is cast
    with its option's argparse ``type`` (str when the option has none) and
    checked against its ``choices``, as the flag would be.  A key of
    another subcommand is ignored, so one file can serve several; a key
    that names no option of any subcommand is an error.
    """
    args = parser.parse_args(argv)
    if not args.config:
        return args
    config = _load_config(args.config)
    options = {name: {a.dest: a for a in sub._actions
                      if a.default is not argparse.SUPPRESS}
               for name, sub in parser.commands.items()}
    defaults = {}
    for key, text in config.items():
        if not any(key in actions for actions in options.values()):
            raise _InputError(f"config field {key}: no such option")
        action = options[args.command].get(key)
        if action is None:
            continue
        try:
            value = (action.type or str)(text)
        except ValueError as exc:
            raise _InputError(f"config field {key}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise _InputError(
                f"config field {key}: {value!r} is not one of "
                f"{', '.join(action.choices)}")
        defaults[key] = value
    parser.commands[args.command].set_defaults(**defaults)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Subcommand implementations

def _cmd_spectrum(args) -> int:
    if args.law == "mp":
        dens = spectra.mp_density(args.q)
    elif args.law == "ewma":
        dens = spectra.ewma_density(args.q)
    elif args.law == "wigner":
        dens = spectra.wigner_semicircle()
    elif args.law == "elliptic":
        dens = spectra.elliptic_student_density(args.q, args.mu)
    elif args.law == "rsvd":
        dens = spectra.rsvd_benchmark(args.n, args.m)
    else:  # powerlaw-dressed
        prior = spectra.powerlaw_prior_density(
            spectra.PowerLawPrior(args.alpha))
        dens = spectra.dressed_spectrum(prior, args.q)
    fileio.write_density_csv(args.out, dens)
    print(f"wrote {args.out}")
    return 0


def _require_matrix(args):
    """``(E, T)``: the matrix of ``--matrix`` and None, or the Pearson
    estimate of ``--panel`` and the panel's T."""
    if args.matrix and args.panel:
        raise _InputError("give --matrix or --panel, not both")
    if args.matrix:
        return fileio.read_matrix_csv(args.matrix), None
    if args.panel:
        panel = standardize(fileio.read_panel_csv(args.panel))
        return pearson(panel), panel.T
    raise _InputError("need --matrix or --panel")


def _cmd_clean(args) -> int:
    scheme = CleaningScheme(args.scheme, args.alpha, args.mu)
    E, _ = _require_matrix(args)
    fileio.write_matrix_csv(
        args.out, apply_scheme(E, scheme),
        header_lines=fileio.metadata_header(
            "clean", {"scheme": args.scheme, "alpha": args.alpha,
                      "mu": args.mu}))
    print(f"wrote {args.out}")
    return 0


def _cmd_backtest(args) -> int:
    scheme = (None if args.scheme == "raw"
              else CleaningScheme(args.scheme, args.alpha, args.mu))
    if args.predictor == "random" and args.seed is None:
        raise _InputError("field seed: required for the random predictor")
    panel = fileio.read_panel_csv(args.panel)
    _, mean_in, mean_out = portfolio.backtest(
        panel, scheme, window=args.window, horizon=args.horizon,
        step=args.step, predictor=args.predictor, seed=args.seed)
    keys = ("scheme", "alpha", "mu", "window", "horizon", "step", "predictor",
            "seed")
    params = {k: getattr(args, k) for k in keys if getattr(args, k) is not None}
    fileio.write_table(
        args.out, ["alpha", "scheme", "in_risk", "out_risk"],
        [np.array([[args.alpha]]), [args.scheme],
         np.sqrt([[mean_in, mean_out]])],
        fileio.metadata_header("backtest", params))
    print(f"wrote {args.out} (in {np.sqrt(mean_in):.4f}, "
          f"out {np.sqrt(mean_out):.4f})")
    return 0


def _cmd_svd(args) -> int:
    # no name on a raw panel, which is freed once standardized; the M x N
    # cross matrix is whitened, not the panels
    X = standardize(fileio.read_panel_csv(args.x))
    Y = standardize(fileio.read_panel_csv(args.y))
    result = crosscorr.cross_singulars(X, Y)
    lo, hi = result.null_band
    sv = result.singular_values
    fileio.write_table(
        args.out, ["rank", "singular_value"],
        [np.column_stack([np.arange(1, len(sv) + 1), sv])],
        [f"null band [{lo:.12g}, {hi:.12g}] threshold {result.threshold:.12g}",
         f"significant {result.significant_count}"])
    print(f"wrote {args.out} ({result.significant_count} significant)")
    return 0


def _cmd_simulate(args) -> int:
    if args.seed is None:
        raise _InputError("field seed: required for simulate")
    if args.spec == "identity":
        C = synth.constant_correlation(args.N, 0.0)
    elif args.spec == "spike":
        C = synth.constant_correlation(args.N, args.rho)
    else:
        C = synth.powerlaw_correlation(args.N, args.alpha, args.seed)
    if args.mu is None:
        panel = synth.gaussian_panel(C, args.T, args.seed + 1)
    else:
        panel = synth.student_panel(C, args.mu, args.T, args.seed + 1)
    params = {"spec": args.spec, "N": args.N, "T": args.T, "seed": args.seed,
              "generator": synth.GENERATOR_ID}
    if args.spec == "spike":
        params["rho"] = args.rho
    if args.spec == "powerlaw":
        params["alpha"] = args.alpha
    if args.mu is not None:
        params["mu"] = args.mu
    fileio.write_panel_csv(args.out, panel,
                           fileio.metadata_header("simulate", params))
    print(f"wrote {args.out}")
    return 0


def _cmd_dynamics(args) -> int:
    if args.tau_max < 1:
        raise _InputError("--tau-max must be at least 1")
    panel = fileio.read_panel_csv(args.panel)
    track = dynamics.track_top(panel, args.epsilon)
    tau = np.unique(np.geomspace(1, args.tau_max, 40).astype(int))
    val, vec = dynamics.empirical_variogram(track, tau)
    fileio.write_table(args.out, ["tau", "value", "vector"],
                       [np.column_stack([tau, val, vec])],
                       [f"epsilon={args.epsilon:.12g}"])
    print(f"wrote {args.out}")
    return 0


def _cmd_spikes(args) -> int:
    E, T = _require_matrix(args)
    q = args.q
    if q is None:
        if T is None:
            raise _InputError("field q: required with --matrix")
        q = E.N / T
    report = spikes.detect_spikes(E, q, u_threshold=args.u)
    text = report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({len(report.outliers)} outliers)")
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "clean": _cmd_clean,
    "backtest": _cmd_backtest,
    "svd": _cmd_svd,
    "simulate": _cmd_simulate,
    "dynamics": _cmd_dynamics,
    "spikes": _cmd_spikes,
}

_NUMERICAL_ERRORS = (TransformError, DensityError, np.linalg.LinAlgError,
                     FloatingPointError)


def run(argv=None) -> int:
    try:
        args = _parse(_build_parser(), argv)
        return _COMMANDS[args.command](args)
    except _NUMERICAL_ERRORS as exc:
        print(f"rmtkit: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (_InputError, EstimatorError, OSError, ValueError) as exc:
        print(f"rmtkit: error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
