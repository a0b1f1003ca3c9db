"""Command-line surface: simulate chains, export run and funnel curves,
fit scatter datasets and run-length curves.

Exit codes: 0 success, 1 usage error (`ParameterError`, or `MemoryError`
for a size too large to allocate), 2 data error (`DataFormatError`, or an
`OSError` reading or writing a file), 3 infeasible fit
(`InfeasibleParametersError`).  TWOSTATE_SEED supplies the default seed.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys

import numpy as np

from . import __version__
from .chain import MarkovParams, ParameterError, _check_count
from .dataio import (
    DataFormatError,
    _read_all,
    curve_text,
    funnel_table_text,
    parse_curve,
    parse_sequence,
    parse_studies,
    report_text,
    sequence_text,
    sha256_of,
    staged_writes,
    write_text_atomic,
)
from .estimate import (
    InfeasibleParametersError,
    _check_fit_options,
    fit_runs_simulated,
    fit_scatter,
)
from .funnel import FunnelSpec, sample_curve, z_from_level
from .runs import average_and_normalize, extract_runs, memoryfree_curve
from .simulate import child_seed, generate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def _emit(text: str | np.ndarray, out: str | None, staged: list | None = None) -> None:
    """Write `text`, a str or the ASCII bytes of `sequence_text`, to the
    file `out`, or else to stdout."""
    if out:
        write_text_atomic(out, text, staged)
    else:
        sys.stdout.write(text if isinstance(text, str) else str(text, "ascii"))


def _read_inputs(**paths) -> tuple[dict, list]:
    """The report's record of each input file, its path and the SHA-256 of
    its bytes, and a stream of those bytes to parse.  Each file is read
    once, so the digest is of what is parsed, a pipe's included."""
    inputs, streams = {}, []
    for name, path in paths.items():
        data = _read_all(path)
        inputs[name] = {"path": str(path), "sha256": sha256_of(data)}
        streams.append(io.BytesIO(data))
    return inputs, streams


def _indexed_path(path: str, index: int) -> str:
    base, ext = os.path.splitext(path)
    return f"{base}_{index:03d}{ext}"


# here, not in `runs`, so that generate and extract_runs are called through
# this module's names, which perfbench's tracer wraps to time them
def simulated_histograms(params: MarkovParams, n: int, count: int, seed: int) -> list:
    """(A, B) run histograms of `count` simulated chains of length n, chain i
    on child_seed(seed, i).  Each chain is histogrammed as soon as it is
    generated, so only one is held at a time."""
    return [extract_runs(generate(params, n, child_seed(seed, i))) for i in range(count)]


def cmd_simulate(args) -> int:
    params = MarkovParams(args.p, args.q, p1=args.p1)
    _check_count("--count", args.count)
    with staged_writes() as staged:
        for i in range(args.count):
            seed_i = args.seed if args.count == 1 else child_seed(args.seed, i)
            seq = generate(params, args.n, seed_i)
            out = None
            if args.out:
                out = args.out if args.count == 1 else _indexed_path(args.out, i)
            _emit(sequence_text(seq), out, staged)
    return 0


def cmd_runs(args) -> int:
    simulated = args.p is not None or args.q is not None or args.n is not None
    if args.input and simulated:
        raise ParameterError("give either --input or the --p/--q/--n simulation flags, not both")
    if args.input:
        if args.seeds is not None:
            raise ParameterError("--seeds applies only when simulating, not with --input")
        alphabet = None if args.alphabet is None else tuple(args.alphabet.split(","))
        # each symbol is matched against one whitespace-separated token, so it must be one
        if alphabet is not None and (
            len(alphabet) != 2 or alphabet[0] == alphabet[1] or any(sym.split() != [sym] for sym in alphabet)
        ):
            raise ParameterError("--alphabet needs exactly two different comma-separated symbols without whitespace")
        hists = [extract_runs(parse_sequence(args.input, alphabet=alphabet))]
    elif simulated:
        if args.p is None or args.q is None or args.n is None:
            raise ParameterError("simulation needs all of --p, --q and --n")
        if args.alphabet is not None:
            raise ParameterError("--alphabet applies only to an --input file, not when simulating")
        seeds = 10 if args.seeds is None else args.seeds
        _check_count("--seeds", seeds)
        hists = simulated_histograms(MarkovParams(args.p, args.q), args.n, seeds, args.seed)
    else:
        raise ParameterError("give --input FILE or --p/--q/--n to simulate")

    # every curve is computed before any is emitted: a data error writes nothing
    try:
        on_curve = average_and_normalize([ha for ha, _ in hists])
        off_curve = average_and_normalize([hb for _, hb in hists])
        reference = None
        if args.reference:
            n = hists[0][0].total_length
            p_bar = float(np.mean([ha.occupied_length / n for ha, _ in hists]))
            max_m = max(max(on_curve), max(off_curve))
            reference = memoryfree_curve(n, p_bar, max_m)
    except ParameterError as exc:
        raise DataFormatError(f"cannot build run curves: {exc}") from exc

    with staged_writes() as staged:
        for path, curve in ((args.out_on, on_curve), (args.out_off, off_curve), (args.reference, reference)):
            if path:
                write_text_atomic(path, curve_text(curve), staged)
    if not (args.out_on or args.out_off):
        sys.stdout.write("# state A (on) runs\n" + curve_text(on_curve))
        sys.stdout.write("# state B (off) runs\n" + curve_text(off_curve))
    return 0


def cmd_funnel(args) -> int:
    spec = FunnelSpec(args.pinf, args.nu, args.z)
    ns, lower, upper = sample_curve(spec, args.n_min, args.n_max, args.points)
    _emit(funnel_table_text(ns, lower, upper), args.out)
    return 0


def _fit_scatter_checked(dataset, args):
    # checked here, so that a bad flag is a usage error (exit 1), not a data error
    _check_fit_options(args.level, args.min_p, args.min_q)
    # the dataset is already well-formed here, so any parameter complaint
    # (e.g. too few points for the quantile) is a shortcoming of the data
    try:
        return fit_scatter(dataset, level=args.level, min_p=args.min_p, min_q=args.min_q)
    except ParameterError as exc:
        raise DataFormatError(str(exc)) from exc


def cmd_fit_scatter(args) -> int:
    inputs, (studies,) = _read_inputs(studies=args.studies)
    fit = _fit_scatter_checked(parse_studies(studies), args)
    details = {"level": args.level, "min_p": args.min_p, "min_q": args.min_q}
    _emit(report_text("fit-scatter", __version__, None, inputs, scatter_fit=fit, details=details), args.out)
    return 0


def cmd_fit_runs(args) -> int:
    inputs, (on, off) = _read_inputs(on=args.on, off=args.off)
    on_curve = parse_curve(on)
    off_curve = parse_curve(off)
    _check_count("--length", args.length, minimum=4)
    _check_count("--confirm-seeds", args.confirm_seeds, minimum=0)
    # the flags are checked, so a parameter complaint is about the curves
    try:
        fit = fit_runs_simulated(on_curve, off_curve, args.length)
    except ParameterError as exc:
        raise DataFormatError(f"cannot fit the run curves at --length {args.length}: {exc}") from exc
    details = {"length": args.length}
    seed = None
    if args.confirm_seeds > 0:
        # Monte Carlo confirmation: simulate at the fitted parameters and
        # re-estimate from the chains' averaged curves, as the input was
        seed = args.seed
        hists = simulated_histograms(MarkovParams(fit.p11_hat, fit.p22_hat), args.length, args.confirm_seeds, seed)
        try:
            refit = fit_runs_simulated(average_and_normalize(a for a, _ in hists),
                                       average_and_normalize(b for _, b in hists), args.length)
        except (ParameterError, InfeasibleParametersError) as exc:
            raise InfeasibleParametersError(f"Monte Carlo confirmation: {exc}") from None
        details["mc_confirmation"] = {"seeds": args.confirm_seeds, "mle_p11": refit.p11_hat, "mle_p22": refit.p22_hat}
    _emit(report_text("fit-runs", __version__, seed, inputs, run_fit=fit,
                      run_curves={"on": on_curve, "off": off_curve}, details=details), args.out)
    return 0


def cmd_analyze(args) -> int:
    inputs, (studies,) = _read_inputs(studies=args.studies)
    fit = _fit_scatter_checked(parse_studies(studies), args)
    spec = FunnelSpec(fit.pinf_hat, fit.nu_hat, z_from_level(args.level))
    ns, lower, upper = sample_curve(spec, args.n_min, args.n_max, args.points)
    funnel_curve = {
        "n": ns.tolist(),
        "lower": np.clip(lower, 0.0, 1.0).tolist(),
        "upper": np.clip(upper, 0.0, 1.0).tolist(),
    }
    details = {"level": args.level, "min_p": args.min_p, "min_q": args.min_q}
    _emit(report_text("analyze", __version__, None, inputs, scatter_fit=fit,
                      funnel_curve=funnel_curve, details=details), args.out)
    return 0


def _add_scatter_fit_flags(sub):
    sub.add_argument("--studies", required=True, help="study table (study_id, n, successes|p_bar[, group])")
    sub.add_argument("--level", type=float, default=0.95)
    sub.add_argument("--min-p", type=float, default=None, help="lower bound projected onto p")
    sub.add_argument("--min-q", type=float, default=None, help="lower bound projected onto q")
    sub.add_argument("--out", default=None, help="report path (stdout when omitted)")


@functools.cache
def build_parser() -> _Parser:
    """The argument tree, built once per process: parsing leaves it
    unchanged, and TWOSTATE_SEED is read per call in `main`."""
    parser = _Parser(prog="twostate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"twostate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate seeded chain sequences")
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--q", type=float, required=True)
    p_sim.add_argument("--p1", type=float, default=None, help="initial A probability (default: stationary)")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=None, help="default: $TWOSTATE_SEED, else 0")
    p_sim.add_argument("--count", type=int, default=1, help="number of independent sequences")
    p_sim.add_argument("--out", default=None, help="output path; indexed when --count > 1")
    p_sim.set_defaults(func=cmd_simulate)

    p_runs = sub.add_parser("runs", help="normalized run-length curves per state")
    p_runs.add_argument("--input", default=None, help="sequence file to analyze")
    p_runs.add_argument("--alphabet", default=None, help="two comma-separated symbols for A,B")
    p_runs.add_argument("--p", type=float, default=None)
    p_runs.add_argument("--q", type=float, default=None)
    p_runs.add_argument("--n", type=int, default=None)
    p_runs.add_argument("--seeds", type=int, default=None, help="sequences to average when simulating (default 10)")
    p_runs.add_argument("--seed", type=int, default=None, help="default: $TWOSTATE_SEED, else 0")
    p_runs.add_argument("--out-on", default=None, help="state-A curve path")
    p_runs.add_argument("--out-off", default=None, help="state-B curve path")
    p_runs.add_argument("--reference", default=None, help="also write the memory-free expectation curve")
    p_runs.set_defaults(func=cmd_runs)

    p_fun = sub.add_parser("funnel", help="confidence-interval curve samples")
    p_fun.add_argument("--pinf", type=float, required=True)
    p_fun.add_argument("--nu", type=float, required=True)
    p_fun.add_argument("--z", type=float, default=1.96)
    p_fun.add_argument("--n-min", type=float, default=10.0)
    p_fun.add_argument("--n-max", type=float, default=1e5)
    p_fun.add_argument("--points", type=int, default=200)
    p_fun.add_argument("--out", default=None)
    p_fun.set_defaults(func=cmd_funnel)

    p_fsc = sub.add_parser("fit-scatter", help="fit (pinf, nu, p, q) to a study table")
    _add_scatter_fit_flags(p_fsc)
    p_fsc.set_defaults(func=cmd_fit_scatter)

    p_frn = sub.add_parser("fit-runs", help="fit (p11, p22) to run-length curves by per-state maximum likelihood")
    p_frn.add_argument("--on", required=True, help="state-A (on) curve file")
    p_frn.add_argument("--off", required=True, help="state-B (off) curve file")
    p_frn.add_argument("--length", type=int, default=10_000, help="model sequence length, >= longest run + 2")
    p_frn.add_argument("--confirm-seeds", type=int, default=0,
                       help="Monte Carlo confirmation chains, simulated at the fit and fitted again from their "
                       "averaged curves (default 0: none)")
    p_frn.add_argument("--seed", type=int, default=None, help="default: $TWOSTATE_SEED, else 0")
    p_frn.add_argument("--out", default=None)
    p_frn.set_defaults(func=cmd_fit_runs)

    p_ana = sub.add_parser("analyze", help="fit-scatter plus funnel curve samples")
    _add_scatter_fit_flags(p_ana)
    p_ana.add_argument("--n-min", type=float, default=10.0)
    p_ana.add_argument("--n-max", type=float, default=1e5)
    p_ana.add_argument("--points", type=int, default=200)
    p_ana.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:  # read here, so a bad value is a usage error
            value = os.environ.get("TWOSTATE_SEED", "0")
            try:
                args.seed = int(value)
            except ValueError:
                raise ParameterError(f"TWOSTATE_SEED must be an integer, got {value!r}") from None
        return args.func(args)
    except SystemExit as exc:  # --help / --version
        return exc.code or 0
    except (ParameterError, MemoryError) as exc:  # MemoryError: a size too large to allocate, e.g. --n 10**15
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleParametersError as exc:
        print(f"infeasible fit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
