"""Command-line surface: simulate chains, export run and funnel curves,
fit scatter datasets and run-length curves.  A command writes all of its
files or none: `main` runs it in one `staged_writes` block, and prints what
it returns only once that block has renamed every file.

Exit codes: 0 success, 1 usage error (`ParameterError`, or `MemoryError`
for a size too large to allocate), 2 data error (`DataFormatError`, or an
`OSError` reading or writing a file), 3 infeasible fit
(`InfeasibleParametersError`).  TWOSTATE_SEED supplies the default seed,
and only a command that draws chains reads it or takes --seed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .chain import MarkovParams, ParameterError, _check_count
from .dataio import (
    DataFormatError,
    _check_alphabet,
    _read_bytes,
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
from .estimate import InfeasibleParametersError, _fit_stay, fit_runs_simulated, fit_scatter
from .funnel import FunnelSpec, sample_curve, z_from_level
from .runs import _check_run_domain, average_and_normalize, extract_runs, memoryfree_curve
from .simulate import child_seed, generate


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParameterError(message)


def _emit(text: str, out: str | None, staged: list) -> str:
    """Stage `text` in the command's block for the file `out` and return "",
    or else return it to print."""
    if out:
        write_text_atomic(out, text, staged)
        return ""
    return text


def _read_inputs(**paths) -> tuple[dict, list]:
    """Each input file's record for the report, its path and the SHA-256
    of its bytes, and the array of those bytes as a parser's source: one
    read, so the digest is of what is parsed, a pipe's included."""
    inputs, arrays = {}, []
    for name, path in paths.items():
        data = _read_bytes(path)
        inputs[name] = {"path": str(path), "sha256": sha256_of(data)}
        arrays.append(data)
    return inputs, arrays


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


def _seed(args) -> int:
    """The seed of the chains a command draws: --seed, else TWOSTATE_SEED, else 0."""
    if args.seed is not None:
        return args.seed
    value = os.environ.get("TWOSTATE_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ParameterError(f"TWOSTATE_SEED must be an integer, got {value!r}") from None


def cmd_simulate(args, staged: list) -> str:
    seed = _seed(args)
    params = MarkovParams(args.p, args.q, p1=args.p1)
    _check_count("--count", args.count)
    for i in range(args.count):
        seed_i = seed if args.count == 1 else child_seed(seed, i)
        text = sequence_text(generate(params, args.n, seed_i))
        if args.out:
            write_text_atomic(args.out if args.count == 1 else _indexed_path(args.out, i), text, staged)
        elif hasattr(sys.stdout, "buffer"):
            # printed as drawn, so that memory does not grow with --count, and
            # as the bytes, so that no str of them is made; a command that
            # prints sequences stages no file
            sys.stdout.flush()
            sys.stdout.buffer.write(text)
        else:  # a text-only stdout, such as an io.StringIO
            sys.stdout.write(str(text, "ascii"))
    return ""


def cmd_runs(args, staged: list) -> str:
    simulated = args.p is not None or args.q is not None or args.n is not None
    if args.input and simulated:
        raise ParameterError("give either --input or the --p/--q/--n simulation flags, not both")
    if args.input:
        for flag, value in (("--seeds", args.seeds), ("--seed", args.seed)):
            if value is not None:
                raise ParameterError(f"{flag} applies only when simulating, not with --input")
        alphabet = None if args.alphabet is None else tuple(args.alphabet.split(","))
        if alphabet is not None:
            _check_alphabet(alphabet, "--alphabet")
        hists = [extract_runs(parse_sequence(args.input, alphabet=alphabet))]
    elif simulated:
        if args.p is None or args.q is None or args.n is None:
            raise ParameterError("simulation needs all of --p, --q and --n")
        if args.alphabet is not None:
            raise ParameterError("--alphabet applies only to an --input file, not when simulating")
        seeds = 10 if args.seeds is None else args.seeds
        _check_count("--seeds", seeds)
        hists = simulated_histograms(MarkovParams(args.p, args.q), args.n, seeds, _seed(args))
    else:
        raise ParameterError("give --input FILE or --p/--q/--n to simulate")

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

    for path, curve in ((args.out_on, on_curve), (args.out_off, off_curve), (args.reference, reference)):
        if path:
            write_text_atomic(path, curve_text(curve), staged)
    printed = ""
    for path, state, curve in ((args.out_on, "A (on)", on_curve), (args.out_off, "B (off)", off_curve)):
        if not path:
            printed += f"# state {state} runs\n" + curve_text(curve)
    return printed


def cmd_funnel(args, staged: list) -> str:
    spec = FunnelSpec(args.pinf, args.nu, args.z)
    ns, lower, upper = sample_curve(spec, args.n_min, args.n_max, args.points)
    return _emit(funnel_table_text(ns, lower, upper), args.out, staged)


def cmd_fit_scatter(args, staged: list) -> str:
    inputs, (studies,) = _read_inputs(studies=args.studies)
    fit = fit_scatter(parse_studies(studies), level=args.level, min_p=args.min_p, min_q=args.min_q)
    details = {"level": args.level, "min_p": args.min_p, "min_q": args.min_q}
    return _emit(report_text("fit-scatter", __version__, None, inputs, scatter_fit=fit, details=details),
                 args.out, staged)


def cmd_fit_runs(args, staged: list) -> str:
    inputs, (on, off) = _read_inputs(on=args.on, off=args.off)
    on_curve = parse_curve(on)
    off_curve = parse_curve(off)
    _check_count("--length", args.length, minimum=4)
    _check_count("--confirm-seeds", args.confirm_seeds, minimum=0)
    if not args.confirm_seeds and args.seed is not None:
        raise ParameterError("--seed applies only with --confirm-seeds, which draws the chains it seeds")
    seed = _seed(args) if args.confirm_seeds else None
    # the flags are checked, so a parameter complaint is about the curves
    try:
        fit = fit_runs_simulated(on_curve, off_curve, args.length)
    except ParameterError as exc:
        raise DataFormatError(f"cannot fit the run curves at --length {args.length}: {exc}") from exc
    details = {"length": args.length}
    if args.confirm_seeds > 0:
        # Monte Carlo confirmation: simulate at the fitted parameters and fit again
        # from each state's pooled runs and summed stays m - 1, all its likelihood reads
        hists = simulated_histograms(MarkovParams(fit.p11_hat, fit.p22_hat), args.length, args.confirm_seeds, seed)
        pooled = [(sum(h.n_runs for h in hs), sum(h.occupied_length - h.n_runs for h in hs)) for hs in zip(*hists)]
        try:
            for state, (runs, _) in zip("AB", pooled):
                if not runs:
                    raise ParameterError(f"the state-{state} chains contain no runs")
            _check_run_domain(args.length, max(h.counts.size for pair in hists for h in pair))
            p11, p22 = (_fit_stay(name, *counts, args.length) for name, counts in zip(("on", "off"), pooled))
        except (ParameterError, InfeasibleParametersError) as exc:
            raise InfeasibleParametersError(f"Monte Carlo confirmation: {exc}") from None
        details["mc_confirmation"] = {"seeds": args.confirm_seeds, "mle_p11": p11, "mle_p22": p22}
    return _emit(report_text("fit-runs", __version__, seed, inputs, run_fit=fit, details=details), args.out, staged)


def cmd_analyze(args, staged: list) -> str:
    inputs, (studies,) = _read_inputs(studies=args.studies)
    fit = fit_scatter(parse_studies(studies), level=args.level, min_p=args.min_p, min_q=args.min_q)
    spec = FunnelSpec(fit.pinf_hat, fit.nu_hat, z_from_level(args.level))
    ns, lower, upper = sample_curve(spec, args.n_min, args.n_max, args.points)
    funnel_curve = {
        "n": ns.tolist(),
        "lower": np.clip(lower, 0.0, 1.0).tolist(),
        "upper": np.clip(upper, 0.0, 1.0).tolist(),
    }
    details = {"level": args.level, "min_p": args.min_p, "min_q": args.min_q}
    return _emit(report_text("analyze", __version__, None, inputs, scatter_fit=fit,
                             funnel_curve=funnel_curve, details=details), args.out, staged)


_SEED_HELP = "seed of the drawn chains, refused where none are drawn (default: $TWOSTATE_SEED, read only then, else 0)"


def _add_scatter_fit_flags(sub):
    sub.add_argument("--studies", required=True,
                     help="study table (study_id, n, successes|p_bar); other columns, such as group, are ignored")
    sub.add_argument("--level", type=float, default=0.95,
                     help="coverage level of the funnel band and of coverage_achieved")
    sub.add_argument("--min-p", type=float, default=None, help="lower bound projected onto p")
    sub.add_argument("--min-q", type=float, default=None, help="lower bound projected onto q")
    sub.add_argument("--out", default=None, help="report path (stdout when omitted)")


@functools.cache
def build_parser() -> _Parser:
    """The argument tree, built once per process: parsing leaves it
    unchanged, and TWOSTATE_SEED is read per call by `_seed`."""
    parser = _Parser(prog="twostate", description=__doc__)
    parser.add_argument("--version", action="version", version=f"twostate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate seeded chain sequences")
    p_sim.add_argument("--p", type=float, required=True)
    p_sim.add_argument("--q", type=float, required=True)
    p_sim.add_argument("--p1", type=float, default=None, help="initial A probability (default: stationary)")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
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
    p_runs.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
    p_runs.add_argument("--out-on", default=None, help="state-A curve path (stdout when omitted)")
    p_runs.add_argument("--out-off", default=None, help="state-B curve path (stdout when omitted)")
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
                       "pooled run counts (default 0: none)")
    p_frn.add_argument("--seed", type=int, default=None, help=_SEED_HELP)
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
        with staged_writes() as staged:
            printed = args.func(args, staged)
        sys.stdout.write(printed)
        return 0
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
