"""Library arguments outside their domain: every public call raises
`ParameterError`, never another exception or a confident wrong answer."""

import io
import math
import re

import numpy as np
import pytest

from twostate import (
    FunnelSpec,
    MarkovParams,
    ParameterError,
    RunHistogram,
    ScatterDataset,
    child_seed,
    ensemble,
    estimate_nu,
    fit_runs_simulated,
    fit_scatter,
    generate,
    invert_to_pq,
    memoryfree_curve,
    n_step_self_transitions,
    required_n,
    run_curve_objective,
    sample_curve,
    state_probability,
    z_from_level,
)
from twostate.dataio import parse_sequence
from twostate.runs import log_run_frequencies

P = MarkovParams(0.7, 0.4)
CURVE = {1: 0.5, 2: 0.3, 3: 0.2}
SPEC = FunnelSpec(0.5, 1.0)


def scatter(n_points=40):
    rng = np.random.default_rng(3)
    sizes = rng.integers(50, 500, n_points)
    return ScatterDataset(sizes, rng.binomial(sizes, 0.6) / sizes)


CASES = {
    "state_probability-bool-n": lambda: state_probability(P, True),
    "n_step_self_transitions-bool-n": lambda: n_step_self_transitions(P, False),
    "generate-bool-seed": lambda: generate(P, 3, True),
    "child_seed-negative-index": lambda: child_seed(1, -1),
    "fit_runs_simulated-length-past-int64": lambda: fit_runs_simulated(CURVE, CURVE, 2**70),
    "fit_runs_simulated-fractional-length": lambda: fit_runs_simulated(CURVE, CURVE, 10.5),
    "run_curve_objective-length-past-int64": lambda: run_curve_objective(CURVE, CURVE, 0.5, 0.5, 2**70),
    "memoryfree_curve-fractional-n": lambda: memoryfree_curve(10.5, 0.5, 3),
    "memoryfree_curve-n-past-int64": lambda: memoryfree_curve(2**70, 0.5, 3),
    "log_run_frequencies-n-past-int64": lambda: log_run_frequencies(2**64, [2**63], 0.5),
    # a run length is an integer: 1.5 must not be read as 1, nor nan cast
    "log_run_frequencies-fractional-run-length": lambda: log_run_frequencies(100, [1.5], 0.5),
    "log_run_frequencies-nan-run-length": lambda: log_run_frequencies(100, [math.nan], 0.5),
    "run_curve_objective-fractional-run-length": lambda: run_curve_objective({1.5: 1.0}, CURVE, 0.5, 0.5),
    "fit_runs_simulated-fractional-run-length": lambda: fit_runs_simulated({1.5: 0.5, 2: 0.5}, CURVE),
    "memoryfree_curve-fractional-max_m": lambda: memoryfree_curve(10, 0.5, 2.5),
    "invert_to_pq-nan-nu": lambda: invert_to_pq(0.5, math.nan),
    "sample_curve-fractional-points": lambda: sample_curve(SPEC, 10, 100, 2.5),
    "estimate_nu-pinf-out-of-range": lambda: estimate_nu(scatter(), 1.5),
    "fit_scatter-nan-min_p": lambda: fit_scatter(scatter(), min_p=math.nan),
    "RunHistogram-bool-total_length": lambda: RunHistogram(1, [1], True),
    "RunHistogram-fractional-total_length": lambda: RunHistogram(1, [1], 2.5),
}


@pytest.mark.parametrize("case", CASES)
def test_out_of_domain_argument_raises_parameter_error(case):
    with pytest.raises(ParameterError):
        CASES[case]()


def test_numpy_float_is_a_real_number():
    params = MarkovParams(np.float64(0.5), 0.5)
    assert params.p == 0.5 and params.p1 == 0.5


def test_bool_study_sizes_are_counts():
    # as `RunHistogram` takes bool counts
    dataset = ScatterDataset([True, True], [0.5, 0.5])
    assert dataset.sizes.dtype == np.int64 and dataset.sizes.tolist() == [1, 1]


def read_tokens(alphabet):
    return parse_sequence(io.StringIO("a a a b c"), alphabet=alphabet)


# each call with the start of the message that names the broken rule
MESSAGES = {
    # a repeated symbol would read every token as A; a symbol with whitespace,
    # or an empty one, can never match a token
    "parse_sequence-repeated-symbol": (lambda: read_tokens(("a", "a")), "alphabet needs exactly two"),
    "parse_sequence-one-symbol": (lambda: read_tokens(("a",)), "alphabet needs exactly two"),
    "parse_sequence-three-symbols": (lambda: read_tokens(("a", "b", "c")), "alphabet needs exactly two"),
    "parse_sequence-symbol-with-space": (lambda: read_tokens(("a b", "c")), "alphabet needs exactly two"),
    "parse_sequence-empty-symbol": (lambda: read_tokens(("", "a")), "alphabet needs exactly two"),
    # masked to 64 bits, 2^64 + 5 would give seed 5's stream
    "generate-seed-past-64-bits": (lambda: generate(P, 50, 2**64 + 5), "seed must be an integer in [-2^63"),
    "generate-seed-below-minus-2^63": (lambda: generate(P, 50, -(2**63) - 1), "seed must be an integer in [-2^63"),
    "child_seed-seed-past-64-bits": (lambda: child_seed(2**64 + 5, 0), "seed must be an integer in [-2^63"),
    "ensemble-seed-past-64-bits": (lambda: ensemble(P, [10, 20], 2**64 + 5), "seed must be an integer in [-2^63"),
    "fit_runs_simulated-negative-frequency": (lambda: fit_runs_simulated({1: 0.5, 2: -0.1}, CURVE),
                                              "run curve must map run lengths to nonnegative frequencies"),
    "fit_runs_simulated-empty-curve": (lambda: fit_runs_simulated(CURVE, {}),
                                       "run curve must map run lengths to nonnegative frequencies"),
    # a frequency that is not finite would give a nan or infinite objective, or
    # an infeasible fit after a numpy warning
    "run_curve_objective-nan-frequency": (lambda: run_curve_objective({1: math.nan, 2: 0.5}, {1: 1.0, 2: 1.0},
                                                                      0.5, 0.5, 10),
                                          "run curve must map run lengths to nonnegative frequencies"),
    "run_curve_objective-infinite-frequency": (lambda: run_curve_objective({1: math.inf, 2: 0.5}, {1: 1.0, 2: 1.0},
                                                                           0.5, 0.5, 10),
                                               "run curve must map run lengths to nonnegative frequencies"),
    "fit_runs_simulated-infinite-frequency": (lambda: fit_runs_simulated({1: math.inf, 2: 0.5}, {1: 1.0, 2: 1.0}, 10),
                                              "run curve must map run lengths to nonnegative frequencies"),
    # numpy cannot compare "a" or None with 1
    "fit_runs_simulated-string-run-length": (lambda: fit_runs_simulated({"a": 0.5}, {1: 1.0}, 10),
                                             "run curve must map run lengths to nonnegative frequencies"),
    "fit_runs_simulated-none-run-length": (lambda: fit_runs_simulated({None: 0.5}, {1: 1.0}, 10),
                                           "run curve must map run lengths to nonnegative frequencies"),
    # numpy reads True as the run length 1 and "0.5" as the frequency 0.5,
    # and fails on "x" with its own ValueError
    "fit_runs_simulated-bool-run-length": (lambda: fit_runs_simulated({True: 1.0, 2: 1.0}, {1: 1.0, 2: 1.0}, 10),
                                           "run curve must map run lengths to nonnegative frequencies"),
    "fit_runs_simulated-string-frequency": (lambda: fit_runs_simulated({1: "x"}, {1: 1.0}, 10),
                                            "run curve must map run lengths to nonnegative frequencies"),
    "fit_runs_simulated-numeric-string-frequency": (lambda: fit_runs_simulated({1: "0.5", 2: 0.5}, CURVE),
                                                    "run curve must map run lengths to nonnegative frequencies"),
    "run_curve_objective-numeric-string-frequency": (lambda: run_curve_objective({1: "0.5", 2: 0.5}, CURVE,
                                                                                 0.5, 0.5),
                                                     "run curve must map run lengths to nonnegative frequencies"),
    "run_curve_objective-bool-frequency": (lambda: run_curve_objective({1: True, 2: 0.5}, CURVE, 0.5, 0.5),
                                           "run curve must map run lengths to nonnegative frequencies"),
    # float() of an int past float64 raises OverflowError
    "fit_runs_simulated-frequency-past-float64": (lambda: fit_runs_simulated({1: 10**400, 2: 0.5}, CURVE),
                                                  "run curve must map run lengths to nonnegative frequencies"),
    # the runs sum f, or the stays sum f (m-1), of finite frequencies passes float64
    "fit_runs_simulated-runs-past-float64": (lambda: fit_runs_simulated({1: 1e308, 2: 1e308}, {1: 0.5, 2: 0.5}, 10),
                                             "run curve must map run lengths to nonnegative frequencies"),
    "fit_runs_simulated-stays-past-float64": (lambda: fit_runs_simulated({1: 1e305, 50_000: 1e305}, {1: 0.5, 2: 0.5},
                                                                         100_000),
                                              "run curve must map run lengths to nonnegative frequencies"),
    "run_curve_objective-runs-past-float64": (lambda: run_curve_objective({1: 1e308, 2: 1e308}, {1: 0.5, 2: 0.5},
                                                                          0.5, 0.5, 10),
                                              "run curve must map run lengths to nonnegative frequencies"),
    # both sums fit, but the objective at the fit does not: it was reported as Infinity
    "fit_runs_simulated-objective-past-float64": (lambda: fit_runs_simulated({1: 5e307, 2: 5e307, 3: 5e307},
                                                                             {1: 0.5, 2: 0.5}, 1000),
                                                  "run curves' negative log-likelihood at p11="),
    "run_curve_objective-past-float64": (lambda: run_curve_objective({1: 5e307, 2: 5e307, 3: 5e307}, {1: 0.5, 2: 0.5},
                                                                     0.5, 0.5, 1000),
                                         "run curves' negative log-likelihood at p11=0.5, p22=0.5 passes float64"),
    "RunHistogram-state-2": (lambda: RunHistogram(2, [1], 5), "state must be 0 or 1, got 2"),
    "RunHistogram-bool-state": (lambda: RunHistogram(True, [1], 5), "state must be 0 or 1, got True"),
    "log_run_frequencies-zero-run-length": (lambda: log_run_frequencies(10, [0], 0.5), "run length must be >= 1"),
    "ScatterDataset-unequal-lengths": (lambda: ScatterDataset([1, 2], [0.5]),
                                       "sizes and p_bars must be equal-length"),
    # checked before the lengths 1..max_m are built: 2^40 of them would ask
    # for 8 TiB, and 2^62 is more than numpy can size
    "memoryfree_curve-max_m-2^40": (lambda: memoryfree_curve(10, 0.5, 2**40),
                                    "longest run 1099511627776 outside formula domain"),
    "memoryfree_curve-max_m-2^62": (lambda: memoryfree_curve(10, 0.5, 2**62),
                                    "longest run 4611686018427387904 outside formula domain"),
    # nan would give a size of nan, and an infinite p_bar a size of 0
    "required_n-nan-p_bar": (lambda: required_n(SPEC, math.nan), "p_bar must lie in [0, 1], got nan"),
    "required_n-infinite-p_bar": (lambda: required_n(SPEC, math.inf), "p_bar must lie in [0, 1], got inf"),
    "required_n-minus-infinite-p_bar": (lambda: required_n(SPEC, -math.inf), "p_bar must lie in [0, 1], got -inf"),
    # a study's proportion cannot pass [0, 1], though the unclamped bounds do
    "required_n-p_bar-above-one": (lambda: required_n(SPEC, 2.0), "p_bar must lie in [0, 1], got 2.0"),
    "required_n-p_bar-below-zero": (lambda: required_n(SPEC, -1.0), "p_bar must lie in [0, 1], got -1.0"),
    "required_n-p_bar-one-ulp-from-the-center": (lambda: required_n(FunnelSpec(0.5, 1e150, 1e3),
                                                                    math.nextafter(0.5, 1.0)),
                                                 "p_bar = 0.5000000000000001 is so near the funnel center"),
    # (z nu)^2 would overflow: numpy warns and clamps the band, and Python's z**2 raises OverflowError
    "FunnelSpec-z-nu-past-1.3e154": (lambda: FunnelSpec(0.3, 1000.0, 1e308), "z * nu must be below about 1.3e154"),
    "required_n-z-past-1.3e154": (lambda: required_n(FunnelSpec(0.5, 1.0, 1e155), 0.9),
                                  "z * nu must be below about 1.3e154"),
    # (z nu)^2 would underflow to 0: a band of no width, and a size of 0 at every p_bar
    "required_n-z-nu-1e-400": (lambda: required_n(FunnelSpec(0.5, 1e-200, 1e-200), 0.9),
                               "z * nu must be below about 1.3e154 and above about 2.2e-162"),
    "required_n-z-nu-1e-320": (lambda: required_n(FunnelSpec(0.5, 1e-160, 1e-160), 0.9),
                               "z * nu must be below about 1.3e154 and above about 2.2e-162"),
    # numpy reads "0.5" as 0.5, and fails on "a" with its own ValueError
    "ScatterDataset-string-p_bar": (lambda: ScatterDataset([1], ["a"]), "every p_bar must lie in [0, 1]"),
    "ScatterDataset-numeric-string-p_bar": (lambda: ScatterDataset([1], ["0.5"]), "every p_bar must lie in [0, 1]"),
    "ScatterDataset-none-p_bar": (lambda: ScatterDataset([1], [None]), "every p_bar must lie in [0, 1]"),
    # a scalar that is not a real number: a bool was read as 0 or 1, a one-element
    # array compared as its element, and a str raised a comparison's TypeError
    "MarkovParams-string-p": (lambda: MarkovParams("0.5", 0.5), "p must lie in (0, 1), got '0.5'"),
    "MarkovParams-bool-p1": (lambda: MarkovParams(0.5, 0.5, p1=True), "p1 must lie in [0, 1], got True"),
    "MarkovParams-array-p": (lambda: MarkovParams(np.array([0.5]), 0.5), "p must lie in (0, 1), got array([0.5])"),
    "FunnelSpec-bool-nu": (lambda: FunnelSpec(0.5, True), "nu must lie in (0, inf), got True"),
    "sample_curve-bool-n_min": (lambda: sample_curve(SPEC, True, 10), "n_min must lie in [1, inf), got True"),
    "z_from_level-string-level": (lambda: z_from_level("0.9"), "level must lie in (0, 1), got '0.9'"),
    "estimate_nu-string-pinf": (lambda: estimate_nu(scatter(), "0.5"), "pinf must lie in (0, 1), got '0.5'"),
    "invert_to_pq-string-nu": (lambda: invert_to_pq(0.5, "1"), "nu must lie in [0, inf), got '1'"),
    "required_n-string-p_bar": (lambda: required_n(SPEC, "0.9"), "p_bar must lie in [0, 1], got '0.9'"),
    "run_curve_objective-string-p11": (lambda: run_curve_objective(CURVE, CURVE, "0.5", 0.5),
                                       "p11 must lie in (0, 1), got '0.5'"),
    "run_curve_objective-p22-out-of-range": (lambda: run_curve_objective(CURVE, CURVE, 0.5, 1.0),
                                             "p22 must lie in (0, 1), got 1.0"),
    "fit_scatter-bool-min_p": (lambda: fit_scatter(scatter(), min_p=False), "min_p must lie in [0, 1), got False"),
    # an infinite nu was inverted to (p=nan, q=nan) and reported as infeasible
    "invert_to_pq-infinite-nu": (lambda: invert_to_pq(0.5, math.inf), "nu must lie in [0, inf), got inf"),
}


@pytest.mark.parametrize("case", MESSAGES)
def test_parameter_error_names_the_rule(case):
    call, message = MESSAGES[case]
    with pytest.raises(ParameterError, match="^" + re.escape(message)):
        call()
