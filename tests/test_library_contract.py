"""A generative argument contract over the library: every public callable of
`chain`, `funnel`, `estimate` and `runs` that takes a scalar, called with
scalars drawn into each of its scalar positions.

Whatever the scalars, the call returns or raises one of the package's three
errors, and pyproject's "error" filter fails a call that warns.  The pool
holds edge floats, ints past int64, bools, strs, None, 0-d and one-element
arrays, numpy scalars and complex numbers.  Record arguments (`MarkovParams`,
`FunnelSpec`, `ScatterDataset`, run-curve dicts) are valid ones, as a record
of another type may raise `TypeError`.  No int in the pool lies between 10
and 2^63 - 1, and only the closed forms draw 2^63 - 1, so no drawn size
allocates or loops at scale.
"""

import functools
import math
import sys

import numpy as np
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from twostate import (
    DataFormatError,
    FunnelSpec,
    InfeasibleParametersError,
    MarkovParams,
    ParameterError,
    RunHistogram,
    ScatterDataset,
    estimate_nu,
    fit_runs_simulated,
    fit_scatter,
    invert_to_pq,
    mean_frequency,
    memoryfree_curve,
    n_step_self_transitions,
    required_n,
    run_curve_objective,
    sample_curve,
    state_probability,
    std_of_proportion,
    z_from_level,
)
from twostate.runs import log_run_frequencies

P = MarkovParams(0.7, 0.4)
SPEC = FunnelSpec(0.5, 1.0)
CURVE = {1: 0.5, 2: 0.3, 3: 0.2}
DATA = ScatterDataset([50, 120, 300, 80, 200], [0.56, 0.61, 0.58, 0.65, 0.6])

SCALARS = [
    0.0, -0.0, 5e-324, sys.float_info.min, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), -1.0,
    1e154, 1e308, math.inf, -math.inf, math.nan,
    0, 1, 2, 3, 10, -1, 2**63, 2**64, -(2**63) - 1, 10**400,
    True, False, "0.5", "1", "a", "", None,
    np.array(0.5), np.array([0.5]), np.array([]),
    np.float64(0.5), np.float64(math.nan), np.float32(0.5), np.float32(1.0), np.float16(0.25),
    np.int64(3), np.uint64(2**64 - 1), np.int8(-1), np.bool_(True),
    0.5 + 0j, 1j, np.complex128(0.5),
]


def values(valid):
    """A position's values: each valid one repeated, so that together they
    are drawn two times in three, then the pool."""
    return st.sampled_from(valid * max(1, round(2 * len(SCALARS) / len(valid))) + SCALARS)


PROBABILITY = values([0.3, 0.5, 0.8])
POSITIVE = values([0.5, 1.0, 1.96])
# the closed forms, whose cost does not grow with their size
LENGTH = values([4, 10, 200, 10_000, 2**63 - 1])

CALLS = {
    "MarkovParams": (MarkovParams, {"p": PROBABILITY, "q": PROBABILITY, "p1": values([None, 0.0, 0.5, 1.0])}),
    "state_probability": (functools.partial(state_probability, P), {"n": LENGTH}),
    "mean_frequency": (functools.partial(mean_frequency, P), {"n": LENGTH}),
    "n_step_self_transitions": (functools.partial(n_step_self_transitions, P), {"n": LENGTH}),
    "std_of_proportion": (functools.partial(std_of_proportion, P), {"n": LENGTH}),
    "FunnelSpec": (FunnelSpec, {"pinf": PROBABILITY, "nu": POSITIVE, "z": POSITIVE}),
    "z_from_level": (z_from_level, {"level": values([0.95, 0.5])}),
    "required_n": (functools.partial(required_n, SPEC), {"p_bar": values([0.1, 0.6, 1.0])}),
    "sample_curve": (functools.partial(sample_curve, SPEC),
                     {"n_min": values([1, 10.0]), "n_max": values([100, 1e5]), "points": values([2, 50])}),
    "estimate_nu": (functools.partial(estimate_nu, DATA), {"pinf": PROBABILITY}),
    "invert_to_pq": (invert_to_pq, {"pinf": PROBABILITY, "nu": values([0.5, 1.0, 1.3])}),
    "fit_scatter": (functools.partial(fit_scatter, DATA),
                    {"level": values([0.95, 0.5]), "min_p": values([None, 0.2, 0.9]),
                     "min_q": values([None, 0.2, 0.9])}),
    "log_run_frequencies": (functools.partial(log_run_frequencies, ms=np.arange(1, 4)),
                            {"n": LENGTH, "stay": PROBABILITY}),
    "memoryfree_curve": (memoryfree_curve, {"n": LENGTH, "p_bar": PROBABILITY, "max_m": values([3, 8])}),
    "run_curve_objective": (functools.partial(run_curve_objective, CURVE, CURVE),
                            {"p11": PROBABILITY, "p22": PROBABILITY, "length": LENGTH}),
    "fit_runs_simulated": (functools.partial(fit_runs_simulated, CURVE, CURVE), {"length": LENGTH}),
    "RunHistogram": (functools.partial(RunHistogram, counts=[1, 2]),
                     {"state": values([0, 1]), "total_length": values([5, 10])}),
}


@st.composite
def calls(draw):
    name = draw(st.sampled_from(sorted(CALLS)))
    function, positions = CALLS[name]
    return name, function, {position: draw(scalars) for position, scalars in positions.items()}


@seed(20261020)
@settings(max_examples=600, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(call=calls())
def test_a_call_returns_or_raises_a_package_error(call):
    _, function, arguments = call
    try:
        function(**arguments)
    except (ParameterError, InfeasibleParametersError, DataFormatError):
        pass
