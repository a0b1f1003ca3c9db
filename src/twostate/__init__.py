"""Two-state Markov chains: closed-form statistics, simulation, run-length
analysis, funnel-plot confidence machinery, and parameter estimation."""

from .chain import (
    DerivedParams,
    MarkovParams,
    ParameterError,
    derive,
    mean_frequency,
    n_step_self_transitions,
    state_probability,
    std_of_proportion,
    transition_matrix,
)
from .simulate import (
    BinarySequence,
    ScatterDataset,
    child_seed,
    ensemble,
    generate,
)
from .runs import (
    STATE_A,
    STATE_B,
    RunHistogram,
    average_and_normalize,
    extract_runs,
    memoryfree_curve,
)
from .funnel import (
    FunnelSpec,
    coverage,
    required_n,
    sample_curve,
    z_from_level,
)
from .estimate import (
    InfeasibleParametersError,
    RunFit,
    ScatterFit,
    estimate_center,
    estimate_nu,
    fit_runs_simulated,
    fit_scatter,
    invert_to_pq,
    run_curve_objective,
)
from .dataio import (
    DataFormatError,
    parse_curve,
    parse_sequence,
    parse_studies,
)

__version__ = "0.7.0"

__all__ = [
    "BinarySequence",
    "DataFormatError",
    "DerivedParams",
    "FunnelSpec",
    "InfeasibleParametersError",
    "MarkovParams",
    "ParameterError",
    "RunFit",
    "RunHistogram",
    "STATE_A",
    "STATE_B",
    "ScatterDataset",
    "ScatterFit",
    "average_and_normalize",
    "child_seed",
    "coverage",
    "derive",
    "ensemble",
    "estimate_center",
    "estimate_nu",
    "extract_runs",
    "fit_runs_simulated",
    "fit_scatter",
    "generate",
    "invert_to_pq",
    "mean_frequency",
    "memoryfree_curve",
    "n_step_self_transitions",
    "parse_curve",
    "parse_sequence",
    "parse_studies",
    "required_n",
    "run_curve_objective",
    "sample_curve",
    "state_probability",
    "std_of_proportion",
    "transition_matrix",
    "z_from_level",
]
