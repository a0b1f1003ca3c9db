"""Fixtures and helpers shared by the test modules."""

import numpy as np
import pytest

from twostate import STATE_A, average_and_normalize
from twostate.cli import simulated_histograms
from twostate.runs import log_run_frequencies


def run_frequencies(params, n, ms, state):
    """Model run-length frequencies of one state of the chain at lengths
    `ms`, normalized over the full domain 1..n-2."""
    return np.exp(log_run_frequencies(n, ms, params.p if state == STATE_A else params.q))


@pytest.fixture
def simulate_run_curves():
    """(params, n, n_seqs, seed) -> the averaged, normalized run curves of
    states A and B over n_seqs simulated chains, as `runs --seeds` builds them."""

    def curves(params, n, n_seqs, seed):
        hists = simulated_histograms(params, n, n_seqs, seed)
        return average_and_normalize(a for a, _ in hists), average_and_normalize(b for _, b in hists)

    return curves
