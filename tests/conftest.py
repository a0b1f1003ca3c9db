"""Fixtures shared by the test modules."""

import pytest

from twostate import average_and_normalize
from twostate.cli import simulated_histograms


@pytest.fixture
def simulate_run_curves():
    """(params, n, n_seqs, seed) -> the averaged, normalized run curves of
    states A and B over n_seqs simulated chains, as `runs --seeds` builds them."""

    def curves(params, n, n_seqs, seed):
        hists = simulated_histograms(params, n, n_seqs, seed)
        return average_and_normalize(a for a, _ in hists), average_and_normalize(b for _, b in hists)

    return curves
