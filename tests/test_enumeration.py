"""Exact-enumeration oracle: every closed form against the chain itself.

`enumerate_chain` lists all 2^n state sequences of a short chain with their
exact rational probabilities, so each expectation below is a finite sum,
taken in integers over one common denominator and rounded once.  The closed
forms are float computations, so they are compared to 1e-13 relative.
"""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from twostate import (
    STATE_A,
    STATE_B,
    MarkovParams,
    mean_frequency,
    memoryfree_curve,
    n_step_self_transitions,
    state_probability,
)
from twostate.runs import _mean_stays_per_run, log_run_frequencies

# (p, q, n): persistent, anti-persistent, memory-free and strongly persistent
CASES = [(F(9, 10), F(3, 5), 10), (F(1, 5), F(1, 3), 9), (F(1, 2), F(1, 2), 8), (F(7, 8), F(9, 10), 12)]


def exactly(value):
    """`value`, a Fraction or a list of them, rounded once, to compare to 1e-13 relative."""
    return pytest.approx([float(x) for x in value] if isinstance(value, list) else float(value), rel=1e-13, abs=0)


def enumerate_chain(p, q, n, p1):
    """Yield every state tuple (1 = A, 0 = B) of length n <= 12 with its
    probability under the chain that starts in A with probability p1 and
    stays in A with probability p and in B with q."""
    assert 1 <= n <= 12
    stay = {STATE_A: p, STATE_B: q}
    chains = [((STATE_A,), p1), ((STATE_B,), 1 - p1)]
    for _ in range(n - 1):
        chains = [(states + (x,), prob * (stay[states[-1]] if x == states[-1] else 1 - stay[states[-1]]))
                  for states, prob in chains for x in (STATE_A, STATE_B)]
    yield from chains


def integer_weights(p, q, n, p1):
    """`enumerate_chain` over one common denominator: the (states, weight)
    pairs, with each probability weight / denominator, and the denominator."""
    chains = list(enumerate_chain(p, q, n, p1))
    den = math.lcm(*(prob.denominator for _, prob in chains))
    return [(states, prob.numerator * (den // prob.denominator)) for states, prob in chains], den


def probability(chains, den, event):
    """The exact probability that `event(states)` holds."""
    return F(sum(weight for states, weight in chains if event(states)), den)


def stationary(p, q):
    return (1 - q) / (2 - p - q)


def params_of(p, q, p1):
    return MarkovParams(float(p), float(q), p1=float(p1))


def interior_run_counts(p, q, n):
    """{state: {m: expected number of runs of length m that touch neither
    end}} for the stationary chain of length n."""
    counts = {STATE_A: dict.fromkeys(range(1, n - 1), 0), STATE_B: dict.fromkeys(range(1, n - 1), 0)}
    chains, den = integer_weights(p, q, n, stationary(p, q))
    for states, weight in chains:
        runs = [(state, len(list(group))) for state, group in itertools.groupby(states)]
        for state, m in runs[1:-1]:
            counts[state][m] += weight
    return {state: {m: F(c, den) for m, c in by_m.items()} for state, by_m in counts.items()}


def test_probabilities_sum_to_one():
    for p, q, n in CASES:
        chains = list(enumerate_chain(p, q, n, F(1, 3)))
        assert len(chains) == 2**n
        assert sum(prob for _, prob in chains) == 1


@pytest.mark.parametrize("p, q, n", CASES)
@pytest.mark.parametrize("p1", [F(0), F(1, 3), F(1), None], ids=["p1=0", "p1=1/3", "p1=1", "stationary"])
def test_state_probabilities_and_mean_frequency(p, q, n, p1):
    p1 = stationary(p, q) if p1 is None else p1
    chains, den = integer_weights(p, q, n, p1)
    params = params_of(p, q, p1)
    for k in range(1, n + 1):
        in_a = probability(chains, den, lambda states: states[k - 1] == STATE_A)
        assert state_probability(params, k) == exactly(in_a)
        mean = F(sum(weight * sum(states[:k]) for states, weight in chains), k * den)
        assert mean_frequency(params, k) == exactly(mean)


@pytest.mark.parametrize("p, q, n", CASES)
def test_n_step_self_transitions(p, q, n):
    # conditioned on the first state, so any p1 strictly inside (0, 1) serves
    p1 = F(1, 3)
    chains, den = integer_weights(p, q, n, p1)
    params = params_of(p, q, p1)
    for k in range(n):
        from_a = probability(chains, den, lambda states: states[0] == STATE_A and states[k] == STATE_A) / p1
        from_b = probability(chains, den, lambda states: states[0] == STATE_B and states[k] == STATE_A) / (1 - p1)
        assert list(n_step_self_transitions(params, k)) == exactly([from_a, from_b])


@pytest.mark.parametrize("p, q, n", CASES)
def test_run_frequencies_and_mean_stays_match_interior_runs(p, q, n):
    counts = interior_run_counts(p, q, n)
    for state, stay in ((STATE_A, p), (STATE_B, q)):
        total = sum(counts[state].values())
        ms = np.arange(1, n - 1)
        assert list(np.exp(log_run_frequencies(n, ms, float(stay)))) == exactly([counts[state][m] / total for m in ms])
        mean_stays = sum((m - 1) * c for m, c in counts[state].items()) / total
        assert _mean_stays_per_run(n, float(stay)) == exactly(mean_stays)


@pytest.mark.parametrize("p_bar, n", [(p, n) for p, _, n in CASES])
def test_memoryfree_curve_is_the_chain_at_q_one_minus_p_bar(p_bar, n):
    counts = interior_run_counts(p_bar, 1 - p_bar, n)
    both = {m: counts[STATE_A][m] + counts[STATE_B][m] for m in range(1, n - 1)}
    total = sum(both.values())
    curve = memoryfree_curve(n, float(p_bar), n - 2)
    assert list(curve) == list(both)
    assert list(curve.values()) == exactly([c / total for c in both.values()])
    assert math.fsum(curve.values()) == exactly(F(1))
