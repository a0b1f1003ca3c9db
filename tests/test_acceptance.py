"""Acceptance suite: one test per release criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print.  Tolerances are fixed here, not tuned at runtime.
"""

import json

import numpy as np
import pytest

from twostate import (
    MarkovParams,
    child_seed,
    derive,
    ensemble,
    extract_runs,
    fit_runs_mle,
    fit_runs_simulated,
    fit_scatter,
    generate,
    invert_to_pq,
    n_step_self_transitions,
    required_n,
    average_and_normalize,
)
from twostate.cli import main
from twostate.funnel import FunnelSpec, coverage

from conftest import run_frequencies

GRID5 = (0.12, 0.25, 0.5, 0.65, 0.88)


def _memoryfree_runs(n, p_bar, m):
    """The paper's expected count of length-m runs (both states) in a
    memory-free sequence of length n with state-A frequency p_bar."""
    return (n - m - 1) * (p_bar**2 * (1.0 - p_bar) ** m + (1.0 - p_bar) ** 2 * p_bar**m)


def _count(hist, m):
    """Number of runs of length m in a histogram; 0 past its last bin."""
    return int(hist.counts[m - 1]) if m <= hist.counts.size else 0


def _report(num, ok, detail):
    print(f"[acceptance] criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_parameter_table():
    cases = [
        # (p, q, nu_expected, nu_tol, pinf_expected, pinf_tol)
        (0.12, 0.12, 0.369, 0.005, 0.5, 1e-9),
        (0.88, 0.50, 1.492, 0.005, 0.806, 0.005),
        (0.64, 0.50, 1.151, 0.005, 0.581, 0.005),
    ]
    rows = []
    ok = True
    for p, q, nu_exp, nu_tol, pinf_exp, pinf_tol in cases:
        d = derive(MarkovParams(p, q))
        ok &= abs(d.nu - nu_exp) <= nu_tol and abs(d.pinf - pinf_exp) <= pinf_tol
        rows.append(f"({p},{q})->nu={d.nu:.4f},pinf={d.pinf:.4f}")
    _report(1, ok, "; ".join(rows))


def test_criterion_2_required_n_coefficient():
    spec = FunnelSpec(0.58, 1.15, 1.96)
    p_bar = 0.7
    coefficient = required_n(spec, p_bar) * (p_bar - 0.58) ** 2
    _report(2, abs(coefficient - 1.24) <= 0.01, f"coefficient={coefficient:.4f} (target 1.24±0.01)")


def test_criterion_3_funnel_calibration():
    rng = np.random.default_rng(20_260_811)
    sizes = np.round(np.exp(rng.uniform(np.log(20), np.log(10**4), 10**4))).astype(int).tolist()
    results = []
    ok = True
    for i, p in enumerate((0.12, 0.5, 0.88)):
        for j, q in enumerate((0.12, 0.5, 0.88)):
            params = MarkovParams(p, q)
            d = derive(params)
            ds = ensemble(params, sizes, 9_000 + 10 * i + j)
            cov = coverage(ds, FunnelSpec(d.pinf, d.nu, 1.96))
            ok &= 0.93 <= cov <= 0.97
            results.append(f"({p},{q})={cov:.3f}")
    _report(3, ok, "coverage " + " ".join(results))


def test_criterion_4_run_length_behavior():
    n, seeds = 10**4, 10
    # (a) memory-free counts against the closed-form expectation
    hists, p_bars = [], []
    for i in range(seeds):
        seq = generate(MarkovParams(0.5, 0.5), n, 8_400 + i)
        p_bars.append(seq.frequency)
        hists.append(extract_runs(seq))
    bands_ok = True
    m, checked = 1, 0
    while True:
        a_m = float(np.mean([_memoryfree_runs(n, pb, m) for pb in p_bars]))
        if a_m < 5:
            break
        observed = float(np.mean([_count(ha, m) + _count(hb, m) for ha, hb in hists]))
        bands_ok &= abs(observed - a_m) <= 3 * np.sqrt(a_m)
        m += 1
        checked += 1
    # (b) mean run length strictly ordered by persistence
    means = {}
    for p in (0.88, 0.5, 0.12):
        lengths = []
        for i in range(seeds):
            ha, hb = extract_runs(generate(MarkovParams(p, p), n, 8_500 + i))
            lengths.append(n / (ha.n_runs + hb.n_runs))
        means[p] = float(np.mean(lengths))
    order_ok = means[0.88] > means[0.5] > means[0.12]
    _report(
        4,
        bands_ok and order_ok and checked >= 5,
        f"{checked} bins inside 3*sqrt(a_m); mean lengths "
        f"{means[0.88]:.2f} > {means[0.5]:.2f} > {means[0.12]:.2f}",
    )


def test_criterion_5_estimator_round_trip():
    ds = ensemble(MarkovParams(0.88, 0.50), [1000] * 10**4, 7_501)
    fit = fit_scatter(ds)
    fit_ok = abs(fit.p_hat - 0.88) <= 0.02 and abs(fit.q_hat - 0.50) <= 0.02

    identity_ok = True
    worst = 0.0
    for p in np.linspace(0.05, 0.95, 19):
        for q in np.linspace(0.05, 0.95, 19):
            d = derive(MarkovParams(p, q))
            d2 = derive(MarkovParams(*invert_to_pq(d.pinf, d.nu)))
            err = max(abs(d2.pinf - d.pinf), abs(d2.nu - d.nu))
            worst = max(worst, err)
            identity_ok &= err <= 1e-9
    _report(
        5,
        fit_ok and identity_ok,
        f"p_hat={fit.p_hat:.4f}, q_hat={fit.q_hat:.4f}; worst identity error {worst:.2e}",
    )


def test_criterion_6_run_fit_round_trip(tmp_path, capsys):
    pairs = [(0.25, 0.65), (0.80, 0.55), (0.60, 0.65)]
    ok = True
    details = []
    for k, (p11, p22) in enumerate(pairs):
        params = MarkovParams(p11, p22)
        ms = np.arange(1, 151)
        for state, name in ((1, "on"), (0, "off")):
            freqs = run_frequencies(params, 10_000, ms, state)
            lines = ["m,frequency"] + [f"{m},{f:.12g}" for m, f in zip(ms, freqs)]
            (tmp_path / f"{name}{k}.csv").write_text("\n".join(lines) + "\n")
        assert main([
            "fit-runs",
            "--on", str(tmp_path / f"on{k}.csv"),
            "--off", str(tmp_path / f"off{k}.csv"),
        ]) == 0
        rf = json.loads(capsys.readouterr().out)["run_fit"]
        ok &= abs(rf["p11_hat"] - p11) <= 0.02 and abs(rf["p22_hat"] - p22) <= 0.02

        # both fit routes on the same simulated data agree within 0.02
        seq_hists = [extract_runs(generate(params, 10**4, child_seed(6_000 + k, i))) for i in range(10)]
        ls_fit = fit_runs_simulated(
            average_and_normalize([ha for ha, _ in seq_hists]),
            average_and_normalize([hb for _, hb in seq_hists]),
        )
        on_all = sum(ha.occupied_length for ha, _ in seq_hists)
        on_runs = sum(ha.n_runs for ha, _ in seq_hists)
        off_all = sum(hb.occupied_length for _, hb in seq_hists)
        off_runs = sum(hb.n_runs for _, hb in seq_hists)
        mle_p11 = (on_all - on_runs) / on_all
        mle_p22 = (off_all - off_runs) / off_all
        ok &= abs(ls_fit.p11_hat - mle_p11) <= 0.02 and abs(ls_fit.p22_hat - mle_p22) <= 0.02
        details.append(
            f"({p11},{p22})->({rf['p11_hat']:.2f},{rf['p22_hat']:.2f}) "
            f"mle=({mle_p11:.3f},{mle_p22:.3f}) ls=({ls_fit.p11_hat:.2f},{ls_fit.p22_hat:.2f})"
        )
    _report(6, ok, "; ".join(details))


def test_criterion_7_n_step_matrix_oracle():
    worst = 0.0
    for p in GRID5:
        for q in GRID5:
            matrix = np.array([[p, 1.0 - q], [1.0 - p, q]])
            power = np.eye(2)
            for n in range(101):
                pn, qn = n_step_self_transitions(MarkovParams(p, q), n)
                worst = max(worst, abs(pn - power[0, 0]), abs(qn - power[0, 1]))
                power = matrix @ power
    _report(7, worst <= 1e-10, f"worst |closed form - matrix power| = {worst:.2e}")


def test_criterion_8_determinism(tmp_path):
    # byte-identical sequence files across consecutive runs
    seq_argv = ["simulate", "--p", "0.88", "--q", "0.5", "--n", "20000", "--seed", "5", "--count", "2"]
    assert main(seq_argv + ["--out", str(tmp_path / "a.txt")]) == 0
    assert main(seq_argv + ["--out", str(tmp_path / "b.txt")]) == 0
    seq_ok = all(
        (tmp_path / f"a_{i:03d}.txt").read_bytes() == (tmp_path / f"b_{i:03d}.txt").read_bytes()
        for i in range(2)
    )

    # byte-identical reports across consecutive runs (seeded MC inside)
    params = MarkovParams(0.60, 0.65)
    ms = np.arange(1, 101)
    for state, name in ((1, "on"), (0, "off")):
        freqs = run_frequencies(params, 10_000, ms, state)
        (tmp_path / f"{name}.csv").write_text(
            "\n".join(["m,frequency"] + [f"{m},{f:.12g}" for m, f in zip(ms, freqs)]) + "\n"
        )
    rep_argv = [
        "fit-runs", "--on", str(tmp_path / "on.csv"), "--off", str(tmp_path / "off.csv"),
        "--confirm-seeds", "3", "--seed", "12",
    ]
    assert main(rep_argv + ["--out", str(tmp_path / "r1.json")]) == 0
    assert main(rep_argv + ["--out", str(tmp_path / "r2.json")]) == 0
    rep_ok = (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    # a member's result must not depend on the members after it
    sizes = [64, 128, 256, 512, 1024]
    full = ensemble(params, sizes, 99)
    prefix = ensemble(params, sizes[:3], 99)
    prefix_ok = np.array_equal(prefix.p_bars, full.p_bars[:3])

    _report(8, seq_ok and rep_ok and prefix_ok, "sequence files, reports and ensemble prefixes all match")
