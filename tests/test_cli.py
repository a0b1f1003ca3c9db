"""Command-line behavior: outputs, determinism, exit codes."""

import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import twostate
from twostate import (
    InfeasibleParametersError,
    MarkovParams,
    ParameterError,
    average_and_normalize,
    child_seed,
    cli,
    estimate,
    extract_runs,
    fit_runs_simulated,
    generate,
    simulate,
)
from twostate.cli import build_parser, main
from twostate.dataio import parse_curve
from twostate.estimate import LOG_STAY_TOLERANCE

from conftest import run_frequencies

FIXTURE = str(pathlib.Path(__file__).parent / "data" / "handedness_synthetic.csv")


def assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def write_model_curves(tmp_path, p11, p22, n=10_000, max_m=150):
    params = MarkovParams(p11, p22)
    ms = np.arange(1, max_m + 1)
    paths = []
    for state, name in ((1, "on"), (0, "off")):
        freqs = run_frequencies(params, n, ms, state)
        lines = ["m,frequency"] + [f"{m},{f:.12g}" for m, f in zip(ms, freqs)]
        path = tmp_path / f"{name}.csv"
        path.write_text("\n".join(lines) + "\n")
        paths.append(str(path))
    return paths


class TestSimulate:
    def test_identical_seed_identical_file(self, tmp_path):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        argv = ["simulate", "--p", "0.88", "--q", "0.5", "--n", "5000", "--seed", "42"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_count_writes_indexed_files(self, tmp_path):
        out = tmp_path / "seq.txt"
        argv = [
            "simulate", "--p", "0.5", "--q", "0.5", "--n", "100",
            "--seed", "1", "--count", "3", "--out", str(out),
        ]
        assert main(argv) == 0
        files = sorted(tmp_path.iterdir())
        assert [f.name for f in files] == ["seq_000.txt", "seq_001.txt", "seq_002.txt"]
        assert len(set(f.read_text() for f in files)) == 3

    def test_stdout_matches_library(self, capsys):
        assert main(["simulate", "--p", "0.65", "--q", "0.25", "--n", "30", "--seed", "9"]) == 0
        seq = generate(MarkovParams(0.65, 0.25), 30, 9)
        expected = "".join(str(int(s)) for s in seq.states)
        assert capsys.readouterr().out.strip() == expected

    @pytest.mark.parametrize("n", [simulate._SLICE + 3, 1])
    def test_file_and_stdout_bytes_match(self, tmp_path, capsysbinary, n):
        out = tmp_path / "seq.txt"
        argv = ["simulate", "--p", "0.88", "--q", "0.5", "--n", str(n), "--seed", "6"]
        assert main(argv + ["--out", str(out)]) == 0
        assert main(argv) == 0
        expected = (generate(MarkovParams(0.88, 0.5), n, 6).states + ord("0")).tobytes() + b"\n"
        assert out.read_bytes() == capsysbinary.readouterr().out == expected

    @pytest.mark.parametrize("count", [1, 3])
    def test_stdout_bytes_are_the_sequence_files(self, capsysbinary, count):
        argv = ["simulate", "--p", "0.7", "--q", "0.4", "--n", "1001", "--seed", "5", "--count", str(count)]
        assert main(argv) == 0
        seeds = [5] if count == 1 else [twostate.child_seed(5, i) for i in range(count)]
        expected = b"".join((generate(MarkovParams(0.7, 0.4), 1001, s).states + ord("0")).tobytes() + b"\n"
                            for s in seeds)
        assert capsysbinary.readouterr().out == expected

    def test_text_only_stdout_gets_the_text(self, capsysbinary):
        argv = ["simulate", "--p", "0.7", "--q", "0.4", "--n", "1001", "--seed", "5", "--count", "3"]
        assert main(argv) == 0
        with contextlib.redirect_stdout(io.StringIO()) as text:
            assert main(argv) == 0
        assert text.getvalue().encode() == capsysbinary.readouterr().out

    def test_memory_printed_is_the_states_and_the_text(self, monkeypatch):
        # the state array and its n + 1 bytes of text, written to stdout's
        # buffer as they are: about 2.00 B/step traced, where a str of the
        # text and stdout's encoding of it took 3.00
        n = 3 * 10**6
        argv = ["simulate", "--p", "0.88", "--q", "0.5", "--n", str(n), "--seed", "1"]
        with open(os.devnull, "w") as null:
            monkeypatch.setattr(sys, "stdout", null)
            assert main(argv) == 0  # the first call imports what the command needs
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2.25 * n

    def test_env_var_default_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TWOSTATE_SEED", "777")
        assert main(["simulate", "--p", "0.5", "--q", "0.5", "--n", "40"]) == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("TWOSTATE_SEED")
        assert main(["simulate", "--p", "0.5", "--q", "0.5", "--n", "40", "--seed", "777"]) == 0
        assert capsys.readouterr().out == with_env


class TestRuns:
    def test_simulated_curves_and_reference(self, tmp_path):
        on, off, ref = (tmp_path / x for x in ("on.csv", "off.csv", "ref.csv"))
        argv = [
            "runs", "--p", "0.5", "--q", "0.5", "--n", "5000", "--seeds", "10",
            "--seed", "3", "--out-on", str(on), "--out-off", str(off), "--reference", str(ref),
        ]
        assert main(argv) == 0
        on_curve, ref_curve = parse_curve(on), parse_curve(ref)
        assert sum(on_curve.values()) == pytest.approx(1.0, abs=1e-6)
        # memory-free data should hug the reference on the first bins
        for m in (1, 2, 3):
            assert on_curve[m] == pytest.approx(ref_curve[m], rel=0.1)

    @pytest.mark.parametrize(
        "argv, sha256",
        [
            ("--p 0.88 --q 0.5 --n 10000 --seeds 3 --seed 7",
             "da8c59ae301045af35a0b2a749f8d90d9ebb9db5078565ca339b3ff138f6f3f4"),
            ("--p 0.93 --q 0.2 --n 100000 --seeds 2 --seed 1",
             "cbf64d6dfc80133f6700796e16ddf7d54b26d48556868f3715c0d0d152c3394a"),
            ("--p 0.999 --q 0.1 --n 5000 --seeds 4 --seed 2",
             "fcd51752852639501345d8822a5f6364226994bcb216896dd0d3dd93ee311010"),
        ],
        ids=["seed-7", "seed-1", "seed-2"],
    )
    def test_reference_bytes_pinned(self, tmp_path, argv, sha256):
        on, off, ref = (tmp_path / x for x in ("on.csv", "off.csv", "ref.csv"))
        outputs = ["--out-on", str(on), "--out-off", str(off), "--reference", str(ref)]
        assert main(["runs", *argv.split(), *outputs]) == 0
        assert hashlib.sha256(ref.read_bytes()).hexdigest() == sha256

    def test_input_file_roundtrip(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("1101000110\n")
        assert main(["runs", "--input", str(seq_file)]) == 0
        out = capsys.readouterr().out
        assert "state A" in out and "m,frequency" in out

    @pytest.mark.parametrize("name, message", [
        ("missing.txt", "[Errno 2] No such file or directory"),
        ("", "[Errno 21] Is a directory"),
    ], ids=["missing", "directory"])
    def test_unreadable_input_is_one_line_data_error(self, tmp_path, capsys, name, message):
        path = tmp_path / name
        assert main(["runs", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}: '{path}'\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_piped_input_gives_the_file_curves(self, tmp_path, capsys):
        # a pipe has no size to read by, and 200 kB is more than its buffer holds
        seq_file = tmp_path / "seq.txt"
        assert main(["simulate", "--p", "0.8", "--q", "0.55", "--n", "200000", "--seed", "3",
                     "--out", str(seq_file)]) == 0
        assert main(["runs", "--input", str(seq_file)]) == 0
        result = subprocess.run([sys.executable, "-m", "twostate", "runs", "--input", "/dev/stdin"],
                                input=seq_file.read_bytes(), capture_output=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.decode() == capsys.readouterr().out

    def test_alphabet_input(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("on on off on off off on\n")
        assert main(["runs", "--input", str(seq_file), "--alphabet", "on,off"]) == 0

    @pytest.mark.parametrize("alphabet", ["A,", ",B", "A B,B", "A, B", "A,B\t", ""])
    def test_alphabet_symbol_must_be_one_token(self, tmp_path, capsys, alphabet):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("A B A\n")
        out = tmp_path / "on.csv"
        assert main(["runs", "--input", str(seq_file), "--alphabet", alphabet, "--out-on", str(out)]) == 1
        assert "--alphabet" in capsys.readouterr().err
        assert not out.exists()

    def test_conflicting_flags(self, tmp_path):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("0101\n")
        assert main(["runs", "--input", str(seq_file), "--p", "0.5", "--q", "0.5", "--n", "10"]) == 1

    def test_single_state_input_is_data_error(self, tmp_path):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("11111111\n")
        assert main(["runs", "--input", str(seq_file)]) == 2

    def test_reference_outside_formula_domain_writes_nothing(self, tmp_path, capsys):
        # the B run of length 9 exceeds n - 2 = 8, the reference formula's domain
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("0000000001\n")
        on, off, ref = (tmp_path / x for x in ("on.csv", "off.csv", "ref.csv"))
        argv = ["runs", "--input", str(seq_file), "--reference", str(ref)]
        assert main(argv + ["--out-on", str(on), "--out-off", str(off)]) == 2
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 2
        assert not any(path.exists() for path in (on, off, ref))

    def test_unwritable_output_is_named_and_nothing_written(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_text("0110100\n")
        on, ref = tmp_path / "on.csv", tmp_path / "nodir" / "ref.csv"
        assert main(["runs", "--input", str(seq_file), "--out-on", str(on), "--reference", str(ref)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: [Errno 2] No such file or directory: '{ref}'\n"
        assert not on.exists()

    @pytest.mark.parametrize("flag, printed", [("--out-on", "off"), ("--out-off", "on")])
    def test_curve_without_a_path_is_printed(self, tmp_path, capsysbinary, flag, printed):
        argv = ["runs", "--p", "0.8", "--q", "0.5", "--n", "1000", "--seeds", "2", "--seed", "1"]
        both = {"on": tmp_path / "on.csv", "off": tmp_path / "off.csv"}
        assert main(argv + ["--out-on", str(both["on"]), "--out-off", str(both["off"])]) == 0
        written = tmp_path / "written.csv"
        assert main(argv + [flag, str(written)]) == 0
        title = {"on": b"# state A (on) runs\n", "off": b"# state B (off) runs\n"}[printed]
        assert capsysbinary.readouterr().out == title + both[printed].read_bytes()
        assert written.read_bytes() == both[{"on": "off", "off": "on"}[printed]].read_bytes()

    def test_whitespace_only_input_is_data_error(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_bytes(b" \n\t\r\n")
        assert main(["runs", "--input", str(seq_file)]) == 2
        assert capsys.readouterr().err == "error: sequence file contains no symbols\n"

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        seq_file = tmp_path / "seq.txt"
        seq_file.write_bytes(b"01\xff0\n")
        on, off = tmp_path / "on.csv", tmp_path / "off.csv"
        assert main(["runs", "--input", str(seq_file), "--out-on", str(on), "--out-off", str(off)]) == 2
        assert_one_error_line(capsys)
        assert not on.exists() and not off.exists()


class TestFunnel:
    def test_captivity_curve_satisfies_inverse_law(self, capsys):
        assert main(["funnel", "--pinf", "0.58", "--nu", "1.15", "--points", "50"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(rows) == 50
        for row in rows:
            n, lower, upper = map(float, row.split(","))
            for bound in (lower, upper):
                if 0.0 < bound < 1.0:  # clamped samples fall off the curve
                    assert n * (bound - 0.58) ** 2 == pytest.approx(1.24, abs=0.01)

    def test_deterministic_output_file(self, tmp_path):
        out1, out2 = tmp_path / "f1.csv", tmp_path / "f2.csv"
        argv = ["funnel", "--pinf", "0.5", "--nu", "1.0"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestFitScatter:
    def test_bundled_fixture_recovers_captivity_parameters(self, capsys):
        assert main(["fit-scatter", "--studies", FIXTURE]) == 0
        fit = json.loads(capsys.readouterr().out)["scatter_fit"]
        assert fit["p_hat"] == pytest.approx(0.64, abs=0.02)
        assert fit["q_hat"] == pytest.approx(0.50, abs=0.02)
        assert fit["coverage_achieved"] >= 0.95

    def test_constraint_flags(self, capsys):
        assert main(["fit-scatter", "--studies", FIXTURE, "--min-p", "0.5", "--min-q", "0.5"]) == 0
        fit = json.loads(capsys.readouterr().out)["scatter_fit"]
        assert fit["p_hat"] >= 0.5 and fit["q_hat"] >= 0.5

    def test_report_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["fit-scatter", "--studies", FIXTURE, "--out", str(out1)]) == 0
        assert main(["fit-scatter", "--studies", FIXTURE, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_file_is_data_error(self):
        assert main(["fit-scatter", "--studies", "/no/such/file.csv"]) == 2

    @pytest.mark.parametrize("command", ["fit-scatter", "analyze"])
    def test_non_utf8_studies_is_data_error(self, tmp_path, capsys, command):
        studies = tmp_path / "studies.csv"
        studies.write_bytes(pathlib.Path(FIXTURE).read_bytes() + b"s\xe9,100,0.5\n")
        out = tmp_path / "report.json"
        assert main([command, "--studies", str(studies), "--out", str(out)]) == 2
        assert_one_error_line(capsys)
        assert not out.exists()

    def test_degenerate_dataset_is_infeasible(self, tmp_path):
        rows = ["study_id,n,p_bar"] + [f"s{i},100,0.5" for i in range(25)]
        path = tmp_path / "flat.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["fit-scatter", "--studies", str(path)]) == 3


class TestFitRuns:
    def test_recovers_synthetic_pair(self, tmp_path, capsys):
        on, off = write_model_curves(tmp_path, 0.25, 0.65)
        assert main(["fit-runs", "--on", on, "--off", off]) == 0
        fit = json.loads(capsys.readouterr().out)["run_fit"]
        assert fit["p11_hat"] == pytest.approx(0.25, abs=0.02)
        assert fit["p22_hat"] == pytest.approx(0.65, abs=0.02)

    def test_confirmation_block(self, tmp_path, capsys):
        on, off = write_model_curves(tmp_path, 0.60, 0.65)
        argv = ["fit-runs", "--on", on, "--off", off, "--confirm-seeds", "5", "--seed", "11"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        conf = report["details"]["mc_confirmation"]
        assert conf["mle_p11"] == pytest.approx(report["run_fit"]["p11_hat"], abs=0.05)
        assert conf["mle_p22"] == pytest.approx(report["run_fit"]["p22_hat"], abs=0.05)
        assert report["seed"] == 11

    def test_flat_curve_is_infeasible(self, tmp_path):
        flat = tmp_path / "flat.csv"
        on, off = write_model_curves(tmp_path, 0.5, 0.5)
        for rows in ("1,1.0\n", "1,0.0\n2,0.0\n"):
            flat.write_text("m,frequency\n" + rows)
            assert main(["fit-runs", "--on", str(flat), "--off", off]) == 3

    def test_curve_longer_than_length_is_data_error(self, tmp_path, capsys):
        on, off = write_model_curves(tmp_path, 0.5, 0.5, max_m=10)
        long_on = tmp_path / "long.csv"
        long_on.write_text("m,frequency\n1,0.5\n70,0.5\n")
        assert main(["fit-runs", "--on", str(long_on), "--off", off, "--length", "20"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--length 20" in captured.err and "longest run 70" in captured.err

    def test_malformed_curve_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("m,frequency\nx,y\n")
        on, off = write_model_curves(tmp_path, 0.5, 0.5)
        assert main(["fit-runs", "--on", str(bad), "--off", off]) == 2

    @pytest.mark.parametrize("flag", ["--on", "--off"])
    def test_non_utf8_curve_is_data_error(self, tmp_path, capsys, flag):
        curves = dict(zip(("--on", "--off"), write_model_curves(tmp_path, 0.5, 0.5)))
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"m,frequency\n1,0.5\n2,0.5\xff\n")
        curves[flag] = str(bad)
        out = tmp_path / "report.json"
        assert main(["fit-runs", "--on", curves["--on"], "--off", curves["--off"], "--out", str(out)]) == 2
        assert_one_error_line(capsys)
        assert not out.exists()


class TestConfirmation:
    """The `--confirm-seeds` refit solves each state's pooled run and stay
    counts with `_fit_stay`, and builds no curve, no objective and no run
    histogram."""

    GRID = [(p11, p22, length) for p11, p22 in ((0.2, 0.3), (0.5, 0.5), (0.8, 0.55), (0.93, 0.2), (0.3, 0.9))
            for length in (20, 200, 10_000)]

    @pytest.mark.parametrize("p11,p22,length", GRID)
    def test_matches_the_curve_fit_of_the_same_chains(self, tmp_path, capsys, monkeypatch, p11, p22, length):
        drawn, solved = [], []

        def draw(*args):
            drawn.append((args, generate(*args)))
            return drawn[-1][1]

        def solve(*args):
            solved.append(estimate._fit_stay(*args))
            return solved[-1]

        monkeypatch.setattr(cli, "generate", draw)
        monkeypatch.setattr(cli, "_fit_stay", solve)
        on, off = write_model_curves(tmp_path, p11, p22, n=length, max_m=min(length - 2, 150))
        for seed in (1, 2):
            drawn.clear()
            solved.clear()
            code = main(["fit-runs", "--on", on, "--off", off, "--length", str(length),
                         "--confirm-seeds", "3", "--seed", str(seed)])
            assert [args[1:] for args, _ in drawn] == [(length, child_seed(seed, i)) for i in range(3)]
            hists = [extract_runs(chain) for _, chain in drawn]
            try:
                fit = fit_runs_simulated(average_and_normalize(a for a, _ in hists),
                                         average_and_normalize(b for _, b in hists), length)
            except (ParameterError, InfeasibleParametersError):
                assert code == 3  # the two fail alike
                continue
            assert code == 0
            report = json.loads(capsys.readouterr().out)["details"]["mc_confirmation"]
            assert [report["mle_p11"], report["mle_p22"]] == [float(f"{s:.9g}") for s in solved]
            assert np.abs(np.log(solved) - np.log([fit.p11_hat, fit.p22_hat])).max() <= LOG_STAY_TOLERANCE

    def test_builds_one_objective_per_command(self, tmp_path, capsys, monkeypatch):
        calls = []
        objective = estimate.run_curve_objective
        monkeypatch.setattr(estimate, "run_curve_objective", lambda *args: calls.append(args) or objective(*args))
        on, off = write_model_curves(tmp_path, 0.8, 0.55)
        assert main(["fit-runs", "--on", on, "--off", off, "--confirm-seeds", "3", "--seed", "1"]) == 0
        assert len(calls) == 1

    def test_report_is_the_same_without_run_histograms(self, tmp_path, capsys, monkeypatch):
        def refuse(seq):
            raise AssertionError("the confirmation built a run histogram")

        on, off = write_model_curves(tmp_path, 0.60, 0.65)
        argv = ["fit-runs", "--on", on, "--off", off, "--confirm-seeds", "3", "--seed", "11"]
        assert main(argv) == 0
        report = capsys.readouterr().out
        monkeypatch.setattr(cli, "extract_runs", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == report

    def test_run_past_the_model_domain_is_infeasible(self, tmp_path, capsys):
        # at seed 0 the three 10-step chains hold state-A runs of 9 and 10, and a state-B run each of two
        on, off = write_model_curves(tmp_path, 0.95, 0.8, n=10, max_m=8)
        assert main(["fit-runs", "--on", on, "--off", off, "--length", "10", "--confirm-seeds", "3",
                     "--seed", "0"]) == 3
        assert capsys.readouterr() == ("", "infeasible fit: Monte Carlo confirmation: longest run 10 outside "
                                           "formula domain (needs m <= n-2 for n=10)\n")

    def test_state_held_all_but_once_inside_the_record_is_in_the_domain(self, tmp_path, capsys, monkeypatch):
        # at seed 1 a 10-step chain is A but for one B inside it: 9 A states, and no run longer than 5
        drawn = []
        monkeypatch.setattr(cli, "generate", lambda *args: drawn.append(generate(*args)) or drawn[-1])
        on, off = write_model_curves(tmp_path, 0.9, 0.3, n=10, max_m=8)
        assert main(["fit-runs", "--on", on, "--off", off, "--length", "10", "--confirm-seeds", "3",
                     "--seed", "1"]) == 0
        assert [1, 1, 1, 1, 1, 0, 1, 1, 1, 1] in [chain.states.tolist() for chain in drawn]

    @pytest.mark.parametrize("state", ["A", "B"])
    def test_state_without_runs_is_named(self, tmp_path, capsys, state):
        # fits s ~ 1e-6 for one state and s ~ 1 - 2.4e-6 for the other, so
        # the two 10^4-step chains never leave the second
        rare, long = tmp_path / "rare.csv", tmp_path / "long.csv"
        rare.write_text("m,frequency\n1,0.999999\n2,0.000001\n")
        long.write_text("m,frequency\n3320,1\n")
        on, off = (rare, long) if state == "A" else (long, rare)
        assert main(["fit-runs", "--on", str(on), "--off", str(off), "--confirm-seeds", "2", "--seed", "0"]) == 3
        assert capsys.readouterr() == ("", f"infeasible fit: Monte Carlo confirmation: the state-{state} chains "
                                           "contain no runs\n")


class TestAnalyze:
    def test_combined_report(self, capsys):
        assert main(["analyze", "--studies", FIXTURE, "--points", "40"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scatter_fit"] is not None
        curve = report["funnel_curve"]
        assert len(curve["n"]) == 40
        widths = np.array(curve["upper"]) - np.array(curve["lower"])
        assert np.all(np.diff(widths[widths > 0]) <= 0)
        # curve center matches the fit
        assert (curve["upper"][-1] + curve["lower"][-1]) / 2 == pytest.approx(
            report["scatter_fit"]["pinf_hat"], abs=1e-6
        )


class TestReportBytes:
    """The three report kinds, on inputs at fixed relative paths, so that
    their `inputs` sections, and so their bytes, do not depend on where the
    tests run."""

    ARGV = {
        "fit-scatter": ["fit-scatter", "--studies", "studies.csv"],
        "analyze": ["analyze", "--studies", "studies.csv", "--points", "40"],
        "fit-runs": ["fit-runs", "--on", "on.csv", "--off", "off.csv", "--confirm-seeds", "3", "--seed", "11"],
    }
    SHA256 = {
        "fit-scatter": "54d5c740c81eb4ec400a93f780d172d6e7f94e54c49b7e5a9ef245a6499d0403",
        "analyze": "4b2368bebefeef49c38e61de2238162b4ce131eeaf45c9af22e704211ab6dfbc",
        "fit-runs": "a9b97a864c6a27a1f5f30347aed4b4dd151d23e2387f7d02d28c6a29c502c351",
    }
    ABSENT = {
        "fit-scatter": {"run_fit", "funnel_curve"},
        "analyze": {"run_fit"},
        "fit-runs": {"scatter_fit", "funnel_curve"},
    }

    @pytest.fixture
    def reports(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        shutil.copy(FIXTURE, "studies.csv")
        write_model_curves(pathlib.Path(), 0.60, 0.65)
        texts = {}
        for command, argv in self.ARGV.items():
            assert main(argv) == 0
            texts[command] = capsys.readouterr().out
        return texts

    def test_bytes_are_pinned(self, reports):
        assert {command: hashlib.sha256(text.encode()).hexdigest() for command, text in reports.items()} == self.SHA256

    def test_floats_are_canonical_and_absent_sections_null(self, reports):
        def leaves(value):
            if isinstance(value, dict):
                value = list(value.values())
            if isinstance(value, list):
                for item in value:
                    yield from leaves(item)
            else:
                yield value

        for command, text in reports.items():
            report = json.loads(text)
            floats = [x for x in leaves(report) if isinstance(x, float)]
            assert floats and all(x == float(f"{x:.9g}") for x in floats), command
            sections = {"scatter_fit", "run_fit", "funnel_curve", "details"}
            assert {name for name in sections if report[name] is None} == self.ABSENT[command]


class TestUsageErrors:
    def test_unknown_command(self):
        assert main(["bogus"]) == 1

    def test_bad_parameter_value(self):
        assert main(["simulate", "--p", "1.5", "--q", "0.5", "--n", "10"]) == 1

    def test_bad_level(self, tmp_path):
        assert main(["fit-scatter", "--studies", FIXTURE, "--level", "2.0"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_bad_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TWOSTATE_SEED", "abc")
        assert main(["simulate", "--p", "0.5", "--q", "0.5", "--n", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: TWOSTATE_SEED must be an integer, got 'abc'"]
        # an explicit --seed needs no default, and --version no seed at all
        assert main(["simulate", "--p", "0.5", "--q", "0.5", "--n", "10", "--seed", "1"]) == 0
        assert main(["--version"]) == 0


class TestBadNumericFlags:
    """Each value is rejected before any output: exit 1, one error line, no file."""

    CASES = {
        "funnel-nu-nan": ["funnel", "--pinf", "0.5", "--nu", "nan", "--out", "{out}"],
        "funnel-nu-inf": ["funnel", "--pinf", "0.5", "--nu", "inf", "--out", "{out}"],
        "funnel-z-nan": ["funnel", "--pinf", "0.5", "--nu", "1", "--z", "nan", "--out", "{out}"],
        "funnel-n-max-inf": ["funnel", "--pinf", "0.5", "--nu", "1", "--n-max", "inf", "--out", "{out}"],
        "fit-scatter-min-p-nan": ["fit-scatter", "--studies", FIXTURE, "--min-p", "nan", "--out", "{out}"],
        "fit-scatter-min-q-one": ["fit-scatter", "--studies", FIXTURE, "--min-q", "1", "--out", "{out}"],
        "analyze-min-p-negative": ["analyze", "--studies", FIXTURE, "--min-p", "-0.1", "--out", "{out}"],
        "analyze-min-q-inf": ["analyze", "--studies", FIXTURE, "--min-q", "inf", "--out", "{out}"],
        "analyze-n-max-inf": ["analyze", "--studies", FIXTURE, "--n-max", "inf", "--out", "{out}"],
        # 0.5 + level/2 rounds to 1 or to 0.5: no normal quantile, or a quantile of 0
        "fit-scatter-level-rounds-to-one": ["fit-scatter", "--studies", FIXTURE, "--level", "0.9999999999999999",
                                            "--out", "{out}"],
        "fit-scatter-level-rounds-to-zero": ["fit-scatter", "--studies", FIXTURE, "--level", "1e-300",
                                             "--out", "{out}"],
        "analyze-level-rounds-to-one": ["analyze", "--studies", FIXTURE, "--level", "0.9999999999999999",
                                        "--out", "{out}"],
        "funnel-n-min-tiny": ["funnel", "--pinf", "0.5", "--nu", "1", "--n-min", "5e-324", "--out", "{out}"],
        "analyze-n-min-below-one": ["analyze", "--studies", FIXTURE, "--n-min", "0.5", "--out", "{out}"],
        "runs-seeds-zero": ["runs", "--p", "0.5", "--q", "0.5", "--n", "100", "--seeds", "0", "--out-on", "{out}"],
        "runs-alphabet-repeated": ["runs", "--input", "{seq}", "--alphabet", "B,B", "--out-on", "{out}"],
        "fit-runs-confirm-seeds-negative": [
            "fit-runs", "--on", "{on}", "--off", "{off}", "--confirm-seeds", "-3", "--out", "{out}",
        ],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_usage_error_writes_nothing(self, tmp_path, capsys, case):
        seq = tmp_path / "seq.txt"
        seq.write_text("A B B A\n")
        on, off = write_model_curves(tmp_path, 0.5, 0.5)
        out = tmp_path / "out.txt"
        argv = [arg.format(out=out, seq=seq, on=on, off=off) for arg in self.CASES[case]]
        assert main(argv) == 1
        assert_one_error_line(capsys)
        assert not out.exists()


class TestExitCodeContract:
    """Every subcommand on malformed input: the documented exit code (1 usage,
    2 data, 3 infeasible), one `error:` or `infeasible fit:` line on stderr,
    nothing on stdout and no output file."""

    LENGTH = 10_000
    INPUTS = {
        "seq_bad": "0 1 2 1\n",
        "seq_one_state": "1111\n",
        "seq_ab": "A B B A\n",
        "seq_ok": "0 1 1 0 1 0 0 1\n",
        "studies_bad": "study_id,n,p_bar\ns1,abc,0.5\n",
        "studies_two_bad": "study_id,n,p_bar\ns1,0,0.5\ns2,10,2\n",
        "studies_huge_n": "study_id,n,p_bar\ns1,99999999999999999999,0.5\n",
        "studies_long_cell": "study_id,n,p_bar\ns1,10," + "0" * 131_073 + "\n",
        "studies_repeated_n": "study_id,n,n,successes\n" + "".join(f"s{i},100,50,{35 + i}\n" for i in range(30)),
        "studies_flat": "study_id,n,p_bar\n" + "".join(f"s{i},100,0.5\n" for i in range(25)),
        "studies_single": "study_id,n,p_bar\ns1,100,0.5\n",
        "curve_bad": "m,frequency\nx,y\n",
        "curve_float_first_row": "1.5,0.3\n2,0.25\n",
        "curve_single_steps": "m,frequency\n1,1.0\n",
        "curve_empty": "m,frequency\n1,0.0\n2,0.0\n",
        "curve_longest": f"m,frequency\n{LENGTH - 2},1.0\n",
        # fits p11 ~ 1e-6 and p22 ~ 0.9999976: short confirmation chains never enter state A
        "curve_rare_on": "m,frequency\n1,0.999999\n2,0.000001\n",
        "curve_long_off": "m,frequency\n3320,1\n",
        # fits p11 ~ 1e-5: the confirmation chains enter state A, but its runs all have length 1
        "curve_single_steps_on": "m,frequency\n1,0.99999\n2,0.00001\n",
        "curve_short_off": "m,frequency\n1,0.5\n2,0.25\n3,0.25\n",
        "curve_halves": "m,frequency\n1,0.5\n2,0.5\n",
        # finite frequencies whose runs sum f, stays sum f (m-1) or objective at the fit passes float64
        "curve_runs_past_float64": "m,frequency\n1,1e308\n2,1e308\n",
        "curve_stays_past_float64": "m,frequency\n1,1e305\n50000,1e305\n",
        "curve_objective_past_float64": "m,frequency\n1,5e307\n2,5e307\n3,5e307\n",
    }
    CASES = {
        "simulate-p-out-of-range": (1, ["simulate", "--p", "1.5", "--q", "0.5", "--n", "10", "--out", "{out}"]),
        "simulate-n-zero": (1, ["simulate", "--p", "0.5", "--q", "0.5", "--n", "0", "--out", "{out}"]),
        "simulate-count-zero": (1, ["simulate", "--p", "0.5", "--q", "0.5", "--n", "9", "--count", "0",
                                    "--out", "{out}"]),
        # masked to 64 bits, it would print the --seed 5 sequence
        "simulate-seed-past-64-bits": (1, ["simulate", "--p", "0.7", "--q", "0.4", "--n", "50",
                                           "--seed", str(2**64 + 5), "--out", "{out}"]),
        "runs-bad-symbol": (2, ["runs", "--input", "{seq_bad}", "--out-on", "{out}", "--out-off", "{out2}"]),
        "runs-one-state": (2, ["runs", "--input", "{seq_one_state}", "--out-on", "{out}", "--out-off", "{out2}"]),
        "runs-missing-file": (2, ["runs", "--input", "{missing}", "--out-on", "{out}"]),
        "runs-alphabet-space": (1, ["runs", "--input", "{seq_ab}", "--alphabet", "A B,B", "--out-on", "{out}"]),
        "runs-input-and-p": (1, ["runs", "--input", "{seq_ab}", "--p", "0.5", "--out-on", "{out}"]),
        "runs-alphabet-when-simulating": (1, ["runs", "--p", "0.5", "--q", "0.5", "--n", "100", "--alphabet", "A,",
                                              "--out-on", "{out}"]),
        "runs-seeds-with-input": (1, ["runs", "--input", "{seq_ok}", "--seeds", "0", "--out-on", "{out}"]),
        # no chain is drawn, so a seed would be ignored
        "runs-seed-with-input": (1, ["runs", "--input", "{seq_ok}", "--seed", "5", "--out-on", "{out}"]),
        "fit-runs-seed-without-confirmation": (1, ["fit-runs", "--on", "{on}", "--off", "{off}", "--seed", "5",
                                                   "--out", "{out}"]),
        "fit-runs-seed-with-zero-confirm-seeds": (1, ["fit-runs", "--on", "{on}", "--off", "{off}",
                                                      "--confirm-seeds", "0", "--seed", "5", "--out", "{out}"]),
        "funnel-pinf-out-of-range": (1, ["funnel", "--pinf", "1.5", "--nu", "1", "--out", "{out}"]),
        "funnel-missing-nu": (1, ["funnel", "--pinf", "0.5", "--out", "{out}"]),
        "fit-scatter-bad-row": (2, ["fit-scatter", "--studies", "{studies_bad}", "--out", "{out}"]),
        "fit-scatter-two-bad-rows": (2, ["fit-scatter", "--studies", "{studies_two_bad}", "--out", "{out}"]),
        "fit-scatter-huge-n": (2, ["fit-scatter", "--studies", "{studies_huge_n}", "--out", "{out}"]),
        "fit-scatter-long-cell": (2, ["fit-scatter", "--studies", "{studies_long_cell}", "--out", "{out}"]),
        "fit-scatter-repeated-column": (2, ["fit-scatter", "--studies", "{studies_repeated_n}", "--out", "{out}"]),
        "fit-scatter-missing-file": (2, ["fit-scatter", "--studies", "{missing}", "--out", "{out}"]),
        "fit-scatter-flat": (3, ["fit-scatter", "--studies", "{studies_flat}", "--out", "{out}"]),
        # one study sits on its own center, so its scatter has no width
        "fit-scatter-single-study": (3, ["fit-scatter", "--studies", "{studies_single}", "--out", "{out}"]),
        "analyze-bad-row": (2, ["analyze", "--studies", "{studies_bad}", "--out", "{out}"]),
        "analyze-huge-n": (2, ["analyze", "--studies", "{studies_huge_n}", "--out", "{out}"]),
        "analyze-flat": (3, ["analyze", "--studies", "{studies_flat}", "--out", "{out}"]),
        "analyze-level": (1, ["analyze", "--studies", "{studies_flat}", "--level", "1", "--out", "{out}"]),
        "analyze-level-rounds-to-zero": (1, ["analyze", "--studies", "{studies_flat}", "--level", "1e-300",
                                             "--out", "{out}"]),
        # z nu = 1e311 overflows the band, which numpy would clamp to 0 and 1 with a warning
        "funnel-z-nu-past-1.3e154": (1, ["funnel", "--pinf", "0.3", "--nu", "1000", "--z", "1e308", "--out", "{out}"]),
        # z nu = 1e-400 underflows to 0, which would give a band of no width at every n
        "funnel-z-nu-below-2.2e-162": (1, ["funnel", "--pinf", "0.5", "--nu", "1e-200", "--z", "1e-200",
                                           "--points", "3", "--out", "{out}"]),
        "funnel-n-min-below-one": (1, ["funnel", "--pinf", "0.5", "--nu", "1", "--n-min", "0.5", "--out", "{out}"]),
        "fit-runs-bad-curve": (2, ["fit-runs", "--on", "{curve_bad}", "--off", "{off}", "--out", "{out}"]),
        "fit-runs-float-first-row": (2, ["fit-runs", "--on", "{curve_float_first_row}", "--off", "{off}",
                                         "--out", "{out}"]),
        "fit-runs-missing-file": (2, ["fit-runs", "--on", "{on}", "--off", "{missing}", "--out", "{out}"]),
        "fit-runs-length-too-small": (1, ["fit-runs", "--on", "{on}", "--off", "{off}", "--length", "3",
                                          "--out", "{out}"]),
        "fit-runs-length-past-int64": (1, ["fit-runs", "--on", "{on}", "--off", "{off}", "--length", str(2**63),
                                           "--out", "{out}"]),
        "fit-runs-single-steps": (3, ["fit-runs", "--on", "{curve_single_steps}", "--off", "{off}",
                                      "--out", "{out}"]),
        "fit-runs-empty-curve": (3, ["fit-runs", "--on", "{on}", "--off", "{curve_empty}", "--out", "{out}"]),
        "fit-runs-all-mass-at-longest": (3, ["fit-runs", "--on", "{curve_longest}", "--off", "{off}",
                                             "--length", str(LENGTH), "--out", "{out}"]),
        # numpy warned of the overflow, then the fit was infeasible or its objective was Infinity
        "fit-runs-runs-past-float64": (2, ["fit-runs", "--on", "{curve_runs_past_float64}", "--off", "{curve_halves}",
                                           "--length", "10", "--out", "{out}"]),
        "fit-runs-stays-past-float64": (2, ["fit-runs", "--on", "{curve_stays_past_float64}",
                                            "--off", "{curve_halves}", "--length", "100000", "--out", "{out}"]),
        "fit-runs-objective-past-float64": (2, ["fit-runs", "--on", "{curve_objective_past_float64}",
                                                "--off", "{curve_halves}", "--length", "1000", "--out", "{out}"]),
        # 10^15 bytes is more than the address space, so the state array cannot be allocated
        "simulate-n-too-large-to-allocate": (1, ["simulate", "--p", "0.5", "--q", "0.5", "--n", str(10**15),
                                                 "--out", "{out}"]),
        "runs-n-too-large-to-allocate": (1, ["runs", "--p", "0.5", "--q", "0.5", "--n", str(10**15),
                                             "--out-on", "{out}"]),
        "fit-runs-length-too-large-to-allocate": (1, ["fit-runs", "--on", "{on}", "--off", "{off}", "--length",
                                                      str(10**15), "--confirm-seeds", "1", "--out", "{out}"]),
        "simulate-n-past-int64": (1, ["simulate", "--p", "0.5", "--q", "0.5", "--n", str(10**20), "--out", "{out}"]),
        "runs-n-past-int64": (1, ["runs", "--p", "0.5", "--q", "0.5", "--n", str(10**20), "--out-on", "{out}"]),
        "funnel-points-past-int64": (1, ["funnel", "--pinf", "0.5", "--nu", "1", "--points", str(10**20),
                                         "--out", "{out}"]),
        "analyze-points-past-int64": (1, ["analyze", "--studies", FIXTURE, "--points", str(10**20), "--out", "{out}"]),
        # a grid of 2^62 or 2^63 - 1 float64 samples passes 2^63 - 1 bytes
        "funnel-points-2^62": (1, ["funnel", "--pinf", "0.5", "--nu", "1", "--points", str(2**62), "--out", "{out}"]),
        "funnel-points-2^63-1": (1, ["funnel", "--pinf", "0.5", "--nu", "1", "--points", str(2**63 - 1),
                                     "--out", "{out}"]),
        "analyze-points-2^62": (1, ["analyze", "--studies", FIXTURE, "--points", str(2**62), "--out", "{out}"]),
        "analyze-points-2^63-1": (1, ["analyze", "--studies", FIXTURE, "--points", str(2**63 - 1), "--out", "{out}"]),
        "fit-runs-confirmation-without-runs": (3, ["fit-runs", "--on", "{curve_rare_on}", "--off", "{curve_long_off}",
                                                   "--confirm-seeds", "2", "--seed", "0", "--out", "{out}"]),
        "fit-runs-confirmation-single-steps": (3, ["fit-runs", "--on", "{curve_single_steps_on}",
                                                   "--off", "{curve_short_off}", "--confirm-seeds", "2",
                                                   "--seed", "0", "--out", "{out}"]),
        "runs-unwritable-second-output": (2, ["runs", "--input", "{seq_ok}", "--out-on", "{out}",
                                              "--out-off", "{unwritable}"]),
        "runs-unwritable-reference": (2, ["runs", "--input", "{seq_ok}", "--out-on", "{out}", "--out-off", "{out2}",
                                          "--reference", "{unwritable}"]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code_one_line_nothing_written(self, tmp_path, capsys, case):
        paths = {}
        for name, text in self.INPUTS.items():
            paths[name] = tmp_path / f"{name}.txt"
            paths[name].write_text(text)
        paths["on"], paths["off"] = write_model_curves(tmp_path, 0.5, 0.5)
        before = sorted(tmp_path.iterdir())
        code, template = self.CASES[case]
        names = {**paths, "out": tmp_path / "out.txt", "out2": tmp_path / "out2.txt", "missing": tmp_path / "no.txt",
                 "unwritable": tmp_path / "nodir" / "out.txt"}
        assert main([arg.format(**names) for arg in template]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "infeasible fit: " if code == 3 else "error: "
        lines = captured.err.splitlines()
        assert lines[0].startswith(prefix)
        assert len(lines) == 1
        assert sorted(tmp_path.iterdir()) == before


class TestStagedOutputs:
    """Every output flag of every subcommand: a refused rename exits 2 with
    one line naming the path and leaves neither an output file nor a temp
    file; a run that succeeds leaves its files and no temp file."""

    CASES = {
        "simulate": (["simulate", "--p", "0.7", "--q", "0.4", "--n", "50", "--out", "{dir}/seq.txt"],
                     ["seq.txt"]),
        "simulate-count": (["simulate", "--p", "0.7", "--q", "0.4", "--n", "50", "--count", "2",
                            "--out", "{dir}/seq.txt"], ["seq_000.txt", "seq_001.txt"]),
        "runs": (["runs", "--p", "0.7", "--q", "0.4", "--n", "500", "--seeds", "2", "--out-on", "{dir}/on.csv",
                  "--out-off", "{dir}/off.csv", "--reference", "{dir}/ref.csv"], ["on.csv", "off.csv", "ref.csv"]),
        "funnel": (["funnel", "--pinf", "0.5", "--nu", "1", "--points", "5", "--out", "{dir}/funnel.csv"],
                   ["funnel.csv"]),
        "fit-scatter": (["fit-scatter", "--studies", FIXTURE, "--out", "{dir}/report.json"], ["report.json"]),
        "fit-runs": (["fit-runs", "--on", "{on}", "--off", "{off}", "--out", "{dir}/report.json"], ["report.json"]),
        "analyze": (["analyze", "--studies", FIXTURE, "--points", "5", "--out", "{dir}/report.json"],
                    ["report.json"]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_all_files_or_none_and_no_temp_file(self, tmp_path, capsys, monkeypatch, case):
        def refuse(src, dst):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src)

        on, off = write_model_curves(tmp_path, 0.6, 0.7)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        template, names = self.CASES[case]
        argv = [arg.format(dir=out_dir, on=on, off=off) for arg in template]
        outputs = [out_dir / name for name in names]
        monkeypatch.setattr(os, "replace", refuse)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: "
                                           f"'{outputs[0]}'\n")
        assert list(out_dir.iterdir()) == []
        monkeypatch.undo()
        assert main(argv) == 0
        assert capsys.readouterr() == ("", "")
        assert sorted(out_dir.iterdir()) == sorted(outputs)

    def test_curve_is_printed_only_once_the_file_is_renamed(self, tmp_path, capsys, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src)

        out = tmp_path / "on.csv"
        argv = ["runs", "--p", "0.8", "--q", "0.5", "--n", "200", "--seeds", "1", "--out-on", str(out)]
        monkeypatch.setattr(os, "replace", refuse)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: [Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{out}'\n")
        assert list(tmp_path.iterdir()) == []
        monkeypatch.undo()
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("# state B (off) runs\n")
        assert list(tmp_path.iterdir()) == [out]


class TestErrorMessages:
    """Error branches the contract cases above do not reach: the exit code
    and the one line on stderr."""

    STUDIES = {
        "studies_successes_past_n": "study_id,n,successes\ns1,10,11\n",
        "studies_all_zero": "study_id,n,p_bar\n" + "".join(f"s{i},{50 + i},0\n" for i in range(5)),
    }
    CASES = {
        "runs-p-alone": (1, ["runs", "--p", "0.5"], "error: simulation needs all of --p, --q and --n"),
        "runs-no-source": (1, ["runs"], "error: give --input FILE or --p/--q/--n to simulate"),
        "fit-scatter-successes-past-n": (2, ["fit-scatter", "--studies", "{studies_successes_past_n}"],
                                         "error: line 2: successes must be an integer in [0, n], got '11'"),
        "analyze-every-p-bar-zero": (3, ["analyze", "--studies", "{studies_all_zero}"],
                                     "infeasible fit: degenerate dataset: weighted mean proportion 0.0"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exit_code_and_message(self, tmp_path, capsys, case):
        paths = {}
        for name, text in self.STUDIES.items():
            paths[name] = tmp_path / f"{name}.csv"
            paths[name].write_text(text)
        code, template, message = self.CASES[case]
        assert main([arg.format(**paths) for arg in template]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_seed_only_where_chains_are_drawn(self, tmp_path, capsys, monkeypatch):
        seq = tmp_path / "seq.txt"
        seq.write_text("0 1 1 0 1 0 0 1\n")
        on, off = write_model_curves(tmp_path, 0.5, 0.5)
        runs = ["runs", "--input", str(seq)]
        fit = ["fit-runs", "--on", on, "--off", off]
        monkeypatch.delenv("TWOSTATE_SEED", raising=False)
        outputs = []
        for argv in (runs, fit):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        # a command that draws nothing does not read TWOSTATE_SEED
        monkeypatch.setenv("TWOSTATE_SEED", "abc")
        for argv, out in zip((runs, fit), outputs):
            assert main(argv) == 0
            assert capsys.readouterr().out == out
        # and refuses an explicit --seed, naming the flag
        for argv, message in [
            (runs + ["--seed", "5"], "error: --seed applies only when simulating, not with --input"),
            (fit + ["--seed", "5"], "error: --seed applies only with --confirm-seeds, which draws the chains it seeds"),
            (fit + ["--confirm-seeds", "0", "--seed", "5"],
             "error: --seed applies only with --confirm-seeds, which draws the chains it seeds"),
        ]:
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [message]


class TestRepeatedCalls:
    CALLS = [
        ({"TWOSTATE_SEED": "5"}, ["simulate", "--p", "0.6", "--q", "0.3", "--n", "60"]),
        ({"TWOSTATE_SEED": "6"}, ["simulate", "--p", "0.6", "--q", "0.3", "--n", "60"]),
        ({}, ["simulate", "--p", "0.6", "--q", "0.3", "--n", "60"]),
        ({"TWOSTATE_SEED": "6"}, ["runs", "--p", "0.6", "--q", "0.3", "--n", "300", "--seeds", "2"]),
        ({"TWOSTATE_SEED": "abc"}, ["runs", "--p", "0.6", "--q", "0.3", "--n", "300", "--seeds", "2"]),
        ({}, ["runs", "--p", "0.6", "--q", "0.3", "--n", "300", "--seeds", "2"]),
        ({}, ["simulate", "--p", "0.6", "--q", "0.3", "--n", "60", "--seed", "6"]),
        ({"TWOSTATE_SEED": "abc"}, ["funnel", "--pinf", "0.5", "--nu", "2", "--points", "5"]),
        ({}, ["funnel", "--pinf", "0.5", "--nu", "2"]),
        ({}, ["fit-scatter", "--studies", FIXTURE, "--level", "0.9"]),
        ({}, ["analyze", "--studies", FIXTURE, "--points", "5"]),
        ({}, ["fit-scatter", "--studies", FIXTURE]),
        ({}, ["simulate", "--p", "0.6"]),
        ({}, ["--version"]),
    ]

    def run_calls(self, capsys, monkeypatch, fresh):
        results = []
        for env, argv in self.CALLS:
            monkeypatch.delenv("TWOSTATE_SEED", raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            if fresh:
                build_parser.cache_clear()
            code = main(argv)
            results.append((code, *capsys.readouterr()))
        return results

    def test_back_to_back_calls_match_fresh_calls(self, capsys, monkeypatch):
        assert build_parser() is build_parser()
        repeated = self.run_calls(capsys, monkeypatch, fresh=False)
        assert repeated == self.run_calls(capsys, monkeypatch, fresh=True)
        codes = [code for code, _, _ in repeated]
        assert codes == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0]
        simulated = [out for _, out, _ in repeated[:3]]
        assert simulated[0] != simulated[1] and simulated[1] != simulated[2]
        assert repeated[6][1] == simulated[1]  # --seed 6 is what TWOSTATE_SEED=6 gave
        assert repeated[11][1] != repeated[9][1]  # --level 0.9 did not stay as a default


class TestSubprocessEntry:
    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "twostate", "simulate", "--p", "0.5", "--q", "0.5", "--n", "20", "--seed", "4"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert set(result.stdout.strip()) <= {"0", "1"}

    def test_import_leaves_scipy_out(self):
        code = "import sys, twostate; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.strip() == "[]"

    def test_import_loads_no_pool_module(self):
        # ensemble's blocks run on plain threads; a pool module would add to every cold start
        code = "import sys, twostate; print('concurrent.futures' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.strip() == "False"

    def test_module_bad_env_seed_has_no_traceback(self):
        env = {**os.environ, "TWOSTATE_SEED": "abc"}
        argv = [sys.executable, "-m", "twostate"]
        version = subprocess.run(argv + ["--version"], capture_output=True, text=True, env=env)
        assert version.returncode == 0 and version.stdout.startswith("twostate ")
        simulate = subprocess.run(
            argv + ["simulate", "--p", "0.5", "--q", "0.5", "--n", "10"], capture_output=True, text=True, env=env
        )
        assert simulate.returncode == 1
        assert simulate.stderr.splitlines() == ["error: TWOSTATE_SEED must be an integer, got 'abc'"]

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    @pytest.mark.parametrize("command", ["fit-scatter", "analyze", "fit-runs"])
    def test_piped_input_digest_is_of_the_parsed_bytes(self, tmp_path, command):
        # the report hashes the bytes it parsed: a pipe cannot be read a second time
        on, off = write_model_curves(tmp_path, 0.60, 0.65)
        source, argv = {
            "fit-scatter": (FIXTURE, ["--studies", "/dev/stdin"]),
            "analyze": (FIXTURE, ["--studies", "/dev/stdin", "--points", "5"]),
            "fit-runs": (on, ["--on", "/dev/stdin", "--off", off]),
        }[command]
        data = pathlib.Path(source).read_bytes()
        result = subprocess.run([sys.executable, "-m", "twostate", command, *argv], input=data, capture_output=True)
        assert result.returncode == 0, result.stderr
        digest = json.loads(result.stdout)["inputs"]["on" if command == "fit-runs" else "studies"]["sha256"]
        assert digest == hashlib.sha256(data).hexdigest()

    def test_module_usage_error_code(self):
        result = subprocess.run(
            [sys.executable, "-m", "twostate", "funnel", "--pinf", "0.58"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1


EXIT_CODES = {twostate.ParameterError: 1, twostate.DataFormatError: 2, twostate.InfeasibleParametersError: 3}


@pytest.mark.parametrize(
    "exc_type",
    [obj for obj in map(twostate.__dict__.get, twostate.__all__) if isinstance(obj, type) and issubclass(obj, Exception)],
    ids=lambda exc_type: exc_type.__name__,
)
def test_each_exception_has_one_exit_code(monkeypatch, capsys, exc_type):
    codes = [code for base, code in EXIT_CODES.items() if issubclass(exc_type, base)]
    assert len(codes) == 1

    def fail(*args):
        raise exc_type("raised by the command")

    monkeypatch.setattr(twostate.cli, "sample_curve", fail)
    assert main(["funnel", "--pinf", "0.5", "--nu", "1"]) == codes[0]
    prefix = "infeasible fit: " if codes[0] == 3 else "error: "
    assert capsys.readouterr() == ("", prefix + "raised by the command\n")


def test_public_surface():
    # a name added to or dropped from the package's surface must change this list
    assert sorted(twostate.__all__) == [
        "BinarySequence", "DataFormatError", "DerivedParams",
        "FunnelSpec", "InfeasibleParametersError", "MarkovParams",
        "ParameterError", "RunFit", "RunHistogram", "STATE_A", "STATE_B",
        "ScatterDataset", "ScatterFit",
        "average_and_normalize", "child_seed", "coverage", "derive",
        "ensemble", "estimate_center", "estimate_nu",
        "extract_runs", "fit_runs_simulated", "fit_scatter", "generate", "invert_to_pq",
        "mean_frequency", "memoryfree_curve", "n_step_self_transitions", "parse_curve", "parse_sequence",
        "parse_studies", "required_n", "run_curve_objective", "sample_curve",
        "state_probability", "std_of_proportion",
        "transition_matrix", "z_from_level",
    ]
    assert len(set(twostate.__all__)) == len(twostate.__all__)
    for name in twostate.__all__:
        assert getattr(twostate, name) is not None, name
