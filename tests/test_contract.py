"""A generative exit-code contract: `cli.main` on argv drawn from a grammar
of all six subcommands, edge numbers and small malformed input files.

Whatever the argv, no exception escapes and the exit code is 0, 1, 2 or 3.
A failure writes one line to stderr, nothing to stdout, and no output or
temp file; a success writes nothing to stderr.  Every size the grammar
draws is at most 1e4 or at least 2^63, and every count at most 3, so no
case allocates or loops at scale.
"""

import contextlib
import io
import os
import pathlib
import tempfile

import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from twostate.cli import main

FIXTURE = pathlib.Path(__file__).parent / "data" / "handedness_synthetic.csv"

EDGE = ["nan", "inf", "1e308", str(2**63), "1_000", "½"]

INPUTS = {
    "seq_ok.txt": b"0 1 1 0 1 0 0 1\n",
    "seq_packed.txt": b"0110100111000101\n",
    "seq_one_state.txt": b"1111\n",
    "seq_stray.txt": b"0 1 2 1\n",
    "seq_ab.txt": b"A B B A\n",
    "seq_blank.txt": b"  \n",
    "seq_not_utf8.txt": b"01\xff10\n",
    "curve_ok.csv": b"m,frequency\n1,0.5\n2,0.3\n3,0.2\n",
    "curve_long.csv": b"m,frequency\n1,0.2\n2,0.2\n3,0.2\n4,0.2\n5,0.2\n",
    "curve_words.csv": b"m,frequency\nx,y\n",
    "curve_float_m.csv": b"1.5,0.3\n2,0.25\n",
    "curve_single_steps.csv": b"m,frequency\n1,1.0\n",
    "curve_empty.csv": b"m,frequency\n1,0.0\n2,0.0\n",
    "curve_negative.csv": b"m,frequency\n1,-0.5\n2,1.5\n",
    "curve_nan.csv": b"m,frequency\n1,nan\n2,0.5\n",
    # finite frequencies whose objective at the fit passes float64
    "curve_huge.csv": b"m,frequency\n1,5e307\n2,5e307\n3,5e307\n",
    "curve_m_past_int64.csv": b"m,frequency\n9223372036854775808,1\n",
    "curve_three_columns.csv": b"m,frequency\n1,0.5,1\n",
    "studies_ok.csv": FIXTURE.read_bytes(),
    "studies_small.csv": b"study_id,n,successes\ns1,10,3\ns2,20,15\ns3,40,22\ns4,15,9\n",
    "studies_bad_n.csv": b"study_id,n,p_bar\ns1,abc,0.5\n",
    "studies_two_bad.csv": b"study_id,n,p_bar\ns1,0,0.5\ns2,10,2\n",
    "studies_huge_n.csv": b"study_id,n,p_bar\ns1,99999999999999999999,0.5\n",
    "studies_flat.csv": b"study_id,n,p_bar\n" + b"".join(b"s%d,100,0.5\n" % i for i in range(5)),
    "studies_no_header.csv": b"s1,10,3\n",
    "studies_not_utf8.csv": b"study_id,n,p_bar\ns1,10,0.5\xff\n",
    "empty.txt": b"",
}


def values(valid, invalid=()):
    """A flag's values: each valid one repeated, so that together they are
    drawn two times in three, then the invalid ones and the edge numbers."""
    other = [*invalid, *EDGE]
    return valid * max(1, round(2 * len(other) / len(valid))) + other


def inputs(prefix):
    names = [name for name in INPUTS if name.startswith(prefix)]
    return values([f"{{in}}/{name}" for name in names], ["{in}/empty.txt", "{in}/missing.txt", "{in}"])


PROBABILITY = values(["0.3", "0.5", "0.8"], ["0", "1", "-0.5"])
POSITIVE = values(["0.5", "1", "1.96"], ["0", "-1"])
SIZE = values(["4", "10", "200", "10000"], ["0", "1", "3", "-1"])
STUDY_SIZE = values(["1", "10", "1e5"], ["0.5"])
# only the edge numbers that are not integers, so that no count passes 3
COUNT = ["1", "2", "3"] * 4 + ["0", "-1", "nan", "inf", "1e308", "½"]
SEED = values(["0", "11", "-1", str(-(2**63))], [str(2**64)])
OUT = ["{out}/a.txt", "{out}/b.txt", "{out}/sub", "{out}/nodir/a.txt"]


def flag(values, required=False):
    """One draw per flag: a value, or None for a flag left out, which is one
    time in eight for a flag the command requires and half the time otherwise."""
    return st.sampled_from([None] * (len(values) // 7 if required else len(values)) + values)


SCATTER_FIT = {"--studies": flag(inputs("studies"), True), "--level": flag(values(["0.95", "0.5"], ["1", "0"])),
               "--min-p": flag(PROBABILITY), "--min-q": flag(PROBABILITY), "--out": flag(OUT)}
GRAMMAR = {
    "simulate": {"--p": flag(PROBABILITY, True), "--q": flag(PROBABILITY, True), "--p1": flag(PROBABILITY),
                 "--n": flag(SIZE, True), "--seed": flag(SEED), "--count": flag(COUNT), "--out": flag(OUT)},
    "runs": {"--input": flag(inputs("seq")), "--alphabet": flag(values(["0,1", "A,B"], ["A B,B", "A,", "A,A"])),
             "--p": flag(PROBABILITY), "--q": flag(PROBABILITY), "--n": flag(SIZE), "--seeds": flag(COUNT),
             "--seed": flag(SEED), "--out-on": flag(OUT), "--out-off": flag(OUT), "--reference": flag(OUT)},
    "funnel": {"--pinf": flag(PROBABILITY, True), "--nu": flag(POSITIVE, True), "--z": flag(POSITIVE),
               "--n-min": flag(STUDY_SIZE), "--n-max": flag(STUDY_SIZE), "--points": flag(SIZE),
               "--out": flag(OUT)},
    "fit-scatter": SCATTER_FIT,
    "fit-runs": {"--on": flag(inputs("curve"), True), "--off": flag(inputs("curve"), True),
                 "--length": flag(SIZE), "--confirm-seeds": flag(COUNT), "--seed": flag(SEED), "--out": flag(OUT)},
    "analyze": {**SCATTER_FIT, "--n-min": flag(STUDY_SIZE), "--n-max": flag(STUDY_SIZE), "--points": flag(SIZE)},
}
COMMANDS = st.sampled_from(sorted(GRAMMAR))


@st.composite
def argvs(draw):
    command = draw(COMMANDS)
    argv = [command]
    for name, values in GRAMMAR[command].items():
        value = draw(values)
        if value is not None:
            argv += [name, value]
    return argv


@pytest.fixture(scope="module")
def input_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    for name, data in INPUTS.items():
        (path / name).write_bytes(data)
    return path


def listing(root):
    return sorted(str(path.relative_to(root)) for path in pathlib.Path(root).rglob("*"))


@seed(20261020)
@settings(max_examples=800, deadline=None, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(template=argvs())
def test_exit_code_one_line_and_nothing_written_on_failure(input_dir, template):
    before = listing(input_dir)
    with tempfile.TemporaryDirectory() as out_dir:
        os.mkdir(os.path.join(out_dir, "sub"))
        argv = [arg.replace("{in}", str(input_dir)).replace("{out}", out_dir) for arg in template]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        written = listing(out_dir)
    assert code in (0, 1, 2, 3)
    assert not any(os.path.basename(name).startswith(".tmp-") for name in written)
    if code:
        assert stdout.getvalue() == ""
        lines = stderr.getvalue().splitlines()
        assert lines[0].startswith("infeasible fit: " if code == 3 else "error: ")
        assert len(lines) == 1
        assert written == ["sub"]
    else:
        assert stderr.getvalue() == ""
    assert listing(input_dir) == before
