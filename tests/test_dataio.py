"""File parsing, canonical formatting, and report round-trips."""

import csv
import errno
import io
import json
import math
import os
import pathlib
import re
import stat
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from twostate import BinarySequence, MarkovParams, ScatterDataset, dataio, generate
from twostate.dataio import (
    DataFormatError,
    _detect_delimiter,
    curve_text,
    fmt,
    funnel_table_text,
    parse_curve,
    parse_sequence,
    parse_studies,
    report_text,
    round9,
    sequence_text,
    staged_writes,
    write_text_atomic,
)
from twostate.estimate import ScatterFit, fit_scatter

FIXTURE = pathlib.Path(__file__).parent / "data" / "handedness_synthetic.csv"


class TestParseStudies:
    def test_successes_converted(self):
        ds = parse_studies(io.StringIO("study_id,n,successes,p_bar\ns1,100,58,\n"))
        assert ds == ScatterDataset([100], [0.58])

    def test_p_bar_column(self):
        ds = parse_studies(io.StringIO("study_id,n,p_bar\ns1,100,0.58\n"))
        assert ds == ScatterDataset([100], [0.58])

    def test_group_and_tab_delimited(self):
        # group, like any column the parser does not name, is ignored
        ds = parse_studies(io.StringIO("study_id\tn\tsuccesses\tgroup\ns1\t10\t5\tcaptive\n"))
        assert ds == ScatterDataset([10], [0.5])

    @pytest.mark.parametrize("column", ["study_id", "n", "successes", "p_bar"])
    def test_repeated_column_rejected(self, column):
        header = ",".join(["study_id", "n", "successes", "p_bar", column])
        with pytest.raises(DataFormatError, match=f"'{column}' more than once"):
            parse_studies(io.StringIO(header + "\ns1,10,5,,5\n"))

    def test_zero_n_rejected_with_line_number(self):
        with pytest.raises(DataFormatError, match="line 2"):
            parse_studies(io.StringIO("study_id,n,p_bar\ns1,0,0.5\n"))

    def test_both_values_rejected(self):
        with pytest.raises(DataFormatError, match="exactly one"):
            parse_studies(io.StringIO("study_id,n,successes,p_bar\ns1,100,58,0.58\n"))

    def test_neither_value_rejected(self):
        with pytest.raises(DataFormatError, match="exactly one"):
            parse_studies(io.StringIO("study_id,n,successes,p_bar\ns1,100,,\n"))

    def test_out_of_range_p_bar(self):
        with pytest.raises(DataFormatError, match=r"p_bar must lie in \[0, 1\]"):
            parse_studies(io.StringIO("study_id,n,p_bar\ns1,100,1.2\n"))

    def test_all_problems_reported(self):
        bad = "study_id,n,p_bar\ns1,0,0.5\ns2,100,2.0\ns3,100,0.5\n"
        with pytest.raises(DataFormatError) as err:
            parse_studies(io.StringIO(bad))
        assert "line 2" in str(err.value) and "line 3" in str(err.value)

    def test_row_after_a_multiline_cell_named_by_its_first_line(self):
        # the ignored notes cells hold newlines, so csv rows and file lines part
        text = ('study_id,n,successes,notes\ns1,10,5,"line one\nline two"\ns2,abc,3,x\n'
                's3,10,5,"a\n\nb"\n\ns4,0,1,\n')
        with pytest.raises(DataFormatError) as err:
            parse_studies(io.StringIO(text))
        assert str(err.value).split("; ") == [
            "line 4: n must be an integer in [1, 2^63 - 1], got 'abc'",
            "line 9: n must be an integer in [1, 2^63 - 1], got '0'",
        ]

    def test_missing_column(self):
        with pytest.raises(DataFormatError, match="header"):
            parse_studies(io.StringIO("study_id,size\ns1,100\n"))

    @pytest.mark.parametrize("text", [
        # the ';' is inside a quoted name, so it is ',' that splits the header
        'study_id,n,successes,"dose; mg"\ns1,10,5,"2; 3"\n',
        'study_id;n;successes;notes\ns1;10;5;"a,b\tc"\n',
        'study_id\tn\tsuccesses\tnotes\ns1\t10\t5\t"a,b;c"\n',
    ], ids=["comma-with-a-semicolon-in-a-quoted-name", "semicolon", "tab"])
    def test_delimiter_is_the_one_that_splits_the_header(self, text):
        assert parse_studies(io.StringIO(text)) == ScatterDataset([10], [0.5])

    def test_two_bad_rows_in_one_message_line(self):
        with pytest.raises(DataFormatError) as err:
            parse_studies(io.StringIO("study_id,n,p_bar\ns1,0,0.5\ns2,10,2\n"))
        assert str(err.value) == ("line 2: n must be an integer in [1, 2^63 - 1], got '0'; "
                                  "line 3: p_bar must lie in [0, 1], got '2'")

    @staticmethod
    def traced_peak(path):
        parse_studies(path)  # the first call imports what the parse needs
        tracemalloc.start()
        try:
            parse_studies(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_is_the_points_not_the_rows(self, tmp_path):
        # a 10^4-row table of about 140 kB, as the benchmark writes it; the
        # traced peak, about 1.04 MiB, is the text, its csv stream and the C
        # reader's buffers, where the row loop's was 1.38 MiB
        path = tmp_path / "studies.csv"
        path.write_text(benchmark_table())
        assert self.traced_peak(path) < 2 * 2**20

    def test_memory_of_a_p_bar_table_is_the_points_not_the_rows(self, tmp_path):
        # the same studies as proportions in 9 digits, about 215 kB: a traced
        # peak of about 1.35 MiB, where the row loop's was 1.74 MiB
        path = tmp_path / "studies.csv"
        path.write_text(benchmark_table("p_bar"))
        assert self.traced_peak(path) < 2 * 2**20

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # spreadsheets save UTF-8 tables with a leading U+FEFF
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + FIXTURE.read_bytes())
        assert parse_studies(marked) == parse_studies(FIXTURE)
        assert fit_scatter(parse_studies(marked)) == fit_scatter(parse_studies(FIXTURE))

    def test_bundled_fixture_loads(self):
        import pathlib

        path = pathlib.Path(__file__).parent / "data" / "handedness_synthetic.csv"
        ds = parse_studies(path)
        assert len(ds) == 2000
        assert ds.sizes.min() >= 50


def benchmark_table(column="successes"):
    """A 10^4-row study table of the benchmark's shape, its value column
    `column`: successes, or p_bar in the canonical 9 digits."""
    rng = np.random.default_rng(7)
    sizes = np.round(np.exp(rng.uniform(np.log(20), np.log(10**4), 10**4))).astype(int).tolist()
    successes = rng.binomial(sizes, 0.6).tolist()
    values = successes if column == "successes" else [fmt(k / n) for n, k in zip(sizes, successes)]
    return f"study_id,n,{column}\n" + "".join(f"s{i},{n},{v}\n" for i, (n, v) in enumerate(zip(sizes, values)))


def parse_studies_list(text):
    """Reference reader: the whole table buffered as a list of csv rows, read
    a second time for line numbers when a quoted cell spans lines, and its
    bad rows reported one to a line.  It takes its delimiter from the module's
    rule, so that it differs from `parse_studies` only in how it reads."""
    text = text.removeprefix("\ufeff")
    if not text:
        raise DataFormatError("empty study file")
    delim = _detect_delimiter(io.StringIO(text))
    reader = csv.reader(io.StringIO(text), delimiter=delim)
    try:
        rows = list(reader)
    except csv.Error as exc:
        raise DataFormatError(f"line {reader.line_num}: {exc}") from None
    header = [h.strip().lower() for h in rows[0]]
    if {"study_id", "n"} - set(header) or not ({"successes", "p_bar"} & set(header)):
        raise DataFormatError(f"header must name study_id, n and successes and/or p_bar; got {header}")
    for name in ("study_id", "n", "successes", "p_bar"):
        if header.count(name) > 1:
            raise DataFormatError(f"header names column {name!r} more than once")
    width = len(header)
    i_n, i_succ, i_pbar = (header.index(name) if name in header else None for name in ("n", "successes", "p_bar"))
    linenos = range(2, len(rows) + 1)
    if reader.line_num != len(rows):
        reader = csv.reader(io.StringIO(text), delimiter=delim)
        linenos = [reader.line_num + 1 for _ in reader]
    sizes, p_bars, problems = [], [], []
    for lineno, row in zip(linenos, rows[1:]):
        if not "".join(row).strip():
            continue
        row += [""] * (width - len(row))
        raw_n = row[i_n].strip()
        raw_succ = "" if i_succ is None else row[i_succ].strip()
        raw_pbar = "" if i_pbar is None else row[i_pbar].strip()
        try:
            n = int(raw_n)
            if not 0 < n <= 2**63 - 1:
                raise ValueError
        except ValueError:
            problems.append(f"line {lineno}: n must be an integer in [1, 2^63 - 1], got {raw_n!r}")
            continue
        if bool(raw_succ) == bool(raw_pbar):
            problems.append(f"line {lineno}: exactly one of successes/p_bar must be given")
            continue
        if raw_succ:
            try:
                successes = int(raw_succ)
                if not 0 <= successes <= n:
                    raise ValueError
            except ValueError:
                problems.append(f"line {lineno}: successes must be an integer in [0, n], got {raw_succ!r}")
                continue
            p_bar = successes / n
        else:
            try:
                p_bar = float(raw_pbar)
                if not 0.0 <= p_bar <= 1.0:
                    raise ValueError
            except ValueError:
                problems.append(f"line {lineno}: p_bar must lie in [0, 1], got {raw_pbar!r}")
                continue
        sizes.append(n)
        p_bars.append(p_bar)
    if problems:
        raise DataFormatError("\n".join(problems))
    if not sizes:
        raise DataFormatError("study file contains no data rows")
    return ScatterDataset(np.array(sizes, dtype=np.int64), np.array(p_bars))


def study_outcome(read, text):
    try:
        dataset = read(text)
    except DataFormatError as exc:
        return str(exc)
    return dataset.sizes.tolist(), dataset.p_bars.tolist()


def parse_sequence_loop(source):
    """Reference reader: the per-character loop over the whole text."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    bits = []
    for ch in text:
        if ch.isspace():
            continue
        if ch == "1":
            bits.append(1)
        elif ch == "0":
            bits.append(0)
        else:
            raise DataFormatError(f"unexpected symbol {ch!r} at position {len(bits) + 1}")
    if not bits:
        raise DataFormatError("sequence file contains no symbols")
    return BinarySequence(np.array(bits, dtype=np.uint8))


def outcome(read, source):
    try:
        return read(source).states.tolist()
    except DataFormatError as exc:
        return str(exc)


ASCII_SPACE = list(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f")
# NEL and LINE SEPARATOR are whitespace to str.isspace; the stray "?" is the
# byte a non-ASCII character is encoded as, and U+1F600 is one code point
# outside the BMP
UNICODE_SPACE = ["\xa0", "\x85", "\u2003", "\u2028", "\u3000"]
STRAY = ["2", "x", "?", "\xe9", "\U0001f600"]
sequence_texts = st.one_of(
    st.text(st.sampled_from(["0", "1"] + ASCII_SPACE), max_size=60),
    st.text(st.sampled_from(["0", "1"] * 4 + ASCII_SPACE + UNICODE_SPACE + STRAY), max_size=60),
)


class TestParseSequence:
    @given(text=sequence_texts)
    @settings(max_examples=300)
    def test_matches_character_loop(self, text, tmp_path_factory):
        assert outcome(parse_sequence, io.StringIO(text)) == outcome(parse_sequence_loop, io.StringIO(text))
        path = tmp_path_factory.getbasetemp() / "drawn_sequence.txt"
        path.write_text(text, encoding="utf-8", newline="")
        assert outcome(parse_sequence, path) == outcome(parse_sequence_loop, path)

    def test_binary_characters(self):
        seq = parse_sequence(io.StringIO("0110"))
        assert seq.states.tolist() == [0, 1, 1, 0]

    def test_whitespace_ignored(self):
        seq = parse_sequence(io.StringIO("01\n1 0\t1"))
        assert seq.states.tolist() == [0, 1, 1, 0, 1]

    def test_alphabet_tokens(self):
        seq = parse_sequence(io.StringIO("on off on"), alphabet=("on", "off"))
        assert seq.states.tolist() == [1, 0, 1]

    def test_third_symbol_position(self):
        with pytest.raises(DataFormatError, match="position 3"):
            parse_sequence(io.StringIO("012"))

    def test_third_token_position(self):
        with pytest.raises(DataFormatError, match="position 2"):
            parse_sequence(io.StringIO("on maybe off"), alphabet=("on", "off"))

    def test_empty_file(self):
        with pytest.raises(DataFormatError):
            parse_sequence(io.StringIO("  \n"))

    def test_write_read_round_trip(self, tmp_path):
        seq = generate(MarkovParams(0.65, 0.25), 500, 3)
        path = tmp_path / "seq.txt"
        with staged_writes() as staged:
            write_text_atomic(path, sequence_text(seq), staged)
        assert np.array_equal(parse_sequence(path).states, seq.states)

    def test_text_matches_character_join(self):
        seq = generate(MarkovParams(0.65, 0.25), 10**5, 8)
        joined = "".join("1" if s else "0" for s in seq.states.tolist()) + "\n"
        assert sequence_text(seq).tobytes() == joined.encode()

    @pytest.mark.parametrize("data, states", [
        (b"0110\n", [0, 1, 1, 0]),
        (b"01" + b" \t\r\n\x0b\x0c\x1f" * 20, [0, 1]),  # more than the 64 bytes cut off by length
        (b"01 1\t0\r\n10\r\n", [0, 1, 1, 0, 1, 0]),
        ("01\u30000\xa01\n".encode(), [0, 1, 0, 1]),  # unicode whitespace, read as text
    ], ids=["final-newline", "long-trailing-whitespace", "spaces-tabs-crlf", "unicode-whitespace"])
    def test_file_bytes(self, tmp_path, data, states):
        path = tmp_path / "seq.txt"
        path.write_bytes(data)
        seq = parse_sequence(path)
        assert seq.states.tolist() == states
        assert not seq.states.flags.writeable and seq.states.flags.owndata
        assert seq == parse_sequence(io.StringIO(data.decode()))

    @pytest.mark.parametrize("data, message", [
        (b"", "sequence file contains no symbols"),
        (b" \n\t\r\n" * 30, "sequence file contains no symbols"),
        (b"01 1x0\n", "unexpected symbol 'x' at position 4"),
        ("01\n\xe90\n".encode(), "unexpected symbol '\xe9' at position 3"),
        (b"0101\xff01\n", "input is not UTF-8 text: invalid start byte at byte offset 4"),
    ], ids=["empty", "whitespace-only", "ascii-symbol", "non-ascii-symbol", "invalid-utf8"])
    def test_file_bytes_errors(self, tmp_path, data, message):
        path = tmp_path / "seq.txt"
        path.write_bytes(data)
        with pytest.raises(DataFormatError) as err:
            parse_sequence(path)
        assert str(err.value) == message

    @pytest.mark.parametrize("text, alphabet, states", [
        ("0110\n", None, [0, 1, 1, 0]),
        ("A B B A\n", ("A", "B"), [1, 0, 0, 1]),
    ], ids=["default", "alphabet"])
    def test_byte_order_mark_is_dropped(self, tmp_path, text, alphabet, states):
        path = tmp_path / "seq.txt"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert parse_sequence(path, alphabet).states.tolist() == states
        assert parse_sequence(io.StringIO("\ufeff" + text), alphabet) == parse_sequence(path, alphabet)

    @given(states=st.lists(st.sampled_from([0, 1]), min_size=1, max_size=60),
           alphabet=st.lists(st.text(st.characters(blacklist_categories=("Cc", "Cf", "Cs", "Zl", "Zp", "Zs")),
                                     min_size=1, max_size=4),
                             min_size=2, max_size=2, unique=True).filter(lambda syms: all(
                                 sym.split() == [sym] for sym in syms)))
    @settings(max_examples=200)
    def test_alphabet_tokens_match_default_format(self, states, alphabet):
        sym_a, sym_b = alphabet
        tokens = " ".join(sym_a if s else sym_b for s in states)
        digits = "".join(str(s) for s in states)
        assert parse_sequence(io.StringIO(tokens), (sym_a, sym_b)) == parse_sequence(io.StringIO(digits))

    @pytest.mark.parametrize("text, message", [
        ("maybe on off on\n", "unexpected symbol 'maybe' at position 1"),
        ("on off\nmaybe on\n", "unexpected symbol 'maybe' at position 3"),
        ("on off on maybe\n", "unexpected symbol 'maybe' at position 4"),
        ("on\toff \xe9t\xe9 on\n", "unexpected symbol '\xe9t\xe9' at position 3"),
    ], ids=["first", "middle", "last", "non-ascii"])
    def test_alphabet_stray_token(self, tmp_path, text, message):
        path = tmp_path / "seq.txt"
        path.write_text(text, encoding="utf-8")
        for source in (path, io.StringIO(text)):
            with pytest.raises(DataFormatError) as err:
                parse_sequence(source, ("on", "off"))
            assert str(err.value) == message

    @pytest.mark.parametrize("text", ["", " \n\t\r\n" * 30], ids=["empty", "whitespace-only"])
    def test_alphabet_file_without_tokens(self, tmp_path, text):
        path = tmp_path / "seq.txt"
        path.write_text(text, encoding="utf-8")
        for source in (path, io.StringIO(text)):
            with pytest.raises(DataFormatError) as err:
                parse_sequence(source, ("on", "off"))
            assert str(err.value) == "sequence file contains no symbols"

    def test_pipe_read_in_full(self):
        # a pipe has no size to read by, and 200 kB is more than its buffer holds
        seq = generate(MarkovParams(0.65, 0.25), 200_000, 5)
        r, w = os.pipe()

        def feed():
            with os.fdopen(w, "wb") as fh:
                fh.write(sequence_text(seq))

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            parsed = parse_sequence(f"/dev/fd/{r}")
        finally:
            os.close(r)
            writer.join()
        assert parsed == seq

    def test_memory_is_the_bytes_and_the_states(self, tmp_path):
        # the file's bytes and the state array, one byte a symbol each; the
        # first call imports what the parse needs, so it comes first
        n = 3 * 10**6
        path = tmp_path / "seq.txt"
        with staged_writes() as staged:
            write_text_atomic(path, sequence_text(generate(MarkovParams(0.88, 0.5), n, 1)), staged)
        parse_sequence(path)
        tracemalloc.start()
        try:
            parse_sequence(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.0 * n


class TestCurveIO:
    def test_round_trip(self, tmp_path):
        curve = {1: 0.5, 2: 0.25, 3: 0.25}
        path = tmp_path / "curve.csv"
        with staged_writes() as staged:
            write_text_atomic(path, curve_text(curve), staged)
        assert parse_curve(path) == curve

    def test_byte_order_mark_is_dropped(self, tmp_path):
        # a marked first row is data, not a header to skip
        path = tmp_path / "curve.csv"
        path.write_bytes(b"\xef\xbb\xbf1,0.75\n2,0.25\n")
        assert parse_curve(path) == {1: 0.75, 2: 0.25}

    def test_headerless_and_whitespace(self):
        assert parse_curve(io.StringIO("1 0.75\n2 0.25\n")) == {1: 0.75, 2: 0.25}

    def test_duplicate_length_rejected(self):
        with pytest.raises(DataFormatError, match="duplicate"):
            parse_curve(io.StringIO("m,frequency\n1,0.5\n1,0.5\n"))

    def test_bad_row(self):
        for row in ("0,0.5", "1,-0.5", "1,nan", "1,inf", "1,-inf"):
            with pytest.raises(DataFormatError, match="line 2"):
                parse_curve(io.StringIO(f"m,frequency\n{row}\n"))

    @pytest.mark.parametrize("row", ["1.5,0.3", "1e0,0.5", "-1,0.3"])
    def test_bad_first_row_is_not_a_header(self, row):
        with pytest.raises(DataFormatError, match="line 1: bad"):
            parse_curve(io.StringIO(f"{row}\n2,0.25\n"))

    def test_canonical_format(self):
        text = curve_text({1: 1 / 3, 2: 2 / 3})
        assert text == "m,frequency\n1,0.333333333\n2,0.666666667\n"


# table cells that reach every branch of the parsers, next to arbitrary
# text: the header names, numbers at and past the int64 and float limits,
# unicode digits, csv quoting and a cell longer than csv's field size limit
CELLS = [
    "0", "1", "2", "7", "10", "-1", "0.5", "1e-3", "1e999", "nan", "inf", "-inf", "1_0", "",
    "9223372036854775807", "9223372036854775808", "99999999999999999999", "\xb2", "\u0663", "x",
    "m", "frequency", "study_id", "n", "successes", "p_bar", "group", "\"", "\x00", "0" * 131_073,
]
cells = st.one_of(st.sampled_from(CELLS), st.text(max_size=8))
table_texts = st.one_of(
    st.text(max_size=80),
    st.tuples(
        st.sampled_from(["", "study_id,n,p_bar\n", "study_id,n,successes,group\n", "m,frequency\n"]),
        st.sampled_from([",", ";", "\t", " "]),
        st.lists(st.lists(cells, min_size=1, max_size=5), max_size=5),
    ).map(lambda t: t[0] + "\n".join(t[1].join(row) for row in t[2])),
)


# study tables with a good header, as most files have: their rows mostly
# take each column's cell from a few valid and invalid values, and may be
# short; the rest are rows of the cells above, empty lines and rows of only
# delimiters or spaces.  The notes cells hold newlines and delimiters.
STUDY_HEADERS = [["study_id", "n", "p_bar"], ["study_id", "n", "successes", "notes"],
                 ["notes", "n", "study_id", "successes", "p_bar"], ["study_id", "n", "n", "p_bar"],
                 ["study_id", "size", "p_bar"], ["study_id", "n", "successes", '"dose; mg"']]
# the cells of each column, valid ones first; a table of valid cells only
# is drawn as often as one that mixes in the rest
COLUMN_CELLS = {"study_id": (["s1", ""], []), "n": (["10", "7"], ["0", "x"]), "successes": (["3"], ["", "11"]),
                "p_bar": (["0.5"], ["", "2"]), "size": (["10"], []),
                "notes": (["", "q", '"a\nb"', '"\n\n"', '"x,y;z\tw"'], [])}


@st.composite
def study_tables(draw):
    header = draw(st.sampled_from(STUDY_HEADERS))
    valid = draw(st.booleans())
    pools = {name: good if valid else good + bad for name, (good, bad) in COLUMN_CELLS.items()}
    rows = [header]
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["columns"] * 3 + ([] if valid else ["cells"]) + ["blank"]))
        if kind == "columns":
            row = [draw(st.sampled_from(pools.get(name, pools["notes"]))) for name in header]
            row = row if valid or draw(st.booleans()) else row[:draw(st.integers(0, len(row)))]
        elif kind == "cells":
            row = draw(st.lists(cells, max_size=5))
        else:
            row = draw(st.lists(st.sampled_from(["", " "]), min_size=2, max_size=5))
        rows.append(row)
    delim, newline = draw(st.sampled_from([",", ";", "\t"])), draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(delim.join(row) for row in rows) + newline * draw(st.booleans())


# a csv error past the header row, which `parse_studies` now meets after a
# bad header, where the list-based reader met it first
CSV_ERROR = re.compile(r"line \d+: (field larger than field limit|new-line character seen in unquoted field)")


class TestOnePassParse:
    @seed(20261020)
    @settings(max_examples=300, deadline=None, database=None)
    @given(text=st.one_of(table_texts, study_tables()))
    def test_matches_the_list_based_reader(self, text):
        new = study_outcome(lambda t: parse_studies(io.StringIO(t)), text)
        old = study_outcome(parse_studies_list, text)
        if isinstance(old, str) and isinstance(new, str) and new.startswith("header ") and CSV_ERROR.match(old):
            return
        assert new == (old.replace("\n", "; ") if isinstance(old, str) else old)


# plain tables, which numpy's C reader reads: ASCII, no quote, no carriage
# return, one value column.  Their numbers are valid ints and floats, at and
# past 2^53 and int64, and edge cells: some that `int` or `float` reads and
# the C reader refuses, such as "1_0", and some that neither reads.  Their
# ids hold '#' and spaces.  A table holding U+0665, ARABIC-INDIC DIGIT FIVE,
# is not plain after all, and goes to the row loop.
EDGE_NUMBERS = [" 5", "+4", "1_0", "\u0665", "0x10", "\x0b7", "-0", ".5", "nan", "inf", "", "-1", "1e3", "10.0",
                str(2**53), str(2**53 + 1), str(2**63 - 1), str(2**63), "\x00"]
numbers = st.one_of(st.integers(-10, 10**6).map(str), st.integers(0, 2**64).map(str),
                    st.floats(-1.0, 2.0).map(repr), st.sampled_from(EDGE_NUMBERS))
ID_CELLS = st.sampled_from(["s1", "", " ", "#", "s 1", "# x", "1#"])


@st.composite
def plain_tables(draw):
    column = draw(st.sampled_from(["successes", "p_bar"]))
    header = draw(st.permutations(["study_id", "n", column, "group"][:draw(st.integers(3, 4))]))
    valid = draw(st.booleans())
    rows = [header]
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, 10**6) | st.integers(2**53 - 1, 2**53 + 1))
        value = str(draw(st.integers(0, n))) if column == "successes" else repr(draw(st.floats(0.0, 1.0)))
        cells = {"study_id": draw(ID_CELLS), "group": draw(ID_CELLS), "n": str(n), column: value}
        if not valid and draw(st.booleans()):
            cells[draw(st.sampled_from(["n", column]))] = draw(numbers)
        row = [cells[name] for name in header]
        rows.append(row if valid or draw(st.booleans()) else row[:draw(st.integers(0, len(row)))])
    delim = draw(st.sampled_from([",", ";", "\t"]))
    return "\n".join(delim.join(row) for row in rows) + "\n" * draw(st.integers(0, 2))


def dataset_bytes(read, text):
    """What `read` makes of `text`: its message, or its arrays' dtypes and bytes."""
    try:
        dataset = read(text)
    except DataFormatError as exc:
        return str(exc).replace("\n", "; ")
    return [(a.dtype.str, a.tobytes()) for a in (dataset.sizes, dataset.p_bars)]


class TestPlainTableParse:
    """The C reader's tables give the row loop's datasets and messages."""

    def test_matches_the_list_based_reader(self, monkeypatch):
        plain = []
        read_plain = dataio._plain_points
        monkeypatch.setattr(dataio, "_plain_points", lambda *args: plain.append(read_plain(*args)) or plain[-1])

        @seed(20261020)
        @settings(max_examples=400, deadline=None, database=None)
        @given(text=plain_tables())
        def check(text):
            new = dataset_bytes(lambda t: parse_studies(io.StringIO(t)), text)
            assert new == dataset_bytes(parse_studies_list, text)

        check()
        # both readers met many tables
        read = sum(points is not None for points in plain)
        assert read >= 100 and len(plain) - read >= 100

    def test_benchmark_table_is_read_without_the_row_loop(self, monkeypatch):
        def row_loop(*args):
            raise AssertionError("the benchmark's table entered the row loop")

        text = benchmark_table()
        expected = parse_studies_list(text)
        monkeypatch.setattr(dataio, "_row_points", row_loop)
        assert parse_studies(io.StringIO(text)) == expected

    # the long line holds the text's first multiple of the limit, or only its second
    @pytest.mark.parametrize("before, line", [("", 2), ("s" * 131_060 + ",10,5\n", 3)], ids=["first", "second"])
    def test_line_past_the_field_size_limit_is_csvs_error(self, before, line):
        text = "study_id,n,successes\n" + before + "s" * 131_073 + ",10,5\n"
        with pytest.raises(DataFormatError, match=rf"^line {line}: field larger than field limit \(131072\)$"):
            parse_studies(io.StringIO(text))

    @pytest.mark.parametrize("text", [
        "study_id,n,successes\ns1,10,5\ns2,0,0\n",
        "study_id,n,successes\ns1,10,5\ns2,10,-1\n",
        "study_id,n,successes\ns1,10,5\ns2,10,11\n",
        "study_id,n,p_bar\ns1,10,0.5\ns2,10,-0.5\n",
        "study_id,n,p_bar\ns1,10,0.5\ns2,10,1.5\n",
        "study_id,n,p_bar\ns1,10,0.5\ns2,10,nan\n",
    ], ids=["n-zero", "successes-negative", "successes-past-n", "p_bar-negative", "p_bar-past-one", "p_bar-nan"])
    def test_point_out_of_range_is_named_by_the_row_loop(self, text):
        assert dataset_bytes(lambda t: parse_studies(io.StringIO(t)), text) == dataset_bytes(parse_studies_list, text)

    @pytest.mark.parametrize("text", [
        "study_id,n,successes\r\ns1,10,5\r\ns2,4,1\r\n",
        'study_id,n,successes\n"s1",10,5\ns2,"4",1\n',
        'study_id,n,successes\ns1,10,5\ns2,"4\n",1\n',
        # csv reads one row, from a cell that spans the lines; split at each ',' they are two
        'study_id,n,successes\n",10,5\ns",10,6\n',
        "study_id,n,successes\ns1,10,5\rs2,4,1\n",
        "study_id,n,successes,p_bar\ns1,10,5,\ns2,4,,0.25\n",
        "study_id,n,successes,p_bar\ns1,10,5,0.5\n",
    ], ids=["crlf", "quoted", "quoted-newline", "quote-across-lines", "bare-cr", "both-columns",
            "both-columns-both-given"])
    def test_other_tables_are_the_row_loops(self, text):
        assert dataset_bytes(lambda t: parse_studies(io.StringIO(t)), text) == dataset_bytes(parse_studies_list, text)

    def test_size_past_2_53_gives_the_exact_quotient(self):
        # float64 reads 2^53 + 1 as 2^53, and 1 / 2^53 is one ulp above the quotient
        ds = parse_studies(io.StringIO(f"study_id,n,successes\ns1,{2**53 + 1},1\n"))
        assert ds.sizes.tolist() == [2**53 + 1] and ds.p_bars.tolist() == [1 / (2**53 + 1)] != [2.0**-53]

    @pytest.mark.parametrize("text", ["study_id,n,successes", "study_id,n,successes\n", "study_id,n,p_bar\n\n\n"])
    def test_header_only_table_has_no_data_rows_and_no_warning(self, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataFormatError, match="^study file contains no data rows$"):
                parse_studies(io.StringIO(text))


class TestParserFuzz:
    """Any text either parses to valid values or raises the parser's own format error."""

    @given(text=table_texts)
    @settings(max_examples=400)
    def test_parse_curve(self, text):
        try:
            curve = parse_curve(io.StringIO(text))
        except DataFormatError:
            return
        assert curve and all(type(m) is int and m >= 1 for m in curve)
        assert all(math.isfinite(f) and f >= 0.0 for f in curve.values())

    @given(text=table_texts)
    @example(text="study_id,n,p_bar\ns1,9223372036854775808,0.5\n")  # one past int64
    @example(text="study_id,n,p_bar\ns1,99999999999999999999,0.5\n")  # past uint64 too
    @settings(max_examples=400)
    def test_parse_studies(self, text):
        try:
            dataset = parse_studies(io.StringIO(text))
        except DataFormatError:
            return
        assert len(dataset) >= 1 and dataset.sizes.min() >= 1
        assert np.all((dataset.p_bars >= 0.0) & (dataset.p_bars <= 1.0))


class TestFormatting:
    def test_nine_significant_digits(self):
        assert fmt(0.123456789123) == "0.123456789"
        assert fmt(1.0) == "1"
        assert round9(1 / 3) == 0.333333333

    def test_funnel_table_clamps_for_display(self):
        text = funnel_table_text([10.0], np.array([-0.2]), np.array([1.3]))
        assert text.splitlines()[1] == "10,0,1"


class TestAnalysisReport:
    def make_report(self):
        return report_text(
            "fit-scatter",
            "0.1.0",
            None,
            {"studies": {"path": "x.csv", "sha256": "00"}},
            scatter_fit=ScatterFit(0.5811825607, 1.13833017, 0.63514396, 0.49369833, 0.95, 2000),
            details={"level": 0.95, "min_p": None, "min_q": None},
        )

    def test_serialization_is_deterministic(self):
        assert self.make_report() == self.make_report()

    def test_payload_floats_are_canonical(self):
        data = json.loads(self.make_report())
        assert data["scatter_fit"]["pinf_hat"] == round9(0.5811825607)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        with staged_writes() as staged:
            write_text_atomic(path, "first\n", staged)
        with staged_writes() as staged:
            write_text_atomic(path, "second\n", staged)
        assert path.read_text() == "second\n"
        assert list(tmp_path.iterdir()) == [path]  # no temp leftovers

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=lambda umask: f"umask-{umask:03o}")
    def test_new_file_mode_is_what_open_gives(self, tmp_path, umask):
        # os.replace keeps the temp file's mode, so the temp file must be created as open() would
        previous = os.umask(umask)
        try:
            with staged_writes() as staged:
                write_text_atomic(tmp_path / "out.txt", "x\n", staged)
            with open(tmp_path / "plain.txt", "w"):
                pass
        finally:
            os.umask(previous)
        mode = stat.S_IMODE((tmp_path / "out.txt").stat().st_mode)
        assert mode == 0o666 & ~umask == stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)

    def test_staged_files_appear_together_or_not_at_all(self, tmp_path):
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        with staged_writes() as staged:
            write_text_atomic(first, "a\n", staged)
            write_text_atomic(second, "b\n", staged)
            assert not first.exists() and len(list(tmp_path.iterdir())) == 2  # the two temp files
        assert first.read_text() == "a\n" and second.read_text() == "b\n"
        with pytest.raises(FileNotFoundError):
            with staged_writes() as staged:
                write_text_atomic(tmp_path / "c.txt", "c\n", staged)
                write_text_atomic(tmp_path / "nodir" / "d.txt", "d\n", staged)
        (tmp_path / "dir").mkdir()
        with pytest.raises(IsADirectoryError):  # a rename onto it would fail after the first file's
            with staged_writes() as staged:
                write_text_atomic(tmp_path / "c.txt", "c\n", staged)
                write_text_atomic(tmp_path / "dir", "d\n", staged)
        assert sorted(tmp_path.iterdir()) == [first, second, tmp_path / "dir"]

    def test_failed_rename_names_the_path_and_removes_the_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), src)

        monkeypatch.setattr(os, "replace", refuse)
        path = tmp_path / "out.txt"
        with pytest.raises(PermissionError) as info:
            with staged_writes() as staged:
                write_text_atomic(path, "x\n", staged)
        assert info.value.errno == errno.EACCES and info.value.filename == str(path)
        assert str(info.value) == f"[Errno {errno.EACCES}] {os.strerror(errno.EACCES)}: '{path}'"
        assert list(tmp_path.iterdir()) == []
