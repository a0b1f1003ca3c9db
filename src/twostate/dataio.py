"""File formats: study tables, sequence files, run curves, JSON reports.

A study table is read straight into a `ScatterDataset`, the (n, p_bar)
arrays; columns other than the ones it names are ignored.  A plain table,
ASCII with one value column and no quoting, is read by numpy's C reader;
any other, or one with a bad row, by a csv row loop, which names every bad
row.  Both give the same dataset, and only the loop builds messages.

A sequence file is handled as bytes end to end: `sequence_text` builds it
as one uint8 buffer, and `parse_sequence` reads its bytes once and turns
them into the state array, with no `str` built on either side unless the
file holds more than '0', '1' and ASCII whitespace.  Every input is
decoded at one point, `_decode`, which drops a leading byte-order mark.

All numeric output uses plain decimal with up to 9 significant digits and a
'.' separator, independent of locale, so fixed inputs produce byte-identical
files.  Data files are written atomically (temp file + rename), and a
command's files together, in `cli.main`'s one `staged_writes` block.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
from dataclasses import asdict

import numpy as np

from .chain import _INT64_MAX, ParameterError
from .estimate import RunFit, ScatterFit
from .simulate import BinarySequence, ScatterDataset


class DataFormatError(ValueError):
    """An input file does not match its declared format."""


# the ASCII characters str.isspace() accepts, which the sequence format skips
_ASCII_WHITESPACE = bytes(c for c in range(128) if chr(c).isspace())


def fmt(x: float) -> str:
    """Canonical 9-significant-digit decimal rendering."""
    return f"{x:.9g}"


def round9(x: float) -> float:
    """Round to the canonical 9-significant-digit value."""
    return float(fmt(x))


def _read_all(source) -> bytes | str:
    """All of a path's bytes, or all that a stream reads."""
    if hasattr(source, "read"):
        return source.read()
    with open(source, "rb") as fh:
        return fh.read()


def _decode(data: bytes | str) -> str:
    """The text of an input.  Bytes are decoded as a file opened as UTF-8
    text would be, and bytes that are not UTF-8 raise `DataFormatError`.
    Then one leading byte-order mark U+FEFF, which spreadsheets write, is
    dropped: after decoding, so the error's byte offsets stay the file's."""
    if isinstance(data, bytes):
        try:
            data = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"input is not UTF-8 text: {exc.reason} at byte offset {exc.start}") from None
    return data.removeprefix("\ufeff")


@contextlib.contextmanager
def staged_writes():
    """A list for `write_text_atomic` to stage files in; they are renamed
    onto their paths when the block ends, after every one is written, and
    removed if it raises.  `cli.main` runs each command in one block."""
    staged = []
    try:
        yield staged
        for tmp, path in staged:
            try:
                os.replace(tmp, path)
            except OSError as exc:  # named by the user's path, not the temp file's
                raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


def write_text_atomic(path, text: str | bytes | np.ndarray, staged: list) -> None:
    """Write `text`, a str (as UTF-8) or a bytes-like buffer (as it is), to
    a sibling temp file staged in the list of a `staged_writes` block, which
    renames it onto `path` when the block ends, so readers never see a
    partially written file.  The temp file gets the mode open(path, "w")
    would give a new file, 0o666 less the umask, and os.replace keeps it."""
    if os.path.isdir(path):  # found here, before any file of the block is renamed
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        staged.append((tmp, path))
        with os.fdopen(fd, "wb") as fh:
            fh.write(text.encode("utf-8") if isinstance(text, str) else text)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc


def sha256_of(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _detect_delimiter(lines: io.StringIO) -> str:
    """The first of tab and ';' by which csv splits the header row into
    cells naming study_id and n, else ','.  It reads `lines` from the start."""
    for cand in ("\t", ";"):
        lines.seek(0)
        with contextlib.suppress(csv.Error):  # e.g. a cell past csv's field size limit
            if {"study_id", "n"} <= {cell.strip().lower() for cell in next(csv.reader(lines, delimiter=cand))}:
                return cand
    return ","


def parse_studies(source) -> ScatterDataset:
    """Parse a delimiter-separated study table into a scatter dataset.

    The header must name study_id, n and successes and/or p_bar, each at
    most once; any other column is ignored.  Each data row gives n and
    exactly one of successes / p_bar, and yields one (n, p_bar) point.

    A plain table, which csv would split exactly at its delimiter, is read
    by numpy's C reader in one call (`_plain_points`).  Any other table,
    and any table that call or its range checks refuse, is read by the row
    loop (`_row_points`): one csv reader reads the text once, checks each
    row as it is read and keeps none, names a row by the line it starts
    on, and names every malformed row in one message line, joined by '; '.
    So the dataset and every message are the row loop's.
    """
    text = _decode(_read_all(source))
    if not text:
        raise DataFormatError("empty study file")
    lines = io.StringIO(text)
    delim = _detect_delimiter(lines)
    lines.seek(0)
    reader = csv.reader(lines, delimiter=delim)
    try:
        header = [h.strip().lower() for h in next(reader)]
        if not {"study_id", "n"} <= set(header) or not ({"successes", "p_bar"} & set(header)):
            raise DataFormatError(f"header must name study_id, n and successes and/or p_bar; got {header}")
        for name in ("study_id", "n", "successes", "p_bar"):
            if header.count(name) > 1:
                raise DataFormatError(f"header names column {name!r} more than once")
        columns = [header.index(name) if name in header else None for name in ("n", "successes", "p_bar")]
        start = lines.tell()
        points = _plain_points(text, lines, delim, *columns)
        if points is None:
            lines.seek(start)
            points = _row_points(reader, len(header), *columns)
    except csv.Error as exc:  # e.g. a cell longer than csv's field size limit
        raise DataFormatError(f"line {reader.line_num}: {exc}") from None
    sizes, p_bars = points
    sizes.flags.writeable = p_bars.flags.writeable = False
    return ScatterDataset(sizes, p_bars)


def _plain_points(text: str, lines: io.StringIO, delim: str, i_n: int, i_succ: int | None, i_pbar: int | None):
    """The (sizes, p_bars) arrays of a plain table, read from `lines`, the
    stream of `text` after its header line, by numpy's C reader; or None,
    for the row loop to read the table.

    A table is plain when it names one of successes / p_bar, its text is
    ASCII without '"' or '\\r', and no line is longer than csv's field size
    limit: then csv splits each line exactly at the delimiter, so the C
    reader reads the cells the row loop would.  None is also returned for a
    table without a data line, where `loadtxt` warns; for one it refuses,
    such as one with a cell `int` reads but it does not, or an empty cell;
    for a point out of range; and for an n past 2^53, past which float64
    division may not round as Python's exact successes / n does.
    """
    limit = csv.field_size_limit()
    if (i_succ is None) == (i_pbar is None) or not text.isascii() or '"' in text or "\r" in text:
        return None
    if "\n" not in text.rstrip("\n"):
        return None
    for j in range(limit, len(text), limit):  # a line longer than the limit holds one such j
        end = text.find("\n", j)
        if (end if end >= 0 else len(text)) - text.rfind("\n", 0, j) > limit + 1:
            return None
    try:
        table = np.loadtxt(lines, delimiter=delim, comments=None, ndmin=1,
                           usecols=(i_n, i_pbar if i_succ is None else i_succ),
                           dtype=[("n", np.int64), ("v", np.float64 if i_succ is None else np.int64)])
    except ValueError:
        return None
    sizes, values = table["n"], table["v"]  # views, which `ScatterDataset` copies
    if not 1 <= sizes.min() <= sizes.max() <= 2**53:
        return None
    if i_succ is None:
        ok, p_bars = np.all((values >= 0.0) & (values <= 1.0)), values
    else:
        ok, p_bars = np.all((values >= 0) & (values <= sizes)), values / sizes
    return (sizes, p_bars) if ok else None


def _row_points(reader, width: int, i_n: int, i_succ: int | None, i_pbar: int | None):
    """The (sizes, p_bars) arrays of the rows `reader` has left, each row
    checked as it is read; a malformed row is named by the line it starts
    on, and every one in one `DataFormatError`."""
    sizes, p_bars, problems = [], [], []
    next_line = reader.line_num + 1
    for row in reader:
        lineno, next_line = next_line, reader.line_num + 1
        if len(row) < width:  # a short row's missing cells are empty
            row += [""] * (width - len(row))
        raw_n = row[i_n].strip()
        if not raw_n and not "".join(row).strip():
            continue
        raw_succ = "" if i_succ is None else row[i_succ].strip()
        raw_pbar = "" if i_pbar is None else row[i_pbar].strip()
        try:
            n = int(raw_n)
            if not 0 < n <= _INT64_MAX:
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
        raise DataFormatError("; ".join(problems))
    if not sizes:
        raise DataFormatError("study file contains no data rows")
    return np.array(sizes, dtype=np.int64), np.array(p_bars)


def parse_sequence(source, alphabet: tuple[str, str] | None = None) -> BinarySequence:
    """Read a binary sequence file.

    Default format is a stream of '0'/'1' characters with whitespace
    ignored.  With `alphabet` = (symbol_a, symbol_b), the file is read as
    whitespace-separated tokens instead.  Any third symbol is an error
    naming its position (1-based, counted over non-whitespace input).

    A file in the default format is read as bytes, once, to its end (so a
    pipe is read in full), and '0' is subtracted from them into the state
    array, with no loop per symbol (`_ascii_states`).  A file that holds
    any other byte, such as a stray symbol, a non-ASCII character or
    invalid UTF-8, is decoded as text and read by `_text_states`, which
    names the error; so are a text stream and the alphabet format.
    """
    if alphabet is not None:
        _check_alphabet(alphabet)
    data = _read_all(source)
    states = _ascii_states(data) if alphabet is None and isinstance(data, bytes) else None
    if states is None:
        states = _text_states(_decode(data), alphabet)
    if not states.size:
        raise DataFormatError("sequence file contains no symbols")
    states.flags.writeable = False
    return BinarySequence(states)


def _check_alphabet(alphabet, name: str = "alphabet") -> None:
    """Each symbol is matched against one whitespace-separated token, so an
    alphabet is two different strings, each one token without whitespace."""
    if len(alphabet) != 2 or alphabet[0] == alphabet[1] or any(
        not isinstance(sym, str) or sym.split() != [sym] for sym in alphabet
    ):
        raise ParameterError(f"{name} needs exactly two different symbols, each without whitespace, got {alphabet!r}")


def _ascii_states(data: bytes) -> np.ndarray | None:
    """The states of a default-format file's bytes, or None if it holds a
    byte other than '0', '1' and ASCII whitespace.

    Up to 64 bytes of trailing whitespace, such as the usual final
    newline, are cut off by length, without a copy; only a file with other
    whitespace is read again from a copy of its bytes with all whitespace
    deleted.
    """
    tail = data[-64:]
    end = len(data) - len(tail) + len(tail.rstrip(_ASCII_WHITESPACE))
    states = np.frombuffer(data, dtype=np.uint8, count=end) - ord("0")
    if states.size and states.max() > 1:
        del states  # freed before the copy is made
        states = np.frombuffer(data.translate(None, _ASCII_WHITESPACE), dtype=np.uint8) - ord("0")
        if states.size and states.max() > 1:
            return None
    return states


def _text_states(text: str, alphabet: tuple[str, str] | None) -> np.ndarray:
    """The states of a sequence file's text.  Any symbol outside the format
    is read as a state of 2 or more, and the one check below names the
    first.  In the default format, whitespace is removed and each non-ASCII
    character left is encoded as one '?', so that positions still count
    characters; in the alphabet format, each whitespace-separated token is
    one symbol."""
    if alphabet is None:
        symbols = "".join(text.split())
        states = np.frombuffer(symbols.encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    else:
        sym_a, sym_b = alphabet
        symbols = text.split()
        states = np.array([1 if s == sym_a else 0 if s == sym_b else 2 for s in symbols], dtype=np.uint8)
    bad = np.flatnonzero(states > 1)
    if bad.size:
        pos = int(bad[0])
        raise DataFormatError(f"unexpected symbol {symbols[pos]!r} at position {pos + 1}")
    return states


def sequence_text(seq: BinarySequence) -> np.ndarray:
    """The bytes of a sequence file, one uint8 array of n + 1 ASCII bytes:
    '0' or '1' for each state, then a newline."""
    text = np.empty(seq.states.size + 1, dtype=np.uint8)
    np.add(seq.states, ord("0"), out=text[:-1])
    text[-1] = ord("\n")
    return text


def curve_text(curve: dict) -> str:
    lines = ["m,frequency"]
    for m in sorted(curve):
        lines.append(f"{m},{fmt(curve[m])}")
    return "\n".join(lines) + "\n"


def parse_curve(source) -> dict:
    """Read a two-column (m, frequency) table.

    The first line is a header, and skipped, when its first cell is not a
    number; any other line must be an (m, frequency) pair.
    """
    text = _decode(_read_all(source))
    curve = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise DataFormatError(f"line {lineno}: expected two columns, got {line!r}")
        if lineno == 1:
            try:
                float(parts[0])
            except ValueError:
                continue  # a header: its first cell is not a number
        try:
            m = int(parts[0])
            f = float(parts[1])
            if m < 1 or not 0.0 <= f < math.inf:  # rejects nan and inf too
                raise ValueError
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad (m, frequency) pair {line!r}") from None
        if m in curve:
            raise DataFormatError(f"line {lineno}: duplicate run length {m}")
        curve[m] = f
    if not curve:
        raise DataFormatError("curve file contains no data rows")
    return curve


def funnel_table_text(ns, lower, upper) -> str:
    """(n, lower, upper) rows; bounds clamped to [0, 1] for display only."""
    lines = ["n,lower,upper"]
    for n, lo, hi in zip(ns, np.clip(lower, 0.0, 1.0), np.clip(upper, 0.0, 1.0)):
        lines.append(f"{fmt(n)},{fmt(lo)},{fmt(hi)}")
    return "\n".join(lines) + "\n"


def _round_nested(value):
    if isinstance(value, float):
        return round9(value)
    if isinstance(value, dict):
        return {k: _round_nested(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_nested(v) for v in value]
    return value


def report_text(command: str, version: str, seed: int | None, inputs: dict, *,
                scatter_fit: ScatterFit | None = None, run_fit: RunFit | None = None,
                funnel_curve: dict | None = None, details: dict | None = None) -> str:
    """The self-describing JSON report of one CLI invocation.

    Every float is rounded to the canonical 9 significant digits.  Every
    derived quantity is recomputable from the recorded input digests plus
    the seed, and there are no timestamps, so reruns are byte-identical.
    A section the command does not produce is null.
    """
    report = {
        "tool": "twostate",
        "command": command,
        "version": version,
        "seed": seed,
        "inputs": inputs,
        "scatter_fit": None if scatter_fit is None else asdict(scatter_fit),
        "run_fit": None if run_fit is None else asdict(run_fit),
        "funnel_curve": funnel_curve,
        "details": details,
    }
    return json.dumps(_round_nested(report), sort_keys=True, indent=2) + "\n"
