"""Columnar CSV ingest against a row-at-a-time reference: equal datasets on
well-formed files, the same error message on files with a fault, pinned
edge cases, and CLI runs on mutated files that end with an exit code."""

import csv
import datetime as dt
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentcast import data as D
from latentcast.cli import main
from latentcast.data import DataError, ingest_csv


# ---------------------------------------------------------------------------
# Slow reference: one Python float(), tuple and dict insert per row, as the
# package read CSV files before ingest became columnar.
# ---------------------------------------------------------------------------

def _reference_timestamp(raw, line_no):
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return dt.date.fromisoformat(raw).toordinal()
    except ValueError:
        raise DataError(f"line {line_no}: unparseable timestamp {raw!r}") from None


def reference_ingest(path, value_scale=1.0, fill_missing=0.0):
    rows = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV file") from None
        header = [h.strip() for h in header]
        if header[:4] != ["domain", "series", "timestamp", "value"]:
            raise DataError(f"unexpected header {header!r}; need domain,series,timestamp,value[,feat_*]")
        feat_dim = len(header) - 4
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4 + feat_dim:
                raise DataError(f"line {line_no}: expected {4 + feat_dim} columns, got {len(row)}")
            dom, ser = row[0].strip(), row[1].strip()
            ts = _reference_timestamp(row[2], line_no)
            try:
                val = float(row[3]) / value_scale
                feats = tuple(float(v) for v in row[4:])
            except ValueError:
                raise DataError(f"line {line_no}: unparseable numeric value") from None
            if not math.isfinite(val) or (feat_dim and not all(map(math.isfinite, feats))):
                raise DataError(f"line {line_no}: non-finite value")
            per_series = rows.setdefault(dom, {}).setdefault(ser, {})
            if ts in per_series:
                raise DataError(f"line {line_no}: duplicate (domain={dom}, series={ser}, timestamp={ts})")
            per_series[ts] = (val, feats)

    datasets = []
    for dom_idx, dom in enumerate(sorted(rows)):
        names, stamps, vals, feats = [], [], [], []
        for ser in sorted(rows[dom]):
            table = rows[dom][ser]
            lo, hi = min(table), max(table)
            if hi - lo + 1 > D.MAX_SERIES_STEPS:
                raise DataError(f"domain {dom!r}, series {ser!r}: timestamps {lo}..{hi} span "
                                f"{hi - lo + 1} steps, over the gap-fill cap of {D.MAX_SERIES_STEPS}")
            full = np.arange(lo, hi + 1, dtype=np.int64)
            v = np.full(full.size, fill_missing, dtype=np.float64)
            f = np.zeros((full.size, feat_dim), dtype=np.float64)
            at = np.fromiter(table, np.int64, len(table)) - lo
            v[at] = [val for val, _ in table.values()]
            f[at] = [fr for _, fr in table.values()]
            names.append(ser)
            stamps.append(full)
            vals.append(v)
            feats.append(f)
        datasets.append(D.DomainDataset(
            domain_id=dom_idx, domain_name=dom, series_names=names,
            timestamps=stamps, values=vals,
            features=feats if feat_dim else None,
        ))
    return datasets


def same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_datasets(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert (g.domain_id, g.domain_name, g.series_names) \
            == (e.domain_id, e.domain_name, e.series_names)
        assert (g.features is None) == (e.features is None)
        for name in ("timestamps", "values") + (("features",) if e.features else ()):
            pairs = list(zip(getattr(g, name), getattr(e, name)))
            assert len(pairs) == len(e.series_names)
            assert all(same_bits(a, b) for a, b in pairs), name


def outcome(ingest, path, value_scale, fill_missing):
    """The datasets, or the DataError message."""
    try:
        return ingest(path, value_scale=value_scale, fill_missing=fill_missing)
    except DataError as exc:
        return f"DataError: {exc}"


def assert_same_outcome(path, value_scale=1.0, fill_missing=0.0):
    got, expected = (outcome(ingest, path, value_scale, fill_missing)
                     for ingest in (ingest_csv, reference_ingest))
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
    else:
        assert_same_datasets(got, expected)
    return expected


# ---------------------------------------------------------------------------
# Generated files
# ---------------------------------------------------------------------------

# Name characters include the delimiter and the quote, which force a quoted
# field, and spaces, which ingest strips from the ends. One file in five
# draws its names from BROKEN_NAMES, whose quoted line breaks send the file
# to csv.reader; the others exercise numpy's tokenizer.
NAMES = st.text(st.sampled_from(list("ab0_-.é#, \"")), max_size=6)
BROKEN_NAMES = st.text(st.sampled_from(list("ab \"\n\r")), max_size=6)


def field(text, pad):
    """`text` as a CSV field: quoted (inner quotes doubled) when it holds a
    delimiter, quote, line break or edge space; otherwise padded by `pad`."""
    if any(c in text for c in ',"\r\n') or text != text.strip():
        return '"' + text.replace('"', '""') + '"'
    return pad + text + pad


# Spellings that only Python's grammar reads: a file that uses any of them is
# read by ingest's second tier; the others are read in numpy's grammar.
PYTHON_ONLY = ("underscore", "non_ascii")
NON_ASCII_DIGITS = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")     # Arabic-Indic
STAMP_PADS = ("", " ", "\u2003", "\xa0\t")


def number(draw, value, styles):
    style = draw(st.sampled_from(styles))
    if style == "exp":
        return f"{value:.6e}"
    if style == "pad":
        return f" {value!r} "
    if style == "underscore" and value == int(value) and abs(value) >= 10:
        digits = str(int(abs(value)))
        return "-" * (value < 0) + digits[0] + "_" + digits[1:]
    if style == "non_ascii":
        return repr(value).translate(NON_ASCII_DIGITS)
    return repr(value)


def stamp(draw, t, iso, styles):
    """Timestamp `t` as an ISO date or an integer, padded by ASCII or Unicode
    spaces."""
    style, text = draw(st.sampled_from(styles)), str(t)
    if iso:
        text = dt.date.fromordinal(738000 + t).isoformat()
    elif style == "underscore" and abs(t) >= 10:
        text = text[:-1] + "_" + text[-1]
    elif style == "non_ascii":
        text = text.translate(NON_ASCII_DIGITS)
    pad = draw(st.sampled_from(STAMP_PADS))
    return pad + text + pad


@st.composite
def csv_records(draw):
    """A well-formed file's header and data records as lists of field texts,
    in shuffled order: 1-3 domains of 1-2 series, gaps, 0 or 2 features,
    integer, ISO-date, mixed or last-record-only ISO timestamps, numbers and
    integers in numpy's grammar or also in Python's alone, and padded or
    quoted fields."""
    feat_dim = draw(st.sampled_from((0, 2)))
    stamps = draw(st.sampled_from(("int", "iso", "mixed", "iso_last")))
    styles = ("repr", "exp", "pad") + (PYTHON_ONLY if draw(st.booleans()) else ())
    names = BROKEN_NAMES if draw(st.integers(0, 4)) == 0 else NAMES
    values = st.floats(-1e6, 1e6, allow_nan=False) | st.integers(-10**6, 10**6).map(float)
    records = []
    for dom in draw(st.lists(names, min_size=1, max_size=3, unique_by=str.strip)):
        for ser in draw(st.lists(names, min_size=1, max_size=2, unique_by=str.strip)):
            t0 = draw(st.integers(-3, 3))
            for offset in draw(st.sets(st.integers(0, 9), min_size=1, max_size=6)):
                pad = draw(st.sampled_from(("", " ")))
                records.append([field(dom, pad), field(ser, pad), t0 + offset,
                                *(number(draw, draw(values), styles)
                                  for _ in range(1 + feat_dim))])
    records = [records[i] for i in draw(st.permutations(range(len(records))))]
    for i, rec in enumerate(records):
        iso = (stamps == "iso" or (stamps == "mixed" and draw(st.booleans()))
               or (stamps == "iso_last" and i == len(records) - 1))
        rec[2] = stamp(draw, rec[2], iso, styles)
    header = ["domain", " series", "timestamp ", "value"] + [f"feat_{i}" for i in range(feat_dim)]
    return header, records


@st.composite
def render(draw, header, records):
    """The file text: records joined by LF or CRLF, with blank, whitespace-only
    and (in some files) quoted-blank lines between them, and maybe no final
    line end."""
    blanks = draw(st.sampled_from((("", "  ", "\t"), ("", "  ", "\t", '""', '" "'))))
    lines = [",".join(header)]
    for rec in records:
        lines += draw(st.lists(st.sampled_from(blanks), max_size=1))
        lines.append(",".join(rec))
    ends = [draw(st.sampled_from(("\n", "\r\n"))) for _ in lines]
    ends[-1] = draw(st.sampled_from(("", "\n", "\r\n")))
    return "".join(line + end for line, end in zip(lines, ends))


def write(directory, text, name="data.csv"):
    path = Path(directory) / name
    path.write_bytes(text.encode("utf-8"))
    return path


@given(data=st.data(), value_scale=st.sampled_from((1.0, 0.5, 100.0)),
       fill_missing=st.sampled_from((0.0, -1.5)))
def test_ingest_equals_the_row_reference(tmp_path_factory, data, value_scale, fill_missing):
    header, records = data.draw(csv_records())
    path = write(tmp_path_factory.mktemp("csv"), data.draw(render(header, records)))
    expected = assert_same_outcome(path, value_scale, fill_missing)
    assert not isinstance(expected, str)     # the generated files are well formed


FAULTS = ("columns", "timestamp", "number", "non_finite", "duplicate", "span")


@given(data=st.data(), fault=st.sampled_from(FAULTS))
def test_a_fault_gets_the_reference_message(tmp_path_factory, data, fault):
    header, records = data.draw(csv_records())
    i = data.draw(st.integers(0, len(records) - 1))
    rec = list(records[i])
    if fault == "columns":
        rec = rec[:-1] if data.draw(st.booleans()) else rec + ["1"]
    elif fault == "timestamp":
        rec[2] = data.draw(st.sampled_from(("t1", "2024-13-01", "", "1.5")))
    elif fault == "number":
        rec[data.draw(st.integers(3, len(rec) - 1))] = data.draw(st.sampled_from(("x", "", "1,5")))
    elif fault == "non_finite":
        rec[data.draw(st.integers(3, len(rec) - 1))] = data.draw(
            st.sampled_from(("nan", "inf", "-Infinity")))
    elif fault == "duplicate":
        rec = records[data.draw(st.integers(0, len(records) - 1))][:3] + rec[3:]
    else:
        rec[2] = str(2 * D.MAX_SERIES_STEPS)
    # a duplicate or an overlong span needs a second record of its series
    records = records[:i + (fault in ("duplicate", "span"))] + [rec] + records[i + 1:]
    if fault == "duplicate":
        records.append(rec)
    path = write(tmp_path_factory.mktemp("csv"), data.draw(render(header, records)))
    expected = assert_same_outcome(path)
    assert isinstance(expected, str)


# ---------------------------------------------------------------------------
# The two grammar tiers: numpy's parser first, Python's where numpy refuses
# ---------------------------------------------------------------------------

# Characters of numbers in both grammars and in Python's alone, and the
# ASCII and Unicode spaces either may strip
NUMERIC_TEXT = st.lists(st.sampled_from(
    list("0123456789+-.eE_xabfinty") + ["inf", "nan", "1e308", "9" * 19, "٣", "０", "𝟗",
                                       " ", "\t", "\x00", "\x0b", "\x0c", "\x1c", "\x1f",
                                       "\x85", "\xa0", "\u2003", "\u2028", "\u3000"]),
    max_size=8).map("".join)
NUMERIC_FIELDS = (NUMERIC_TEXT | st.integers(-2**64, 2**64).map(str)
                  | st.floats().map(repr) | st.floats().map("{:.17e}".format))


@given(text=NUMERIC_FIELDS)
def test_numpy_reads_a_field_only_as_python_does(text):
    # ingest's first tier rests on this: a timestamp or number that numpy's
    # loadtxt accepts has the bits of Python's int or float of the field. The
    # exception is a field with a character numpy alone reads as space, which
    # sends the file to the second tier.
    if any(c in text for c in D.NUMPY_ONLY_SPACE):
        return
    for dtype, parse in ((np.int64, int), (np.float64, float)):
        try:
            got = np.loadtxt([text + ",0"], dtype=dtype, delimiter=",", quotechar='"',
                             comments=None)[0]
        except ValueError:
            continue
        assert same_bits(got, np.array(parse(text), dtype)), (text, dtype)


@pytest.mark.parametrize("stamp", ["3.7", "1e3"])
def test_an_integer_numpy_reads_through_a_float_takes_python_grammar(tmp_path, monkeypatch,
                                                                     stamp):
    # numpy releases that still read an int64 field such as 3.7 through a
    # float give its truncation with only a DeprecationWarning; as an error,
    # numpy raises ValueError. Ingest refuses such a field whatever the
    # caller's warning filters are.
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, converters, **kwargs):
        try:
            return loadtxt(*args, converters=converters, **kwargs)
        except ValueError:
            if 2 in converters:
                raise
            try:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError(f"could not convert string {stamp!r} to int64") from exc
            return loadtxt(*args, converters={**converters, 2: lambda f: int(float(f))},
                           **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    path = write(tmp_path, f"domain,series,timestamp,value\na,s,{stamp},1.5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        expected = assert_same_outcome(path)
    assert expected == f"DataError: line 2: unparseable timestamp {stamp!r}"


@pytest.mark.parametrize("before", [1, 1500], ids=["first_block", "later_block"])
@pytest.mark.parametrize("record", ["a,s,\x1c3,1.5", "a,s,3,1.5\x1d", "a\x1f,s,3,1.5"],
                         ids=["timestamp", "number", "name"])
def test_a_character_only_numpy_reads_as_space_is_read_in_python_grammar(tmp_path, record,
                                                                         before):
    # numpy would read 1.5\x1d as 1.5, which Python's float refuses
    rows = "".join(f"a,s,{-t},1.0\n" for t in range(before))
    path = write(tmp_path, "domain,series,timestamp,value\n" + rows + record + "\n")
    expected = assert_same_outcome(path)
    assert ((expected == f"DataError: line {before + 2}: unparseable numeric value")
            == ("\x1d" in record))


@pytest.mark.parametrize("series, python_grammar", [
    ((["1", "2", "3"], [" 1", "2", "3\u2003"]), False),
    ((["2024-01-01", "2024-01-02"], [" 2024-01-01", "2024-01-02"]), True),
    ((["1_0", "11"], ["١٠", "11"]), True),
], ids=["numpy_grammar", "iso_dates", "python_integers"])
def test_each_distinct_timestamp_field_is_parsed_once(tmp_path, monkeypatch, series,
                                                      python_grammar):
    # numpy parses the integers of its grammar in C; otherwise each distinct
    # field goes through _parse_timestamp once, however many rows hold it
    calls, parse_timestamp = [], D._parse_timestamp
    monkeypatch.setattr(D, "_parse_timestamp", lambda raw: calls.append(raw) or
                        parse_timestamp(raw))
    path = write(tmp_path, "domain,series,timestamp,value\n" + "".join(
        f"a,s{s},{ts},1.5\n" for s, stamps in enumerate(series) for ts in stamps))
    got = ingest_csv(path)
    assert sorted(calls) == (sorted({ts for stamps in series for ts in stamps})
                             if python_grammar else [])
    monkeypatch.undo()
    assert_same_datasets(got, reference_ingest(path))


# ---------------------------------------------------------------------------
# Pinned edge cases
# ---------------------------------------------------------------------------

def test_long_names_are_kept_whole(tmp_path):
    name = "d" * 99 + "x"
    path = write(tmp_path, f"domain,series,timestamp,value\n{name},s,0,1.0\nb,s,0,2.0\n")
    got = ingest_csv(path)
    assert [ds.domain_name for ds in got] == sorted([name, "b"])
    assert_same_outcome(path)


def test_header_only_file_is_empty_without_warnings(tmp_path, capsys):
    path = write(tmp_path, "domain,series,timestamp,value\n\n  \n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ingest_csv(path) == []
    code = main(["pretrain", "--data", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "need at least 2 domains" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    ("a,s,0,1.0\na,s,1,oops\na,s,0,3.0\na,s,x,4.0", "line 3: unparseable numeric value"),
    ("a,s,0,1.0\na,s,0,2.0\na,s,1,nan", "line 3: duplicate (domain=a, series=s, timestamp=0)"),
    ("a,s,0,1.0\na,s,x,oops", "line 3: unparseable timestamp 'x'"),
    ("a,s,0,1.0\na,s,0,inf", "line 3: non-finite value"),
], ids=["earlier_line", "duplicate_first", "timestamp_before_number",
        "non_finite_before_duplicate"])
def test_the_first_of_two_faults_is_named(tmp_path, rows, message):
    # across lines the earlier one; within a line, the checks in their order
    path = write(tmp_path, "domain,series,timestamp,value\n" + rows + "\n")
    with pytest.raises(DataError) as err:
        ingest_csv(path)
    assert str(err.value) == message
    assert_same_outcome(path)


@pytest.mark.parametrize("blank", ["", '""\r\n'], ids=["whitespace_line_in_quotes",
                                                       "quoted_blank_record"])
def test_quoted_line_breaks_and_blanks_are_read_as_csv_does(tmp_path, blank):
    # numpy's tokenizer reads only lines with visible text: it would drop the
    # whitespace line inside the quoted name and fail on the quoted blank
    # record, which csv.reader skips; csv.reader reads such files
    text = ('domain,series,timestamp,value\r\n"a\r\n  \r\nb",s,0,1.0\r\n' + blank
            + '"c,d",s,1,2.0\n"a\r\n  \r\nb",s,2,3.0\n')
    path = write(tmp_path, text)
    got = ingest_csv(path)
    assert [ds.domain_name for ds in got] == ["a\r\n  \r\nb", "c,d"]
    assert got[0].values[0].tolist() == [1.0, 0.0, 3.0]
    assert_same_outcome(path)


def test_timestamp_outside_int64_is_a_data_error(tmp_path):
    # int64 cannot hold it, so it is refused like any unparseable timestamp
    path = write(tmp_path, "domain,series,timestamp,value\n"
                           "a,s,0,1.0\na,s,9223372036854775808,2.0\n")
    with pytest.raises(DataError, match=r"^line 3: unparseable timestamp '9223372036854775808'$"):
        ingest_csv(path)


def test_bytes_that_are_not_utf8_are_a_data_error(tmp_path, capsys):
    # a data error (exit code 2), not a decoding traceback
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"domain,series,timestamp,value\ncaf\xe9,s,0,1.0\n")
    with pytest.raises(DataError, match=r"^not UTF-8 text: invalid continuation byte$"):
        ingest_csv(path)
    assert main(["pretrain", "--data", str(path), "--out", str(tmp_path / "out")]) == 2


def test_a_utf8_byte_order_mark_is_read_as_no_mark(tmp_path):
    # Excel's "CSV UTF-8" starts the file with the bytes EF BB BF
    text = "domain,series,timestamp,value\na,s,0,1.0\nb,s,0,2.0\n"
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert_same_datasets(ingest_csv(marked), ingest_csv(write(tmp_path, text)))


def test_an_empty_file_is_a_data_error(tmp_path):
    for name, content in (("empty.csv", b""), ("mark.csv", b"\xef\xbb\xbf")):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(DataError, match=r"^empty CSV file$"):
            ingest_csv(path)


# ---------------------------------------------------------------------------
# Tokenizer passes and memory: numpy reads the open file, and a file it
# refuses takes the line path once
# ---------------------------------------------------------------------------

@pytest.fixture
def passes(monkeypatch):
    """The `_read` calls of the test, each as (what it read, native): "file"
    for the open file, "lines" for a list of records."""
    calls, read = [], D._read
    monkeypatch.setattr(D, "_read", lambda records, width, native: calls.append(
        ("lines" if isinstance(records, list) else "file", native))
        or read(records, width, native))
    return calls


def rows_text(rows, end="\r\n"):
    """A CSV file of `rows` (tuples of field texts) under the 4-column header."""
    return "".join(",".join(map(str, row)) + end
                   for row in [("domain", "series", "timestamp", "value"), *rows])


def wide_rows(domains, series, length, seed=101):
    """Rows shaped like the benchmark's CLI file: `domains` x `series` series
    of `length` steps, names dom00/s0, a float's repr per value."""
    values = np.random.default_rng(seed).normal(10.0, 1.0, domains * series * length).tolist()
    keys = [(f"dom{d:02d}", f"s{s}", t) for d in range(domains) for s in range(series)
            for t in range(length)]
    return [(*key, repr(v)) for key, v in zip(keys, values)]


def iso(t):
    return dt.date.fromordinal(738000 + t).isoformat()


ROWS = wide_rows(4, 2, 250)
LAST = ROWS[-1]
# six files that leave numpy's path at different points, each with the
# passes ingest takes, and the count it took when numpy read only a list of
# the file's lines (an unparseable number then took four)
PASS_FILES = {
    "well_formed": (ROWS, [("file", True)], 1),
    "iso_throughout": ([(d, s, iso(t), v) for d, s, t, v in ROWS],
                       [("file", True), ("lines", False)], 2),
    "iso_last_row": (ROWS[:-1] + [(*LAST[:2], iso(LAST[2]), LAST[3])],
                     [("file", True), ("lines", False)], 2),
    "quoted_line_breaks": ([(f'"{d}\r\nx"', s, t, v) for d, s, t, v in ROWS],
                           [("lines", True), ("lines", True)], 2),
    "duplicate_last_row": (ROWS + [ROWS[0]], [("file", True)], 1),
    "bad_number_last_row": (ROWS[:-1] + [(*LAST[:3], "1.2.3")],
                            [("file", True), ("lines", False)], 4),
}


@pytest.mark.parametrize("name", PASS_FILES)
def test_each_file_takes_no_more_passes_than_before(tmp_path, passes, name):
    rows, expected, before = PASS_FILES[name]
    assert_same_outcome(write(tmp_path, rows_text(rows)))
    assert passes == expected
    assert len(passes) <= before


@pytest.mark.parametrize("blank, expected", [
    ("\r\n", [("file", True)]),
    ("  \r\n", [("file", True), ("lines", False)]),
], ids=["blank_crlf_line", "whitespace_line"])
def test_blank_lines_on_the_open_file(tmp_path, passes, blank, expected):
    # numpy skips an empty line of the open file, CRLF or not, but refuses a
    # whitespace-only one; that file takes the line path, which drops it
    text = rows_text(ROWS[:10]).replace("\r\n", "\r\n" + blank, 4)
    assert_same_outcome(write(tmp_path, text))
    assert passes == expected


@pytest.mark.parametrize("rows", [ROWS, [(f'"{d}"', s, t, v) for d, s, t, v in ROWS]],
                         ids=["open_file", "line_path"])
def test_bytes_that_are_not_utf8_late_in_a_file_are_a_data_error(tmp_path, passes, rows):
    # the byte lies past the decoder's first chunk, so the header reads and
    # the tokenizer or the line path meets it; nothing is read again
    data = rows_text(rows).encode("utf-8") + b"caf\xe9,s,0,1.0\r\n"
    path = tmp_path / "late.csv"
    path.write_bytes(data)
    with pytest.raises(DataError, match=r"^not UTF-8 text: invalid continuation byte$"):
        ingest_csv(path)
    assert len(passes) <= 1


def test_a_byte_order_mark_on_the_line_path_is_read_as_no_mark(tmp_path):
    # the line path reads the file again from its start
    text = rows_text([(d, s, iso(t), v) for d, s, t, v in ROWS[:20]])
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert_same_datasets(ingest_csv(marked), ingest_csv(write(tmp_path, text)))


def test_ingest_holds_at_most_three_times_the_file(tmp_path):
    # the benchmark CLI's 20 x 8 x 600 file: 96,000 rows, about 3 MB; reading
    # a list of its lines held about 5.8 times the file
    path = write(tmp_path, rows_text(wide_rows(20, 8, 600)))
    ingest_csv(path)
    tracemalloc.start()
    try:
        ingest_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * path.stat().st_size


# ---------------------------------------------------------------------------
# CLI on mutated files
# ---------------------------------------------------------------------------

FUZZ_CONFIG = ('{"train": {"lookback": 6, "horizon": 2, "d_z": 2, "hidden": 4, "kernel": 3, '
               '"batch_size": 8, "epochs_stage1": 1, "epochs_stage2": 1, "encoder": "mlp", '
               '"test_fraction": 0.34, "val_fraction": 0.3}}')
FUZZ_SEED = "".join(f"d{d},s,{t},{10 + d + math.sin(t):.3f}\n"
                    for d in range(3) for t in range(16))


@settings(max_examples=100)
@given(edits=st.lists(st.tuples(st.sampled_from(("insert", "delete", "drop_line",
                                                 "copy_line")),
                                st.integers(0, 10**6),
                                st.sampled_from(list(',"\n\r 0-.e9xn_#') + ["nan", "1e999",
                                                                          "9" * 20])),
                      min_size=1, max_size=4))
def test_cli_ends_with_an_exit_code_on_mutated_files(edits):
    text = "domain,series,timestamp,value\n" + FUZZ_SEED
    for op, at, chunk in edits:
        at %= len(text) + 1
        start, end = text.rfind("\n", 0, at) + 1, text.find("\n", at) + 1 or len(text)
        if op == "insert":
            text = text[:at] + chunk + text[at:]
        elif op == "delete":
            text = text[:at] + text[at + len(chunk):]
        elif op == "drop_line":
            text = text[:start] + text[end:]
        else:
            text = text[:end] + text[start:end] + text[end:]
    with tempfile.TemporaryDirectory() as tmp:
        config = write(tmp, FUZZ_CONFIG, "config.json")
        path = write(tmp, text)
        code = main(["pretrain", "--config", str(config), "--data", str(path),
                     "--out", str(Path(tmp) / "out")])
    assert code in (0, 1, 2)
