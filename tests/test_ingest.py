"""Record parsing, dedup, geo normalization, and the synthetic generator."""

import csv
import functools
import hashlib
import io
import json
import tempfile
import tracemalloc
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrikit import ingest
from attrikit.cli import main
from attrikit.errors import SchemaError
from attrikit.ingest import (
    _CATEGORY_TOKENS,
    DEFAULT_COVERAGE,
    LOGICAL_COLUMNS,
    MANDATORY_COLUMNS,
    Category,
    GeoIndex,
    IngestReport,
    LossRecord,
    Profile,
    Regime,
    Status,
    default_profile,
    generate_synthetic,
    load_corrections,
    load_geo_index,
    load_profile,
    normalize_geo,
    parse_category,
    parse_loss_date,
    parse_records,
    parse_status,
    record_id_of,
    records_to_csv,
)

HEADER = "date,type,model,status,location,raion,oblast,url\n"


def test_parse_single_row():
    text = HEADER + "2022-03-01,tank,,destroyed,Bucha,,Kyivska,\n"
    records, report = parse_records(text)
    assert len(records) == 1
    r = records[0]
    assert r.date == date(2022, 3, 1)
    assert r.category is Category.TANK
    assert r.status is Status.DESTROYED
    assert r.location_text == "Bucha"
    assert r.oblast == "Kyivska"
    assert report.rows_read == 1 and report.rows_parsed == 1


def test_parse_header_only():
    records, report = parse_records(HEADER)
    assert records == []
    assert report.rows_read == 0


def test_duplicate_row_collapses():
    row = "2022-03-01,tank,T-72B3,destroyed,Bucha,,Kyivska,http://x\n"
    records, report = parse_records(HEADER + row + row)
    assert len(records) == 1
    assert report.duplicates_removed == 1
    # Hash-equality oracle: the id is a pure function of the five key fields.
    rid = record_id_of(date(2022, 3, 1), Category.TANK, "T-72B3", "Bucha", "http://x")
    assert records[0].record_id == rid
    assert rid < 2**64


def test_dedup_count_invariant_under_permutation():
    rows = [
        "2022-03-01,tank,,destroyed,Bucha,,,\n",
        "2022-03-01,tank,,destroyed,Irpin,,,\n",  # same day+category, different place: kept
        "2022-03-01,tank,,destroyed,Bucha,,,\n",
        "2022-03-02,ifv,,damaged,,,,\n",
    ]
    _, fwd = parse_records(HEADER + "".join(rows))
    _, rev = parse_records(HEADER + "".join(reversed(rows)))
    assert fwd.duplicates_removed == rev.duplicates_removed == 1
    assert fwd.rows_parsed == rev.rows_parsed == 3


def test_date_format_fallbacks():
    text = HEADER + (
        "2022-03-01,tank,,,,,,\n"
        "02.03.2022,tank,,,,,,\n"
        "03/03/2022,tank,,,,,,\n"
    )
    records, report = parse_records(text)
    assert [r.date for r in records] == [date(2022, 3, 1), date(2022, 3, 2), date(2022, 3, 3)]
    assert not report.unparsable_rows


def strptime_loss_date(text):
    """parse_loss_date as it was on datetime.strptime: the oracle it must match."""
    cleaned = text.strip()
    for fmt in ("%Y-%m-%d", "%d.%m.%Y", "%m/%d/%Y"):
        try:
            return datetime.strptime(cleaned, fmt).date()
        except ValueError:
            continue
    raise ValueError(f"unparsable date {text!r}")


# ASCII, Arabic-Indic, Devanagari and fullwidth decimal digits, and a
# superscript two, which is a digit but not a decimal one.
DATE_DIGITS = "0123456789" "\u0660\u0661\u0662\u0669" "\u0966\u0967\u0968" "\uff10\uff11\uff12" "\u00b2"
OTHER_DIGITS = [str.maketrans("0123456789", "".join(chr(zero + i) for i in range(10)))
                for zero in (0x660, 0x966, 0xFF10)]


@st.composite
def date_texts(draw):
    """Mostly near-valid dates: a year, month and day in any of the three
    orders, padded or not, with other digits, wrong separators, stray spaces
    and trailing text. strptime's %m and %d take only ASCII digits, save the
    second digit of a day from 10 to 29; its %Y takes any decimal digits."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(st.sampled_from(DATE_DIGITS + "-./ x"), max_size=12))
    year = draw(st.one_of(st.integers(1900, 2100), st.integers(0, 9999)))
    month = draw(st.one_of(st.integers(1, 12), st.integers(0, 13)))
    day = draw(st.one_of(st.integers(1, 28), st.integers(0, 32)))
    year = draw(st.sampled_from([f"{year:04d}"] * 3 + [str(year)]))
    month, day = (draw(st.sampled_from([str(n), f"{n:02d}", f"{n:02d}", f" {n}"])) for n in (month, day))
    year, month, day = (part.translate(draw(st.sampled_from(OTHER_DIGITS))) if draw(st.integers(0, 2)) == 0 else part
                        for part in (year, month, day))
    orders = [("-", (year, month, day)), (".", (day, month, year)), ("/", (month, day, year))]
    sep, parts = draw(st.sampled_from(orders))
    text = parts[0] + sep + parts[1] + draw(st.sampled_from([sep] * 7 + list("-./"))) + parts[2]
    return draw(st.sampled_from(["", " ", "\t"])) + text + draw(st.sampled_from(["", "", "", " ", "x", "0", "T00:00"]))


@settings(deadline=None, derandomize=True, database=None, max_examples=3000)
@given(text=date_texts())
@example(text="2024-01- 5")
@example(text="2024-1-5")
@example(text="\u0662\u0660\u0662\u0664-01-05")
@example(text="2024-\u0664-05")
@example(text="29.02.2023")
@example(text="29.02.2024")
@example(text="0000-01-01")
@example(text="2024-01-05x")
@example(text="2024-01-05 00:00")
@example(text="02/29/2024 ")
def test_loss_date_matches_strptime(text):
    try:
        expected = strptime_loss_date(text)
    except ValueError as err:
        with pytest.raises(ValueError) as caught:
            parse_loss_date(text)
        assert str(caught.value) == str(err)
    else:
        assert parse_loss_date(text) == expected


def test_loss_date_forms():
    for text in (" 2024-1- 5 ", "5.1.2024", "1/5/2024", "05.01.2024", "01/ 5/2024"):
        assert parse_loss_date(text) == date(2024, 1, 5)
    for text in ("2024-01-05T00:00", "20240105", "2024-01-005", "5.1.24", "29.02.2023"):
        with pytest.raises(ValueError, match="unparsable date"):
            parse_loss_date(text)


def test_unparsable_and_out_of_coverage_rows_skipped_not_raised():
    text = HEADER + (
        "not-a-date,tank,,,,,,\n"
        "2021-01-01,tank,,,,,,\n"
        "2022-03-01,tank,,,,,,\n"
    )
    records, report = parse_records(text)
    assert len(records) == 1
    assert report.rows_read == 3
    assert len(report.unparsable_rows) == 2
    assert report.unparsable_rows[0][0] == 2  # 1-based line numbers, header is line 1
    report.check()


# parse_records reads rows as csv.DictReader does; these pin its semantics.


def test_repeated_header_name_maps_to_its_last_column():
    text = (
        "date,type,model,status,location,raion,oblast,url,model\n"
        "2022-03-01,tank,T-72A,destroyed,Bucha,,,,T-90M\n"
        "2022-03-02,tank,T-72A,destroyed,Irpin,,,\n"  # short: the last model column is missing
    )
    records, report = parse_records(text)
    assert [r.model_text for r in records] == ["T-90M", None]
    assert [r.record_id for r in records] == [
        record_id_of(date(2022, 3, 1), Category.TANK, "T-90M", "Bucha", None),
        record_id_of(date(2022, 3, 2), Category.TANK, None, "Irpin", None),
    ]
    assert report == IngestReport(rows_read=2, rows_parsed=2, date_span=(date(2022, 3, 1), date(2022, 3, 2)))


def test_short_rows_read_missing_cells_as_blank():
    text = HEADER + (
        "2022-03-01,ifv,BMP-2\n"
        "2022-03-02\n"  # only a date: type blank is OTHER, status blank is destroyed
    )
    records, report = parse_records(text)
    assert [(r.category, r.status, r.model_text) for r in records] == [
        (Category.IFV, Status.DESTROYED, "BMP-2"),
        (Category.OTHER, Status.DESTROYED, None),
    ]
    assert [r.record_id for r in records] == [
        record_id_of(date(2022, 3, 1), Category.IFV, "BMP-2", None, None),
        record_id_of(date(2022, 3, 2), Category.OTHER, None, None, None),
    ]
    assert report == IngestReport(rows_read=2, rows_parsed=2, date_span=(date(2022, 3, 1), date(2022, 3, 2)))


def test_long_row_ignores_extra_cells():
    records, report = parse_records(HEADER + "2022-03-01,tank,,damaged,Bucha,,,http://a,extra,cells\n")
    assert records[0].source_url == "http://a" and records[0].status is Status.DAMAGED
    assert [r.record_id for r in records] == [
        record_id_of(date(2022, 3, 1), Category.TANK, None, "Bucha", "http://a"),
    ]
    assert report == IngestReport(rows_read=1, rows_parsed=1, date_span=(date(2022, 3, 1), date(2022, 3, 1)))


def test_blank_lines_are_skipped_and_not_numbered():
    text = HEADER + (
        "\n"
        "2022-03-01,tank,,,,,,\n"
        "\n"
        "bad-date,tank,,,,,,\n"
        "\n\n"
        " \n"  # whitespace is a row, with a blank date
        "2021-01-01,tank,,,,,,\n"
        "\n"
    )
    records, report = parse_records(text)
    assert [r.record_id for r in records] == [record_id_of(date(2022, 3, 1), Category.TANK, None, None, None)]
    assert report == IngestReport(rows_read=4, rows_parsed=1, unparsable_rows=[
        (3, "unparsable date 'bad-date'"),
        (4, "missing date"),
        (5, "date 2021-01-01 outside coverage window"),
    ], date_span=(date(2022, 3, 1), date(2022, 3, 1)))


def test_quoted_field_with_newline_and_comma():
    text = HEADER + (
        '2022-03-01,tank,"T-72B3, obr. 2016\nupgraded",destroyed,Bucha,,,\n'
        "bad-date,tank,,,,,,\n"  # one row later, although two physical lines later
    )
    records, report = parse_records(text)
    assert [r.record_id for r in records] == [
        record_id_of(date(2022, 3, 1), Category.TANK, "T-72B3, obr. 2016\nupgraded", "Bucha", None),
    ]
    assert report == IngestReport(rows_read=2, rows_parsed=1, unparsable_rows=[(3, "unparsable date 'bad-date'")],
                                  date_span=(date(2022, 3, 1), date(2022, 3, 1)))


def test_missing_mandatory_column_names_it():
    with pytest.raises(SchemaError, match="date"):
        parse_records("type,status\ntank,destroyed\n")


def test_schema_remaps_column_names():
    text = "when,kind\n2022-03-01,ifv\n"
    records, _ = parse_records(text, schema={"date": "when", "type": "kind"})
    assert records[0].category is Category.IFV


def test_unmappable_category_becomes_other():
    records, _ = parse_records(HEADER + "2022-03-01,zeppelin,,,,,,\n")
    assert records[0].category is Category.OTHER


def test_category_synonyms():
    text = HEADER + (
        "2022-03-01,Infantry Fighting Vehicle,,,,,,\n"
        "2022-03-01,air defence,,,,,,\n"
    )
    records, _ = parse_records(text)
    assert records[0].category is Category.IFV
    assert records[1].category is Category.AIR_DEFENSE


def test_every_category_alias_maps_to_its_category():
    for alias, category in _CATEGORY_TOKENS.items():
        assert category is not Category.OTHER or alias == "other", alias
        assert parse_category(alias) is category, alias


@pytest.mark.parametrize("member", [*Category, *Status], ids=lambda m: f"{type(m).__name__}.{m.name}")
@pytest.mark.parametrize("spell", [str.upper, str.title, lambda name: f"  {name}  ",
                                   lambda name: name.replace("_", "-"), lambda name: name.replace("_", "  ")])
def test_every_enum_name_parses_to_itself(member, spell):
    parse = parse_category if isinstance(member, Category) else parse_status
    for name in (member.value, member.name):  # the value is the name in lower case
        assert parse(spell(name)) is member


@pytest.mark.parametrize("text, category", [
    ("self-propelled artillery", Category.ARTILLERY), ("Self Propelled  Artillery", Category.ARTILLERY),
    ("anti-aircraft", Category.AIR_DEFENSE), ("anti_aircraft", Category.AIR_DEFENSE),
])
def test_hyphenated_aliases_match(text, category):
    assert parse_category(text) is category
    records, _ = parse_records(HEADER + f"2022-03-01,{text},,,,,,\n")
    assert records[0].category is category


def test_correction_table_counts_changes():
    table = load_corrections("T-90M,tank\nBTR-82A,apc\n")
    text = HEADER + (
        "2022-03-01,other,T-90M,,,,,\n"    # corrected: counts
        "2022-03-02,apc,BTR-82A,,,,,\n"    # already right: no count
    )
    records, report = parse_records(text, corrections=table)
    assert records[0].category is Category.TANK
    assert report.category_corrections == 1


def test_roundtrip_parse_serialize_parse():
    text = HEADER + (
        "2022-03-01,tank,T-72B3,destroyed,Bucha,Buchanskyi,Kyivska,http://a\n"
        "2022-04-05,artillery,,captured,,,,\n"
    )
    records, _ = parse_records(text)
    again, report = parse_records(records_to_csv(records))
    assert again == records
    assert report.duplicates_removed == 0


def test_normalize_geo_fills_and_preserves():
    index = load_geo_index('bakhmut,"Bakhmutskyi/Donetska"\n')
    records = [
        LossRecord(date(2022, 5, 1), Category.TANK, Status.DESTROYED, location_text="Bakhmut "),
        LossRecord(date(2022, 5, 2), Category.IFV, Status.DESTROYED, location_text="X", raion="R", oblast="O"),
        LossRecord(date(2022, 5, 3), Category.APC, Status.DESTROYED),
    ]
    out = normalize_geo(records, index)
    assert out[0].raion == "Bakhmutskyi" and out[0].oblast == "Donetska"
    assert out[1].raion == "R"  # already set: untouched
    assert out[2].raion is None
    assert [r.date for r in out] == [r.date for r in records]


def test_normalize_geo_empty_index_leave_blank_is_identity():
    records = [LossRecord(date(2022, 5, 1), Category.TANK, Status.DESTROYED, location_text="Somewhere")]
    out = normalize_geo(records, GeoIndex(entries={}))
    assert out == records


def test_normalize_geo_error_policy_lists_strings():
    index = GeoIndex(entries={}, unmatched_policy="error")
    records = [LossRecord(date(2022, 5, 1), Category.TANK, Status.DESTROYED, location_text="Nowhere")]
    with pytest.raises(SchemaError, match="Nowhere"):
        normalize_geo(records, index)


def test_geo_index_rejects_blank_levels():
    with pytest.raises(SchemaError):
        load_geo_index("bucha,/Kyivska\n")


def test_synthetic_zero_mean_regime_is_empty():
    profile = Profile(regimes=(Regime(date(2022, 3, 1), date(2022, 3, 10), {Category.TANK: 0.0}),))
    assert generate_synthetic(1, profile) == []


def test_synthetic_is_deterministic():
    a = generate_synthetic(7)
    b = generate_synthetic(7)
    assert a == b
    assert records_to_csv(a) == records_to_csv(b)


def test_synthetic_seed_changes_output():
    assert generate_synthetic(1) != generate_synthetic(2)


def test_synthetic_poisson_totals():
    start = date(2022, 3, 1)
    profile = Profile(regimes=(Regime(start, start + timedelta(days=999), {Category.TANK: 10.0}),))
    records = generate_synthetic(7, profile)
    # Oracle: replay the documented draw order with the same generator.
    rng = np.random.default_rng(7)
    expected = int(sum(rng.poisson(10.0) for _ in range(1000)))
    assert len(records) == expected
    assert abs(len(records) - 10_000) <= 3 * np.sqrt(10_000)


def test_synthetic_unique_ids_and_coverage():
    records = generate_synthetic(3)
    ids = {r.record_id for r in records}
    assert len(ids) == len(records)
    lo, hi = default_profile().span()
    assert all(lo <= r.date <= hi for r in records)


def test_overlapping_regimes_rejected():
    with pytest.raises(SchemaError, match="overlap"):
        Profile(regimes=(
            Regime(date(2022, 3, 1), date(2022, 3, 20), {Category.TANK: 1.0}),
            Regime(date(2022, 3, 15), date(2022, 3, 30), {Category.TANK: 1.0}),
        ))


def test_negative_mean_rejected():
    with pytest.raises(SchemaError, match="negative"):
        Regime(date(2022, 3, 1), date(2022, 3, 2), {Category.TANK: -1.0})


def test_profile_file_roundtrip():
    text = (
        "start,end,category,mean_per_day\n"
        "2022-03-01,2022-03-31,tank,4.5\n"
        "2022-03-01,2022-03-31,ifv,2.0\n"
        "2022-04-01,2022-04-30,tank,1.0\n"
    )
    profile = load_profile(text)
    assert len(profile.regimes) == 2
    assert profile.regimes[0].means[Category.TANK] == 4.5
    assert profile.span() == (date(2022, 3, 1), date(2022, 4, 30))


def test_profile_file_errors():
    with pytest.raises(SchemaError):
        load_profile("start,end,category,mean_per_day\n")
    with pytest.raises(SchemaError):
        load_profile("2022-03-01,2022-03-31,tank\n")


@pytest.mark.parametrize("load, text, message", [
    (load_geo_index, "bucha,Buchanskyi\n", r"^geo index line 3: expected 'location,raion/oblast'$"),
    (load_corrections, "T-90M,tank,extra\n", r"^correction table line 3: expected 'model_text,category'$"),
    (load_profile, "2022-13-01,2022-12-31,tank,1.0\n", r"^profile line 3: "),
    (load_profile, "2022-03-01,2022-03-31,tank\n", r"^profile line 3: expected 'start,end,category,mean_per_day'$"),
    # A header row of any width is skipped, so the bad row is the one after it.
    (load_profile, "Start,end\n2022-03-01,2022-03-31,tank,1.0,9\n",
     r"^profile line 4: expected 'start,end,category,mean_per_day'$"),
])
def test_table_loaders_skip_blank_lines_and_name_a_bad_one(load, text, message):
    # Line 1 is blank and line 2 holds only blank cells: both are skipped, yet counted.
    with pytest.raises(SchemaError, match=message):
        load("\n , \n" + text)


@pytest.mark.parametrize("load", [load_corrections, load_geo_index, load_profile])
def test_table_loaders_reject_oversized_field(load):
    with pytest.raises(SchemaError, match="field larger than field limit"):
        load('"' + "x" * 140_000 + '"\n')


def test_table_loaders_read_bare_carriage_returns():
    assert load_corrections("T-90M,tank\rBTR-82A,apc\r") == {"T-90M": Category.TANK, "BTR-82A": Category.APC}


# Fragments that stress decoding and CSV framing, mixed with arbitrary bytes.
HOSTILE_PIECES = st.sampled_from([
    HEADER.encode(), HEADER.replace("\n", "\r\n").encode(), b"\xef\xbb\xbf", b"\r\n", b"\n", b"\r", b"\x00",
    b"\xff\xfe", b"\xc3", b"\xed\xa0\x80", b'"', b",", b"2022-03-01", b"01.03.2022", b"tank", b"destroyed",
    "\u017e\u2028".encode(), b"\t",
])


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(data=st.one_of(st.binary(max_size=200),
                      st.lists(st.one_of(HOSTILE_PIECES, st.binary(max_size=6)), max_size=25).map(b"".join)))
@example(data=b"")
@example(data=HEADER.encode())
@example(data=b"\xef\xbb\xbf" + HEADER.encode() + b"2022-03-01,tank,,,,,,\n")
@example(data=(HEADER + "2022-03-01,tank,,,,,,\n").replace("\n", "\r\n").encode())
@example(data=HEADER.encode() + b"2022-03-01,tank,T-\x0072,,,,,\n")
@example(data=HEADER.encode() + b"2022-03-01,tank,\xff,,,,,\n")
@example(data=HEADER.replace("\n", "\r").encode() + b"2022-03-01,tank,,,,,,\r")
@example(data=HEADER.encode() + b'2022-03-01,"' + b"x" * 140_000 + b'"\n')
def test_cli_ingest_survives_hostile_bytes(data):
    """Any bytes give records plus a balanced report (exit 0) or a clean input error (exit 2)."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:  # the library calls on the same text, line ends untranslated
        assert_select_matches_parse(text, None, None, {Category.TANK})
        try:
            records, report = parse_records(text)
        except SchemaError:
            pass
        else:
            report.check()
            assert len(records) == report.rows_parsed
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "records.csv", Path(tmp) / "out"
        path.write_bytes(data)
        code = main(["ingest", "--data", str(path), "--out", str(out)])
        assert code in (0, 2)
        if code == 2:
            assert not out.exists()
            return
        report = json.loads((out / "ingest_report.json").read_text(encoding="utf-8"))
        assert report["rows_read"] == (report["rows_parsed"] + len(report["unparsable_rows"])
                                       + report["duplicates_removed"])
        records, _ = parse_records((out / "records.csv").read_text(encoding="utf-8"))
        assert len(records) == report["rows_parsed"]


# Cells that hold each line end, a quote, a comma and non-ASCII letters.
QUOTED_CELLS = st.lists(st.sampled_from(["\r\n", "\r", "\n", '"', ",", " ", "T", "-", "7", "ж", "é", "€"]),
                        max_size=8).map("".join)


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(rows=st.lists(st.tuples(st.sampled_from(["2023-05-01", "01.03.2024"]), st.sampled_from(["tank", "БМП", "apc"]),
                               QUOTED_CELLS, QUOTED_CELLS), max_size=6),
       line_end=st.sampled_from(["\n", "\r\n", "\r"]), bom=st.booleans())
@example(rows=[("2023-05-01", "tank", "T-72\r\nB3", "")], line_end="\r\n", bom=False)
def test_cli_ingest_reads_the_records_parse_records_reads(rows, line_end, bom):
    """The CLI hands the parser the file's text, less a byte-order mark and
    with its line ends as written, so it writes the library's records."""
    out = io.StringIO()
    writer = csv.writer(out, quoting=csv.QUOTE_ALL, lineterminator=line_end)
    writer.writerow(["date", "type", "model", "location"])
    writer.writerows(rows)
    text = out.getvalue()
    records, report = parse_records(text)
    with tempfile.TemporaryDirectory() as tmp:
        path, out_dir = Path(tmp) / "records.csv", Path(tmp) / "out"
        path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
        assert main(["ingest", "--data", str(path), "--out", str(out_dir)]) == 0
        assert (out_dir / "records.csv").read_bytes() == records_to_csv(records).encode("utf-8")
        assert json.loads((out_dir / "ingest_report.json").read_bytes())["rows_parsed"] == report.rows_parsed


def test_record_ids_are_pinned():
    """Ids are part of the output contract: these values were computed by the
    per-row SHA-256 parse, and no change to how ids are made may move them."""
    text = HEADER + (
        "2022-03-01,tank,T-72B3,destroyed,Bucha,,Kyivska,http://x\n"
        "05.03.2023,Infantry Fighting Vehicle,,damaged,,,,\n"
        '07/31/2025,sam,"Buk-M1, \x1fobr",,Irpin,,,synth://42/2025-07-31/air_defense/0\n'
    )
    records, _ = parse_records(text)
    assert [r.record_id for r in records] == [10840737035864347262, 1111170753443854972, 13243776004194560808]
    assert [record_id_of(r.date, r.category, r.model_text, r.location_text, r.source_url) for r in records] == [
        r.record_id for r in records]


def test_parse_hashes_no_row(monkeypatch):
    profile = Profile(regimes=(Regime(date(2022, 3, 1), date(2022, 6, 30), {Category.TANK: 10.0}),))
    records = generate_synthetic(3, profile)[:990]
    text = records_to_csv(records + records[::99])  # 1,000 rows, 10 of them duplicates

    def refuse(*args, **kwargs):
        raise AssertionError("sha256 called")

    monkeypatch.setattr(hashlib, "sha256", refuse)  # ingest imports hashlib on first use
    parsed, report = parse_records(text)
    assert parsed == records
    assert report == IngestReport(rows_read=1000, rows_parsed=990, duplicates_removed=10,
                                  date_span=(records[0].date, records[-1].date))
    with pytest.raises(AssertionError, match="sha256"):  # ids are still hashed, on demand
        parsed[0].record_id


# -- The parse as it was before records became tuples: a frozen dataclass per
# record and one SHA-256 id per row, deduplicated on the id. It is kept here
# as the oracle that parse_records must match exactly.


@dataclass(frozen=True)
class HashedRecord:
    record_id: int
    date: date
    category: Category
    status: Status
    model_text: str | None = None
    location_text: str | None = None
    raion: str | None = None
    oblast: str | None = None
    source_url: str | None = None


def hashed_record(day, category, status, model_text=None, location_text=None, raion=None, oblast=None,
                  source_url=None):
    key = "\x1f".join([day.isoformat(), category.value, model_text or "", location_text or "", source_url or ""])
    record_id = int.from_bytes(hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")
    return HashedRecord(record_id, day, category, status, model_text, location_text, raion, oblast, source_url)


def stringio_csv_rows(text):
    """The row reader as it was before it read a UTF-8 copy: csv.reader over
    StringIO(text, newline=""), which holds 4 bytes per character."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as err:
        raise SchemaError(f"line {reader.line_num}: {err}") from None


def hashed_parse_records(csv_text, schema=None, corrections=None):
    schema = dict(schema) if schema else {}
    for logical in schema:
        if logical not in LOGICAL_COLUMNS:
            raise SchemaError(f"unknown logical column {logical!r} in schema")
    colmap = {logical: schema.get(logical, logical) for logical in LOGICAL_COLUMNS}
    norm_corrections = {ingest._normalize_token(text): cat for text, cat in (corrections or {}).items()}
    reader = stringio_csv_rows(csv_text)
    header = next(reader, [])
    for logical in MANDATORY_COLUMNS:
        if colmap[logical] not in header:
            raise SchemaError(f"mandatory column {colmap[logical]!r} (logical {logical!r}) missing from header")
    position = {name: i for i, name in enumerate(header)}
    columns = [position.get(colmap[logical]) for logical in LOGICAL_COLUMNS]
    day_of = functools.cache(parse_loss_date)
    status_of = functools.cache(parse_status)
    category_of = functools.cache(parse_category)
    report = IngestReport()
    records = []
    seen_ids = set()
    days = []
    line_no = 1
    for row in reader:
        if not row:
            continue
        line_no += 1
        report.rows_read += 1
        width = len(row)
        raw_date, raw_type, model_text, raw_status, location, raion, oblast, url = [
            (row[i].strip() or None) if i is not None and i < width else None for i in columns
        ]
        if raw_date is None:
            report.unparsable_rows.append((line_no, "missing date"))
            continue
        try:
            day = day_of(raw_date)
        except ValueError as err:
            report.unparsable_rows.append((line_no, str(err)))
            continue
        if not DEFAULT_COVERAGE[0] <= day <= DEFAULT_COVERAGE[1]:
            report.unparsable_rows.append((line_no, f"date {day.isoformat()} outside coverage window"))
            continue
        status = status_of(raw_status)
        if status is None:
            report.unparsable_rows.append((line_no, f"unknown status {raw_status!r}"))
            continue
        days.append(day)
        category = category_of(raw_type)
        if model_text is not None:
            corrected = norm_corrections.get(ingest._normalize_token(model_text))
            if corrected is not None and corrected != category:
                category = corrected
                report.category_corrections += 1
        record = hashed_record(day, category, status, model_text, location, raion, oblast, url)
        if record.record_id in seen_ids:
            report.duplicates_removed += 1
            continue
        seen_ids.add(record.record_id)
        records.append(record)
        report.rows_parsed += 1
    report.date_span = (min(days), max(days)) if days else None
    report.check()
    return records, report


RECORD_FIELDS = ("record_id", "date", "category", "status", "model_text", "location_text", "raion", "oblast",
                 "source_url")
CORRECTIONS = {"T-72B3": Category.TANK, "mt-lb": Category.APC, "BMP-2": Category.IFV, "a\x1fb": Category.TRUCK}

# Cells per logical column. Small pools make duplicate keys common; "\x1f" is
# the key separator, so model "a\x1fb" at "c" and model "a" at "b\x1fc" share
# one key.
CELLS = {
    "date": ["2022-03-01", "01.03.2022", "03/01/2022", " 2022-03-02 ", "2025-07-31", "2022-02-23", "2025-08-01",
             "31.02.2023", "2022-13-01", "not-a-date", " not-a-date ", "", " "],
    "type": ["tank", "Tanks", " MBT", "ifv", "self-propelled artillery", "anti_aircraft", "zeppelin", ""],
    "model": ["", "T-72B3", "t-72b3 ", "MT-LB", "mt lb", "BMP-2", "a", "a\x1fb", "x\x1f"],
    "status": ["", "destroyed", "Damaged", "lost", "destroyed and captured", "exploded", " exploded ", "?"],
    "location": ["", "Bucha", " bucha", "c", "b\x1fc", "\x1fb", "Irpin, Kyiv"],
    "raion": ["", "Buchanskyi"],
    "oblast": ["", "Kyivska", "Kyiv\x1fska"],
    "url": ["", "http://a", "http://a\x1f", "\x1f", "u\nv"],
}


@st.composite
def loss_csv(draw, remap):
    """CSV text and schema: permuted and possibly missing optional columns,
    duplicate, blank, short and long rows, and either line end."""
    logical = draw(st.permutations(LOGICAL_COLUMNS))
    kept = [c for c in logical if c in MANDATORY_COLUMNS or draw(st.booleans())]
    schema = {c: f"{c.upper()} col" for c in kept if draw(st.booleans())} if remap else None
    header = [(schema or {}).get(c, c) for c in kept]
    rows = []
    for _ in range(draw(st.integers(0, 25))):
        cells = [draw(st.sampled_from(CELLS[c])) for c in kept]
        width = draw(st.sampled_from([len(cells)] * 4 + [0, 1, 2, len(cells) + 2]))
        rows.append((cells + ["extra", "cells"])[:width])
    for source, target in draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=6)):
        if rows:
            rows.insert(target % (len(rows) + 1), rows[source % len(rows)])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue(), schema


def assert_parse_matches_oracle(text, schema, corrections):
    records, report = parse_records(text, schema=schema, corrections=corrections)
    expected, expected_report = hashed_parse_records(text, schema=schema, corrections=corrections)
    assert [[getattr(r, f) for f in RECORD_FIELDS] for r in records] == [
        [getattr(r, f) for f in RECORD_FIELDS] for r in expected]
    assert report == expected_report


@pytest.mark.parametrize("remap", [False, True])
@pytest.mark.parametrize("corrections", [None, CORRECTIONS])
@settings(deadline=None, derandomize=True, database=None, max_examples=150)
@given(data=st.data())
def test_parse_matches_per_row_hash_parse(corrections, remap, data):
    text, schema = data.draw(loss_csv(remap))
    assert_parse_matches_oracle(text, schema, corrections)


def test_separator_in_fields_dedups_as_the_hash_did():
    text = HEADER + (
        "2022-03-01,tank,a\x1fb,,c,,,\n"
        "2022-03-01,tank,a,,b\x1fc,,,\n"  # the separator moved one field on: the same key
        "2022-03-01,tank,a,,\x1fb\x1fc\x1f,,,\n"  # strip() takes "\x1f" as whitespace: the same again
        "2022-03-01,tank,a\x1fb\x1fc,,,,,\n"  # another key
    )
    records, report = parse_records(text)
    assert report.duplicates_removed == 2 and len(records) == 2
    assert_parse_matches_oracle(text, None, None)


def assert_select_matches_parse(text, schema, corrections, categories):
    """Selecting records by category gives the full parse's records of those
    categories, its unparsable rows and date span, and a balanced report; on
    bad input both parses raise the same error."""
    try:
        records, report = parse_records(text, schema=schema, corrections=corrections)
    except SchemaError as err:
        with pytest.raises(SchemaError) as caught:
            parse_records(text, schema=schema, corrections=corrections, categories=categories)
        assert str(caught.value) == str(err)
        return
    selected, selected_report = parse_records(text, schema=schema, corrections=corrections, categories=categories)
    assert selected == [r for r in records if r.category in categories]
    assert selected_report.unparsable_rows == report.unparsable_rows
    assert selected_report.date_span == report.date_span
    assert selected_report.category_corrections == report.category_corrections
    assert selected_report.rows_read == report.rows_read and selected_report.rows_parsed == len(selected)
    selected_report.check()


@settings(deadline=None, derandomize=True, database=None, max_examples=400)
@given(data=st.data())
def test_select_records_matches_filtered_parse(data):
    text, schema = data.draw(loss_csv(data.draw(st.booleans())))
    corrections = data.draw(st.sampled_from([None, CORRECTIONS]))
    categories = data.draw(st.sets(st.sampled_from(Category)))
    assert_select_matches_parse(text, schema, corrections, categories)


@pytest.mark.parametrize("text", [
    "", "type,status\ntank,destroyed\n", "date\n2022-03-01\n", '"' + "x" * 140_000 + '"\n',
    HEADER + '2022-03-01,"' + "x" * 140_000 + '"\n',
])
def test_select_records_rejects_what_parse_records_rejects(text):
    with pytest.raises(SchemaError):
        parse_records(text)
    assert_select_matches_parse(text, None, None, {Category.TANK})


# -- The record path as it was before it held its input once. Each function
# below is a frozen copy of the parent code, kept as the oracle the new code
# must match exactly.


def scalar_generate_synthetic(seed, profile=None):
    """One scalar Poisson draw per (day, category) with a positive mean."""
    profile = profile or default_profile()
    rng = np.random.default_rng(seed)
    records = []
    for regime in sorted(profile.regimes, key=lambda r: r.start):
        day = regime.start
        while day <= regime.end:
            for cat in Category:
                mean = regime.means.get(cat, 0.0)
                count = int(rng.poisson(mean)) if mean > 0 else 0
                for i in range(count):
                    url = f"synth://{seed}/{day.isoformat()}/{cat.value}/{i}"
                    records.append(LossRecord(day, cat, Status.DESTROYED, source_url=url))
            day += timedelta(days=1)
    return records


def per_row_records_to_csv(records):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LOGICAL_COLUMNS)
    for r in records:
        writer.writerow([
            r.date.isoformat(), r.category.value, r.model_text or "", r.status.value,
            r.location_text or "", r.raion or "", r.oblast or "", r.source_url or "",
        ])
    return out.getvalue()


def outcome(call):
    """What ``call`` returns, or the type and message of the SchemaError it raises."""
    try:
        return call()
    except SchemaError as err:
        return SchemaError, str(err)


# Line ends, quotes and separators, the characters str.splitlines would also
# split on (\x0c, \x1c, \x1e, \x85, \u2028) but a CSV line source must not,
# Cyrillic and a lone surrogate, mixed with pieces of valid rows.
FRAMING_PIECES = st.sampled_from([
    "\r", "\n", "\r\n", '"', ",", "\x0c", "\x1c", "\x1e", "\x85", "\u2028", " ", "\u0442\u0430\u043d\u043a", "\ud800",
    "2022-03-01", "tank", "destroyed", "x",
])
FRAMED_TEXT = st.lists(FRAMING_PIECES, max_size=40).map("".join)


@settings(deadline=None, derandomize=True, database=None, max_examples=400)
@given(text=st.one_of(FRAMED_TEXT, FRAMED_TEXT.map(lambda body: HEADER + body),
                      FRAMED_TEXT.map(lambda body: HEADER.replace("\n", "\r") + body)))
@example(text=HEADER + "2022-03-01,tank,,,\u0442\x85,,,\r2022-03-02,tank,,,\ud800,,,\r\n")
@example(text=HEADER + '2022-03-01,tank,"a\rb",,,,,\n' + "x" * 8190 + "\r\n2022-03-01,tank\r")
def test_parse_and_tables_match_the_stringio_reader(text):
    """Rows, line numbers and errors are those of the StringIO reader, in
    the record parse and in the side-table reader."""
    new = outcome(lambda: parse_records(text)), outcome(lambda: list(ingest._table_rows(text, "t", "a,b")))
    with mock.patch.object(ingest, "_csv_rows", stringio_csv_rows):
        old = outcome(lambda: parse_records(text)), outcome(lambda: list(ingest._table_rows(text, "t", "a,b")))
    assert new == old


def test_line_ends_across_read_chunks_match_the_stringio_reader():
    """A \\r\\n or \\r on either side of an 8 KiB read boundary, after 1-, 2-,
    3- and 4-byte characters, splits as StringIO splits it."""
    for filler in ("x", "\u0436", "\u20ac", "\U0001F600"):
        for k in range(8180 // len(filler.encode()), 8200 // len(filler.encode()) + 1):
            for end in ("\r\n", "\r", "\r\r\n", "\n\r"):
                text = filler * k + end + "a,b" + end
                assert list(ingest._csv_rows(text)) == list(stringio_csv_rows(text))


@st.composite
def profiles(draw):
    """One to four regimes, some a single day, in any order, with zero,
    missing, NaN, tiny, integer and large (>= 10, numpy's other sampler) means."""
    mean = st.sampled_from([0.0, float("nan"), 5e-324, 1e-300, 1e-3, 0.3, 2, 3.5, 12.0, 40.0])
    regimes, day = [], DEFAULT_COVERAGE[0]
    for _ in range(draw(st.integers(1, 4))):
        start = day + timedelta(days=draw(st.integers(0, 30)))
        end = start + timedelta(days=draw(st.sampled_from([0, 0, 1, 6, 40])))
        cats = draw(st.sets(st.sampled_from(Category)))
        regimes.append(Regime(start, end, {cat: draw(mean) for cat in cats}))
        day = end + timedelta(days=1)
    return Profile(regimes=tuple(draw(st.permutations(regimes))))


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), profile=profiles())
def test_generate_synthetic_matches_the_scalar_draws(seed, profile):
    assert generate_synthetic(seed, profile) == scalar_generate_synthetic(seed, profile)


def test_generate_synthetic_default_profile_matches_the_scalar_draws():
    assert generate_synthetic(11) == scalar_generate_synthetic(11)


TEXT_CELLS = st.sampled_from([None, "", " ", "T-72B3", "a,b", '"q"', 'say "x", then', "line\nbreak", "cr\rlf\r\n",
                              "\u0442\u0430\u043d\u043a"])


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(records=st.lists(st.builds(LossRecord, st.dates(date(1, 1, 1), date(9999, 12, 31)),
                                  st.sampled_from(Category), st.sampled_from(Status),
                                  TEXT_CELLS, TEXT_CELLS, TEXT_CELLS, TEXT_CELLS, TEXT_CELLS), max_size=30))
def test_records_to_csv_matches_the_per_row_writer(records):
    assert records_to_csv(records) == per_row_records_to_csv(records)


# sha256 of records_to_csv(generate_synthetic(seed)), as the scalar draws and
# the per-row writer made them: synth output must keep every byte.
SYNTH_CSV_SHA256 = {
    0: "b56ecfbf5b5b90b2dbc3bd7f2aec4269718d2ceba6582083727ebdd4f0fa73b7",
    7: "c5c23c5c97e4cd55ca9b944fb888330fb7d88feeb3ffbb734cf30571104d9d03",
    42: "9fd10f9d7be858b03e84022edb2f833f9e96936af19446f12ce67a6af986bf9a",
}


@pytest.mark.parametrize("seed", sorted(SYNTH_CSV_SHA256))
def test_synth_csv_bytes_are_pinned(seed):
    text = records_to_csv(generate_synthetic(seed))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SYNTH_CSV_SHA256[seed]


def test_parse_holds_its_input_about_once():
    """What a parse holds beyond its result, per input character, on the
    seed-42 synth CSV: StringIO's 4-byte-per-character copy made it 7.3
    bytes; the UTF-8 copy the reader reads in chunks makes it about 4.3."""
    text = records_to_csv(generate_synthetic(42))
    parse_records(text)  # once untraced, so that lazy set-up is not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = parse_records(text)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[0]) == 24_155
    assert (peak - held) / len(text) < 5.0, (peak - base, held - base)
