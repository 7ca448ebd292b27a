"""Record parsing, dedup, geo normalization, and the synthetic generator."""

import json
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attrikit.cli import main
from attrikit.errors import SchemaError
from attrikit.ingest import (
    _CATEGORY_ALIASES,
    Category,
    GeoIndex,
    IngestReport,
    Profile,
    Regime,
    Status,
    default_profile,
    generate_synthetic,
    load_corrections,
    load_geo_index,
    load_profile,
    make_record,
    normalize_geo,
    parse_category,
    parse_records,
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
    assert report == IngestReport(rows_read=2, rows_parsed=2)


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
    assert report == IngestReport(rows_read=2, rows_parsed=2)


def test_long_row_ignores_extra_cells():
    records, report = parse_records(HEADER + "2022-03-01,tank,,damaged,Bucha,,,http://a,extra,cells\n")
    assert records[0].source_url == "http://a" and records[0].status is Status.DAMAGED
    assert [r.record_id for r in records] == [
        record_id_of(date(2022, 3, 1), Category.TANK, None, "Bucha", "http://a"),
    ]
    assert report == IngestReport(rows_read=1, rows_parsed=1)


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
    ])


def test_quoted_field_with_newline_and_comma():
    text = HEADER + (
        '2022-03-01,tank,"T-72B3, obr. 2016\nupgraded",destroyed,Bucha,,,\n'
        "bad-date,tank,,,,,,\n"  # one row later, although two physical lines later
    )
    records, report = parse_records(text)
    assert [r.record_id for r in records] == [
        record_id_of(date(2022, 3, 1), Category.TANK, "T-72B3, obr. 2016\nupgraded", "Bucha", None),
    ]
    assert report == IngestReport(rows_read=2, rows_parsed=1, unparsable_rows=[(3, "unparsable date 'bad-date'")])


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
    for alias, category in _CATEGORY_ALIASES.items():
        assert category is not Category.OTHER
        assert parse_category(alias) is category, alias


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
        make_record(date(2022, 5, 1), Category.TANK, Status.DESTROYED, location_text="Bakhmut "),
        make_record(date(2022, 5, 2), Category.IFV, Status.DESTROYED, location_text="X", raion="R", oblast="O"),
        make_record(date(2022, 5, 3), Category.APC, Status.DESTROYED),
    ]
    out = normalize_geo(records, index)
    assert out[0].raion == "Bakhmutskyi" and out[0].oblast == "Donetska"
    assert out[1].raion == "R"  # already set: untouched
    assert out[2].raion is None
    assert [r.date for r in out] == [r.date for r in records]


def test_normalize_geo_empty_index_leave_blank_is_identity():
    records = [make_record(date(2022, 5, 1), Category.TANK, Status.DESTROYED, location_text="Somewhere")]
    out = normalize_geo(records, GeoIndex(entries={}))
    assert out == records


def test_normalize_geo_error_policy_lists_strings():
    index = GeoIndex(entries={}, unmatched_policy="error")
    records = [make_record(date(2022, 5, 1), Category.TANK, Status.DESTROYED, location_text="Nowhere")]
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
    else:  # the library call on the same text, line ends untranslated
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
