"""Loss-record ingestion: parsing, validation, deduplication, geo normalization.

Also hosts the seeded synthetic dataset generator used for tests and demos,
since real visually-confirmed loss datasets are not redistributable.

The side tables (geo index, category corrections, synthetic profile) are
small CSVs that one row reader, ``_table_rows``, checks for all three.
"""

from __future__ import annotations

import csv
import functools
import io
import re
import sys
from dataclasses import dataclass, field
from datetime import date, timedelta
from enum import Enum
from typing import NamedTuple

from .errors import SchemaError

DEFAULT_COVERAGE = (date(2022, 2, 24), date(2025, 7, 31))

# Logical column names; a schema maps these onto the CSV's actual headers.
LOGICAL_COLUMNS = ("date", "type", "model", "status", "location", "raion", "oblast", "url")
MANDATORY_COLUMNS = ("date", "type")

# The formats "%Y-%m-%d", "%d.%m.%Y" and "%m/%d/%Y", in that order, matched
# as datetime.strptime matches them, with its own patterns for %Y, %m and %d:
# a month or day may be unpadded and a day space-padded, and a year's \d
# takes any Unicode decimal digit. Not calling strptime saves its per-call
# set-up and the exception it raises for each format a cell does not match.
_YEAR, _MONTH, _DAY = r"(?P<y>\d\d\d\d)", r"(?P<m>1[0-2]|0[1-9]|[1-9])", r"(?P<d>3[01]|[12]\d|0[1-9]|[1-9]| [1-9])"
_DATE_PATTERNS = tuple(re.compile(pattern) for pattern in (
    f"{_YEAR}-{_MONTH}-{_DAY}", rf"{_DAY}\.{_MONTH}\.{_YEAR}", f"{_MONTH}/{_DAY}/{_YEAR}"))


class Category(Enum):
    TANK = "tank"
    IFV = "ifv"
    APC = "apc"
    ARTILLERY = "artillery"
    AIR_DEFENSE = "air_defense"
    AIRCRAFT = "aircraft"
    HELICOPTER = "helicopter"
    TRUCK = "truck"
    ENGINEERING = "engineering"
    OTHER = "other"


class Status(Enum):
    DESTROYED = "destroyed"
    DAMAGED = "damaged"
    ABANDONED = "abandoned"
    CAPTURED = "captured"


class LossRecord(NamedTuple):
    """One visually-confirmed equipment loss event."""

    date: date
    category: Category
    status: Status
    model_text: str | None = None
    location_text: str | None = None
    raion: str | None = None
    oblast: str | None = None
    source_url: str | None = None

    @property
    def record_id(self) -> int:
        """The stable 64-bit id of this record's dedup key (``record_id_of``)."""
        return record_id_of(self.date, self.category, self.model_text, self.location_text, self.source_url)


@dataclass(frozen=True)
class GeoIndex:
    """Normalized location string -> (raion, oblast) lookup table."""

    entries: dict[str, tuple[str, str]]
    unmatched_policy: str = "leave_blank"  # or "error"

    def __post_init__(self):
        if self.unmatched_policy not in ("leave_blank", "error"):
            raise ValueError(f"unknown unmatched_policy {self.unmatched_policy!r}")
        for key, (raion, oblast) in self.entries.items():
            if not raion or not oblast:
                raise ValueError(f"geo index entry {key!r} has a blank raion or oblast")

    def lookup(self, location: str) -> tuple[str, str] | None:
        return self.entries.get(_normalize_location(location))


@dataclass
class IngestReport:
    rows_read: int = 0
    rows_parsed: int = 0
    duplicates_removed: int = 0
    unparsable_rows: list[tuple[int, str]] = field(default_factory=list)
    category_corrections: int = 0
    other_categories: int = 0  # valid rows of a category not asked for
    date_span: tuple[date, date] | None = None  # first and last date of the valid rows

    def check(self) -> None:
        if self.rows_read != (self.rows_parsed + len(self.unparsable_rows) + self.duplicates_removed
                              + self.other_categories):
            raise AssertionError("ingest report row accounting does not balance")


def _normalize_location(text: str) -> str:
    return " ".join(text.split()).casefold()


def _normalize_token(text: str) -> str:
    return " ".join(text.replace("_", " ").replace("-", " ").split()).casefold()


# Each enum's own names, then common phrasing seen in loss exports, mapped onto
# the enum. Keys are normalized as the parsers normalize their input, so case,
# "_", "-" and runs of spaces do not matter.
_CATEGORY_TOKENS = {_normalize_token(text): category for text, category in {
    **{category.value: category for category in Category},
    "tanks": Category.TANK,
    "mbt": Category.TANK,
    "infantry fighting vehicle": Category.IFV,
    "infantry fighting vehicles": Category.IFV,
    "ifvs": Category.IFV,
    "armored personnel carrier": Category.APC,
    "armoured personnel carrier": Category.APC,
    "apcs": Category.APC,
    "self-propelled artillery": Category.ARTILLERY,
    "towed artillery": Category.ARTILLERY,
    "mlrs": Category.ARTILLERY,
    "air defence": Category.AIR_DEFENSE,
    "air defense": Category.AIR_DEFENSE,
    "anti-aircraft": Category.AIR_DEFENSE,
    "sam": Category.AIR_DEFENSE,
    "plane": Category.AIRCRAFT,
    "jet": Category.AIRCRAFT,
    "helicopters": Category.HELICOPTER,
    "trucks": Category.TRUCK,
    "lorry": Category.TRUCK,
    "engineering vehicle": Category.ENGINEERING,
    "engineering vehicles": Category.ENGINEERING,
}.items()}
_STATUS_TOKENS = {_normalize_token(text): status for text, status in {
    **{status.value: status for status in Status},
    "destroyed and captured": Status.DESTROYED,
    "damaged and captured": Status.CAPTURED,
    "lost": Status.DESTROYED,
}.items()}


def parse_category(text: str | None) -> Category:
    """Map free-text equipment type onto the category enum.

    Unmappable inputs become OTHER rather than failing, so one odd label
    never drops a record.
    """
    return _CATEGORY_TOKENS.get(_normalize_token(text or ""), Category.OTHER)


def parse_status(text: str | None) -> Status | None:
    """Map free-text status; blank means destroyed, unknown returns None."""
    return _STATUS_TOKENS.get(_normalize_token(text)) if text and text.strip() else Status.DESTROYED


def parse_loss_date(text: str) -> date:
    """ISO 8601 first, then DD.MM.YYYY, then MM/DD/YYYY."""
    cleaned = text.strip()
    for pattern in _DATE_PATTERNS:
        match = pattern.fullmatch(cleaned)
        if match is None:
            continue
        try:
            return date(int(match["y"]), int(match["m"]), int(match["d"]))
        except ValueError:  # no such day, as 29.02.2023, or year 0
            continue
    raise ValueError(f"unparsable date {text!r}")


def _dedup_key(
    iso_day: str,
    category_value: str,
    model_text: str | None,
    location_text: str | None,
    source_url: str | None,
) -> str:
    """The dedup key: two records are the same sighting when their keys are equal."""
    return f"{iso_day}\x1f{category_value}\x1f{model_text or ''}\x1f{location_text or ''}\x1f{source_url or ''}"


def record_id_of(
    day: date,
    category: Category,
    model_text: str | None,
    location_text: str | None,
    source_url: str | None,
) -> int:
    """Stable 64-bit id over the dedup key fields.

    SHA-256 based so the same row hashes identically across runs,
    platforms, and processes.
    """
    import hashlib  # imported on first use: parse_records hashes no row

    key = _dedup_key(day.isoformat(), category.value, model_text, location_text, source_url)
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _csv_rows(text: str):
    """Rows of CSV text. The reader itself splits \\n, \\r\\n and bare \\r line
    ends, and a line it cannot read (a field over 128 KiB) is bad input."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as err:
        raise SchemaError(f"line {reader.line_num}: {err}") from None


def _header_columns(reader, schema: dict[str, str] | None) -> list[int]:
    """Read the header row: the cell index of each of LOGICAL_COLUMNS. A
    missing optional column gets an index past the end of every row, so its
    cells read as a short row's missing ones. A schema naming an unknown
    logical column, or a header without a mandatory column, raises
    SchemaError.

    Rows are read as csv.DictReader reads them: a repeated header name reads
    its last column, cells past the end of a short row are blank, extra cells
    are ignored, and blank lines are skipped unnumbered.
    """
    schema = dict(schema) if schema else {}
    for logical in schema:
        if logical not in LOGICAL_COLUMNS:
            raise SchemaError(f"unknown logical column {logical!r} in schema")
    colmap = {logical: schema.get(logical, logical) for logical in LOGICAL_COLUMNS}
    header = next(reader, [])
    for logical in MANDATORY_COLUMNS:
        if colmap[logical] not in header:
            raise SchemaError(f"mandatory column {colmap[logical]!r} (logical {logical!r}) missing from header")
    position = {name: i for i, name in enumerate(header)}
    return [position.get(colmap[logical], sys.maxsize) for logical in LOGICAL_COLUMNS]


def check_categories(categories: set[Category] | None) -> None:
    """A category filter holds Category members only: a name such as
    ``"tank"`` would match no record, so it is a TypeError, not an empty result."""
    wrong = sorted(repr(c) for c in categories or () if not isinstance(c, Category))
    if wrong:
        raise TypeError(f"category filter members must be Category values, not {', '.join(wrong)}")


def parse_records(
    csv_text: str,
    schema: dict[str, str] | None = None,
    corrections: dict[str, Category] | None = None,
    categories: set[Category] | None = None,
) -> tuple[list[LossRecord], IngestReport]:
    """Parse a loss-record CSV into validated, deduplicated records.

    ``schema`` maps the logical columns (date, type, model, status,
    location, raion, oblast, url) onto the file's header names; identity
    mapping by default. Missing optional columns are tolerated, a missing
    date or type column raises SchemaError. Rows with unparsable dates,
    dates outside ``DEFAULT_COVERAGE`` or unknown statuses are recorded in
    the report and skipped without raising. ``corrections`` optionally re-labels
    categories by model text. A row whose dedup key (date, category, model,
    location, url) equals an earlier row's is counted as a duplicate and
    dropped.

    ``categories``, when given, keeps only the records of those categories
    (Category members; any other member is a TypeError), as corrections
    label them, and the report counts the other valid rows
    in ``other_categories``. Dedup keys include the category, so dropping
    those rows drops no duplicate of a kept one. The report's ``date_span``
    is the first and last date of the valid rows of every category (None
    when there are none).
    """
    check_categories(categories)

    def label(category: Category) -> tuple[Category, str, bool]:
        return category, category.value, categories is None or category in categories

    norm_corrections = {_normalize_token(text): label(cat) for text, cat in (corrections or {}).items()}

    reader = _csv_rows(csv_text)
    i_date, i_type, i_model, i_status, *i_others = _header_columns(reader, schema)  # LOGICAL_COLUMNS
    i_cells = [i_model, *i_others]  # model, location, raion, oblast, url

    # Many rows share a date, type, status or model text, so each distinct
    # cell is parsed once per call. The date, type and status cells, and the
    # model cell a correction looks up, are read unstripped: their parsers
    # strip or normalise them. A row of a category not asked for is dropped
    # before its other cells are stripped.
    day_of = functools.cache(_day_and_iso)
    status_of = functools.cache(parse_status)
    category_of = functools.cache(lambda text: label(parse_category(text)))
    correction_of = functools.cache(
        lambda text: norm_corrections.get(_normalize_token(text)) if text.strip() else None)
    lo, hi = DEFAULT_COVERAGE

    records: list[LossRecord] = []
    unparsable: list[tuple[int, str]] = []
    days: set[date] = set()
    # Two rows are duplicates when their dedup keys are equal, which is when
    # their record ids are, so no row is hashed here.
    seen_keys: set[str] = set()
    duplicates = relabelled = others = blanks = 0

    line_no = 1  # the header's; a blank line is no row and takes no number
    for line_no, row in enumerate(reader, 2):
        try:
            day, iso_day = day_of(row[i_date])
        except (IndexError, ValueError):
            if not row:
                blanks += 1
                continue
            cell = row[i_date].strip() if i_date < len(row) else ""
            unparsable.append((line_no - blanks, f"unparsable date {cell!r}" if cell else "missing date"))
            continue
        if not lo <= day <= hi:
            unparsable.append((line_no - blanks, f"date {iso_day} outside coverage window"))
            continue
        width = len(row)
        raw_status = row[i_status] if i_status < width else None
        status = status_of(raw_status)
        if status is None:
            unparsable.append((line_no - blanks, f"unknown status {raw_status.strip()!r}"))
            continue
        days.add(day)

        category, category_value, keep = category_of(row[i_type] if i_type < width else None)
        if norm_corrections and i_model < width:
            corrected = correction_of(row[i_model])
            if corrected is not None and corrected[0] is not category:
                category, category_value, keep = corrected
                relabelled += 1
        if not keep:
            others += 1
            continue

        model_text, location, raion, oblast, url = [
            (row[i].strip() or None) if i < width else None for i in i_cells
        ]
        key = _dedup_key(iso_day, category_value, model_text, location, url)
        if key in seen_keys:
            duplicates += 1
            continue
        seen_keys.add(key)
        records.append(LossRecord(day, category, status, model_text, location, raion, oblast, url))

    report = IngestReport(rows_read=line_no - 1 - blanks, rows_parsed=len(records), duplicates_removed=duplicates,
                          unparsable_rows=unparsable, category_corrections=relabelled, other_categories=others,
                          date_span=(min(days), max(days)) if days else None)
    report.check()
    return records, report


class _Day(NamedTuple):
    """A parsed date and its ISO string.

    A tuple subclass rather than a tuple: the ~1.3k cached in a parse of
    the default coverage are freed together, and plain tuples would go to
    the interpreter's tuple free list, where they pin the memory of the
    whole parse (+5 MB RSS after a 24k-row parse).
    """

    day: date
    iso: str


def _day_and_iso(text: str) -> _Day:
    day = parse_loss_date(text)
    return _Day(day, day.isoformat())


def normalize_geo(records: list[LossRecord], index: GeoIndex) -> list[LossRecord]:
    """Fill blank raion/oblast from the geo index, preserving order.

    Records that already carry either level are left untouched. Unmatched
    non-blank locations either stay blank or, under policy "error", abort
    with the full list of offending strings.
    """
    unmatched: list[str] = []
    out: list[LossRecord] = []
    for record in records:
        if record.raion or record.oblast or not record.location_text:
            out.append(record)
            continue
        hit = index.lookup(record.location_text)
        if hit is None:
            unmatched.append(record.location_text)
            out.append(record)
        else:
            out.append(record._replace(raion=hit[0], oblast=hit[1]))
    if unmatched and index.unmatched_policy == "error":
        listing = ", ".join(repr(s) for s in sorted(set(unmatched)))
        raise SchemaError(f"locations not in geo index: {listing}")
    return out


# --------------------------------------------------------------------------
# Synthetic data generation


@dataclass(frozen=True)
class Regime:
    """Contiguous span of days with constant per-category mean daily losses."""

    start: date
    end: date  # inclusive
    means: dict[Category, float]

    def __post_init__(self):
        if self.start > self.end:
            raise SchemaError(f"regime start {self.start} after end {self.end}")
        for cat, mean in self.means.items():
            if mean < 0:
                raise SchemaError(f"negative mean {mean} for {cat.value} in regime starting {self.start}")


@dataclass(frozen=True)
class Profile:
    """Regimes that do not overlap, each inside DEFAULT_COVERAGE: ingest
    drops every record outside it."""

    regimes: tuple[Regime, ...]

    def __post_init__(self):
        lo, hi = DEFAULT_COVERAGE
        for r in self.regimes:
            if r.start < lo or r.end > hi:
                raise SchemaError(f"regime {r.start}..{r.end} is not inside the coverage window {lo}..{hi}")
        ordered = sorted(self.regimes, key=lambda r: r.start)
        for a, b in zip(ordered, ordered[1:]):
            if b.start <= a.end:
                raise SchemaError(f"regimes overlap: {a.start}..{a.end} and {b.start}..{b.end}")

    def span(self) -> tuple[date, date]:
        ordered = sorted(self.regimes, key=lambda r: r.start)
        return ordered[0].start, ordered[-1].end


def default_profile() -> Profile:
    """Three-phase default: 2022 surge, long plateau, taper from late 2024.

    Daily means are set so aggregate magnitudes sit in a plausible range
    for this domain (tens of losses per day early on, roughly two tanks
    per day late); they are illustrative, not calibrated to any dataset.
    """
    surge = {
        Category.TANK: 5.5, Category.IFV: 7.0, Category.APC: 3.5,
        Category.ARTILLERY: 2.0, Category.AIR_DEFENSE: 0.6, Category.AIRCRAFT: 0.25,
        Category.HELICOPTER: 0.2, Category.TRUCK: 6.0, Category.ENGINEERING: 0.4,
        Category.OTHER: 1.5,
    }
    plateau = {
        Category.TANK: 2.6, Category.IFV: 4.5, Category.APC: 2.0,
        Category.ARTILLERY: 2.5, Category.AIR_DEFENSE: 0.5, Category.AIRCRAFT: 0.1,
        Category.HELICOPTER: 0.08, Category.TRUCK: 4.0, Category.ENGINEERING: 0.35,
        Category.OTHER: 1.2,
    }
    taper = {
        Category.TANK: 2.2, Category.IFV: 3.0, Category.APC: 1.2,
        Category.ARTILLERY: 1.8, Category.AIR_DEFENSE: 0.4, Category.AIRCRAFT: 0.05,
        Category.HELICOPTER: 0.04, Category.TRUCK: 3.2, Category.ENGINEERING: 0.25,
        Category.OTHER: 0.9,
    }
    return Profile(regimes=(
        Regime(date(2022, 2, 24), date(2022, 12, 31), surge),
        Regime(date(2023, 1, 1), date(2024, 11, 30), plateau),
        Regime(date(2024, 12, 1), date(2025, 7, 31), taper),
    ))


def generate_synthetic(seed: int, profile: Profile | None = None) -> list[LossRecord]:
    """Draw a deterministic synthetic record list from a regime profile.

    Per-day per-category counts are Poisson with the regime mean. Draw
    order is fixed (regimes by start date, days in order, categories in
    enum order) from a single PCG64 stream, so the same seed always yields
    the same records byte for byte. Each record gets a unique synthetic
    source URL so that deduplication never collapses same-day losses.
    """
    import numpy as np  # imported on first use: nothing else here needs numpy

    profile = profile or default_profile()
    rng = np.random.default_rng(seed)
    records: list[LossRecord] = []
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


# --------------------------------------------------------------------------
# File round-trips


def records_to_csv(records: list[LossRecord]) -> str:
    """Serialize records with the standard logical header (RFC 4180)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LOGICAL_COLUMNS)
    for r in records:
        writer.writerow([
            r.date.isoformat(), r.category.value, r.model_text or "", r.status.value,
            r.location_text or "", r.raion or "", r.oblast or "", r.source_url or "",
        ])
    return out.getvalue()


def _table_rows(csv_text: str, table: str, columns: str, header: bool = False):
    """(line number, row) of each row of a side table with the comma-separated
    ``columns``. Blank lines and rows of blank cells are numbered but
    skipped, as is, with ``header``, a row that opens with the first
    column's name. A row of another width is a SchemaError naming the line."""
    names = columns.split(",")
    for line_no, row in enumerate(_csv_rows(csv_text), start=1):
        if not row or all(not c.strip() for c in row) or header and row[0].strip().lower() == names[0]:
            continue
        if len(row) != len(names):
            raise SchemaError(f"{table} line {line_no}: expected '{columns}'")
        yield line_no, row


def load_geo_index(csv_text: str, unmatched_policy: str = "leave_blank") -> GeoIndex:
    """Two-column CSV: location, "raion/oblast"."""
    entries: dict[str, tuple[str, str]] = {}
    for line_no, (location, levels) in _table_rows(csv_text, "geo index", "location,raion/oblast"):
        if "/" not in levels:
            raise SchemaError(f"geo index line {line_no}: expected 'location,raion/oblast'")
        raion, oblast = [level.strip() for level in levels.split("/", 1)]
        if not raion or not oblast:
            raise SchemaError(f"geo index line {line_no}: blank raion or oblast")
        entries[_normalize_location(location)] = (raion, oblast)
    return GeoIndex(entries=entries, unmatched_policy=unmatched_policy)


def load_corrections(csv_text: str) -> dict[str, Category]:
    """Two-column CSV: model_text, category."""
    return {model.strip(): parse_category(category)
            for _, (model, category) in _table_rows(csv_text, "correction table", "model_text,category")}


def load_profile(csv_text: str) -> Profile:
    """Regime profile CSV: start,end,category,mean_per_day (rows grouped by span)."""
    spans: dict[tuple[date, date], dict[Category, float]] = {}
    for line_no, row in _table_rows(csv_text, "profile", "start,end,category,mean_per_day", header=True):
        try:
            start, end, mean = parse_loss_date(row[0]), parse_loss_date(row[1]), float(row[3])
        except ValueError as err:
            raise SchemaError(f"profile line {line_no}: {err}") from err
        spans.setdefault((start, end), {})[parse_category(row[2])] = mean
    if not spans:
        raise SchemaError("profile file contains no regimes")
    return Profile(regimes=tuple(Regime(start, end, means) for (start, end), means in sorted(spans.items())))
