"""Seeded messy loss-record CSV for the ``cli_statistical`` workload.

Starts from ``generate_synthetic(seed)`` and re-renders every record the
way hand-collected exports look: three date formats, category and status
spellings, padded cells, model texts and free-text locations. It then
injects rows the ingest path must reject or collapse:

- duplicated sightings (the same record again, often in another date format);
- unparsable, blank or out-of-coverage dates;
- unknown statuses.

Model texts hit a small correction table and locations resolve through a
small geo index. Every injected count is returned, so the ``IngestReport``
and the ingested records can be checked exactly.

Corrections only move records between non-tank categories, and every
injected row is extra, so the tank series built from the ingested records
equals the one built from the clean synthetic records.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from attrikit import Category, generate_synthetic
from attrikit.ingest import LOGICAL_COLUMNS

CORRECTIONS_CSV = "MT-LB,apc\nBMP-2,ifv\nT-72B3,tank\n"
# Written under IFV and APC respectively, so the table re-labels them;
# T-72B3 is written under tank, which the table confirms without a change.
_CORRECTED_MODELS = {"MT-LB", "BMP-2"}
_MODEL_SPELLINGS = {"MT-LB": ("MT-LB", "mt lb", "Mt-Lb"), "BMP-2": ("BMP-2", "bmp 2", "BMP_2"),
                    "T-72B3": ("T-72B3", "t-72b3")}

GEO_INDEX_CSV = (
    "Bakhmut,Bakhmutskyi/Donetska\n"
    "Avdiivka,Pokrovskyi/Donetska\n"
    "Vuhledar,Volnovaskyi/Donetska\n"
    "Kupiansk,Kupianskyi/Kharkivska\n"
    "Robotyne,Polohivskyi/Zaporizka\n"
    "Krynky,Khersonskyi/Khersonska\n"
)
_KNOWN_PLACES = ("Bakhmut", "Avdiivka", "Vuhledar", "Kupiansk", "Robotyne", "Krynky")
_UNKNOWN_PLACES = ("near the front", "unknown village", "Sector 4")

_TYPE_SPELLINGS = {
    Category.TANK: ("tank", "Tank", "tanks", "MBT", " tank "),
    Category.IFV: ("ifv", "IFVs", "infantry fighting vehicle"),
    Category.APC: ("apc", "APCs", "armoured personnel carrier"),
    Category.ARTILLERY: ("artillery", "MLRS", "towed artillery"),
    Category.AIR_DEFENSE: ("air_defense", "Air Defence", "SAM"),
    Category.TRUCK: ("truck", "trucks", "lorry"),
    Category.ENGINEERING: ("engineering", "engineering vehicles"),
}
_STATUS_SPELLINGS = ("destroyed", "destroyed", "destroyed", "Destroyed", "lost", "")
_BAD_DATES = ("2023-13-45", "31.02.2023", "13/32/2023", "N/A", "yesterday", "", "2021-12-31", "2026-01-15")
_BAD_STATUSES = ("unclear", "burned?", "towed away")

DUPLICATE_SHARE = 0.01
BAD_DATE_SHARE = 0.005
BAD_STATUS_SHARE = 0.005


@dataclass
class MessyInput:
    csv_text: str
    expected: dict = field(default_factory=dict)


def _render_date(day, fmt: int) -> str:
    if fmt == 0:
        return day.isoformat()
    if fmt == 1:
        return day.strftime("%d.%m.%Y")
    return day.strftime("%m/%d/%Y")


def generate_messy(seed: int) -> MessyInput:
    """Messy CSV text plus the counts ingest must report for it."""
    records = generate_synthetic(seed)
    rng = np.random.default_rng([seed, 0x6D657373])
    n = len(records)
    date_fmt = rng.choice(3, size=n, p=[0.7, 0.15, 0.15])
    draws = rng.random((n, 4))

    rows: list[tuple[str, dict]] = []
    corrections = resolvable = tank_records = 0
    for i, rec in enumerate(records):
        spellings = _TYPE_SPELLINGS.get(rec.category, (rec.category.value,))
        model = ""
        if draws[i, 0] < 0.15:
            if rec.category is Category.IFV:
                model = "MT-LB"
            elif rec.category is Category.APC:
                model = "BMP-2"
            elif rec.category is Category.TANK:
                model = "T-72B3"
        location = ""
        if draws[i, 1] < 0.15:
            location = _KNOWN_PLACES[int(draws[i, 2] * len(_KNOWN_PLACES))]
            location = (location, location.upper(), f"  {location.lower()} ")[i % 3]
            resolvable += 1
        elif draws[i, 1] < 0.17:
            location = _UNKNOWN_PLACES[i % len(_UNKNOWN_PLACES)]
        corrections += model in _CORRECTED_MODELS
        tank_records += rec.category is Category.TANK
        row = {
            "date": rec.date,
            "fmt": int(date_fmt[i]),
            "type": spellings[int(draws[i, 3] * len(spellings))],
            "model_key": model,
            "model": _MODEL_SPELLINGS[model][i % len(_MODEL_SPELLINGS[model])] if model else "",
            "status": _STATUS_SPELLINGS[i % len(_STATUS_SPELLINGS)],
            "location": location,
            "url": rec.source_url,
        }
        rows.append(("record", row))

    n_dup = max(1, int(n * DUPLICATE_SHARE))
    n_bad_date = max(1, int(n * BAD_DATE_SHARE))
    n_bad_status = max(1, int(n * BAD_STATUS_SHARE))
    extras: list[tuple[str, dict]] = []
    for j in rng.choice(n, size=n_dup, replace=False):
        dup = dict(rows[j][1])
        dup["fmt"] = (dup["fmt"] + 1 + int(rng.integers(2))) % 3
        extras.append(("duplicate", dup))
        corrections += dup["model_key"] in _CORRECTED_MODELS
    for k in range(n_bad_date):
        base = dict(rows[int(rng.integers(n))][1])
        base["raw_date"] = _BAD_DATES[k % len(_BAD_DATES)]
        extras.append(("bad_date", base))
    for k in range(n_bad_status):
        base = dict(rows[int(rng.integers(n))][1])
        base["status"] = _BAD_STATUSES[k % len(_BAD_STATUSES)]
        base["url"] = f"{base['url']}#status{k}"
        extras.append(("bad_status", base))

    for pos, extra in sorted(zip(rng.integers(0, n + 1, size=len(extras)).tolist(), extras),
                             key=lambda item: -item[0]):
        rows.insert(pos, extra)

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(LOGICAL_COLUMNS)
    rejected_lines = []
    for line_no, (kind, row) in enumerate(rows, start=2):
        if kind in ("bad_date", "bad_status"):
            rejected_lines.append(line_no)
        raw_date = row.get("raw_date", _render_date(row["date"], row["fmt"]))
        writer.writerow([raw_date, row["type"], row["model"], row["status"],
                         row["location"], "", "", row["url"]])

    expected = {
        "rows_read": len(rows),
        "rows_parsed": n,
        "duplicates_removed": n_dup,
        "category_corrections": int(corrections),
        "unparsable_lines": rejected_lines,
        "geo_resolved": resolvable,
        "tank_records": int(tank_records),
    }
    return MessyInput(out.getvalue(), expected)

