"""CSV and JSON report emission.

Each report table is defined once, by its writer below: its columns and the
raw values of each row. That one Table renders two ways:

- CSV: one `# generated_at=...` comment line (the only nondeterministic
  byte in any report), an RFC 4180 header row, then the rows. Percentages
  render to 0 decimal places, mirroring the usual table style, and as `—`
  when the cell has no members; list-name sets join with `;`; a
  (count, percent) pair cell fills two columns.
- report.json: the same rows as objects keyed by column, at full precision.

Each `write_*` function writes its CSV and returns the Table, so `evaluate`
puts the very rows it wrote into report.json.
"""

from __future__ import annotations

import csv
import datetime
import json

EMPTY_PERCENT = "—"  # rendered for cells with no members
PII_PARTIES = ("first_party", "third_party", "platform_party", "total")


def _now_iso() -> str:
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ"
    )


def fmt_pct(value: float | None) -> str:
    return EMPTY_PERCENT if value is None else f"{value:.0f}"


def _csv_row(row) -> list:
    cells = []
    for value in row:
        if isinstance(value, (str, int)):
            cells.append(value)
        elif isinstance(value, tuple):  # (count, percent) pair
            cells += (value[0], fmt_pct(value[1]))
        elif isinstance(value, frozenset):  # list names
            cells.append(";".join(sorted(value)))
        else:  # a percentage, or None for a cell with no members
            cells.append(fmt_pct(value))
    return cells


class Table:
    """A report table: its columns and rows of raw values, one per column.

    ``header`` is the CSV header where it differs from the columns, as it
    does when a pair cell fills two CSV columns.
    """

    def __init__(self, columns: tuple[str, ...], rows: list, header: tuple[str, ...] = ()):
        self.columns = columns
        self.rows = rows
        self.header = header or columns

    def to_json(self) -> list[dict]:
        """The rows as report.json objects; list-name sets stay frozensets
        until ``write_report_json`` sorts them."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def write_csv(self, path: str, generated_at: str | None = None) -> Table:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(f"# generated_at={generated_at or _now_iso()}\n")
            writer = csv.writer(fh)
            writer.writerow(self.header)
            writer.writerows(map(_csv_row, self.rows))
        return self


def write_block_rates(
    path: str,
    rows: list,
    generated_at: str | None = None,
    flow_weighted: bool = False,
) -> Table:
    """rows: raw rows in column order. The flow_rate_* columns are present
    only when flow weighting is enabled."""
    columns = ("platform", "list", "fqdn_count", "esld_count", "rate_exact", "rate_suffix")
    if flow_weighted:
        columns += ("flow_rate_exact", "flow_rate_suffix")
    return Table(columns, rows).write_csv(path, generated_at)


def write_penetration(path: str, rows: list, generated_at: str | None = None) -> Table:
    """rows: (platform, metrics.PenetrationRow)."""
    return Table(
        ("platform", "esld", "app_count", "percent", "party"),
        [(platform, r.esld, r.app_count, r.percent, r.party.value) for platform, r in rows],
    ).write_csv(path, generated_at)


def write_popularity_curve(path: str, rows: list, generated_at: str | None = None) -> Table:
    """rows: (platform, metrics.CurveRow)."""
    return Table(
        ("platform", "bucket", "domain_count", "rate"),
        [(platform, *r) for platform, r in rows],
    ).write_csv(path, generated_at)


def write_pii_table(path: str, rows: list, generated_at: str | None = None) -> Table:
    """rows: metrics.PiiTableRow; each party cell is a (count, percent) pair."""
    return Table(
        ("platform", "pii_kind", *PII_PARTIES),
        [(r.platform, r.kind.value, *r.cells) for r in rows],
        header=(
            "platform",
            "pii_kind",
            *(f"{party}_{part}" for party in PII_PARTIES for part in ("count", "pct_blocked")),
        ),
    ).write_csv(path, generated_at)


def write_fn_candidates(path: str, rows: list, generated_at: str | None = None) -> Table:
    """rows: (platform, metrics.FnCandidate)."""
    return Table(
        ("platform", "fqdn", "matched_keyword", "blocked_by"),
        [(platform, *r) for platform, r in rows],
    ).write_csv(path, generated_at)


def _overlap_apps(report) -> Table:
    return Table(
        ("app_a", "app_b", "developer", "only_a", "only_b", "both"),
        [
            (o.app_a, o.app_b, o.developer, len(o.only_a), len(o.only_b), len(o.both))
            for o in sorted(report.apps, key=lambda o: o.app_a.lower())
        ],
    )


def write_overlap(path: str, report, generated_at: str | None = None) -> Table:
    """report: metrics.OverlapReport; a TOTAL row follows the app rows."""
    apps = _overlap_apps(report)
    total = ("TOTAL", "", "", report.total_only_a, report.total_only_b, report.total_both)
    return Table(apps.columns, apps.rows + [total]).write_csv(path, generated_at)


def write_classifications(path: str, rows: list, generated_at: str | None = None) -> Table:
    """rows: (platform, app_id, developer, esld, party)."""
    return Table(("platform", "app_id", "developer", "esld", "party"), rows).write_csv(
        path, generated_at
    )


def overlap_to_json(report) -> dict:
    return {
        "common_app_count": report.common_app_count,
        "apps": _overlap_apps(report).to_json(),
        "totals": {
            "only_a": report.total_only_a,
            "only_b": report.total_only_b,
            "both": report.total_both,
        },
    }


def write_report_json(path: str, document: dict, generated_at: str | None = None) -> None:
    document = {"generated_at": generated_at or _now_iso(), **document}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2, default=sorted)  # sets as sorted arrays
        fh.write("\n")
