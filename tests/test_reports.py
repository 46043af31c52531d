import csv
import json

from tvblock.metrics import FnCandidate, OverlapReport, AppOverlap, pii_block_table
from tvblock.party import PartyLabel
from tvblock.pii import Encoding, ExposureRecord, PiiKind
from tvblock.reports import (
    EMPTY_PERCENT,
    fmt_pct,
    overlap_to_json,
    write_block_rates,
    write_fn_candidates,
    write_overlap,
    write_pii_table,
    write_report_json,
)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        rows = list(csv.reader(fh))
    return first, rows


class TestFormatting:
    def test_percent_rendering(self):
        assert fmt_pct(66.666) == "67"
        assert fmt_pct(0.0) == "0"
        assert fmt_pct(None) == EMPTY_PERCENT

    def test_timestamp_confined_to_header_line(self, tmp_path):
        path = tmp_path / "rates.csv"
        write_block_rates(
            str(path),
            [("Roku", "PD", 10, 8, 50.0, 60.0)],
        )
        first, rows = read_csv(str(path))
        assert first.startswith("# generated_at=")
        assert rows[0] == ["platform", "list", "fqdn_count", "esld_count", "rate_exact", "rate_suffix"]
        assert rows[1] == ["Roku", "PD", "10", "8", "50", "60"]

    def test_rfc4180_quoting(self, tmp_path):
        path = tmp_path / "fn.csv"
        write_fn_candidates(
            str(path),
            [("Roku", FnCandidate("a.com", "ad", frozenset({"PD", "TF"})))],
        )
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            rows = list(csv.reader(fh))
        assert rows[1] == ["Roku", "a.com", "ad", "PD;TF"]

    def test_overlap_total_row(self, tmp_path):
        report = OverlapReport(
            apps=(
                AppOverlap(
                    app_a="App, Inc",
                    app_b="app.pkg",
                    developer="Dev",
                    only_a=frozenset({"a.com"}),
                    only_b=frozenset(),
                    both=frozenset({"b.com"}),
                ),
            ),
            total_only_a=1,
            total_only_b=0,
            total_both=1,
        )
        path = tmp_path / "overlap.csv"
        write_overlap(str(path), report)
        first, rows = read_csv(str(path))
        assert rows[1][0] == "App, Inc"  # comma survives quoting
        assert rows[-1] == ["TOTAL", "", "", "1", "0", "1"]
        doc = overlap_to_json(report)
        assert doc["totals"] == {"only_a": 1, "only_b": 0, "both": 1}

    def test_pii_table_shape(self, tmp_path):
        exposures = [
            ExposureRecord(
                app_id="a",
                fqdn="x.com",
                esld="x.com",
                pii_kind=PiiKind.ADVERTISING_ID,
                encoding=Encoding.PLAIN,
                location="uri",
                timestamp=0,
                party=PartyLabel.THIRD_PARTY,
                blocked_by=frozenset({"PD"}),
            )
        ]
        rows = pii_block_table(exposures, platform="Roku")
        path = tmp_path / "pii.csv"
        write_pii_table(str(path), rows)
        first, parsed = read_csv(str(path))
        assert len(parsed) == 1 + 6  # header + six kinds
        assert parsed[0][:2] == ["platform", "pii_kind"]
        assert len(parsed[0]) == 10
        adid = parsed[1]
        assert adid[1] == "advertising_id"
        assert adid[4:6] == ["1", "100"]  # third party cell
        device = parsed[3]
        assert device[2:] == ["0", EMPTY_PERCENT] * 4

    def test_report_json_header(self, tmp_path):
        path = tmp_path / "report.json"
        write_report_json(str(path), {"notes": []}, generated_at="TEST")
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        assert doc["generated_at"] == "TEST"
