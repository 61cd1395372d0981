from __future__ import annotations

import gzip
import io
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from aircast.errors import EmptySeriesError, SchemaError
from aircast.ingest import (
    ColumnMapping,
    IngestReport,
    Pollutant,
    READING_DTYPE,
    STATION_ROSTER,
    build_station_series,
    parse_readings,
    parse_readings_path,
    station_key,
)

HEADER = "station,timestamp,pollutant,value\n"


def parse_text(text: str, mapping=None):
    return parse_readings(io.BytesIO(text.encode("utf-8")), mapping)


class TestStation:
    """A station is its key: names are one station exactly when their keys match."""

    def test_case_insensitive_equality(self):
        assert station_key("Kiyovu") == station_key("KIYOVU")
        assert station_key("Kiyovu") == station_key("kiyovu")
        assert station_key("Kiyovu") != station_key("Rebero")

    def test_name_preserved(self):
        text = HEADER + (
            "Mount Kigali,2021-06-01T08:00:00+02:00,PM25,1.0\n"
            "MOUNT KIGALI,2021-06-01T09:00:00+02:00,PM25,2.0\n"
        )
        _, report = parse_text(text)
        assert report.stations_seen == {"mount_kigali": "Mount Kigali"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="station name must be non-empty"):
            station_key("  ")

    def test_roster(self):
        names = set(STATION_ROSTER)
        assert len(STATION_ROSTER) == 9
        assert {"Gitega", "Rusororo", "Gacuriro", "Kiyovu", "Rebero",
                "Mount Kigali", "Kimihurura", "Gikondo Mburabuturo", "Gikomero"} == names

    @pytest.mark.parametrize("name, key", [
        ("  Mount-Kigali ", "mount_kigali"),
        ("Gikondo/Mburabuturo", "gikondo_mburabuturo"),
        ("Straße 7", "strasse_7"),  # casefold, not lower: the key of "STRASSE 7" too
    ])
    def test_key_is_the_file_stem(self, name, key):
        assert station_key(name) == key


class TestParseReadings:
    def test_three_valid_rows(self):
        text = HEADER + (
            "Gitega,2021-06-01T08:00:00+02:00,PM25,42.5\n"
            "Gitega,2021-06-01T09:00:00+02:00,PM25,43.1\n"
            "Rebero,2021-06-01T08:00:00+02:00,PM25,12.0\n"
        )
        readings, report = parse_text(text)
        assert len(readings) == 3
        assert report.rows_read == 3
        assert report.rows_accepted == 3
        assert report.rejects == []
        assert report.stations_seen == {"gitega": "Gitega", "rebero": "Rebero"}

    def test_nan_value_rejected_with_reason(self):
        text = HEADER + (
            "Gitega,2021-06-01T08:00:00+02:00,PM25,42.5\n"
            "Gitega,2021-06-01T09:00:00+02:00,PM25,NaN\n"
        )
        readings, report = parse_text(text)
        assert len(readings) == 1
        assert report.rejects == [(3, "non-finite value")]

    def test_missing_timestamp_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            parse_text("station,pollutant,value\nGitega,PM25,1.0\n")

    def test_negative_value_rejected(self):
        text = HEADER + "Gitega,2021-06-01T08:00:00+02:00,PM25,-3.0\n"
        readings, report = parse_text(text)
        assert len(readings) == 0
        assert report.rejects == [(2, "negative value")]

    def test_naive_timestamp_rejected(self):
        text = HEADER + "Gitega,2021-06-01T08:00:00,PM25,5.0\n"
        _, report = parse_text(text)
        assert report.rejects == [(2, "bad timestamp")]

    def test_zulu_offset_accepted(self):
        text = HEADER + "Gitega,2021-06-01T06:00:00Z,PM25,5.0\n"
        readings, _ = parse_text(text)
        # 06:00Z == 08:00 Kigali
        assert readings[0].at == 1622527200

    def test_unknown_pollutant_rejected(self):
        text = HEADER + "Gitega,2021-06-01T08:00:00+02:00,O3,5.0\n"
        _, report = parse_text(text)
        assert report.rejects == [(2, "unknown pollutant")]

    def test_pollutant_aliases(self):
        text = HEADER + (
            "Gitega,2021-06-01T08:00:00+02:00,pm2.5,5.0\n"
            "Gitega,2021-06-01T09:00:00+02:00,pm10,5.0\n"
        )
        readings, _ = parse_text(text)
        assert [r.pollutant for r in readings] == [Pollutant.PM25, Pollutant.PM10]

    def test_column_mapping(self):
        text = "site,when,species,conc\nGitega,2021-06-01T08:00:00+02:00,PM25,9.5\n"
        mapping = ColumnMapping(
            station="site", timestamp="when", pollutant="species", value="conc"
        )
        readings, report = parse_text(text, mapping)
        assert len(readings) == 1
        assert readings[0].value == 9.5

    def test_report_counts_consistent(self):
        text = HEADER + (
            "Gitega,2021-06-01T08:00:00+02:00,PM25,1.0\n"
            "Gitega,bad,PM25,1.0\n"
            ",2021-06-01T08:00:00+02:00,PM25,1.0\n"
            "Gitega,2021-06-01T10:00:00+02:00,PM25,oops\n"
        )
        _, report = parse_text(text)
        assert report.rows_read == report.rows_accepted + len(report.rejects)
        assert report.rows_read == 4

    @given(st.binary(max_size=400))
    def test_parsing_is_total(self, blob):
        # any byte input either parses or raises SchemaError; never crashes
        try:
            _, report = parse_readings(io.BytesIO(HEADER.encode() + blob))
        except SchemaError:
            return
        assert report.rows_read == report.rows_accepted + len(report.rejects)

    def test_report_json_fields(self):
        report = IngestReport(
            rows_read=2,
            rows_accepted=1,
            rejects=[(3, "bad timestamp")],
            stations_seen={"gitega": "Gitega"},
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload == {
            "rows_read": 2,
            "rows_accepted": 1,
            "rejects": [{"line": 3, "reason": "bad timestamp"}],
            "stations_seen": ["Gitega"],
        }


class TestGzipInput:
    def test_gz_file_parsed(self, tmp_path):
        text = HEADER + "Gitega,2021-06-01T08:00:00+02:00,PM25,42.5\n"
        path = tmp_path / "readings.csv.gz"
        path.write_bytes(gzip.compress(text.encode("utf-8")))
        readings, report = parse_readings_path(path)
        assert len(readings) == 1
        assert report.rows_accepted == 1


def reading_table(rows):
    """A PM2.5 reading table, as parse_readings returns, from (station, at,
    value) rows."""
    return np.array(
        [(station_key(station), at, Pollutant.PM25, value) for station, at, value in rows],
        dtype=READING_DTYPE,
    ).view(np.recarray)


class TestBuildStationSeries:
    def test_filters_and_sorts(self):
        readings = reading_table([
            ("Rebero", 200, 2.0),
            ("Gitega", 300, 3.0),
            ("Gitega", 100, 1.0),
        ])
        series = build_station_series(readings, "gitega")
        np.testing.assert_array_equal(series.at, [100, 300])
        np.testing.assert_array_equal(series.values, [1.0, 3.0])

    def test_duplicate_instants_mean_collapsed(self):
        readings = reading_table([
            ("Gitega", 100, 10.0),
            ("Gitega", 100, 20.0),
        ])
        series = build_station_series(readings, "Gitega")
        assert len(series) == 1
        assert series.values[0] == 15.0

    def test_duplicates_collapse_to_np_mean_in_file_order(self):
        # up to seven values, np.mean sums in file order; a grouped sum in
        # another order (np.add.reduceat's) differs from it in the last bit
        rng = np.random.default_rng(7)
        counts = np.repeat(np.arange(1, 8), 40)
        at = np.repeat(100 * np.arange(counts.size), counts)
        values = rng.uniform(0.0, 500.0, at.size) * 10.0 ** rng.integers(-3, 4, at.size)
        order = rng.permutation(at.size)
        at, values = at[order], values[order]
        series = build_station_series(
            reading_table(("Gitega", int(t), float(v)) for t, v in zip(at, values)),
            "Gitega",
        )
        expected = [np.mean(values[at == t]) for t in series.at]
        assert series.values.tobytes() == np.array(expected).tobytes()

    def test_empty_selection(self):
        readings = reading_table([("Gitega", 100, 1.0)])
        with pytest.raises(EmptySeriesError):
            build_station_series(readings, "Gitega", Pollutant.SO2)
