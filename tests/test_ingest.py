from __future__ import annotations

import csv
import gc
import gzip
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from aircast import ingest
from aircast.errors import EmptySeriesError, SchemaError
from aircast.ingest import (
    ColumnMapping,
    IngestReport,
    Pollutant,
    READING_DTYPE,
    build_station_series,
    parse_pollutant,
    parse_readings,
    parse_readings_path,
    parse_timestamp,
    parse_timestamps,
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
        from aircast.simulate import STATION_SIM_PARAMS

        names = set(STATION_SIM_PARAMS)
        assert len(STATION_SIM_PARAMS) == 9
        assert {"Gitega", "Rusororo", "Gacuriro", "Kiyovu", "Rebero",
                "Mount Kigali", "Kimihurura", "Gikondo Mburabuturo", "Gikomero"} == names

    @pytest.mark.parametrize("name, key", [
        ("Mount Kigali", "mount_kigali"),
        ("  Mount-Kigali ", "mount_kigali"),
        ("Gikondo Mburabuturo", "gikondo_mburabuturo"),
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

    def test_required_column_named_twice_is_schema_error(self):
        # which of the two holds the values is not known, so neither is read
        with pytest.raises(SchemaError, match=r"twice: value$"):
            parse_text("station,timestamp,pollutant,value,value\n"
                       "Gitega,2021-06-01T08:00:00+02:00,PM25,1,999\n")
        with pytest.raises(SchemaError, match=r"twice: station, value$"):
            parse_text(" value,station,timestamp,pollutant,value ,station\n")
        # a repeated name that no role uses is read as before
        readings, _ = parse_text("note,station,timestamp,note,pollutant,value\n"
                                 "a,Gitega,2021-06-01T08:00:00+02:00,b,PM25,1.5\n")
        assert readings.value.tolist() == [1.5]

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
        assert [list(Pollutant)[r.pollutant] for r in readings] == [Pollutant.PM25, Pollutant.PM10]

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

    def test_stream_left_open(self):
        # the stream is the caller's: the parse's text wrapper must not close it
        stream = io.BytesIO((HEADER + "Gitega,2021-06-01T08:00:00+02:00,PM25,1.0\n").encode())
        readings, _ = parse_readings(stream)
        gc.collect()
        assert not stream.closed
        assert len(readings) == 1

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


class TestByteOrderMark:
    """Excel's "CSV UTF-8" export starts the file with a byte-order mark."""

    def test_same_rows_with_and_without_bom(self):
        text = HEADER + (
            "Gitega,2021-06-01T08:00:00+02:00,PM25,42.5\n"
            "Rebero,2021-06-01T08:00:00+02:00,PM25,12.0\n"
        )
        plain, plain_report = parse_text(text)
        marked, marked_report = parse_readings(io.BytesIO(b"\xef\xbb\xbf" + text.encode("utf-8")))
        assert marked_report.to_dict() == plain_report.to_dict()
        assert marked_report.stations_seen == plain_report.stations_seen
        assert marked.tolist() == plain.tolist()
        assert len(marked) == 2


def expected_timestamps(texts):
    """parse_timestamp on each text: (epoch or None)."""
    out = []
    for text in texts:
        try:
            out.append(parse_timestamp(text))
        except (ValueError, OverflowError, OSError):
            out.append(None)
    return out


def assert_matches_rule(texts):
    at, ok = parse_timestamps(texts)
    assert at.dtype == np.int64 and ok.dtype == bool and len(at) == len(ok) == len(texts)
    got = [int(t) if good else None for t, good in zip(at.tolist(), ok.tolist())]
    assert got == expected_timestamps(texts)


def two_digits(low, high):
    return st.integers(low, high).map(lambda k: f"{k:02d}")


#: The canonical shapes with near-range fields (month 13, day 32, hour 24,
#: second 60, offset 24:00 ...), and with any digits at all.
near_range_stamps = st.builds(
    lambda year, month, day, hour, minute, second, tail: (
        f"{year:04d}-{month}-{day}T{hour}:{minute}:{second}{tail}"
    ),
    st.integers(0, 9999), two_digits(0, 13), two_digits(0, 32), two_digits(0, 24),
    two_digits(0, 60), two_digits(0, 60),
    st.one_of(
        st.just("Z"),
        st.builds(lambda sign, h, m: f"{sign}{h}:{m}",
                  st.sampled_from("+-"), two_digits(0, 24), two_digits(0, 60)),
    ),
)
random_digit_stamps = st.builds(
    lambda digits, tail: "{}{}{}{}-{}{}-{}{}T{}{}:{}{}:{}{}".format(*digits) + tail,
    st.lists(st.sampled_from("0123456789"), min_size=14, max_size=14),
    st.one_of(
        st.just("Z"),
        st.builds(lambda sign, d: f"{sign}{d[0]}{d[1]}:{d[2]}{d[3]}",
                  st.sampled_from("+-"),
                  st.lists(st.sampled_from("0123456789"), min_size=4, max_size=4)),
    ),
)

#: Stamps that Python 3.11's ``datetime.fromisoformat`` reads and 3.10's does
#: not (3.11 is the oldest supported interpreter), and a lowercase ``z``: each
#: is 2021-06-01 06:00:00 UTC.
ISO_FORMS_FROM_311 = [
    "2021-06-01T08:00:00+0200",
    "2021-06-01T08:00:00+02",
    "20210601T080000+0200",
    "2021-W22-2T08:00:00+02:00",  # a week date
    "2021-06-01T08:00:00.5+02:00",
    "2021-06-01T08:00:00.1234567+02:00",
    "2021-06-01T08:00:00,5+02:00",
    "2021-06-01T0800+02:00",
    "2021-06-01T06:00:00z",
]


ADVERSARIAL_STAMPS = [
    "1900-02-29T00:00:00+02:00",  # not a leap year
    "2000-02-29T00:00:00+02:00",  # a leap year
    "2023-02-29T00:00:00+02:00",
    "2021-04-31T00:00:00+02:00",
    "2021-06-01T24:00:00+02:00",
    "2021-06-01T08:00:60+02:00",
    "2021-06-01T08:00:00+23:59",
    "2021-06-01T08:00:00-23:59",
    "2021-06-01T08:00:00+24:00",
    "2021-06-01T08:00:00+02:60",
    "2021-06-01T06:00:00z",
    "2021-06-01t08:00:00+02:00",
    "2021-06-01 08:00:00+02:00",
    "2021-06-01T08:00:00.5+02:00",
    "2021-06-01T08:00:00.123456Z",
    " 2021-06-01T08:00:00+02:00",
    "2021-06-01T08:00:00+02:00 ",
    " 2021-06-01T06:00:00Z ",
    "２０２１-06-01T08:00:00+02:00",  # full-width digits
    "2021-06-01T08:00:00+0٢:00",  # an Arabic-Indic digit in the offset
    "0001-01-01T00:00:00+02:00",
    "9999-12-31T23:59:59-02:00",
    "0000-01-01T00:00:00+00:00",
    "2021-06-01T08:00:00",
    "2021-06-01T08:00:00+02:00:00",
    "2021-06-01T08:00:00+0200",
    "2021-06-01T08:00Z",
    "2021-06-01",
    "2021-02-30T25:61:00+02:00",
    "",
    "Z",
    "2021-06-01T08:00:00+02:00" + "0" * 40,
]


class TestParseTimestamps:
    """The array rule gives parse_timestamp's answer for every text."""

    @pytest.mark.parametrize("text", ISO_FORMS_FROM_311)
    def test_one_grammar_on_every_supported_python(self, text):
        assert parse_timestamp(text) == 1_622_527_200
        assert_matches_rule([text])

    def test_adversarial_stamps(self):
        assert_matches_rule(ADVERSARIAL_STAMPS)

    def test_adversarial_stamps_in_chunks_of_three(self, monkeypatch):
        """Through parse_readings, three rows a chunk: each row's stamp is read by the rule."""
        monkeypatch.setattr(ingest, "CHUNK_ROWS", 3)
        readings, report = parse_text(
            HEADER + "".join(f"Gitega,{stamp},PM25,1.0\n" for stamp in ADVERSARIAL_STAMPS)
        )
        expected = expected_timestamps(ADVERSARIAL_STAMPS)
        assert readings.at.tolist() == [at for at in expected if at is not None]
        assert report.rejects == [
            (line, "bad timestamp") for line, at in enumerate(expected, start=2) if at is None
        ]

    @given(st.lists(st.one_of(near_range_stamps, random_digit_stamps), max_size=40))
    @example(["2000-02-29T23:59:59-23:59", "1970-01-01T00:00:00Z", "1969-12-31T23:59:59+00:00"])
    def test_canonical_shapes_match_the_rule(self, texts):
        assert_matches_rule(texts)

    def test_canonical_stamps_do_not_reach_the_rule(self, monkeypatch):
        texts = ["2021-06-01T08:00:00+02:00", "2021-06-01T06:00:00Z", "2024-02-29T23:59:59-11:30"]
        expected = expected_timestamps(texts)
        monkeypatch.setattr(ingest, "parse_timestamp", lambda text: pytest.fail(text))
        at, ok = parse_timestamps(texts)
        assert ok.all() and at.tolist() == expected

    def test_empty(self):
        at, ok = parse_timestamps([])
        assert at.shape == ok.shape == (0,)


def oracle_parse(stream, mapping=None):
    """parse_readings as one loop over rows: the row-at-a-time reading of the
    same rules, kept here as the chunked parser's oracle."""
    mapping = mapping or ColumnMapping()
    text = io.TextIOWrapper(stream, encoding="utf-8-sig", errors="replace", newline="")
    reader = csv.reader(text)
    header = next(reader)
    header_index = {name.strip(): i for i, name in enumerate(header)}
    columns = [header_index[col] for col in mapping.required()]
    station_col, timestamp_col, pollutant_col, value_col = columns

    rows = []
    keys = {}
    spellings = {}
    report = IngestReport()
    while True:
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error:
            report.rows_read += 1
            report.rejects.append((reader.line_num, "malformed csv"))
            continue
        line_no = reader.line_num
        if not row:
            continue
        report.rows_read += 1
        if len(row) <= max(columns):
            report.rejects.append((line_no, "missing fields"))
            continue
        station_name = row[station_col].strip()
        if not station_name:
            report.rejects.append((line_no, "empty station"))
            continue
        try:
            at = parse_timestamp(row[timestamp_col])
        except (ValueError, OverflowError, OSError):
            report.rejects.append((line_no, "bad timestamp"))
            continue
        try:
            pollutant = parse_pollutant(row[pollutant_col])
        except ValueError:
            report.rejects.append((line_no, "unknown pollutant"))
            continue
        try:
            value = float(row[value_col])
        except ValueError:
            report.rejects.append((line_no, "unparseable value"))
            continue
        if not math.isfinite(value):
            report.rejects.append((line_no, "non-finite value"))
            continue
        if value < 0:
            report.rejects.append((line_no, "negative value"))
            continue
        key = keys.get(station_name)
        if key is None:
            key = keys[station_name] = station_key(station_name)
        spellings.setdefault(key, station_name)
        rows.append((key, at, pollutant, value))
    report.rows_accepted = len(rows)
    report.stations_seen = spellings
    return rows, report


STAMPS = [
    "2021-06-01T08:00:00+02:00", "2021-06-01T06:00:00Z", "2021-06-01T06:00:00+00:00",
    "2021-06-01T09:00:00+02:00", "2021-06-01 10:00:00+02:00", "2021-06-01T08:00:00.5+02:00",
]
GOOD_ROWS = st.builds(
    lambda station, stamp, pollutant, value: f"{station},{stamp},{pollutant},{value}",
    st.sampled_from(["Gitega", "GITEGA", " gitega ", "Mount Kigali", "mount-kigali",
                     "MOUNT KIGALI", "Rebero", '"Gi\ntega"']),
    st.sampled_from(STAMPS),
    st.sampled_from(["PM25", "pm2.5", "PM 2.5", "PM10"]),
    st.sampled_from(["12.5", "0", "1e3", " 7 ", "-0.0", "3_000", '"4\n5"']),
)
BAD_LINES = [
    "",  # a blank line
    "Gitega,2021-06-01T08:00:00+02:00",  # missing fields
    " ,2021-06-01T08:00:00+02:00,PM25,1.0",  # empty station
    "Gitega,2021-02-30T25:61:00+02:00,PM25,1.0",  # bad timestamp
    "Gitega,2021-06-01T08:00:00,PM25,1.0",  # naive timestamp
    "Gitega,yesterday,PM25,1.0",
    "Gitega,2021-06-01T08:00:00+02:00,O3,1.0",  # unknown pollutant
    "Gitega,2021-06-01T08:00:00+02:00,PM25,n/a",  # unparseable value
    "Gitega,2021-06-01T08:00:00+02:00,PM25,nan",  # non-finite value
    "Gitega,2021-06-01T08:00:00+02:00,PM25,-inf",
    "Gitega,2021-06-01T08:00:00+02:00,PM25,-3.25",  # negative value
    "Kiyovu,2021-06-01T08:00:00+02:00,PM25," + "9" * 140_000,  # malformed csv: over csv's field limit
    ",bad,O3,nan",  # every check fails: the first reason wins
]


def test_reading_table_is_21_bytes_with_no_object_field():
    assert READING_DTYPE.itemsize == 21
    assert not READING_DTYPE.hasobject


def assert_same_parse(data: bytes) -> None:
    readings, report = parse_readings(io.BytesIO(data))
    rows, expected = oracle_parse(io.BytesIO(data))
    assert report.to_dict() == expected.to_dict()
    assert report.rejects == expected.rejects
    # in order too: a row's station code is its key's position there
    assert list(report.stations_seen.items()) == list(expected.stations_seen.items())
    assert readings.dtype == READING_DTYPE
    keys = list(report.stations_seen)
    assert [keys[code] for code in readings.station.tolist()] == [row[0] for row in rows]
    assert readings.at.tolist() == [row[1] for row in rows]
    pollutants = list(Pollutant)
    assert [pollutants[code] for code in readings.pollutant.tolist()] == [row[2] for row in rows]
    assert readings.value.tobytes() == np.array([row[3] for row in rows], dtype=float).tobytes()


class TestChunkedParseMatchesRowOracle:
    """Chunks of 2 and 3 rows put every kind of row on a chunk boundary."""

    @pytest.mark.parametrize("chunk_rows", [2, 3])
    @given(
        lines=st.lists(st.one_of(GOOD_ROWS, st.sampled_from(BAD_LINES)), max_size=14),
        eol=st.sampled_from(["\n", "\r\n"]),
    )
    def test_messy_files(self, chunk_rows, lines, eol):
        data = (HEADER.rstrip("\n") + eol + eol.join(lines) + eol).encode("utf-8")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "CHUNK_ROWS", chunk_rows)
            assert_same_parse(data)

    @pytest.mark.parametrize("chunk_rows", [2, 3, ingest.CHUNK_ROWS])
    def test_every_reason_across_chunks(self, chunk_rows, monkeypatch):
        monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk_rows)
        lines = [
            "Gitega,2021-06-01T08:00:00+02:00,PM25,1.0",
            "Kiyovu,2021-06-01T08:00:00+02:00,PM25," + "9" * 140_000,
            '"Mount\nKigali",2021-06-01T08:00:00+02:00,PM25,2.0',
            "",
            "GITEGA,2021-06-01T06:00:00Z,pm2.5,3.0",
            *BAD_LINES,
            "mount kigali,2021-06-01T09:00:00+02:00,PM10,4.0",
        ]
        data = (HEADER + "\r\n".join(lines) + "\r\n").encode("utf-8")
        assert_same_parse(data)
        _, report = parse_readings(io.BytesIO(data))
        assert {reason for _, reason in report.rejects} == set(ingest.REJECT_REASONS)


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
    value) rows, and its station keys in code order (its stations_seen's)."""
    rows = [(station_key(station), at, value) for station, at, value in rows]
    keys = list(dict.fromkeys(key for key, _, _ in rows))
    pm25 = list(Pollutant).index(Pollutant.PM25)
    table = np.array(
        [(at, value, keys.index(key), pm25) for key, at, value in rows], dtype=READING_DTYPE
    )
    return table.view(np.recarray), keys


class TestBuildStationSeries:
    def test_filters_and_sorts(self):
        files = [reading_table([
            ("Rebero", 200, 2.0),
            ("Gitega", 300, 3.0),
            ("Gitega", 100, 1.0),
        ])]
        series = build_station_series(files, "gitega")
        np.testing.assert_array_equal(series.at, [100, 300])
        np.testing.assert_array_equal(series.values, [1.0, 3.0])

    def test_duplicate_instants_mean_collapsed(self):
        files = [reading_table([
            ("Gitega", 100, 10.0),
            ("Gitega", 100, 20.0),
        ])]
        series = build_station_series(files, "Gitega")
        assert len(series) == 1
        assert series.values[0] == 15.0

    def test_duplicates_collapse_to_np_mean_in_file_order(self):
        # up to seven values, np.mean sums in file order; a grouped sum in
        # another order (np.add.reduceat's) differs from it in the last bit.
        # The rows are read as one file, and then as two files that list their
        # keys in other orders, where the instants in both files are summed in
        # input order
        rng = np.random.default_rng(7)
        counts = np.repeat(np.arange(1, 8), 40)
        at = np.repeat(100 * np.arange(counts.size), counts)
        values = rng.uniform(0.0, 500.0, at.size) * 10.0 ** rng.integers(-3, 4, at.size)
        order = rng.permutation(at.size)
        at, values = at[order], values[order]
        rows = [("Gitega", int(t), float(v)) for t, v in zip(at, values)]
        half = len(rows) // 2
        assert set(at[:half].tolist()) & set(at[half:].tolist())
        for files in (
            [reading_table(rows)],
            [reading_table([*rows[:half], ("Rebero", 100, 1.0)]),
             reading_table([("Rebero", 100, 2.0), *rows[half:]])],
        ):
            if len(files) == 2:
                assert [keys for _, keys in files] == [["gitega", "rebero"], ["rebero", "gitega"]]
            series = build_station_series(files, "Gitega")
            expected = [np.mean(values[at == t]) for t in series.at]
            assert series.values.tobytes() == np.array(expected).tobytes()

    def test_empty_selection(self):
        files = [reading_table([("Gitega", 100, 1.0)])]
        with pytest.raises(EmptySeriesError):
            build_station_series(files, "Gitega", Pollutant.SO2)

    def test_unknown_station(self):
        files = [reading_table([("Gitega", 100, 1.0)]), reading_table([("Kiyovu", 100, 1.0)])]
        with pytest.raises(EmptySeriesError):
            build_station_series(files, "Rebero")
