"""Parsing, validation, and round-trip behavior of IO tables."""

import hashlib
import io
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ioresponse import iodata
from ioresponse.cli import run
from ioresponse.errors import (
    InconsistentTable,
    MalformedRow,
    MissingCountryYear,
    NonPositiveScale,
    NonProductiveEconomy,
    NumericalError,
    ZeroOutputSector,
)
from ioresponse.iodata import (
    CANONICAL_HEADER,
    IOTable,
    NegativeResidualDemand,
    NoiseSpec,
    Panel,
    load_panel,
    noise_covariance,
    spectral_radius,
    write_panel,
    write_table,
)
from ioresponse.sectors import GROUP_VOCABULARY, sector_metadata

from conftest import build_panel, random_economy


def _stream(*rows: str) -> io.StringIO:
    return io.StringIO("\n".join((CANONICAL_HEADER,) + rows) + "\n")


class TestParse:
    def test_two_sector_coefficients_and_residual_demand(self):
        table = load_panel(
            _stream(
                "OUTPUT,AAA,2014,S1,,2.0",
                "OUTPUT,AAA,2014,S2,,2.0",
                "FLOW,AAA,2014,S1,S2,1.0",
                "FLOW,AAA,2014,S2,S1,0.4",
            ),
        ).get("AAA", 2014)
        np.testing.assert_allclose(table.coefficients, [[0.0, 0.5], [0.2, 0.0]])
        np.testing.assert_allclose(table.demand, [1.0, 1.6])

    def test_zero_flows_demand_equals_output(self):
        table = load_panel(
            _stream("OUTPUT,AAA,2000,S1,,5.0", "OUTPUT,AAA,2000,S2,,5.0"),
        ).get("AAA", 2000)
        assert not table.coefficients.any()
        np.testing.assert_array_equal(table.demand, table.output)

    def test_nonproductive_economy_reports_radius(self):
        with pytest.raises(NonProductiveEconomy) as err:
            load_panel(
                _stream("OUTPUT,AAA,2000,S1,,1.0", "FLOW,AAA,2000,S1,S1,1.2"),
            ).get("AAA", 2000)
        assert err.value.spectral_radius == pytest.approx(1.2)

    def test_missing_country_year(self):
        with pytest.raises(MissingCountryYear):
            load_panel(_stream("OUTPUT,AAA,2000,S1,,5.0"), ["BBB"], [2000])

    def test_zero_output_with_flows(self):
        with pytest.raises(ZeroOutputSector):
            load_panel(
                _stream(
                    "OUTPUT,AAA,2000,S1,,5.0",
                    "OUTPUT,AAA,2000,S2,,0.0",
                    "FLOW,AAA,2000,S1,S2,1.0",
                ),
            ).get("AAA", 2000)

    def test_zero_output_without_flows_is_fine(self):
        table = load_panel(
            _stream("OUTPUT,AAA,2000,S1,,5.0", "OUTPUT,AAA,2000,S2,,0.0"),
        ).get("AAA", 2000)
        assert table.coefficients[0, 1] == 0.0

    @pytest.mark.parametrize(
        "row,reason",
        [
            ("NOISE,AAA,2000,S1,,1.0", "record_type"),
            ("FLOW,AAA,2000,S1,S1", "6 fields"),
            ("FLOW,AAA,xx,S1,S1,1.0", "integer"),
            ("FLOW,AAA,2000,S1,S1,abc", "number"),
            ("FLOW,AAA,2000,S1,,1.0", "col_sector_or_dest"),
            ("OUTPUT,AAA,2000,S1,S1,1.0", "empty"),
            ("FLOW,AAA,2000,S1,S1,inf", "non-finite"),
        ],
    )
    def test_malformed_rows_report_line_numbers(self, row, reason):
        with pytest.raises(MalformedRow) as err:
            load_panel(_stream(row)).get("AAA", 2000)
        assert err.value.line_number == 2
        assert reason in str(err.value)

    def test_header_required(self):
        with pytest.raises(MalformedRow) as err:
            load_panel(io.StringIO("OUTPUT,AAA,2000,S1,,5.0\n")).get("AAA", 2000)
        assert err.value.line_number == 1

    def test_duplicate_output_rejected(self):
        with pytest.raises(InconsistentTable):
            load_panel(
                _stream("OUTPUT,AAA,2000,S1,,5.0", "OUTPUT,AAA,2000,S1,,5.0"),
            ).get("AAA", 2000)

    @pytest.mark.parametrize(
        "rows,line",
        [
            (("OUTPUT,AAA,2000,S1,,5.0", "FLOW,AAA,2000,S1,S9,1.0"), 3),
            (("FLOW,AAA,2000,S1,S9,1.0", "OUTPUT,AAA,2000,S1,,5.0"), 2),
            (
                (
                    "OUTPUT,AAA,2000,S1,,5.0",
                    "FINAL,AAA,2000,S9,AAA,1.0",
                    "FLOW,AAA,2000,S1,S8,1.0",
                    "FLOW,AAA,2000,S9,S1,1.0",
                ),
                3,
            ),
        ],
        ids=["after_output", "before_output", "earliest_of_two"],
    )
    def test_flow_to_unknown_sector_rejected(self, rows, line):
        with pytest.raises(InconsistentTable, match=rf"^line {line}: sector 'S9' has no OUTPUT row"):
            load_panel(_stream(*rows)).get("AAA", 2000)

    def test_negative_flow_rejected_unless_clipped(self):
        rows = ("OUTPUT,AAA,2000,S1,,5.0", "FLOW,AAA,2000,S1,S1,-1.0")
        with pytest.raises(InconsistentTable):
            load_panel(_stream(*rows)).get("AAA", 2000)
        table = load_panel(_stream(*rows), clip_negative_flows=True).get("AAA", 2000)
        assert table.flows[0, 0] == 0.0

    def test_negative_residual_demand_warns_and_keeps(self):
        with pytest.warns(NegativeResidualDemand):
            table = IOTable.from_flows(
                "AAA", 2000, ["S1", "S2"],
                np.array([[0.0, 9.0], [0.9, 0.0]]), np.array([1.0, 10.0]),
            )
        assert table.demand[0] < 0.0


class TestScanner:
    """What the row scanner accepts and where it reports each failure."""

    ROWS = (
        "OUTPUT,AAA,2000,S1,,2.0",
        "OUTPUT,AAA,2000,S2,,2.0",
        "FLOW,AAA,2000,S1,S2,1.0",
        "FLOW,AAA,2000,S2,S1,0.4",
        "FINAL,AAA,2000,S1,BBB,0.25",
    )

    def _plain(self) -> IOTable:
        return load_panel(_stream(*self.ROWS)).get("AAA", 2000)

    def test_fields_padded_with_spaces(self):
        header = " , ".join(CANONICAL_HEADER.split(","))
        rows = [" " + "  ,  ".join(r.split(",")) + " " for r in self.ROWS]
        text = "\n".join([header, *rows]) + "\n"
        assert load_panel(io.StringIO(text)).get("AAA", 2000).equals(self._plain())

    def test_quoted_fields(self):
        rows = [",".join(f'"{f}"' for f in r.split(",")) for r in self.ROWS]
        assert load_panel(_stream(*rows)).get("AAA", 2000).equals(self._plain())

    def test_quoted_field_keeps_its_comma(self):
        table = load_panel(
            _stream('OUTPUT,AAA,2000,"S,1",,2.0', 'FLOW,AAA,2000,"S,1","S,1",1.0'),
        ).get("AAA", 2000)
        assert table.codes == ("S,1",)
        assert table.coefficients[0, 0] == 0.5

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "crlf.csv"
        lines = (CANONICAL_HEADER, *self.ROWS)
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        assert load_panel(path).get("AAA", 2000).equals(self._plain())
        path.write_bytes(("\r\n".join((*lines, "FLOW,AAA,2000,S1")) + "\r\n").encode())
        with pytest.raises(MalformedRow, match="^line 7: expected 6 fields, got 4$"):
            load_panel(path).get("AAA", 2000)

    def test_blank_lines_are_skipped_and_counted(self):
        lines = ["", "   ", CANONICAL_HEADER, self.ROWS[0], "", "  ", *self.ROWS[1:], ""]
        text = "\n".join(lines) + "\n"
        assert load_panel(io.StringIO(text)).get("AAA", 2000).equals(self._plain())
        text += "FLOW,AAA,2000,S1,S2,x\n"
        with pytest.raises(MalformedRow, match=r"^line 12: value 'x' is not a number$"):
            load_panel(io.StringIO(text)).get("AAA", 2000)

    @pytest.mark.parametrize("year", [" 2000 ", "+2000", "02000"])
    def test_year_forms(self, year):
        rows = [r.replace(",2000,", f",{year},") for r in self.ROWS[:2]] + list(self.ROWS[2:])
        panel = load_panel(_stream(*rows), years=[2000])
        assert [(t.country, t.year) for t in panel] == [("AAA", 2000)]
        assert panel.get("AAA", 2000).equals(self._plain())

    def test_duplicate_output_raises_at_its_own_line(self):
        rows = (*self.ROWS, "OUTPUT,AAA,2000,S1,,2.0", "FLOW,AAA,2000,S1")
        with pytest.raises(InconsistentTable, match="^line 7: duplicate OUTPUT row for sector S1"):
            load_panel(_stream(*rows))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("FLOW,AAA,2000,S2,S1,0.4", "repeated FLOW row for cell S2,S1 in AAA/2000"),
            ("FINAL,AAA,2000,S1,BBB,0.25", "repeated FINAL row for cell S1,BBB in AAA/2000"),
            ("FINAL,AAA,2000,S2,AAA,0.0", "repeated FINAL row for cell S2,AAA in AAA/2000"),
        ],
        ids=["flow", "foreign_final", "home_final"],
    )
    def test_repeated_cell_is_refused_not_summed(self, row, message):
        rows = (*self.ROWS, "FINAL,AAA,2000,S2,AAA,0.0", row)
        assert load_panel(_stream(*rows[:-1])).get("AAA", 2000).equals(self._plain())
        with pytest.raises(InconsistentTable, match=f"^{message}$"):
            load_panel(_stream(*rows))

    @pytest.mark.parametrize(
        "bad", ["OUTPUT,BBB,2001,S1,,nan", "FLOW,BBB,1999,S1", "NOISE,AAA,2001,S1,,1.0"]
    )
    def test_one_cell_selection_checks_every_row(self, bad):
        with pytest.raises(MalformedRow) as err:
            load_panel(_stream(*self.ROWS, bad), countries=["AAA"], years=[2000])
        assert err.value.line_number == 7

    def test_file_that_is_not_utf8(self, tmp_path):
        # the bad byte lies far past the first read chunk of the stream
        path = tmp_path / "latin1.csv"
        rows = [*self.ROWS, *["FLOW,AAA,2000,S1,S2,0.0"] * 2000, "OUTPUT,AAA,2000,S\xe93,,1.0"]
        path.write_bytes(("\n".join((CANONICAL_HEADER, *rows)) + "\n").encode("latin-1"))
        reason = r"^line 2007: not UTF-8 text \(invalid continuation byte\)$"
        with pytest.raises(MalformedRow, match=reason) as err:
            load_panel(path)
        assert err.value.line_number == 2007

    def test_bad_row_before_undecodable_byte_is_reported_first(self, tmp_path):
        # line 3 has 4 fields; the latin-1 byte on line 104 lies in the same
        # decoding block, after it in file order
        path = tmp_path / "latin1.csv"
        rows = [self.ROWS[0], "FLOW,AAA,2000,S1", *["FLOW,AAA,2000,S1,S2,0.0"] * 100,
                "OUTPUT,AAA,2000,S\xe93,,1.0"]
        path.write_bytes(("\n".join((CANONICAL_HEADER, *rows)) + "\n").encode("latin-1"))
        with pytest.raises(MalformedRow, match=r"^line 3: expected 6 fields, got 4$") as err:
            load_panel(path)
        assert err.value.line_number == 3

    def test_carriage_return_lines_are_counted(self, tmp_path):
        path = tmp_path / "latin1.csv"
        rows = [*self.ROWS[:3], "OUTPUT,AAA,2000,S\xe93,,1.0"]
        path.write_bytes(("\r".join((CANONICAL_HEADER, *rows)) + "\r").encode("latin-1"))
        with pytest.raises(MalformedRow, match=r"^line 5: not UTF-8 text") as err:
            load_panel(path)
        assert err.value.line_number == 5


class TestInvariants:
    def test_accounting_identity_on_panel(self, panel):
        for table in panel:
            lhs = table.output
            rhs = table.coefficients @ table.output + table.demand
            scale = np.max(np.abs(lhs))
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * scale

    def test_spectral_radius_and_drift_eigenvalues(self, panel):
        for table in panel:
            radius = spectral_radius(table.coefficients)
            assert radius < 1.0
            drift = table.coefficients - np.eye(table.n_sectors)
            assert np.max(np.linalg.eigvals(drift).real) < 0.0

    def test_export_columns_plus_domestic_equals_demand(self, panel):
        for table in panel:
            total = table.export_demand.sum(axis=1) + table.domestic_final
            scale = np.max(np.abs(table.demand))
            assert np.max(np.abs(total - table.demand)) < 1e-9 * scale

    def test_sector_metadata_vocabulary(self, panel):
        table = next(iter(panel))
        for k, code in enumerate(table.codes):
            assert table.sector_index(code) == k
            assert sector_metadata(code) in GROUP_VOCABULARY

    def test_arrays_are_readonly(self, two_sector_table):
        with pytest.raises(ValueError):
            two_sector_table.flows[0, 0] = 1.0


def _productivity_case(kind: str, n: int, scale: float, seed: int):
    """Nonnegative (flows, output) of one kind; see the test below."""
    rng = np.random.default_rng(seed)
    output = rng.uniform(0.5, 2.0, size=n)
    if kind == "unit_norm":
        # Entries k/8 and power-of-two outputs make A exact: one column sums
        # to exactly 1, the others to at most 1.
        totals = rng.integers(0, 9, size=n)
        totals[rng.integers(n)] = 8
        a = np.stack([rng.multinomial(t, np.full(n, 1.0 / n)) for t in totals], axis=1) / 8.0
        output = 2.0 ** rng.integers(-3, 4, size=n).astype(float)
    elif kind == "triangular":
        # Large entries above the diagonal, so columns sum to 1 or more
        # while the radius is the largest diagonal entry.
        a = np.triu(rng.uniform(1.0, 10.0, size=(n, n)), k=1)
        diagonal = rng.uniform(0.0, scale, size=n)
        diagonal[rng.integers(n)] = scale
        a += np.diag(diagonal)
    else:
        a = rng.uniform(0.0, 1.0, size=(n, n))
        if kind == "zero_output":
            idle = rng.random(n) < 0.4
            idle[rng.integers(n)] = True
            a[:, idle] = 0.0
            output[idle] = 0.0
        radius = spectral_radius(a)
        if radius > 0.0:
            a *= scale / radius
    return a * output[None, :], output


class TestProductivityCheck:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        kind=st.sampled_from(["dense", "triangular", "zero_output", "unit_norm"]),
        n=st.integers(1, 7),
        scale=st.floats(0.5, 1.5),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(kind="triangular", n=4, scale=0.9, seed=0)
    @example(kind="triangular", n=4, scale=1.0, seed=1)
    @example(kind="zero_output", n=5, scale=0.99, seed=2)
    @example(kind="unit_norm", n=3, scale=1.0, seed=3)
    @example(kind="dense", n=6, scale=1.0 - 1e-12, seed=4)
    def test_decision_matches_eigenvalue_rule(self, kind, n, scale, seed):
        flows, output = _productivity_case(kind, n, scale, seed)
        with np.errstate(divide="ignore", invalid="ignore"):
            coeff = np.where(output[None, :] > 0.0, flows / output[None, :], 0.0)
        if kind == "triangular" and n > 1:
            assert coeff.sum(axis=0).max() >= 1.0
        if kind == "unit_norm":
            assert coeff.sum(axis=0).max() == 1.0
        radius = spectral_radius(coeff)
        codes = [f"S{k}" for k in range(n)]
        if radius >= 1.0:
            with pytest.raises(NonProductiveEconomy) as err:
                IOTable.from_flows("AAA", 2000, codes, flows, output)
            assert err.value.spectral_radius == radius
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NegativeResidualDemand)
                table = IOTable.from_flows("AAA", 2000, codes, flows, output)
            np.testing.assert_array_equal(table.coefficients, coeff)

    def test_only_the_ingest_report_solves_for_eigenvalues(self, monkeypatch, tmp_path):
        calls = []
        solve = iodata.spectral_radius

        def counted(a):
            calls.append(a.shape)
            return solve(a)

        monkeypatch.setattr(iodata, "spectral_radius", counted)
        panel = build_panel(2, (2000, 2001), n_sectors=56, seed=3)
        assert calls == []
        path = tmp_path / "panel.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_panel(panel, fh)
        assert run(["ingest", "--data", str(path), "--out", str(tmp_path / "out")]) == 0
        assert calls == [(56, 56)] * len(panel)


class TestRoundTrip:
    def test_parse_write_parse_identity(self, panel):
        buf = io.StringIO()
        write_panel(panel, buf)
        buf.seek(0)
        reparsed = load_panel(buf)
        assert len(reparsed) == len(panel)
        for table in panel:
            again = reparsed.get(table.country, table.year)
            assert table.equals(again)
            np.testing.assert_array_equal(table.demand, again.demand)
            np.testing.assert_array_equal(table.domestic_final, again.domestic_final)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6))
    def test_random_economy_round_trip(self, seed, n):
        table = random_economy(n, seed)
        buf = io.StringIO()
        write_panel(Panel([table]), buf)
        buf.seek(0)
        again = load_panel(buf).get(table.country, table.year)
        assert table.equals(again)

    def test_rows_before_their_output_rows_parse_the_same(self, panel):
        buf = io.StringIO()
        write_panel(panel, buf)
        header, *body = buf.getvalue().splitlines()
        # every FLOW and FINAL row of every table first; OUTPUT order kept
        body.sort(key=lambda line: line.startswith("OUTPUT,"))
        assert not body[0].startswith("OUTPUT,")
        reordered = load_panel(io.StringIO("\n".join([header, *body]) + "\n"))
        assert len(reordered) == len(panel)
        for table in panel:
            again = reordered.get(table.country, table.year)
            assert table.equals(again)
            np.testing.assert_array_equal(table.coefficients, again.coefficients)
            np.testing.assert_array_equal(table.domestic_final, again.domestic_final)

    def test_load_panel_filters(self, panel_file):
        sub = load_panel(panel_file, countries=["AAA"], years=[2000, 2001])
        assert sub.countries() == ["AAA"]
        assert sub.years() == [2000, 2001]


class TestPanelCache:
    """A regular file's tables are scanned once per content and rebuilt by
    ``IOTable.from_flows`` from a cache entry afterwards."""

    @pytest.fixture(autouse=True)
    def cache(self, tmp_path, monkeypatch):
        root = tmp_path / "cache"
        monkeypatch.setenv("XDG_CACHE_HOME", str(root))
        return root / "ioresponse"

    @pytest.fixture
    def scans(self, monkeypatch):
        """The selections of every row scan, in call order."""
        calls = []
        scan = iodata._scan_rows

        def counted(lines, want_c, want_y):
            calls.append((want_c, want_y))
            return scan(lines, want_c, want_y)

        monkeypatch.setattr(iodata, "_scan_rows", counted)
        return calls

    @staticmethod
    def entries(cache) -> list:
        return sorted(cache.glob("panel-*.npz"))

    @staticmethod
    def write(path, text: str):
        path.write_bytes(text.encode("utf-8"))
        return path

    @staticmethod
    def assert_same_tables(got: Panel, expected: Panel):
        assert [(t.country, t.year) for t in got] == [(t.country, t.year) for t in expected]
        for a, b in zip(got, expected):
            assert a.equals(b)

    @pytest.fixture(scope="class")
    def text(self, panel) -> str:
        buf = io.StringIO()
        write_panel(panel, buf)
        return buf.getvalue()

    def test_second_load_scans_nothing(self, text, tmp_path, cache, scans):
        path = self.write(tmp_path / "panel.csv", text)
        cold = load_panel(path)
        assert len(scans) == 1 and len(self.entries(cache)) == 1
        warm = load_panel(path)
        assert len(scans) == 1
        self.assert_same_tables(warm, cold)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest in self.entries(cache)[0].name

    @pytest.mark.parametrize("clip", [False, True])
    @pytest.mark.parametrize("selection", [(None, None), (["BBB"], None), (None, [2003]),
                                           (["AAA", "CCC"], [2001, 2008])])
    def test_warm_tables_equal_scanned_ones(self, text, tmp_path, scans, clip, selection):
        path = self.write(tmp_path / "panel.csv", text)
        load_panel(path, clip_negative_flows=clip)
        warm = load_panel(path, *selection, clip_negative_flows=clip)
        assert len(scans) == 1
        self.assert_same_tables(warm, load_panel(io.StringIO(text), *selection,
                                                 clip_negative_flows=clip))

    def test_entry_keeps_flows_before_clipping(self, text, tmp_path, scans):
        # one negative flow: only a clipped load builds every table
        header, first, *rest = text.splitlines(keepends=True)
        flow = next(k for k, line in enumerate(rest) if line.startswith("FLOW,"))
        rest[flow] = ",".join(rest[flow].split(",")[:5]) + ",-0.5\n"
        damaged = "".join([header, first, *rest])
        path = self.write(tmp_path / "panel.csv", damaged)
        clipped = load_panel(path, clip_negative_flows=True)
        with pytest.raises(InconsistentTable) as scanned:
            load_panel(io.StringIO(damaged))
        with pytest.raises(InconsistentTable) as warm:
            load_panel(path)
        assert str(warm.value) == str(scanned.value)
        self.assert_same_tables(load_panel(path, clip_negative_flows=True), clipped)
        assert len(scans) == 2  # the clipped load and the stream

    def test_selected_load_that_misses_writes_nothing(self, text, tmp_path, cache, scans):
        path = self.write(tmp_path / "panel.csv", text)
        load_panel(path, countries=["AAA"])
        load_panel(path, years=[2000])
        assert self.entries(cache) == []
        load_panel(path)
        assert len(self.entries(cache)) == 1
        with pytest.raises(MissingCountryYear, match="^no matching rows in stream$"):
            load_panel(path, countries=["ZZZ"])
        assert len(scans) == 3

    def test_streams_neither_read_nor_write(self, text, tmp_path, cache, scans):
        path = self.write(tmp_path / "panel.csv", text)
        load_panel(path)
        with open(path, encoding="utf-8", newline="") as fh:
            load_panel(fh)
        assert len(scans) == 2 and len(self.entries(cache)) == 1

    @pytest.mark.parametrize("body", [
        b"OUTPUT,AAA,2000,S1,,1.0\nFLOW,AAA,2000,S1\n",
        b"OUTPUT,AAA,2000,S1,,1.0\nOUTPUT,AAA,2000,S\xe92,,1.0\n",
    ], ids=["bad row", "not UTF-8"])
    def test_bad_input_is_never_cached(self, tmp_path, cache, body):
        path = tmp_path / "bad.csv"
        path.write_bytes(CANONICAL_HEADER.encode() + b"\n" + body)
        messages = []
        for _ in range(2):
            with pytest.raises(MalformedRow) as err:
                load_panel(path)
            messages.append(str(err.value))
        assert messages[0] == messages[1] and messages[0].startswith("line 3: ")
        assert not cache.exists()

    def test_edited_file_misses_and_reads_the_new_value(self, text, tmp_path, cache, scans):
        path = self.write(tmp_path / "panel.csv", text)
        before = load_panel(path)
        lines = text.splitlines(keepends=True)
        last = lines[-1].split(",")
        lines[-1] = ",".join([*last[:5], "1234.5\n"])
        self.write(path, "".join(lines))
        after = load_panel(path)
        assert len(scans) == 2 and len(self.entries(cache)) == 2
        table = after.get(last[1], int(last[2]))
        k = table.sector_index(last[3])
        assert table.export_demand[k, table.destination_index(last[4])] == 1234.5
        assert not before.get(last[1], int(last[2])).equals(table)

    def test_entry_is_named_by_the_bytes_the_scan_read(self, text, tmp_path, cache, monkeypatch):
        # the file changes after it is hashed, before the scan reads it
        path = self.write(tmp_path / "panel.csv", text)
        edited = text + "\n"
        scan = iodata._scan_rows

        def edit_then_scan(lines, want_c, want_y):
            self.write(path, edited)
            return scan(lines, want_c, want_y)

        monkeypatch.setattr(iodata, "_scan_rows", edit_then_scan)
        load_panel(path)
        [entry] = self.entries(cache)
        assert hashlib.sha256(edited.encode("utf-8")).hexdigest() in entry.name
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() not in entry.name

    @pytest.mark.parametrize("code", [
        pytest.param("S\x00", marks=pytest.mark.skipif(
            sys.version_info < (3, 11), reason="csv reads NUL characters from Python 3.11 on")),
        "\U0001d538\u00e9",
    ], ids=["trailing NUL", "outside the BMP"])
    def test_codes_survive_a_warm_load(self, tmp_path, scans, code):
        table = IOTable.from_flows("A\U0001f30d", 2000, [code, "S2"],
                                   np.array([[0.0, 1.0], [0.4, 0.0]]), np.array([2.0, 2.0]))
        path = tmp_path / "panel.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_panel(Panel([table]), fh)
        cold = load_panel(path)
        warm = load_panel(path)
        assert len(scans) == 1
        assert warm.get("A\U0001f30d", 2000).codes == (code, "S2")
        self.assert_same_tables(warm, cold)

    def test_entry_count_is_bounded(self, text, tmp_path, cache, scans):
        # blank lines are skipped, so each file holds the same tables in other bytes
        paths = [self.write(tmp_path / f"panel{k}.csv", text + "\n" * k)
                 for k in range(iodata._CACHE_ENTRIES + 3)]
        for path in paths:
            load_panel(path)
            assert len(self.entries(cache)) <= iodata._CACHE_ENTRIES
        assert len(self.entries(cache)) == iodata._CACHE_ENTRIES
        load_panel(paths[-1])
        assert len(scans) == len(paths)

    @pytest.mark.parametrize("damage", ["truncate", "other layout", "empty",
                                        "unknown compression method"])
    def test_bad_entry_is_a_miss_and_is_rewritten(self, text, tmp_path, cache, scans, damage):
        path = self.write(tmp_path / "panel.csv", text)
        cold = load_panel(path)
        [entry] = self.entries(cache)
        data = entry.read_bytes()
        if damage == "truncate":
            entry.write_bytes(data[:len(data) // 2])
        elif damage == "other layout":
            np.savez(entry, flows=np.zeros(3))
        elif damage == "empty":
            entry.write_bytes(b"")
        else:  # the method field of the first central directory record
            k = data.index(b"PK\x01\x02") + 10
            entry.write_bytes(data[:k] + (99).to_bytes(2, "little") + data[k + 2:])
        assert iodata._read_entry(entry) is None
        self.assert_same_tables(load_panel(path), cold)
        assert len(scans) == 2 and iodata._read_entry(entry) is not None

    def test_unwritable_cache_is_ignored(self, text, tmp_path, monkeypatch, scans):
        # a file where the cache directory would go: no OSError escapes
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        path = self.write(tmp_path / "panel.csv", text)
        self.assert_same_tables(load_panel(path), load_panel(path))
        assert len(scans) == 2

    def test_cache_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert iodata._cache_dir() == tmp_path / "xdg" / "ioresponse"
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        for unset in ("", "relative/path"):
            monkeypatch.setenv("XDG_CACHE_HOME", unset)
            assert iodata._cache_dir() == tmp_path / "home" / ".cache" / "ioresponse"
        monkeypatch.setattr(iodata.os.path, "expanduser", lambda path: path)  # no home
        assert iodata._cache_dir() is None


class TestWriteTable:
    EDGE = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1 + 0.2, 1e16]

    @staticmethod
    def _expected(v) -> str:
        return repr(float(v)) if isinstance(v, float) else str(v)

    def test_edge_values_in_array_and_mixed_columns(self):
        mixed = [np.float64(0.1 + 0.2), 0.1 + 0.2, 7, "", np.float64(-0.0), math.nan, 1e16]
        buf = io.StringIO()
        write_table(buf, "array,mixed", (np.array(self.EDGE), mixed))
        lines = buf.getvalue().split("\n")
        assert lines[0] == "array,mixed"
        assert lines[-1] == ""
        expected = [
            f"{self._expected(a)},{self._expected(m)}" for a, m in zip(self.EDGE, mixed)
        ]
        assert lines[1:-1] == expected
        assert lines[1:4] == ["nan,0.30000000000000004", "inf,0.30000000000000004", "-inf,7"]
        assert lines[4:8] == ["-0.0,", "5e-324,-0.0", "0.30000000000000004,nan", "1e+16,1e+16"]

    def test_header_only_for_empty_columns(self):
        buf = io.StringIO()
        write_table(buf, "a,b", ([], np.zeros(0)))
        assert buf.getvalue() == "a,b\n"

    def test_none_column_is_left_out_with_its_header(self):
        buf = io.StringIO()
        write_table(buf, "key,value,stderr", (["x", "y"], np.eye(2)[0], None))
        assert buf.getvalue() == "key,value\nx,1.0\ny,0.0\n"

    def test_matrix_column_is_row_major_and_long_tables_are_whole(self):
        values = np.arange(10_002, dtype=float).reshape(2, 5001) / 8.0
        buf = io.StringIO()
        write_table(buf, "k,v", (range(10_002), values))
        lines = buf.getvalue().splitlines()
        assert lines[1:] == [f"{k},{k / 8.0!r}" for k in range(10_002)]

    def test_unequal_columns_rejected(self):
        with pytest.raises(ValueError):
            write_table(io.StringIO(), "a,b", ([1.0], [1.0, 2.0]))
        with pytest.raises(ValueError):
            write_table(io.StringIO(), "a,b", ([1.0],))


class TestWriteIOTable:
    def test_layout_of_a_small_table(self):
        # A = [[0, 0.5], [0.125, 0.125]], D = (3, 1.25): every value is exact
        table = IOTable.from_flows(
            "AAA", 2000, ["S1", "S2"],
            np.array([[0.0, 1.0], [0.5, 0.25]]), np.array([4.0, 2.0]),
            final_demand=np.array([[0.5, 1.0], [0.25, 0.125]]),
            final_destinations=["CCC", "BBB"],
        )
        expected = (
            CANONICAL_HEADER + "\n"
            "OUTPUT,AAA,2000,S1,,4.0\n"
            "OUTPUT,AAA,2000,S2,,2.0\n"
            "FLOW,AAA,2000,S1,S2,1.0\n"
            "FLOW,AAA,2000,S2,S1,0.5\n"
            "FLOW,AAA,2000,S2,S2,0.25\n"
            "FINAL,AAA,2000,S1,AAA,1.5\n"
            "FINAL,AAA,2000,S1,BBB,1.0\n"
            "FINAL,AAA,2000,S1,CCC,0.5\n"
            "FINAL,AAA,2000,S2,AAA,0.875\n"
            "FINAL,AAA,2000,S2,BBB,0.125\n"
            "FINAL,AAA,2000,S2,CCC,0.25\n"
        )
        buf = io.StringIO()
        write_panel(Panel([table]), buf)
        assert buf.getvalue() == expected


class TestNoise:
    def test_isotropic(self, two_sector_table):
        nu = noise_covariance(NoiseSpec.isotropic(0.2), two_sector_table)
        np.testing.assert_allclose(nu, 0.04 * np.eye(2))

    def test_output_proportional(self):
        table = IOTable.from_flows(
            "AAA", 2000, ["S1", "S2"], np.zeros((2, 2)), np.array([100.0, 200.0])
        )
        nu = noise_covariance(NoiseSpec.output_proportional(0.01), table)
        np.testing.assert_allclose(nu, np.diag([1.0, 4.0]))

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(NonPositiveScale):
            NoiseSpec.output_proportional(0.0)
        with pytest.raises(NonPositiveScale):
            NoiseSpec.isotropic(-0.5)

    def test_sector_that_nothing_moves_raises(self):
        table = IOTable.from_flows(
            "AAA", 2000, ["S1", "S2"], np.zeros((2, 2)), np.array([100.0, 0.0])
        )
        with pytest.raises(NumericalError, match="^AAA/2000: sector S2 has no noise"):
            noise_covariance(NoiseSpec.output_proportional(0.01), table)


def test_empty_panel_has_no_codes():
    with pytest.raises(MissingCountryYear, match="panel has no tables"):
        Panel([]).codes()


def test_build_panel_is_deterministic():
    a = build_panel(n_countries=2, years=(2000, 2002), n_sectors=3, seed=11)
    b = build_panel(n_countries=2, years=(2000, 2002), n_sectors=3, seed=11)
    for ta, tb in zip(a, b):
        assert ta.equals(tb)
