"""Parsing, validation, and round-trip behavior of IO tables."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ioresponse.errors import (
    InconsistentTable,
    MalformedRow,
    MissingCountryYear,
    NonPositiveScale,
    NonProductiveEconomy,
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
    parse_io_table,
    spectral_radius,
    write_io_table,
    write_panel,
    write_table,
)
from ioresponse.sectors import GROUP_VOCABULARY, sector_metadata

from conftest import build_panel, random_economy


def _stream(*rows: str) -> io.StringIO:
    return io.StringIO("\n".join((CANONICAL_HEADER,) + rows) + "\n")


class TestParse:
    def test_two_sector_coefficients_and_residual_demand(self):
        table = parse_io_table(
            _stream(
                "OUTPUT,AAA,2014,S1,,2.0",
                "OUTPUT,AAA,2014,S2,,2.0",
                "FLOW,AAA,2014,S1,S2,1.0",
                "FLOW,AAA,2014,S2,S1,0.4",
            ),
            "AAA",
            2014,
        )
        np.testing.assert_allclose(table.coefficients, [[0.0, 0.5], [0.2, 0.0]])
        np.testing.assert_allclose(table.demand, [1.0, 1.6])

    def test_zero_flows_demand_equals_output(self):
        table = parse_io_table(
            _stream("OUTPUT,AAA,2000,S1,,5.0", "OUTPUT,AAA,2000,S2,,5.0"),
            "AAA",
            2000,
        )
        assert not table.coefficients.any()
        np.testing.assert_array_equal(table.demand, table.output)

    def test_nonproductive_economy_reports_radius(self):
        with pytest.raises(NonProductiveEconomy) as err:
            parse_io_table(
                _stream("OUTPUT,AAA,2000,S1,,1.0", "FLOW,AAA,2000,S1,S1,1.2"),
                "AAA",
                2000,
            )
        assert err.value.spectral_radius == pytest.approx(1.2)

    def test_missing_country_year(self):
        with pytest.raises(MissingCountryYear):
            parse_io_table(_stream("OUTPUT,AAA,2000,S1,,5.0"), "BBB", 2000)

    def test_zero_output_with_flows(self):
        with pytest.raises(ZeroOutputSector):
            parse_io_table(
                _stream(
                    "OUTPUT,AAA,2000,S1,,5.0",
                    "OUTPUT,AAA,2000,S2,,0.0",
                    "FLOW,AAA,2000,S1,S2,1.0",
                ),
                "AAA",
                2000,
            )

    def test_zero_output_without_flows_is_fine(self):
        table = parse_io_table(
            _stream("OUTPUT,AAA,2000,S1,,5.0", "OUTPUT,AAA,2000,S2,,0.0"),
            "AAA",
            2000,
        )
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
            parse_io_table(_stream(row), "AAA", 2000)
        assert err.value.line_number == 2
        assert reason in str(err.value)

    def test_header_required(self):
        with pytest.raises(MalformedRow) as err:
            parse_io_table(io.StringIO("OUTPUT,AAA,2000,S1,,5.0\n"), "AAA", 2000)
        assert err.value.line_number == 1

    def test_duplicate_output_rejected(self):
        with pytest.raises(InconsistentTable):
            parse_io_table(
                _stream("OUTPUT,AAA,2000,S1,,5.0", "OUTPUT,AAA,2000,S1,,5.0"),
                "AAA",
                2000,
            )

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
            parse_io_table(_stream(*rows), "AAA", 2000)

    def test_negative_flow_rejected_unless_clipped(self):
        rows = ("OUTPUT,AAA,2000,S1,,5.0", "FLOW,AAA,2000,S1,S1,-1.0")
        with pytest.raises(InconsistentTable):
            parse_io_table(_stream(*rows), "AAA", 2000)
        table = parse_io_table(_stream(*rows), "AAA", 2000, clip_negative_flows=True)
        assert table.flows[0, 0] == 0.0

    def test_negative_residual_demand_warns_and_keeps(self):
        with pytest.warns(NegativeResidualDemand):
            table = IOTable.from_flows(
                "AAA", 2000, ["S1", "S2"],
                np.array([[0.0, 9.0], [0.9, 0.0]]), np.array([1.0, 10.0]),
            )
        assert table.demand[0] < 0.0


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
            assert sector_metadata(code)[1] in GROUP_VOCABULARY

    def test_arrays_are_readonly(self, two_sector_table):
        with pytest.raises(ValueError):
            two_sector_table.flows[0, 0] = 1.0


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
        write_io_table(table, buf)
        buf.seek(0)
        again = parse_io_table(buf, table.country, table.year)
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
        write_io_table(table, buf)
        assert buf.getvalue() == expected
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

    def test_zero_output_sector_warns(self):
        table = IOTable.from_flows(
            "AAA", 2000, ["S1", "S2"], np.zeros((2, 2)), np.array([100.0, 0.0])
        )
        with pytest.warns(UserWarning, match="singular"):
            nu = noise_covariance(NoiseSpec.output_proportional(0.01), table)
        assert nu[1, 1] == 0.0


def test_build_panel_is_deterministic():
    a = build_panel(n_countries=2, years=(2000, 2002), n_sectors=3, seed=11)
    b = build_panel(n_countries=2, years=(2000, 2002), n_sectors=3, seed=11)
    for ta, tb in zip(a, b):
        assert ta.equals(tb)
