"""Shock-vector construction and scenario impact evaluation."""

import math

import numpy as np
import pytest

from ioresponse.errors import ConfigError, MissingExportDetail, NumericalError
from ioresponse.iodata import IOTable, Panel
from ioresponse.scenario import (
    ScenarioSpec,
    ShockTerm,
    build_shock_vectors,
    parse_scenario_spec,
    run_scenario,
    scenario_impact,
    scenario_response_curves,
)

from ioresponse.susceptibility import truncated_susceptibility

from conftest import build_panel


@pytest.fixture(scope="module")
def scenario_panel():
    return build_panel(n_countries=3, years=(2013, 2014), n_sectors=4, seed=21)


def _spec(shocks, year=2014, compensate=True, horizon=math.inf):
    return ScenarioSpec(
        name="test", shocks=tuple(shocks), evaluation_year=year,
        horizon=horizon, compensate=compensate,
    )


class TestBuildShockVectors:
    def test_zero_fraction_gives_zero_vectors(self, scenario_panel):
        codes = scenario_panel.codes()
        spec = _spec([
            ShockTerm("BBB", codes[0], "export_to", dest="AAA", fraction=0.0)
        ])
        vectors = build_shock_vectors(spec, scenario_panel)
        assert all(not v.any() for v in vectors.values())

    def test_full_reduction_matches_export_detail(self, scenario_panel):
        codes = scenario_panel.codes()
        sector = codes[1]
        spec = _spec([
            ShockTerm("*", sector, "export_to", dest="AAA", fraction=-1.0)
        ])
        vectors = build_shock_vectors(spec, scenario_panel)
        total_removed = 0.0
        for c in ("BBB", "CCC"):
            table = scenario_panel.get(c, 2014)
            i = table.sector_index(sector)
            k = table.destination_index("AAA")
            expected = -float(table.export_demand[i, k])
            assert vectors[c][i] == pytest.approx(expected)
            total_removed += expected
        table = scenario_panel.get("AAA", 2014)
        assert vectors["AAA"][table.sector_index(sector)] == pytest.approx(
            abs(total_removed)
        )

    def test_compensation_can_be_disabled(self, scenario_panel):
        codes = scenario_panel.codes()
        spec = _spec(
            [ShockTerm("BBB", codes[0], "export_to", dest="AAA", fraction=-1.0)],
            compensate=False,
        )
        vectors = build_shock_vectors(spec, scenario_panel)
        assert not vectors["AAA"].any()

    def test_stacked_terms_add(self, scenario_panel):
        codes = scenario_panel.codes()
        sector = codes[2]
        single = _spec(
            [ShockTerm("BBB", sector, "export_to", dest="AAA", fraction=-0.75)],
            compensate=False,
        )
        stacked = _spec(
            [
                ShockTerm("BBB", sector, "export_to", dest="AAA", fraction=-0.5),
                ShockTerm("BBB", sector, "export_to", dest="AAA", fraction=-0.25),
            ],
            compensate=False,
        )
        a = build_shock_vectors(single, scenario_panel)
        b = build_shock_vectors(stacked, scenario_panel)
        np.testing.assert_allclose(a["BBB"], b["BBB"], rtol=1e-12)

    def test_absolute_terms(self, scenario_panel):
        codes = scenario_panel.codes()
        spec = _spec([ShockTerm("AAA", codes[0], "absolute", value=12.5)])
        vectors = build_shock_vectors(spec, scenario_panel)
        assert vectors["AAA"][0] == 12.5

    def test_missing_export_detail(self, scenario_panel):
        codes = scenario_panel.codes()
        spec = _spec([
            ShockTerm("BBB", codes[0], "export_to", dest="ZZZ", fraction=-1.0)
        ])
        with pytest.raises(MissingExportDetail):
            build_shock_vectors(spec, scenario_panel)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            ShockTerm("AAA", "S1", "export_to", dest="BBB", fraction=-1.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_absolute_value_must_be_finite(self, value):
        with pytest.raises(ValueError, match="^value must be finite$"):
            ShockTerm("AAA", "S1", "absolute", value=value)

    @pytest.mark.parametrize("country", ["*", "AAA,BBB"])
    def test_absolute_term_takes_one_country(self, country):
        with pytest.raises(ValueError, match="^an absolute term takes one country, got "):
            ShockTerm(country, "S1", "absolute", value=5.0)


class TestScenarioImpact:
    def test_zero_shock_zero_impact(self, scenario_panel):
        table = scenario_panel.get("AAA", 2014)
        rows = scenario_impact(table, np.zeros(table.n_sectors))
        assert all(r.delta_usd == 0.0 and r.delta_pct == 0.0 for r in rows)

    def test_linearity_in_shock_scale(self, scenario_panel):
        table = scenario_panel.get("AAA", 2014)
        rng = np.random.default_rng(3)
        x = rng.normal(size=table.n_sectors)
        full = scenario_impact(table, x)
        scaled = scenario_impact(table, 0.25 * x)
        for a, b in zip(full, scaled):
            assert b.delta_usd == pytest.approx(0.25 * a.delta_usd, rel=1e-12)

    def test_aggregate_is_exact_sector_sum(self, scenario_panel):
        codes = scenario_panel.codes()
        spec = _spec([
            ShockTerm("*", codes[1], "export_to", dest="AAA", fraction=-1.0)
        ])
        result = run_scenario(spec, scenario_panel)
        for c in result.aggregates:
            rows = [r.delta_usd for r in result.impacts if r.country == c]
            assert result.aggregates[c] == math.fsum(rows)

    @pytest.mark.parametrize("horizon", [0.5, 3.0, math.inf])
    def test_impact_is_susceptibility_times_shock(self, scenario_panel, horizon):
        table = scenario_panel.get("CCC", 2014)
        x = np.random.default_rng(5).normal(size=table.n_sectors)
        rows = scenario_impact(table, x, horizon=horizon)
        expected = truncated_susceptibility(table.coefficients, horizon) @ x
        np.testing.assert_allclose([r.delta_usd for r in rows], expected, rtol=1e-12)

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_non_positive_horizon_refused(self, scenario_panel, horizon):
        table = scenario_panel.get("AAA", 2014)
        with pytest.raises(ValueError, match="horizon"):
            scenario_impact(table, np.ones(table.n_sectors), horizon=horizon)

    @pytest.mark.parametrize("horizon", [3.0, math.inf])
    def test_solves_against_one_vector(self, scenario_panel, monkeypatch, horizon):
        ranks = []
        original = np.linalg.solve

        def recording(system, rhs):
            ranks.append(np.ndim(rhs))
            return original(system, rhs)

        monkeypatch.setattr(np.linalg, "solve", recording)
        table = scenario_panel.get("AAA", 2014)
        scenario_impact(table, np.ones(table.n_sectors), horizon=horizon)
        assert ranks == [1]

    def test_overflowing_shock_sum_refused(self, scenario_panel):
        code = scenario_panel.codes()[0]
        spec = _spec([ShockTerm("AAA", code, "absolute", value=1e308)] * 2)
        with pytest.raises(NumericalError, match="AAA/2014: the scenario's shock overflows"):
            build_shock_vectors(spec, scenario_panel)

    def test_overflowing_impact_refused(self, scenario_panel):
        table = scenario_panel.get("AAA", 2014)
        with pytest.raises(NumericalError, match="AAA/2014: the scenario impact overflows"):
            scenario_impact(table, np.full(table.n_sectors, 1e308))

    def test_overflowing_aggregate_refused(self):
        # finite impacts, in USD and in percent, whose sum is not: 100 times
        # an impact must stay finite, so it takes over 100 sectors
        codes = [f"S{k}" for k in range(101)]
        table = IOTable.from_coefficients("AAA", 2014, codes, np.zeros((101, 101)),
                                          np.full(101, 1e300))
        spec = _spec([ShockTerm("AAA", s, "absolute", value=1.79e306) for s in codes])
        with pytest.raises(NumericalError, match="AAA/2014: the scenario aggregate overflows"):
            run_scenario(spec, Panel([table]))

    def test_large_impact_on_large_output_keeps_its_percent(self):
        # 100 * dY overflows, 100 * (dY / Y) does not
        table = IOTable.from_coefficients("AAA", 2014, ["S0"], np.zeros((1, 1)), [1e307])
        (row,) = scenario_impact(table, [1.5e308])
        assert (row.delta_usd, row.delta_pct) == (1.5e308, 1500.0)

    def test_percent_definition(self, scenario_panel):
        table = scenario_panel.get("BBB", 2014)
        x = np.ones(table.n_sectors)
        rows = scenario_impact(table, x)
        for k, r in enumerate(rows):
            assert r.delta_pct == pytest.approx(
                100.0 * r.delta_usd / table.output[k]
            )


class TestScenarioCurves:
    def test_horizon_zero_grid_is_zero(self, scenario_panel):
        table = scenario_panel.get("AAA", 2014)
        curve = scenario_response_curves(table, np.ones(table.n_sectors), 0.0)
        assert curve.values.shape[0] == 1
        assert not curve.values.any()

    def test_endpoint_matches_stationary_impact(self, scenario_panel):
        table = scenario_panel.get("AAA", 2014)
        rng = np.random.default_rng(4)
        x = rng.normal(size=table.n_sectors)
        curve = scenario_response_curves(table, x, 120.0, grid_dt=1.0)
        stationary = [r.delta_usd for r in scenario_impact(table, x)]
        np.testing.assert_allclose(curve.values[-1], stationary, rtol=1e-8)

    def test_monotone_approach_for_nonnegative_shock(self, scenario_panel):
        table = scenario_panel.get("CCC", 2014)
        x = np.ones(table.n_sectors)
        curve = scenario_response_curves(table, x, 20.0, grid_dt=0.1)
        diffs = np.diff(curve.values, axis=0)
        assert np.all(diffs > -1e-12)


class TestSpecParsing:
    def test_round_trip_of_keys(self):
        text = """
        # tariff-style scenario
        name = metal_tariffs
        evaluation_year = 2014
        horizon = inf
        compensation = on
        shock = * C24 export_to USA -1.0
        shock = USA C24 absolute 3.5
        """
        spec = parse_scenario_spec(text)
        assert spec.name == "metal_tariffs"
        assert spec.evaluation_year == 2014
        assert math.isinf(spec.horizon)
        assert spec.compensate
        assert len(spec.shocks) == 2
        assert spec.shocks[0].kind == "export_to"
        assert spec.shocks[0].fraction == -1.0
        assert spec.shocks[1].value == 3.5

    def test_comma_list_of_countries(self):
        spec = parse_scenario_spec(
            "evaluation_year = 2014\nshock = AAA,BBB C24 export_to USA -0.5\n"
        )
        assert [s.country for s in spec.shocks] == ["AAA", "BBB"]

    @pytest.mark.parametrize(
        "value, compensate",
        [("on", True), ("Yes", True), ("1", True), ("off", False), ("no", False),
         ("FALSE", False), ("0", False)],
    )
    def test_compensation_switch_values(self, value, compensate):
        spec = parse_scenario_spec(
            f"evaluation_year = 2014\ncompensation = {value}\nshock = AAA C24 absolute 1\n"
        )
        assert spec.compensate is compensate

    @pytest.mark.parametrize(
        "text",
        [
            "shock = AAA C24 export_to USA -1.0\n",          # missing year
            "evaluation_year = 2014\n",                        # no shocks
            "evaluation_year = 2014\nshock = AAA C24 foo 1\n",  # bad kind
            "evaluation_year = 2014\nbogus = 1\nshock = AAA C24 absolute 1\n",
            "evaluation_year = 2014\ncompensation = onn\nshock = AAA C24 absolute 1\n",
            "evaluation_year = 2014\ncompensation =\nshock = AAA C24 absolute 1\n",
        ],
    )
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(ConfigError):
            parse_scenario_spec(text)

    @pytest.mark.parametrize("countries", ["*", "AAA,BBB"])
    def test_absolute_term_with_several_countries_names_its_line(self, countries):
        text = f"evaluation_year = 2014\n\nshock = {countries} A01 absolute 5\n"
        with pytest.raises(ConfigError) as info:
            parse_scenario_spec(text)
        assert str(info.value) == (
            f"scenario line 3: an absolute term takes one country, got {countries!r}")
