"""End-to-end tests of the figure harnesses on tiny sweeps.

These check the *reproduction targets* (curve shapes), not absolute
numbers: who wins, what stays flat, what gets cut off.
"""

import pytest

from repro.experiments import figure8, figure9, figure10, lowerbound, committee_exp
from repro.experiments.ablations import AblationConfig, run_ablations
from repro.experiments.config import (
    CommitteeConfig,
    Figure8Config,
    Figure9Config,
    Figure10Config,
    LowerBoundConfig,
)
from repro.experiments.report import rows_to_series, rows_to_table


@pytest.fixture(scope="module")
def fig8_rows():
    config = Figure8Config(
        networks=["gnutella"],
        t_exponents=[2, 10, 17],
        horizon=300.0,
        n0_scale=0.1,
    )
    return figure8.run(config)


class TestFigure8(object):
    def test_all_series_present(self, fig8_rows):
        defenses = {r.defense for r in fig8_rows}
        assert defenses == {"ERGO", "CCOM", "SybilControl", "REMP", "ERGO-SF"}

    def test_remp_is_flat(self, fig8_rows):
        remp = sorted(
            (r.t_rate, r.good_spend_rate) for r in fig8_rows if r.defense == "REMP"
        )
        values = [a for _, a in remp]
        assert max(values) / min(values) < 1.2

    def test_ccom_linear_in_t_at_scale(self, fig8_rows):
        ccom = {r.t_rate: r.good_spend_rate for r in fig8_rows if r.defense == "CCOM"}
        top_two = sorted(ccom)[-2:]
        growth = ccom[top_two[1]] / ccom[top_two[0]]
        t_growth = top_two[1] / top_two[0]
        assert growth == pytest.approx(t_growth, rel=0.35)

    def test_ergo_beats_ccom_at_large_t(self, fig8_rows):
        t_top = max(r.t_rate for r in fig8_rows)
        ergo = next(
            r for r in fig8_rows if r.defense == "ERGO" and r.t_rate == t_top
        )
        ccom = next(
            r for r in fig8_rows if r.defense == "CCOM" and r.t_rate == t_top
        )
        assert ergo.good_spend_rate < ccom.good_spend_rate / 5.0

    def test_ergo_sf_beats_ergo_at_large_t(self, fig8_rows):
        t_top = max(r.t_rate for r in fig8_rows)
        ergo = next(
            r for r in fig8_rows if r.defense == "ERGO" and r.t_rate == t_top
        )
        sf = next(
            r for r in fig8_rows if r.defense == "ERGO-SF" and r.t_rate == t_top
        )
        assert sf.good_spend_rate < ergo.good_spend_rate

    def test_sybilcontrol_cut_off_at_large_t(self, fig8_rows):
        """The Figure 8 cutoff: SybilControl loses DefID at large T."""
        t_top = max(r.t_rate for r in fig8_rows)
        sc = next(
            r
            for r in fig8_rows
            if r.defense == "SybilControl" and r.t_rate == t_top
        )
        assert not sc.maintains_defid
        series = rows_to_series(fig8_rows, "gnutella")
        plotted_ts = [t for t, _ in series.get("SybilControl", [])]
        assert t_top not in plotted_ts

    def test_ergo_maintains_defid_everywhere(self, fig8_rows):
        assert all(
            r.maintains_defid for r in fig8_rows if r.defense in ("ERGO", "ERGO-SF")
        )

    def test_table_renders(self, fig8_rows):
        text = rows_to_table(fig8_rows)
        assert "ERGO" in text and "max_bad" in text


class TestFigure9:
    def test_ratios_bounded(self):
        config = Figure9Config(
            networks=["gnutella"],
            bad_fractions=[1 / 96, 1 / 6],
            attack_rates=[0.0, 10_000.0],
            horizon=8_000.0,
            n0_scale=0.1,
        )
        rows = figure9.run(config)
        assert len(rows) == 4
        for row in rows:
            assert row.intervals >= 1
            # "Within a factor of 10 of the true good join rate."
            assert 0.08 <= row.median_ratio <= 10.0

    def test_render(self):
        config = Figure9Config.quick()
        config.networks = ["gnutella"]
        config.horizon = 4000.0
        config.bad_fractions = [1 / 24]
        config.attack_rates = [0.0]
        rows = figure9.run(config)
        text = figure9.render(rows)
        assert "GoodJEst" in text


class TestFigure10:
    def test_heuristics_keep_defid_and_sf_wins(self):
        config = Figure10Config(
            networks=["gnutella"],
            t_exponents=[14],
            horizon=300.0,
            n0_scale=0.1,
        )
        rows = figure10.run(config)
        assert all(r.maintains_defid for r in rows)
        by_defense = {r.defense: r.good_spend_rate for r in rows}
        assert by_defense["ERGO-SF(98)"] < by_defense["ERGO"]
        assert by_defense["ERGO-SF(92)"] < by_defense["ERGO"]


class TestLowerBound:
    def test_no_algorithm_beats_the_bound(self):
        config = LowerBoundConfig(t_exponents=[10, 16], horizon=300.0, n0_scale=0.1)
        rows = lowerbound.run(config)
        for row in rows:
            assert row.ratio >= config.omega_constant

    def test_ccom_gap_exceeds_ergo_gap(self):
        config = LowerBoundConfig(t_exponents=[16], horizon=300.0, n0_scale=0.1)
        rows = lowerbound.run(config)
        gaps = {r.defense: r.ratio for r in rows}
        assert gaps["CCOM"] > gaps["ERGO"]


class TestCommitteeExperiment:
    def test_invariants_hold(self):
        report = committee_exp.run(CommitteeConfig.quick())
        assert report.all_good_majority
        assert report.min_good_fraction >= 0.75
        assert report.size_min >= 3
        assert report.max_bad_fraction < 1 / 6


class TestAblations:
    def test_default_purge_fraction_keeps_defid_and_quarter_breaks_it(self):
        # Quick scale reads max bad fraction 0.084 at 1/11 and 0.200 at 1/4.
        config = AblationConfig.quick()
        config.goodjest_thresholds = []
        config.window_scales = []
        rows = {r.value: r for r in run_ablations(config)}
        default, loose = rows[1 / 11], rows[1 / 4]
        assert default.defid_ok
        assert not loose.defid_ok
        assert loose.max_bad_fraction > default.max_bad_fraction
