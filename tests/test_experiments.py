"""End-to-end checks of the experiment runners at the fast preset.

Each experiment runs once per session at the fast preset and seed 0
(:func:`fast_tables` caches the tables); the tests assert the *shape* of
the outputs, the pass/fail flags they compute and the paper's claims
at fixed bounds.
"""

import functools

import pytest

from repro.api import experiment_ids, get_experiment


@functools.lru_cache(maxsize=None)
def fast_tables(experiment_id):
    """Tables of one experiment at the fast preset, seed 0 (run once)."""
    return get_experiment(experiment_id).run("fast", seed=0)


def run_fast(experiment_id, **overrides):
    """Tables of one experiment at the fast preset, seed 0, with overrides."""
    return get_experiment(experiment_id).run("fast", seed=0, overrides=overrides)


class TestRegistry:
    def test_expected_ids_present(self):
        expected = {
            "EXP-F1", "EXP-F4", "EXP-T221", "EXP-T221K", "EXP-T221LB",
            "EXP-T222", "EXP-T241", "EXP-T242", "EXP-L41", "EXP-L57",
            "EXP-PB1", "EXP-CE2", "EXP-PRICE", "EXP-MOM", "EXP-IRR",
            "EXP-ABL", "EXP-VT", "EXP-DYN", "EXP-DYNM", "EXP-COAL",
        }
        assert expected == set(experiment_ids())


class TestFigureExperiments:
    def test_figure1_all_rows_match(self):
        tables = fast_tables("EXP-F1")
        figure_table = tables[0]
        assert all(figure_table.column("match"))

    def test_figure1_duality_rows_exact(self):
        tables = fast_tables("EXP-F1")
        random_table = tables[1]
        assert all(random_table.column("exact"))

    def test_figure4_all_rows_match(self):
        tables = fast_tables("EXP-F4")
        assert all(tables[0].column("match"))

    def test_engine_scale_duality_exact(self):
        tables = fast_tables("EXP-F1")
        assert all(tables[2].column("exact"))
        tables = fast_tables("EXP-F4")
        assert all(tables[1].column("exact"))


class TestQChainExperiment:
    def test_closed_form_errors_tiny(self):
        table = fast_tables("EXP-L57")[0]
        errors = table.column("max|closed-numeric|")
        assert max(errors) < 1e-10

    def test_irreversibility_pattern(self):
        table = fast_tables("EXP-L57")[0]
        ks = table.column("k")
        reversible = table.column("reversible")
        for k, rev in zip(ks, reversible):
            if k > 1:
                assert not rev


class TestCoalescingExperiment:
    def test_meeting_times_positive_and_ordered(self):
        tables = run_fast("EXP-COAL", replicas=40, alphas=[0.0, 0.5])
        meeting = tables[0]
        means = meeting.column("mean_T_coal")
        assert all(m > 0 for m in means)
        graphs = meeting.column("graph")
        # The cycle's walks take the longest to meet among the three.
        assert means[graphs.index("cycle")] == max(means)

    def test_lazy_slowdown_direction(self):
        tables = run_fast("EXP-COAL", replicas=40, alphas=[0.0, 0.5])
        slowdown = tables[1]
        factors = slowdown.column("x_vs_alpha0")
        assert factors[0] == 1.0
        assert factors[1] > 1.3  # ~2x in expectation at alpha = 0.5

    def test_exact_column_agrees_at_small_n(self):
        """At n = 11 every graph admits the absorbing-chain solve: the
        exact column fills in and sits inside the bootstrap CI."""
        tables = run_fast("EXP-COAL", n=11, replicas=200, alphas=[0.0, 0.5])
        meeting = tables[0]
        exact = meeting.column("exact_T_coal")
        assert all(value is not None and value > 0 for value in exact)
        assert all(meeting.column("exact_in_ci"))
        slowdown_exact = tables[1].column("exact_T_coal")
        assert slowdown_exact[1] == pytest.approx(2.0 * slowdown_exact[0])

    def test_exact_column_none_when_infeasible(self):
        """At the fast preset's n = 24 only the complete graph is
        solvable; the other cells stay None rather than crashing."""
        tables = run_fast("EXP-COAL", replicas=30, alphas=[0.0])
        meeting = tables[0]
        graphs = meeting.column("graph")
        exact = meeting.column("exact_T_coal")
        assert exact[graphs.index("cycle")] is None
        assert exact[graphs.index("complete")] == pytest.approx(23.0**2)

    def test_engine_exact_replaces_sampling(self):
        tables = run_fast(
            "EXP-COAL", n=11, replicas=3, alphas=[0.0, 0.5],
            engine="exact",
        )
        meeting = tables[0]
        # The replica column is filled with identical copies of the
        # expectation; only float summation noise separates the mean
        # (and se) from the exact cell.
        assert all(se < 1e-9 for se in meeting.column("se"))
        for mean, exact in zip(
            meeting.column("mean_T_coal"), meeting.column("exact_T_coal")
        ):
            assert mean == pytest.approx(exact, rel=1e-12)
        assert all(meeting.column("exact_in_ci"))

    def test_cycle_row_is_odd(self):
        """Even cycles are bipartite and have no alpha = 0 voter dual;
        the experiment must use an odd cycle (regression for the
        bipartite parity guard)."""
        tables = run_fast("EXP-COAL", n=12, replicas=20, alphas=[0.5])
        meeting = tables[0]
        graphs = meeting.column("graph")
        sizes = meeting.column("n")
        assert sizes[graphs.index("cycle")] == 11
        assert sizes[graphs.index("complete")] == 12


class TestMartingaleExperiment:
    def test_exact_drift_zero(self):
        tables = fast_tables("EXP-L41")
        exact = tables[0]
        assert max(exact.column("max_drift")) < 1e-12

    def test_empirical_z_scores_small(self):
        tables = fast_tables("EXP-L41")
        empirical = tables[1]
        assert max(abs(z) for z in empirical.column("z_score")) < 4.0


class TestPotentialDropExperiment:
    def test_exact_factor_strictly_below_bound(self):
        (table,) = fast_tables("EXP-PB1")
        assert all(table.column("ok"))
        # Not attained on any state, f_2 included.
        assert min(table.column("bound - exact")) > 0

    def test_monte_carlo_column_agrees_with_exact(self):
        # |z| <= 4 on 12 rows: false-alarm rate 7.6e-4 (6.3e-5 per row).
        (table,) = fast_tables("EXP-PB1")
        assert max(abs(z) for z in table.column("z")) <= 4.0


class TestKDependenceExperiment:
    def test_t_ratio_band(self):
        (table,) = fast_tables("EXP-T221K")
        ratios = table.column("T(k)/T(1)")
        # The paper's claim: k barely matters — within [1/2 - noise, 1 + noise].
        assert min(ratios) > 0.35
        assert max(ratios) < 1.5


class TestLowerBoundExperiment:
    def test_ratios_bounded_away_from_zero(self):
        (table,) = fast_tables("EXP-T221LB")
        ratios = table.column("ratio")
        assert min(ratios) > 0.02
        assert max(ratios) < 10.0


class TestTimeVarianceExperiment:
    def test_all_bounds_hold(self):
        (table,) = fast_tables("EXP-CE2")
        assert all(table.column("ok"))

    def test_variance_grows_then_saturates(self):
        (table,) = fast_tables("EXP-CE2")
        node_rows = [r for r in table.rows if r[0].startswith("node")]
        variances = [r[2] for r in node_rows]
        assert variances[-1] >= variances[0]


class TestPaperClaims:
    """The paper's claims at the fast preset, seed 0, at fixed bounds."""

    def test_t222_structure_independent_variance(self):
        structure = fast_tables("EXP-T222")[0]
        assert all(structure.column("in_envelope"))
        variances = structure.column("Var_measured")
        # Structure independence: max/min across graph families stays O(1).
        assert max(variances) / min(variances) < 3.0

    def test_t242_edge_variance_matches_node(self):
        (table,) = fast_tables("EXP-T242")
        variances = table.column("Var_measured")
        # Pairs of rows (edge vs node) per graph should be close.
        for edge_var, node_var in zip(variances[::2], variances[1::2]):
            assert 0.4 < edge_var / node_var < 2.5

    def test_irr_rows(self):
        (table,) = fast_tables("EXP-IRR")
        assert len(table.rows) == 6  # 3 graphs x 2 models

    def test_mom_rademacher_near_symmetric(self):
        (table,) = fast_tables("EXP-MOM")
        rows = list(zip(table.column("initial"), table.column("skewness")))
        rademacher_skews = [s for name, s in rows if name == "rademacher"]
        # Symmetric initial values -> near-symmetric F.
        assert max(abs(s) for s in rademacher_skews) < 0.8

    def test_vt_monte_carlo_matches_exact(self):
        for table in fast_tables("EXP-VT"):
            ratios = table.column("mc/exact")
            assert all(0.8 < r < 1.25 for r in ratios)

    def test_abl_speed_and_accuracy_orderings(self):
        (table,) = fast_tables("EXP-ABL")
        alphas = table.column("alpha")
        times = dict(zip(alphas, table.column("T_measured")))
        variances = dict(zip(alphas, table.column("Var_measured")))
        # Speed: both extremes slower than alpha = 0.5.
        assert times[0.5] < times[0.9]
        assert times[0.5] < times[0.1] * 2.0
        # Accuracy: variance decreases with alpha (monotone within MC noise).
        assert variances[0.9] < variances[0.1]

    def test_price_ordering(self):
        (table,) = fast_tables("EXP-PRICE")
        stds = dict(zip(table.column("protocol"), table.column("std_F")))
        # The ordering the paper's introduction predicts.
        assert stds["pairwise gossip"] < 1e-6
        assert (
            stds["pairwise gossip"]
            < stds["NodeModel (paper)"]
            < stds["voter model"]
        )

    def test_t221_ratio_band(self):
        (table,) = fast_tables("EXP-T221")
        ratios = table.column("ratio")
        # Theorem 2.2(1): measured/bound stays in an O(1) band across the sweep.
        assert max(ratios) / min(ratios) < 10.0

    def test_t241_ratio_band(self):
        (table,) = fast_tables("EXP-T241")
        ratios = table.column("ratio")
        assert max(ratios) / min(ratios) < 20.0
