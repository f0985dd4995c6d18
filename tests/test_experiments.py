"""Smoke tests for the experiment runners (cheap subset).

Heavy Monte-Carlo experiments are exercised through the benchmark
harness; here we run the fast, second-scale ones end to end and assert
the *shape* of their outputs (and the pass/fail flags they compute).
"""

import numpy as np
import pytest

from repro.experiments import (
    EXPERIMENTS,
    exp_coalescing,
    exp_fig_duality,
    exp_k_dependence,
    exp_lower_bound,
    exp_martingale,
    exp_potential_drop,
    exp_qchain,
    exp_time_variance,
)


class TestRegistry:
    def test_expected_ids_present(self):
        expected = {
            "EXP-F1", "EXP-F4", "EXP-T221", "EXP-T221K", "EXP-T221LB",
            "EXP-T222", "EXP-T241", "EXP-T242", "EXP-L41", "EXP-L57",
            "EXP-PB1", "EXP-CE2", "EXP-PRICE", "EXP-MOM", "EXP-IRR",
            "EXP-ABL", "EXP-VT", "EXP-DYN", "EXP-DYNM", "EXP-COAL",
        }
        assert expected == set(EXPERIMENTS)


class TestFigureExperiments:
    def test_figure1_all_rows_match(self):
        tables = exp_fig_duality.run_figure1(fast=True, seed=0)
        figure_table = tables[0]
        assert all(figure_table.column("match"))

    def test_figure1_duality_rows_exact(self):
        tables = exp_fig_duality.run_figure1(fast=True, seed=0)
        random_table = tables[1]
        assert all(random_table.column("exact"))

    def test_figure4_all_rows_match(self):
        tables = exp_fig_duality.run_figure4(fast=True, seed=0)
        assert all(tables[0].column("match"))

    def test_engine_scale_duality_exact(self):
        tables = exp_fig_duality.run_figure1(fast=True, seed=0)
        assert all(tables[2].column("exact"))
        tables = exp_fig_duality.run_figure4(fast=True, seed=0)
        assert all(tables[1].column("exact"))


class TestQChainExperiment:
    def test_closed_form_errors_tiny(self):
        table = exp_qchain.run(fast=True, seed=0)[0]
        errors = table.column("max|closed-numeric|")
        assert max(errors) < 1e-10

    def test_irreversibility_pattern(self):
        table = exp_qchain.run(fast=True, seed=0)[0]
        ks = table.column("k")
        reversible = table.column("reversible")
        for k, rev in zip(ks, reversible):
            if k > 1:
                assert not rev


class TestCoalescingExperiment:
    def test_meeting_times_positive_and_ordered(self):
        tables = exp_coalescing.run(
            fast=True, seed=0, replicas=40, alphas=[0.0, 0.5]
        )
        meeting = tables[0]
        means = meeting.column("mean_T_coal")
        assert all(m > 0 for m in means)
        graphs = meeting.column("graph")
        # The cycle's walks take the longest to meet among the three.
        assert means[graphs.index("cycle")] == max(means)

    def test_lazy_slowdown_direction(self):
        tables = exp_coalescing.run(
            fast=True, seed=0, replicas=40, alphas=[0.0, 0.5]
        )
        slowdown = tables[1]
        factors = slowdown.column("x_vs_alpha0")
        assert factors[0] == 1.0
        assert factors[1] > 1.3  # ~2x in expectation at alpha = 0.5

    def test_exact_column_agrees_at_small_n(self):
        """At n = 11 every graph admits the absorbing-chain solve: the
        exact column fills in and sits inside the bootstrap CI."""
        tables = exp_coalescing.run(
            fast=True, seed=0, n=11, replicas=200, alphas=[0.0, 0.5]
        )
        meeting = tables[0]
        exact = meeting.column("exact_T_coal")
        assert all(value is not None and value > 0 for value in exact)
        assert all(meeting.column("exact_in_ci"))
        slowdown_exact = tables[1].column("exact_T_coal")
        assert slowdown_exact[1] == pytest.approx(2.0 * slowdown_exact[0])

    def test_exact_column_none_when_infeasible(self):
        """At the fast preset's n = 24 only the complete graph is
        solvable; the other cells stay None rather than crashing."""
        tables = exp_coalescing.run(
            fast=True, seed=0, replicas=30, alphas=[0.0]
        )
        meeting = tables[0]
        graphs = meeting.column("graph")
        exact = meeting.column("exact_T_coal")
        assert exact[graphs.index("cycle")] is None
        assert exact[graphs.index("complete")] == pytest.approx(23.0**2)

    def test_engine_exact_replaces_sampling(self):
        tables = exp_coalescing.run(
            fast=True, seed=0, n=11, replicas=3, alphas=[0.0, 0.5],
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
        tables = exp_coalescing.run(
            fast=True, seed=0, n=12, replicas=20, alphas=[0.5]
        )
        meeting = tables[0]
        graphs = meeting.column("graph")
        sizes = meeting.column("n")
        assert sizes[graphs.index("cycle")] == 11
        assert sizes[graphs.index("complete")] == 12


class TestMartingaleExperiment:
    def test_exact_drift_zero(self):
        tables = exp_martingale.run(fast=True, seed=0)
        exact = tables[0]
        assert max(exact.column("max_drift")) < 1e-12

    def test_empirical_z_scores_small(self):
        tables = exp_martingale.run(fast=True, seed=0)
        empirical = tables[1]
        assert max(abs(z) for z in empirical.column("z_score")) < 4.0


class TestPotentialDropExperiment:
    def test_exact_factor_strictly_below_bound(self):
        (table,) = exp_potential_drop.run(fast=True, seed=0)
        assert all(table.column("ok"))
        # Not attained on any state, f_2 included.
        assert min(table.column("bound - exact")) > 0

    def test_monte_carlo_column_agrees_with_exact(self):
        # |z| <= 4 on 12 rows: false-alarm rate 7.6e-4 (6.3e-5 per row).
        (table,) = exp_potential_drop.run(fast=True, seed=0)
        assert max(abs(z) for z in table.column("z")) <= 4.0


class TestKDependenceExperiment:
    def test_t_ratio_band(self):
        (table,) = exp_k_dependence.run(fast=True, seed=0)
        ratios = table.column("T(k)/T(1)")
        # The paper's claim: k barely matters — within [1/2 - noise, 1 + noise].
        assert min(ratios) > 0.35
        assert max(ratios) < 1.5


class TestLowerBoundExperiment:
    def test_ratios_bounded_away_from_zero(self):
        (table,) = exp_lower_bound.run(fast=True, seed=0)
        ratios = table.column("ratio")
        assert min(ratios) > 0.02
        assert max(ratios) < 10.0


class TestTimeVarianceExperiment:
    def test_all_bounds_hold(self):
        (table,) = exp_time_variance.run(fast=True, seed=0)
        assert all(table.column("ok"))

    def test_variance_grows_then_saturates(self):
        (table,) = exp_time_variance.run(fast=True, seed=0)
        node_rows = [r for r in table.rows if r[0].startswith("node")]
        variances = [r[2] for r in node_rows]
        assert variances[-1] >= variances[0]
