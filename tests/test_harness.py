"""Tests for the experiment harness, figure regeneration and reporting."""

import pytest

from repro.core.config import RouterConfig
from repro.harness.figures import (
    FigureData,
    clear_cache,
    figure3,
    figure4,
    figure5,
    run_point,
)
from repro.harness.report import format_series, format_table
from repro.harness.single_router import (
    ExperimentSpec,
    run_single_router_experiment,
)
from repro.harness.sweep import SweepAxis, build_spec, run_sweep

#: A small, fast configuration for harness tests: the full paper config is
#: exercised by the benchmarks.
TINY = RouterConfig(
    num_ports=4, vcs_per_port=32, enforce_round_budgets=False
)
TINY_CYCLES = dict(warmup_cycles=500, measure_cycles=2000)


def tiny_spec(**overrides):
    base = dict(
        target_load=0.5, config=TINY, candidates=4, seed=3, **TINY_CYCLES
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestExperimentSpec:
    def test_rejects_unknown_scheduler(self):
        with pytest.raises(ValueError):
            tiny_spec(scheduler="magic")

    def test_rejects_bad_load(self):
        with pytest.raises(ValueError):
            tiny_spec(target_load=0.0)

    def test_rejects_negative_cycles(self):
        with pytest.raises(ValueError):
            tiny_spec(warmup_cycles=-1)


class TestRunExperiment:
    def test_produces_statistics(self):
        result = run_single_router_experiment(tiny_spec())
        assert result.connections > 0
        assert result.offered_load == pytest.approx(0.5, abs=0.05)
        assert result.summary.flits_delivered > 0
        assert result.mean_delay_cycles > 0
        assert 0.0 < result.utilisation <= 1.0

    def test_deterministic_for_same_seed(self):
        a = run_single_router_experiment(tiny_spec())
        b = run_single_router_experiment(tiny_spec())
        assert a.mean_delay_cycles == b.mean_delay_cycles
        assert a.mean_jitter_cycles == b.mean_jitter_cycles
        assert a.utilisation == b.utilisation

    def test_seeds_change_workload(self):
        a = run_single_router_experiment(tiny_spec(seed=1))
        b = run_single_router_experiment(tiny_spec(seed=2))
        assert a.mean_delay_cycles != b.mean_delay_cycles

    def test_shared_plan_compares_schedulers_on_same_workload(self):
        from repro.sim.rng import SeededRng
        from repro.traffic.load import LoadPlanner

        plan = LoadPlanner(TINY, SeededRng(3, "shared")).plan(0.5)
        greedy = run_single_router_experiment(tiny_spec(), plan=plan)
        perfect = run_single_router_experiment(
            tiny_spec(scheduler="perfect"), plan=plan
        )
        assert greedy.connections == perfect.connections
        assert perfect.mean_delay_cycles <= greedy.mean_delay_cycles + 1e-9

    def test_per_rate_breakdown_present(self):
        result = run_single_router_experiment(tiny_spec())
        assert result.per_rate
        for rate, summary in result.per_rate.items():
            assert rate > 0
            assert summary.connections >= 1

    @pytest.mark.parametrize("scheduler", ["greedy", "dec", "perfect"])
    def test_all_schedulers_run(self, scheduler):
        result = run_single_router_experiment(tiny_spec(scheduler=scheduler))
        assert result.summary.flits_delivered > 0

    @pytest.mark.parametrize("priority", ["biased", "fixed", "age", "rate", "static"])
    def test_all_priorities_run(self, priority):
        result = run_single_router_experiment(tiny_spec(priority=priority))
        assert result.summary.flits_delivered > 0


class TestFigures:
    def setup_method(self):
        clear_cache()

    def teardown_method(self):
        clear_cache()

    def run_kwargs(self):
        return dict(loads=(0.3, 0.6), full=False)

    def test_figure3_structure(self):
        data = figure3(loads=(0.3, 0.6), candidates=(2,), seed=5)
        assert isinstance(data, FigureData)
        assert data.xs == [0.3, 0.6]
        assert set(data.series) == {"2C biased", "2C fixed"}
        assert all(len(v) == 2 for v in data.series.values())

    def test_figure4_shares_cache_with_figure3(self):
        figure3(loads=(0.3,), candidates=(2,), seed=5)
        from repro.harness import figures as module

        cached = len(module._cache)
        figure4(loads=(0.3,), candidates=(2,), seed=5)
        assert len(module._cache) == cached  # no new runs

    def test_figure5_structure(self):
        delay, jitter = figure5(loads=(0.4,), seed=5)
        assert set(delay.series) == {"biased", "fixed", "DEC", "perfect"}
        assert set(jitter.series) == {"biased", "fixed", "DEC", "perfect"}

    def test_run_point_caches(self):
        spec = tiny_spec()
        first = run_point(spec)
        second = run_point(spec)
        assert first is second

    def test_table_rendering(self):
        data = figure3(loads=(0.3,), candidates=(2,), seed=5)
        table = data.table()
        assert "Figure 3" in table
        assert "2C biased" in table


class TestSweep:
    def test_axis_validation(self):
        with pytest.raises(ValueError):
            SweepAxis("x", ())
        with pytest.raises(ValueError):
            SweepAxis("x", (1,), target="bogus")

    def test_build_spec_targets(self):
        base = tiny_spec()
        spec = build_spec(
            base,
            {
                "candidates": ("spec", 2),
                "round_factor": ("config", 4),
            },
        )
        assert spec.candidates == 2
        assert spec.config.round_factor == 4
        assert base.candidates == 4  # untouched

    def test_run_sweep_grid(self):
        sweep = run_sweep(
            tiny_spec(),
            [
                SweepAxis("candidates", (1, 2)),
                SweepAxis("target_load", (0.3, 0.5)),
            ],
        )
        assert len(sweep.results) == 4
        delays = sweep.column("mean_delay_cycles")
        assert set(delays) == {(1, 0.3), (1, 0.5), (2, 0.3), (2, 0.5)}
        rows = sweep.rows(["mean_delay_cycles", "utilisation"])
        assert len(rows) == 4
        assert len(rows[0]) == 4

    def test_rows_numeric_order_across_digit_boundary(self):
        # A 2-axis numeric grid spanning 9 -> 10: string ordering would
        # put (10, ...) before (9, ...).
        from itertools import product

        from repro.harness.sweep import SweepResult

        class FakeResult:
            def __init__(self, value):
                self.metric = value

        axes = (SweepAxis("candidates", (9, 10, 2)), SweepAxis("seed", (10, 9)))
        sweep = SweepResult(axes)
        for key in product((9, 10, 2), (10, 9)):
            sweep.results[key] = FakeResult(sum(key))
        rows = sweep.rows(["metric"])
        assert [row[:2] for row in rows] == [
            [2, 9], [2, 10], [9, 9], [9, 10], [10, 9], [10, 10],
        ]
        assert all(row[2] == row[0] + row[1] for row in rows)

    def test_rows_mixed_type_axes_do_not_raise(self):
        from repro.harness.sweep import SweepResult

        class FakeResult:
            metric = 0.0

        axes = (SweepAxis("scheduler", ("greedy", 2, True, "batch")),)
        sweep = SweepResult(axes)
        for key in (("greedy",), (2,), (True,), ("batch",)):
            sweep.results[key] = FakeResult()
        ordered = [row[0] for row in sweep.rows(["metric"])]
        # Numbers first (numeric order), then flags, then text.
        assert ordered == [2, True, "batch", "greedy"]


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(["a", "bb"], [[1, 2.34567], [10, 0.5]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "2.346" in table
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equal width

    def test_format_series(self):
        text = format_series("T", "x", [1.0, 2.0], {"y": [3.0, 4.0]})
        assert text.startswith("T\n")
        assert "4.000" in text


class TestDelayHistogram:
    def test_disabled_by_default(self):
        result = run_single_router_experiment(tiny_spec())
        assert result.delay_percentiles is None

    def test_percentiles_when_enabled(self):
        result = run_single_router_experiment(
            tiny_spec(delay_histogram_bins=512)
        )
        p50, p99 = result.delay_percentiles
        assert 1.0 <= p50 <= p99
        # The median sits near the mean for these light-tailed delays.
        assert p50 == pytest.approx(result.mean_delay_cycles, abs=3.0)

    def test_p99_dominates_mean(self):
        result = run_single_router_experiment(
            tiny_spec(target_load=0.55, delay_histogram_bins=512)
        )
        _, p99 = result.delay_percentiles
        assert p99 >= result.mean_delay_cycles
