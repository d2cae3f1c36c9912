"""Report formatting: evaluation tables and exploration summaries."""

import pytest

from repro import obs
from repro.cache import ArtifactCache
from repro.explore.explorer import Candidate, ExplorationLog
from repro.explore.metrics import CostWeights, Evaluation
from repro.explore.report import evaluation_table, exploration_report
from repro.obs.metrics import MetricsRegistry


def _feasible(name, cycles=100):
    return Evaluation(
        name=name, feasible=True, cycles=cycles, cycle_ns=10.0,
        die_size=50_000.0, power_mw=120.0,
    )


def _infeasible(name, reason):
    return Evaluation(name=name, feasible=False, reason=reason)


WEIGHTS = CostWeights(1.0, 0.5, 0.3)


# ----------------------------------------------------------------------
# evaluation_table
# ----------------------------------------------------------------------


def test_table_has_header_and_one_row_per_evaluation():
    table = evaluation_table(
        [_feasible("alpha"), _feasible("beta", 200)], WEIGHTS
    )
    lines = table.splitlines()
    assert "architecture" in lines[0] and "cost" in lines[0]
    assert lines[1].startswith("---")
    assert len(lines) == 4
    assert lines[2].startswith("alpha")
    assert lines[3].startswith("beta")


def test_infeasible_rows_show_reason_instead_of_numbers():
    table = evaluation_table(
        [
            _feasible("ok"),
            _infeasible("broken", "kernel 'sum': does not fit"),
        ],
        WEIGHTS,
    )
    row = next(l for l in table.splitlines() if l.startswith("broken"))
    assert "infeasible: kernel 'sum': does not fit" in row
    # no cost / die-size figures on an infeasible row
    assert "inf" not in row.replace("infeasible", "")
    assert "50,000" not in row


def test_infeasible_only_table_still_renders():
    table = evaluation_table(
        [_infeasible("a", "x"), _infeasible("b", "y")], WEIGHTS
    )
    assert "a" in table and "infeasible: x" in table
    assert "b" in table and "infeasible: y" in table


# ----------------------------------------------------------------------
# exploration_report
# ----------------------------------------------------------------------


class _Desc:
    def __init__(self, name):
        self.name = name


def _log():
    log = ExplorationLog(WEIGHTS)
    log.accepted.append(
        Candidate(_Desc("initial"), _feasible("initial", 200), "initial")
    )
    log.accepted.append(
        Candidate(_Desc("leaner"), _feasible("leaner", 100), "drop field")
    )
    log.rejected.append(
        Candidate(_Desc("bad"), _infeasible("bad", "no fit"), "halve IM")
    )
    log.iterations = 1
    return log


def test_report_lists_trajectory_and_improvement():
    report = exploration_report(_log())
    assert "1 iteration(s)" in report
    assert "1 improvement step(s)" in report
    assert "1 infeasible candidate(s)" in report
    assert "step 0: [initial]" in report
    assert "step 1: [drop field]" in report
    assert "total improvement:" in report


def test_report_without_cache_or_profiles_has_no_extra_sections():
    report = exploration_report(_log())
    assert "cache:" not in report
    assert "stage profile" not in report


def test_report_appends_cache_stats():
    cache = ArtifactCache()
    cache.get_or_build("sigtable", "k", lambda: 1)  # miss
    cache.get_or_build("sigtable", "k", lambda: 1)  # hit
    report = exploration_report(_log(), cache=cache)
    assert "cache: 1 hits / 1 misses" in report
    assert "sigtable" in report


def test_merged_stage_profile_is_left_to_its_own_table():
    log = _log()
    registry = MetricsRegistry()
    registry.observe("stage.sim.run", 0.02)
    registry.add("stage.sim.run.cpu_s", 0.02)
    log.profiles["initial"] = registry.snapshot()
    registry2 = MetricsRegistry()
    registry2.observe("stage.sim.run", 0.03)
    log.profiles["leaner"] = registry2.snapshot()
    # the report does not repeat stage timings; the merged profile has them
    assert "sim.run" not in exploration_report(log)
    merged = log.merged_profile()
    assert merged.histograms["stage.sim.run"].count == 2
    assert "sim.run" in merged.stage_table()


def test_obs_disabled_log_profile_is_none():
    assert not obs.enabled()
    assert _log().merged_profile() is None


# ----------------------------------------------------------------------
# multi-trajectory logs (strategy runs)
# ----------------------------------------------------------------------


def _snapshot(seconds):
    registry = MetricsRegistry()
    registry.observe("stage.sim.run", seconds)
    return registry.snapshot()


def _multi_log():
    log = _log()
    first = log.trajectory("restart-0")
    first.accepted.append(log.accepted[0])
    first.profiles["shared"] = _snapshot(0.02)
    first.cache_hits, first.cache_misses = 1, 3
    second = log.trajectory("restart-1")
    second.accepted.append(
        Candidate(_Desc("other"), _feasible("other", 150), "perturbed")
    )
    second.profiles["shared"] = _snapshot(0.03)  # same label, own run
    second.profiles["extra"] = _snapshot(0.05)
    second.cache_hits, second.cache_misses = 0, 2
    return log


def test_merged_profile_counts_each_trajectory_measurement():
    log = _multi_log()
    # a label measured in two trajectories contributes once per
    # trajectory, not once per run
    merged = log.merged_profile()
    assert merged.histograms["stage.sim.run"].count == 3
    assert log.profile_count == 3


def test_merged_profile_selects_one_trajectory():
    log = _multi_log()
    assert log.merged_profile("restart-0") \
        .histograms["stage.sim.run"].count == 1
    assert log.merged_profile("restart-1") \
        .histograms["stage.sim.run"].count == 2
    with pytest.raises(KeyError):
        log.merged_profile("no-such-trajectory")


def test_merged_profile_keeps_unclaimed_global_measurements():
    log = _multi_log()
    log.profiles["initial"] = _snapshot(0.01)  # outside any trajectory
    assert log.merged_profile().histograms["stage.sim.run"].count == 4
    assert log.profile_count == 4


def test_trajectory_accessors():
    log = _multi_log()
    second = log.trajectory("restart-1")
    assert second.best.derived_by == "perturbed"
    assert second.initial is second.best
    assert log.trajectory("restart-0") is log.trajectories[0]


def test_report_renders_trajectory_section_for_multi_trajectory_logs():
    report = exploration_report(_multi_log())
    assert "trajectories (2):" in report
    assert "restart-0" in report and "restart-1" in report
    assert "1 hit(s) / 3 miss(es)" in report
    assert "0 hit(s) / 2 miss(es)" in report


def test_report_omits_trajectory_section_for_single_trajectory():
    report = exploration_report(_log())
    assert "trajectories (" not in report


def test_report_renders_frontier_table():
    log = _log()
    # two feasible measured points trading cycles against die size
    cheap_small = Evaluation(
        name="small", feasible=True, cycles=200, cycle_ns=10.0,
        die_size=10_000.0, power_mw=120.0,
    )
    fast_big = Evaluation(
        name="fast", feasible=True, cycles=50, cycle_ns=10.0,
        die_size=90_000.0, power_mw=120.0,
    )
    log.evaluated.append(Candidate(_Desc("small"), cheap_small, "a"))
    log.evaluated.append(Candidate(_Desc("fast"), fast_big, "b"))
    report = exploration_report(log)
    assert "pareto frontier (2 point(s)" in report
    assert "small" in report and "fast" in report
    assert len(log.frontier()) == 2


# ----------------------------------------------------------------------
# Evaluation-service section
# ----------------------------------------------------------------------


def _service_snapshot():
    registry = MetricsRegistry()
    registry.add("serve.jobs_accepted", 4)
    registry.add("serve.jobs_coalesced", 28)
    registry.add("serve.jobs_rejected", 1)
    registry.set("serve.queue_depth", 2)
    registry.add("unrelated.counter", 9)
    return registry.snapshot()


def test_service_metrics_table_lists_serve_metrics_only():
    from repro.explore.report import service_metrics_table

    table = service_metrics_table(_service_snapshot())
    assert table.startswith("evaluation service:")
    assert "serve.jobs_accepted" in table and "4" in table
    assert "serve.jobs_coalesced" in table and "28" in table
    assert "serve.queue_depth" in table
    assert "unrelated.counter" not in table


def test_service_metrics_table_empty_without_serve_metrics():
    from repro.explore.report import service_metrics_table

    registry = MetricsRegistry()
    registry.add("cache.hits", 3)
    assert service_metrics_table(registry.snapshot()) == ""


def test_report_appends_service_section_when_given_metrics():
    report = exploration_report(_log(), metrics=_service_snapshot())
    assert "evaluation service:" in report
    assert "serve.jobs_rejected" in report


def test_report_omits_service_section_without_serve_metrics():
    registry = MetricsRegistry()
    registry.add("cache.hits", 1)
    report = exploration_report(_log(), metrics=registry.snapshot())
    assert "evaluation service:" not in report
