"""Each correctness check accepts a right result and rejects a wrong one."""

import dataclasses

import pytest

import checks
from repro.conformance import ConformanceReport, Violation
from repro.conformance.oracle import ScenarioVerdict
from repro.experiments.runner import (PAPER_RATES, MultiVmResult,
                                      SingleVmResult)
from repro.experiments.setup import weight_for_rate
from repro.parallel import result_fingerprint

SEEDS = (1, 2)


def lu_result(sched, rate, runtime_s, measured=None):
    weight = weight_for_rate(rate)
    rate_ok = checks.derived_online_rate(weight) - 0.01
    return SingleVmResult(
        scheduler=sched, online_rate=rate, weight=weight,
        runtime_cycles=int(runtime_s * 1e9), runtime_seconds=runtime_s,
        measured_online_rate=rate_ok if measured is None else measured,
        spin_summary={}, spin_scatter=[], over_threshold_times=[])


def lu_grid(asman_factor=0.9):
    """A plausible grid: run time 1.2/rate of the 100% run, ASMan faster
    than Credit at the lower rates."""
    grid = {}
    for sched in ("credit", "asman"):
        for rate in PAPER_RATES:
            factor = asman_factor if sched == "asman" and rate < 1 else 1.0
            for seed in SEEDS:
                grid[(sched, rate, seed)] = lu_result(
                    sched, rate, 0.87 * 1.2 / rate * factor
                    if rate < 1 else 0.87)
    return grid


def test_derived_rate_inverts_the_paper_weights():
    for rate in PAPER_RATES:
        assert checks.derived_online_rate(weight_for_rate(rate)) == \
            pytest.approx(rate, abs=2e-3)


def test_right_lu_grid_passes_every_check():
    grid = lu_grid()
    assert checks.check_finished(grid) == []
    assert checks.check_online_rates(grid) == []
    assert checks.check_slowdowns(grid) == []
    assert checks.check_asman_not_slower(grid, 2.0 / 9.0) == []


@pytest.mark.parametrize("rate", PAPER_RATES)
@pytest.mark.parametrize("shift", (0.1, -0.1))
def test_online_rate_off_by_a_tenth_is_rejected(rate, shift):
    grid = lu_grid()
    key = ("credit", rate, 1)
    good = grid[key].measured_online_rate
    grid[key] = dataclasses.replace(grid[key], measured_online_rate=good
                                    + shift)
    if good + shift > 1.0:
        pytest.skip("a rate above 1 cannot be measured")
    assert len(checks.check_online_rates(grid)) == 1


def test_slowdown_below_ideal_is_rejected():
    grid = lu_grid()
    key = ("asman", 0.4, 2)
    grid[key] = dataclasses.replace(
        grid[key], runtime_cycles=int(0.87e9 / 0.4 * 0.95))
    assert len(checks.check_slowdowns(grid)) == 1


def test_swapped_credit_and_asman_series_are_rejected():
    grid = lu_grid()
    swapped = {(("asman" if s == "credit" else "credit"), r, seed): res
               for (s, r, seed), res in grid.items()}
    assert checks.check_asman_not_slower(swapped, 2.0 / 9.0)


def test_unfinished_cell_is_rejected():
    grid = lu_grid()
    grid[("credit", 1.0, 1)] = dataclasses.replace(
        grid[("credit", 1.0, 1)], finished=False)
    assert len(checks.check_finished(grid)) == 1


# --------------------------------------------------------------------- #
def mix(scale, jains=0.99, finished=True):
    small = {"V1": 0.8 * scale, "V2": 0.65 * scale, "V3": 0.9 * scale,
             "V4": 1.0 * scale}
    labels = {"V1": "speccpu.256.bzip2", "V2": "speccpu.176.gcc",
              "V3": "nas.sp", "V4": "nas.lu" if scale == 1 else "nas.sp"}
    if scale != 1:
        small.update(V5=1.5, V6=1.5)
        labels.update(V5="nas.lu", V6="nas.lu")
    return MultiVmResult(scheduler="asman", round_seconds=small,
                         labels=labels, rounds_measured=2,
                         fairness_jains=jains, finished=finished)


VMS = {"fig11a": ["V1", "V2", "V3", "V4"],
       "fig12b": ["V1", "V2", "V3", "V4", "V5", "V6"]}


def mixes(small_scale=1.0, large_scale=1.5):
    return {("fig11a", "asman", 1): mix(small_scale),
            ("fig12b", "asman", 1): mix(large_scale)}


def test_right_mixes_pass_every_check():
    results = mixes()
    assert checks.check_rounds_measured(results, VMS) == []
    assert checks.check_load_monotone(results, "fig11a", "fig12b") == []
    assert checks.check_fairness(results) == []


def test_vm_faster_under_more_load_is_rejected():
    results = mixes()
    small = results[("fig11a", "asman", 1)]
    small.round_seconds = {vm: 2 * s for vm, s in small.round_seconds.items()}
    # V1-V3 run the same programs in both mixes and are now faster in the
    # larger one; V4 runs another program there and is not compared.
    assert len(checks.check_load_monotone(results, "fig11a", "fig12b")) == 3


def test_unfair_mix_is_rejected():
    results = mixes()
    results[("fig12b", "asman", 1)].fairness_jains = 0.8
    assert len(checks.check_fairness(results)) == 1


def test_vm_without_rounds_is_rejected():
    results = mixes()
    del results[("fig12b", "asman", 1)].round_seconds["V6"]
    assert len(checks.check_rounds_measured(results, VMS)) == 1


# --------------------------------------------------------------------- #
class Report:
    def __init__(self, hits, cells, fingerprint):
        self.cache_hits, self.cells_run = hits, cells
        self._fp = fingerprint

    def combined_fingerprint(self):
        return self._fp


def test_warm_rerun_with_misses_or_other_fingerprint_is_rejected():
    cold = Report(0, 622, "ea54b965923decbe")
    assert checks.check_warm_rerun(cold, Report(622, 622,
                                                "ea54b965923decbe")) == []
    assert checks.check_warm_rerun(cold, Report(621, 622,
                                                "ea54b965923decbe"))
    assert checks.check_warm_rerun(cold, Report(622, 622,
                                                "0000000000000000"))


class Spec:
    def __init__(self, name):
        self.name = name

    def canonical(self):
        return self.name


def test_cached_value_with_other_fingerprint_is_rejected():
    specs = [Spec("a"), Spec("b")]
    fresh = {"a": {"runtime": 1}, "b": {"runtime": 2}}
    cached = dict(fresh)

    def run():
        return checks.check_reexecution(
            specs, lambda s: (s.name in cached, cached.get(s.name)),
            lambda s: fresh[s.name], result_fingerprint)

    assert run() == []
    cached["b"] = {"runtime": 3}
    assert len(run()) == 1
    del cached["b"]
    assert len(run()) == 1


def test_oracle_violation_is_rejected():
    report = ConformanceReport(seed=1, count=1, schedulers=("credit",))
    assert checks.check_verdicts(report) == []
    report.verdicts.append(ScenarioVerdict(
        scenario=None, violations=[Violation(0, "liveness", "credit",
                                             "a VCPU never ran")]))
    assert len(checks.check_verdicts(report)) == 1


def test_repeated_pass_with_other_fingerprint_is_rejected():
    assert checks.check_same_fingerprint("ab", "ab", "pass") == []
    assert checks.check_same_fingerprint("ab", "cd", "pass")
