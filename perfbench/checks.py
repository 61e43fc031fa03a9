"""Correctness checks for the benchmark's workloads.

Every check compares a workload's results against a value the benchmark
computes itself or against a property the method must have; none compares
against a stored copy of an earlier run's output.  Each check returns a list
of human-readable failures; an empty list means the check passed.

The checks take plain mappings of result objects so they can be exercised on
hand-built, deliberately wrong results (see ``tests/test_checks.py``).
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Mapping, Sequence, Tuple

#: Largest accepted gap between a cell's measured VCPU online rate and the
#: rate Equations (1)+(2) give for its weight.  Over cell seeds 1-30 the
#: measured rates lie between 0.05 below (at 66.7%) and 0.035 above the
#: derived rate; an error of 0.1 is rejected.
RATE_TOLERANCE = 0.075

#: Floor on Jain's fairness index over the equal-weight VMs of a mix.
JAIN_FLOOR = 0.9


def derived_online_rate(weight: int, num_pcpus: int = 8, num_vcpus: int = 4,
                        dom0_weight: int = 256) -> float:
    """VCPU online rate of a guest of ``weight`` beside an idle Domain-0.

    Equation (1): the guest's share of the machine is its weight over the
    total weight, times the PCPU count.  Equation (2): spread over its
    VCPUs, that share is the online rate, at most 1.
    """
    share = num_pcpus * weight / (weight + dom0_weight)
    return min(1.0, share / num_vcpus)


# --------------------------------------------------------------------- #
# lu_single_vm
# --------------------------------------------------------------------- #
LuKey = Tuple[str, float, int]  # (scheduler, nominal rate, cell seed)


def check_finished(results: Mapping[Hashable, object]) -> List[str]:
    """Every cell ran to completion before its simulated deadline."""
    return [f"cell {key} did not finish before its deadline"
            for key, res in results.items()
            if not getattr(res, "finished", False)]


def check_online_rates(results: Mapping[LuKey, object],
                       tolerance: float = RATE_TOLERANCE) -> List[str]:
    """Each measured online rate is near the rate its weight implies."""
    out = []
    for key, res in results.items():
        want = derived_online_rate(res.weight)
        got = res.measured_online_rate
        if abs(got - want) > tolerance:
            out.append(f"cell {key}: measured online rate {got:.4f}, "
                       f"Equations (1)+(2) give {want:.4f} for weight "
                       f"{res.weight} (tolerance {tolerance})")
    return out


def check_slowdowns(results: Mapping[LuKey, object]) -> List[str]:
    """Each run is at least ``1/rate`` slower than the same scheduler's and
    seed's 100% run: a VCPU online a fraction ``rate`` of the time cannot
    finish the same work faster than that."""
    out = []
    for (sched, rate, seed), res in results.items():
        if rate >= 1.0:
            continue
        full = results[(sched, 1.0, seed)]
        slowdown = res.runtime_cycles / full.runtime_cycles
        if slowdown < 1.0 / rate:
            out.append(f"{sched} seed {seed} at rate {rate:.3f}: slowdown "
                       f"{slowdown:.3f} below the ideal {1.0 / rate:.3f}")
    return out


def mean_runtime(results: Mapping[LuKey, object], sched: str,
                 rate: float) -> float:
    """Mean simulated run time (s) of one scheduler at one rate."""
    values = [res.runtime_seconds for (s, r, _), res in results.items()
              if s == sched and r == rate]
    return sum(values) / len(values)


def check_asman_not_slower(results: Mapping[LuKey, object],
                           rate: float) -> List[str]:
    """Paper Fig 7: ASMan's mean LU run time at ``rate`` does not exceed
    Credit's."""
    asman = mean_runtime(results, "asman", rate)
    credit = mean_runtime(results, "credit", rate)
    if asman > credit:
        return [f"ASMan mean run time {asman:.4f} s exceeds Credit's "
                f"{credit:.4f} s at rate {rate:.3f}"]
    return []


# --------------------------------------------------------------------- #
# multi_vm_mix
# --------------------------------------------------------------------- #
MultiKey = Tuple[str, str, int]  # (combination, scheduler, cell seed)


def check_rounds_measured(results: Mapping[MultiKey, object],
                          vms: Mapping[str, Sequence[str]]) -> List[str]:
    """Every VM completed its measured rounds before the deadline."""
    out = []
    for key, res in results.items():
        if not res.finished:
            out.append(f"mix {key} hit its deadline")
        missing = sorted(set(vms[key[0]]) - set(res.round_seconds))
        if missing:
            out.append(f"mix {key}: VMs {missing} measured no rounds")
    return out


def check_load_monotone(results: Mapping[MultiKey, object], small: str,
                        large: str) -> List[str]:
    """A VM running the same program in both mixes is not faster in the
    larger mix: adding load never speeds a VM up."""
    out = []
    for (combo, sched, seed), res in results.items():
        if combo != small:
            continue
        other = results[(large, sched, seed)]
        for vm, seconds in res.round_seconds.items():
            if other.labels.get(vm) != res.labels[vm]:
                continue
            if other.round_seconds[vm] < seconds:
                out.append(
                    f"{sched} seed {seed}: {vm} ({res.labels[vm]}) rounds "
                    f"take {other.round_seconds[vm]:.4f} s in {large} but "
                    f"{seconds:.4f} s in {small}")
    return out


def check_fairness(results: Mapping[MultiKey, object],
                   floor: float = JAIN_FLOOR) -> List[str]:
    """Jain's index over the equal-weight guest VMs stays above ``floor``."""
    return [f"mix {key}: Jain's index {res.fairness_jains:.4f} below "
            f"{floor}" for key, res in results.items()
            if res.fairness_jains < floor]


# --------------------------------------------------------------------- #
# conform_corpus
# --------------------------------------------------------------------- #
def check_verdicts(report) -> List[str]:
    """The conformance oracle found no violation in any scenario."""
    return [v.render() for v in report.violations]


def check_warm_rerun(cold, warm) -> List[str]:
    """The warm re-run was served wholly from the cache and reproduced the
    cold pass's combined fingerprint."""
    out = []
    if warm.cache_hits != warm.cells_run:
        out.append(f"warm re-run: {warm.cache_hits} of {warm.cells_run} "
                   f"cells were cache hits")
    if warm.combined_fingerprint() != cold.combined_fingerprint():
        out.append(f"warm fingerprint {warm.combined_fingerprint()} differs "
                   f"from cold {cold.combined_fingerprint()}")
    return out


def check_reexecution(specs: Sequence[object],
                      cached: Callable[[object], Tuple[bool, object]],
                      execute: Callable[[object], object],
                      fingerprint: Callable[[object], int]) -> List[str]:
    """Each sampled cell, re-executed in-process, has the fingerprint of
    its cached value."""
    out = []
    for spec in specs:
        hit, value = cached(spec)
        if not hit:
            out.append(f"sampled cell {spec.canonical()[:60]}… is not in "
                       f"the cache")
            continue
        fresh, stored = fingerprint(execute(spec)), fingerprint(value)
        if fresh != stored:
            out.append(f"sampled cell {spec.canonical()[:60]}…: in-process "
                       f"fingerprint {fresh:016x} != cached {stored:016x}")
    return out


def check_same_fingerprint(first: str, again: str, what: str) -> List[str]:
    """Two runs of the same cells gave the same combined fingerprint."""
    if first != again:
        return [f"{what}: fingerprint {again} differs from {first}"]
    return []

