"""The traced run's counts repeat exactly, so a later change may cite them.

Run with ``python3 -m pytest perfbench/test_counts.py``.
"""

import heapq

import pytest

import tracer
import workloads
from coopmesh import sim_engine

SEED = 7

# counts that must be zero on a workload that bypasses the layer
BYPASSED = {
    "sweep_lsr": (),
    "coop_dense": ("forwarding.build_forwarding_set.calls", "sim_engine.with_protocol.calls",
                   "cli.sweep_point.calls"),
    "rpl_lossy": ("coop_relay.run_selection.calls", "topology.compute_sinr.calls",
                  "forwarding.build_forwarding_set.calls", "sim_engine.with_protocol.calls",
                  "cli.sweep_point.calls"),
}


def exact_counts(name, work_dir):
    units = workloads.build_units(name, SEED, work_dir, size=1)
    with tracer.Tracer() as t:
        outcomes = [workloads.execute(u)[1] for u in units]
    assert sim_engine.heapq is heapq
    assert all(o.failed == 0 for o in outcomes), [o.errors for o in outcomes]
    return {
        k: v for k, v in t.layer_metrics().items()
        if k.endswith("calls") or k in (
            "sim_engine.heap.peak_depth", "coop_relay.run_selection.changed_ratio",
        )
    }


@pytest.mark.parametrize("name", sorted(BYPASSED))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = exact_counts(name, tmp_path)
    second = exact_counts(name, tmp_path)
    assert first == second
    assert first["sim_engine.heap.push_calls"] > 0
    for key in BYPASSED[name]:
        assert first[key] == 0, key
