"""Per-layer tracing from outside the simulator.

The tracer replaces coopmesh functions by timing wrappers at the place where
the simulator looks each one up: ``sim_engine`` imports ``run_selection``,
``advance_one_hop``, ``process_dio`` and friends by name, reaches the heap
through ``sim_engine.heapq``, ``cli`` imports ``with_protocol`` by name, and
``uniform`` is bound separately in ``rng``, ``forwarding`` and ``topology``.
Methods are wrapped on their class. Everything is restored on exit.

Coarse boundaries (sweep, sweep point, run, formation, traffic, relay
selection, variant clone) are kept as spans in memory: name, start, end and
the index of the enclosing span. Hot leaves (keyed draws, link transmits,
heap operations, per-hop engine, ...) only accumulate a call count and self
time, so memory stays bounded. Self time is a call's duration minus the time
its wrapped callees took.
"""

from __future__ import annotations

import heapq
import statistics
import sys
from time import perf_counter

from coopmesh import cli, coop_relay, forwarding, rng, sim_engine, topology

# (owner, attribute, layer name, kept as spans)
_TARGETS = (
    (cli, "run_sweep", "cli.run_sweep", True),
    (cli, "_sweep_point", "cli.sweep_point", True),
    (cli, "with_protocol", "sim_engine.with_protocol", True),
    (sim_engine, "run_scenario", "sim_engine.run_scenario", True),
    (sim_engine.Simulation, "run_formation", "sim_engine.run_formation", True),
    (sim_engine.Simulation, "run_traffic", "sim_engine.run_traffic", True),
    (sim_engine, "run_selection", "coop_relay.run_selection", True),
    (sim_engine, "place_nodes", "topology.place_nodes", False),
    (sim_engine, "process_dio", "rpl_core.process_dio", False),
    (
        sim_engine,
        "update_children_and_connections",
        "rpl_core.update_children_and_connections",
        False,
    ),
    (sim_engine, "build_forwarding_set", "forwarding.build_forwarding_set", False),
    (sim_engine, "advance_one_hop", "forwarding.advance_one_hop", False),
    (coop_relay, "gather_metrics", "coop_relay.gather_metrics", False),
    (topology.Channel, "compute_sinr", "topology.compute_sinr", False),
    (topology.Channel, "neighbors", "topology.neighbors", False),
    (forwarding.LinkLayer, "transmit", "forwarding.link_transmit", False),
    (rng, "uniform", "rng.uniform", False),
    (forwarding, "uniform", "rng.uniform", False),
    (topology, "uniform", "rng.uniform", False),
)

_MISSING = object()


class _HeapProxy:
    """Stands in for the ``heapq`` module inside ``sim_engine``."""

    def __init__(self, heappush, heappop):
        self.heappush = heappush
        self.heappop = heappop

    def __getattr__(self, name):
        return getattr(heapq, name)


class Tracer:
    """Context manager that installs the wrappers and collects the trace."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.missing: list[str] = []
        self.selections_changed = 0
        self.transmit_ok = 0
        self.heap_peak = 0
        self._frames: list[list[float]] = []  # child seconds of open calls
        self._open: list[int] = []  # indices of open spans
        self._current_sim = None
        self._restore: list[tuple[object, str, object]] = []

    # --- installation ---

    def __enter__(self) -> "Tracer":
        hooks = {
            "run_traffic": self._hook_traffic,
            "run_selection": self._hook_selection,
            "transmit": self._hook_transmit,
        }
        for owner, attr, layer, keep_span in _TARGETS:
            original = owner.__dict__.get(attr, _MISSING)
            if original is _MISSING:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            hook = hooks.get(attr)
            inner = hook(original) if hook else original
            self._patch(owner, attr, self._timed(layer, inner, keep_span))
        self._patch(sim_engine, "heapq", _HeapProxy(
            self._timed("sim_engine.heap.push", self._counted_push, False),
            self._timed("sim_engine.heap.pop", heapq.heappop, False),
        ))
        if self.missing:
            print(f"tracer: not found, not traced: {', '.join(self.missing)}",
                  file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, layer, fn, keep_span):
        stat = self.stats.setdefault(layer, [0, 0.0])
        frames, spans, open_spans = self._frames, self.spans, self._open

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if keep_span:
                index = len(spans)
                spans.append([layer, 0.0, 0.0, open_spans[-1] if open_spans else -1])
                open_spans.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[0]
                if frames:
                    frames[-1][0] += duration
                if keep_span:
                    open_spans.pop()
                    spans[index][1] = start
                    spans[index][2] = end

        return wrapper

    # --- counting hooks ---

    def _hook_traffic(self, original):
        def run_traffic(sim, *args, **kwargs):
            self._current_sim = sim
            return original(sim, *args, **kwargs)

        return run_traffic

    def _hook_selection(self, original):
        def run_selection(sender, *args, **kwargs):
            sim = self._current_sim
            prior = sim.relay_for.get(sender.node_id) if sim is not None else None
            result = original(sender, *args, **kwargs)
            if result[0] != prior:
                self.selections_changed += 1
            return result

        return run_selection

    def _hook_transmit(self, original):
        def transmit(link_layer, *args, **kwargs):
            ok = original(link_layer, *args, **kwargs)
            if ok:
                self.transmit_ok += 1
            return ok

        return transmit

    def _counted_push(self, heap, item):
        heapq.heappush(heap, item)
        if len(heap) > self.heap_peak:
            self.heap_peak = len(heap)

    # --- results ---

    def calls(self, layer: str) -> int:
        return self.stats.get(layer, (0, 0.0))[0]

    def self_s(self, layer: str) -> float:
        return self.stats.get(layer, (0, 0.0))[1]

    def span_durations(self, layer: str) -> list[float]:
        return [end - start for name, start, end, _ in self.spans if name == layer]

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s. A ratio whose
        base is zero (no selections, no transmits) reads 0."""
        selections = self.calls("coop_relay.run_selection")
        transmits = self.calls("forwarding.link_transmit")
        points = self.span_durations("cli.sweep_point")
        metrics = {
            "coop_relay.run_selection.changed_ratio": (
                self.selections_changed / selections if selections else 0.0
            ),
            "sim_engine.heap.push_calls": self.calls("sim_engine.heap.push"),
            "sim_engine.heap.pop_calls": self.calls("sim_engine.heap.pop"),
            "sim_engine.heap.self_s": (
                self.self_s("sim_engine.heap.push") + self.self_s("sim_engine.heap.pop")
            ),
            "sim_engine.heap.peak_depth": self.heap_peak,
            "forwarding.link_transmit.success_ratio": (
                self.transmit_ok / transmits if transmits else 0.0
            ),
            "cli.sweep_point.s_p50": statistics.median(points) if points else 0.0,
            "cli.sweep_point.s_p90": (
                statistics.quantiles(points, n=10, method="inclusive")[8]
                if len(points) > 1 else sum(points, 0.0)
            ),
            "cli.run_sweep.aggregate_s": self.self_s("cli.run_sweep"),
        }
        for layer in (
            "coop_relay.run_selection", "coop_relay.gather_metrics",
            "topology.compute_sinr", "forwarding.advance_one_hop",
            "forwarding.link_transmit", "forwarding.build_forwarding_set",
            "rng.uniform", "sim_engine.with_protocol",
            "rpl_core.process_dio", "rpl_core.update_children_and_connections",
            "cli.sweep_point",
        ):
            metrics[f"{layer}.calls"] = self.calls(layer)
        for layer in (
            "coop_relay.run_selection", "topology.compute_sinr",
            "forwarding.advance_one_hop", "forwarding.build_forwarding_set",
            "rng.uniform", "sim_engine.with_protocol", "sim_engine.run_formation",
            "rpl_core.process_dio", "rpl_core.update_children_and_connections",
            "topology.place_nodes", "topology.neighbors", "sim_engine.run_traffic",
        ):
            metrics[f"{layer}.self_s"] = self.self_s(layer)
        return metrics

    def dump(self) -> dict:
        """Spans and accumulated counters, ready for JSON."""
        return {
            "spans": self.spans,
            "counters": {k: {"calls": v[0], "self_s": v[1]} for k, v in self.stats.items()},
            "not_traced": self.missing,
        }
