"""Cooperative relay selection.

A sender's relay is chosen in three stages: keep only lower-rank neighbors
(minus the default parent), apply the active routing class's eligibility
test, then score the survivors with a weighted rate and take the argmax.
Class A tests link quality (SINR on both cooperative legs), class B load
(active connections and children), class C path cost (ETX of the two legs
versus the direct link); best-effort pools candidates passing any test and
weighs all four terms equally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

from .rpl_core import NodeState


class RoutingClass(Enum):
    CLASS_A = "a"
    CLASS_B = "b"
    CLASS_C = "c"
    BEST_EFFORT = "best_effort"


@dataclass(frozen=True)
class RateWeights:
    w_sinr: float
    w_traffic: float
    w_nch: float
    w_etx: float

    def __post_init__(self):
        weights = (self.w_sinr, self.w_traffic, self.w_nch, self.w_etx)
        if not all(math.isfinite(w) for w in weights):
            raise ValueError("weights must be finite")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")
        if min(weights) < 0:
            raise ValueError("weights must be nonnegative")


# presets realizing the "dominant term" intent of each class
WEIGHT_PRESETS: dict[RoutingClass, RateWeights] = {
    RoutingClass.CLASS_A: RateWeights(0.85, 0.05, 0.05, 0.05),
    RoutingClass.CLASS_B: RateWeights(0.05, 0.45, 0.45, 0.05),
    RoutingClass.CLASS_C: RateWeights(0.05, 0.05, 0.05, 0.85),
    RoutingClass.BEST_EFFORT: RateWeights(0.25, 0.25, 0.25, 0.25),
}


class CandidateMetrics(NamedTuple):
    relay: int
    sinr_s_r: float  # dB at the relay, sender transmitting
    sinr_r_d: float  # dB at the parent, relay transmitting
    sinr_s_d: float  # dB at the parent, sender transmitting
    nac_r: int
    nac_s: int
    nch_r: int
    nch_s: int
    etx_s_r: float
    etx_r_d: float
    etx_s_d: float


def filter_candidates_by_rank(
    sender: NodeState, neighbor_states: list[NodeState]
) -> set[int]:
    """Neighbors sitting strictly below the sender in the DAG, minus the
    default parent (the parent is the hop destination, not a relay)."""
    if not sender.joined:
        raise ValueError("sender must be joined")
    return {
        n.node_id
        for n in neighbor_states
        if n.joined and n.rank < sender.rank and n.node_id != sender.default_parent
    }


def eligible_class_a(m: CandidateMetrics) -> bool:
    return m.sinr_s_r > m.sinr_s_d and m.sinr_r_d > m.sinr_s_d


def eligible_class_b(m: CandidateMetrics) -> bool:
    return m.nac_r < m.nac_s and m.nch_r < m.nch_s


def eligible_class_c(m: CandidateMetrics) -> bool:
    return m.etx_s_d > m.etx_s_r + m.etx_r_d


def eligible(m: CandidateMetrics, routing_class: RoutingClass) -> bool:
    """Class-specific candidacy; best-effort admits anything passing at
    least one of the three tests."""
    if routing_class is RoutingClass.CLASS_A:
        return eligible_class_a(m)
    if routing_class is RoutingClass.CLASS_B:
        return eligible_class_b(m)
    if routing_class is RoutingClass.CLASS_C:
        return eligible_class_c(m)
    return eligible_class_a(m) or eligible_class_b(m) or eligible_class_c(m)


class TermBounds(NamedTuple):
    """Min/max of each rate term over a candidate set, for normalization."""

    sinr: tuple[float, float]
    traffic: tuple[float, float]
    nch: tuple[float, float]
    etx: tuple[float, float]


# A row is one candidate's (relay, sinr, traffic, nch, etx) rate terms, and
# its bounds are the (min, max) of each term over the rows, in that order;
# the reference functions and run_selection score rows alike.
def _row(
    relay: int, sinr_s_r: float, sinr_r_d: float, nac_r: int, nch_r: int,
    etx_s_r: float, etx_r_d: float,
) -> tuple[int, float, float, float, float]:
    return relay, min(sinr_s_r, sinr_r_d), float(nac_r), float(nch_r), etx_s_r + etx_r_d


def _metrics_row(m: CandidateMetrics) -> tuple[int, float, float, float, float]:
    return _row(m.relay, m.sinr_s_r, m.sinr_r_d, m.nac_r, m.nch_r, m.etx_s_r, m.etx_r_d)


def _row_bounds(rows: list[tuple[int, float, float, float, float]]) -> tuple:
    if not rows:
        raise ValueError("no candidates")
    _, sinr, traffic, nch, etx = zip(*rows)
    return (
        (min(sinr), max(sinr)),
        (min(traffic), max(traffic)),
        (min(nch), max(nch)),
        (min(etx), max(etx)),
    )


def term_bounds(candidates: list[CandidateMetrics]) -> TermBounds:
    return TermBounds(*_row_bounds([_metrics_row(m) for m in candidates]))


def _norm(value: float, bounds: tuple[float, float]) -> float:
    lo, hi = bounds
    if hi <= lo:
        return 0.5  # degenerate spread
    return (value - lo) / (hi - lo)


def _row_rate(
    row: tuple[int, float, float, float, float], w: RateWeights, bounds: tuple
) -> float:
    _, sinr, traffic, nch, etx = row
    sinr_b, traffic_b, nch_b, etx_b = bounds
    return (
        w.w_sinr * _norm(sinr, sinr_b)
        - w.w_traffic * _norm(traffic, traffic_b)
        - w.w_nch * _norm(nch, nch_b)
        - w.w_etx * _norm(etx, etx_b)
    )


def compute_rate(m: CandidateMetrics, w: RateWeights, bounds: TermBounds) -> float:
    """Weighted candidate score; every term is normalized into [0, 1] against
    the candidate set's spread before weighting. Load and cost terms enter
    negatively so smaller is better."""
    return _row_rate(_metrics_row(m), w, bounds)


def compute_rates(
    candidates: list[CandidateMetrics], w: RateWeights, bounds: TermBounds | None = None
) -> dict[int, float]:
    if not candidates:
        return {}
    if bounds is None:
        bounds = term_bounds(candidates)
    return {m.relay: compute_rate(m, w, bounds) for m in candidates}


def best_relay(rates: dict[int, float]) -> int | None:
    """Relay with the maximum rate; ties go to the lowest node id. No rates
    means the direct path is used."""
    best, best_rate = None, 0.0
    for relay, rate in rates.items():
        if best is None or rate > best_rate or (rate == best_rate and relay < best):
            best, best_rate = relay, rate
    return best


def select_relay(
    candidates: list[CandidateMetrics],
    w: RateWeights,
    bounds: TermBounds | None = None,
) -> int | None:
    """Candidate with the maximum rate, as best_relay picks it."""
    return best_relay(compute_rates(candidates, w, bounds))


def run_selection(
    sender: NodeState,
    states: dict[int, NodeState],
    channel,
    etx_of,
    routing_class: RoutingClass,
    weights: RateWeights,
    interferers: frozenset[int],
    slot: int,
    with_fading: bool,
) -> tuple[int | None, dict[int, float]]:
    """Full pipeline for one sender: rank filter, eligibility, rate argmax.

    One pass over channel.relay_legs(sender, parent), the sender's
    neighbors that also reach the parent (so both cooperative legs exist),
    applying the rules that filter_candidates_by_rank and eligible state
    (the tests hold this pass to them). Every SINR is channel.compute_sinr's
    against the other nodes in interferers, the nodes transmitting in slot:
    the fading-mean channel unless with_fading asks for per-slot gains, so
    choices stay stable between advertisement rounds. A candidate's SINRs
    are computed only when a class-a test or its rate reads them, and class
    a's second leg only once its first beats the direct link. The direct
    link's SINR is computed once per sender, and again only for a candidate
    that is itself among the interferers. etx_of(a, b) supplies the current
    link estimate; weights are the config's active_weights(). A sender
    without a default parent gets no relay; one with a default parent has
    joined.

    Returns (selected relay or None, candidate rates for tracing).
    """
    if sender.default_parent is None:
        return None, {}
    s, parent, rank = sender.node_id, sender.default_parent, sender.rank
    compute_sinr = channel.compute_sinr
    nac_s, nch_s = sender.active_connections, len(sender.children)
    etx_s_d = etx_of(s, parent)
    best_effort = routing_class is RoutingClass.BEST_EFFORT
    test_a = best_effort or routing_class is RoutingClass.CLASS_A
    test_b = best_effort or routing_class is RoutingClass.CLASS_B
    test_c = best_effort or routing_class is RoutingClass.CLASS_C
    # compute_sinr sums the interference in this set's order
    others = frozenset(t for t in interferers if t != s) if interferers else interferers
    direct = compute_sinr(parent, s, others, slot, with_fading) if test_a else None
    rows = []
    for r in channel.relay_legs(s, parent):  # ascending ids
        relay_state = states.get(r)
        if relay_state is None or relay_state.rank is None or relay_state.rank >= rank:
            continue
        nac_r, nch_r = relay_state.active_connections, len(relay_state.children)
        etx_s_r, etx_r_d = etx_of(s, r), etx_of(r, parent)
        passed = (test_b and nac_r < nac_s and nch_r < nch_s) or (
            test_c and etx_s_d > etx_s_r + etx_r_d
        )
        if not (passed or test_a):
            continue
        clean = others
        if r in others:
            clean = frozenset(t for t in interferers if t not in (s, r))
        sinr_s_r = compute_sinr(r, s, clean, slot, with_fading)
        if not passed:  # class a is the test left, leg by leg
            sinr_s_d = (
                direct if clean is others
                else compute_sinr(parent, s, clean, slot, with_fading)
            )
            if not sinr_s_r > sinr_s_d:
                continue
        sinr_r_d = compute_sinr(parent, r, clean, slot, with_fading)
        if not (passed or sinr_r_d > sinr_s_d):
            continue
        rows.append(_row(r, sinr_s_r, sinr_r_d, nac_r, nch_r, etx_s_r, etx_r_d))
    if not rows:
        return None, {}
    bounds = _row_bounds(rows)
    rates = {row[0]: _row_rate(row, weights, bounds) for row in rows}
    return best_relay(rates), rates
