"""Per-event code reads no member off an Enum class.

On Python 3.10 and 3.11 ``EnumType`` defines ``__getattr__``, so a read such
as ``Protocol.RPL`` goes through that slow hook on every call. The
functions below run once per event, hop or draw, and read Enum members
through module-level names bound once at import instead.
"""

import dis
import enum
import types

import pytest

from coopmesh import coop_relay, forwarding, rpl_core, sim_engine
from coopmesh.forwarding import Protocol

PER_EVENT = [
    rpl_core.process_dio,
    forwarding.advance_one_hop,
    forwarding.forward_hop,
    forwarding.LinkLayer.transmit,
    coop_relay.run_selection,
    sim_engine.MetricsTally.fold,
    sim_engine.Simulation.push,
    sim_engine.Simulation._handle_control,
    sim_engine.Simulation._handle_trickle_fire,
    sim_engine.Simulation._trickle_restart,
    sim_engine.Simulation._handle_dio_tx,
    sim_engine.Simulation._handle_dis_tx,
    sim_engine.Simulation._refresh_route,
    sim_engine.Simulation._refresh_relay,
    sim_engine.Simulation.run_traffic,
]


def enum_member_reads(func) -> list[str]:
    """Each ``Class.attr`` that func's code, nested code objects included,
    reads off a global name bound to an Enum subclass."""
    namespace = func.__globals__
    found = []
    codes = [func.__code__]
    while codes:
        code = codes.pop()
        previous = None
        for instr in dis.get_instructions(code):
            if (
                instr.opname in ("LOAD_ATTR", "LOAD_METHOD")
                and previous is not None
                and previous.opname == "LOAD_GLOBAL"
            ):
                owner = namespace.get(previous.argval)
                if isinstance(owner, type) and issubclass(owner, enum.Enum):
                    found.append(f"{previous.argval}.{instr.argval}")
            previous = instr
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return found


@pytest.mark.parametrize("func", PER_EVENT, ids=lambda f: f.__qualname__)
def test_per_event_code_reads_no_enum_member_off_its_class(func):
    reads = enum_member_reads(func)
    assert not reads, f"{func.__qualname__} reads {', '.join(reads)} off an Enum class"


def test_the_guard_flags_an_enum_member_read():
    def reads_rpl(protocol):
        return protocol is Protocol.RPL

    def reads_in_a_comprehension(protocols):
        return [p for p in protocols if p is Protocol.COOP_RPL]

    rpl = Protocol.RPL

    def reads_a_bound_name(protocol):
        return protocol is rpl

    assert enum_member_reads(reads_rpl) == ["Protocol.RPL"]
    assert enum_member_reads(reads_in_a_comprehension) == ["Protocol.COOP_RPL"]
    assert enum_member_reads(reads_a_bound_name) == []
