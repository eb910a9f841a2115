"""The benchmark's probes still bind to the program.

``bench/layers.py`` wraps functions at the attribute its callers look up, by
name. A renamed function or a dropped import breaks a traced benchmark run,
so these install both instruments against the current sources, check that
each wraps what it names and puts back exactly what it found.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

from foresight import harness  # noqa: E402
from foresight.memory import ArbiterVerdict, MemoryState  # noqa: E402
from foresight.oracles import OracleBackends  # noqa: E402

CLOCK_BINDINGS = [(harness, "run_scenario"), (OracleBackends, "simulate"), (MemoryState, "save")]


def bindings(pairs):
    return {(owner, attr): owner.__dict__[attr] for owner, attr in pairs}


def test_every_probe_owner_holds_its_attribute():
    for owner, attr, name, _ in layers.PROBES:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({name}) is not bound"


def test_tracer_wraps_every_probe_and_uninstalls_to_the_originals():
    pairs = [(owner, attr) for owner, attr, _, _ in layers.PROBES] + [(harness, "run_scenario")]
    before = bindings(pairs)
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not before[owner, attr] for owner, attr in pairs)
        state = MemoryState()
        state.add_knowledge("entity_fact", "alpha beta gamma", lambda content, record: ArbiterVerdict("skip"))
        state.vector_search("alpha beta")
        stats = tracer.round_stats()
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is before[owner, attr] for owner, attr in pairs)
    assert stats["memory.add_knowledge.calls"] == 1
    assert stats["memory.add_knowledge.added"] == 1
    assert stats["memory.vector_search.calls"] == 2  # one from the write's near-duplicate check
    assert stats["embedding.embed.calls"] >= 2


def test_unit_clock_uninstalls_to_the_originals():
    before = bindings(CLOCK_BINDINGS)
    clock = layers.UnitClock()
    clock.install()
    try:
        assert all(owner.__dict__[attr] is not before[owner, attr] for owner, attr in CLOCK_BINDINGS)
    finally:
        clock.uninstall()
    assert all(owner.__dict__[attr] is before[owner, attr] for owner, attr in CLOCK_BINDINGS)
