import importlib

import pytest

from repro.sanitizers import clear_events, clear_lock_graph, events, lock_graph

_event_log = importlib.import_module("repro.sanitizers.events")
_lock_order = importlib.import_module("repro.sanitizers.lockorder")


@pytest.fixture(autouse=True)
def reset_sanitizer_state():
    """Events and the lock-order graph are process-global; isolate tests.

    These tests provoke hazards on purpose, so each starts from an empty
    log and graph, and what it recorded is dropped afterwards.  What the
    tests before it recorded is put back: a sanitized run's event log
    must still hold every hazard the rest of the suite ran into.
    """
    earlier_events, earlier_edges = events(), lock_graph()
    clear_events()
    clear_lock_graph()
    yield
    clear_events()
    clear_lock_graph()
    with _event_log._events_lock:
        _event_log._events.extend(earlier_events)
    with _lock_order._graph_lock:
        for name, successors in earlier_edges.items():
            _lock_order._edges[name] = set(successors)
