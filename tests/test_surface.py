"""The names other code depends on: the package's exports and the benchmark's trace hooks.

``perfbench/tracing.py`` wraps functions by name from outside the package.
Renaming or deleting a hooked function does not fail the benchmark; it
prints a "not found, not traced" line and that layer's metrics read 0.
Installing the tracer here turns such a rename into a test failure.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import crosscheck

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_resolves_and_is_removed(capsys):
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        missing = [line for line in capsys.readouterr().err.splitlines() if "not traced" in line]
    finally:
        left = tracer.remove()
    assert missing == []
    assert left == []


def test_public_names_resolve_and_stay_sorted():
    for name in crosscheck.__all__:
        assert hasattr(crosscheck, name), name
    assert list(crosscheck.__all__) == sorted(crosscheck.__all__)
