"""The names the benchmark under perfbench/ relies on still exist in robofp.

perfbench/tracing.py wraps robofp functions by (owner, attribute) for its
traced runs, and perfbench/run.py asks the harness how many workers an
operation would use.  A refactor that drops or moves one of those names
breaks the benchmark; these checks make it fail here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from robofp import harness

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_name_resolves(tracing):
    assert tracing.WRAPS
    missing = [
        (owner, attr)
        for owner, attr, _, _ in tracing.WRAPS
        if attr not in tracing._owner(owner).__dict__
    ]
    assert missing == []


def test_resolve_workers_exists():
    assert callable(harness.resolve_workers)
