"""The calls the benchmark traces, perfbench/spans.py's TRACED_CALLS, exist.

A traced benchmark run replaces each of them by name and fails when one is
renamed or removed; this test fails first.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import TRACED_CALLS, _resolve  # noqa: E402


@pytest.mark.parametrize("module,attribute,span", TRACED_CALLS,
                         ids=[f"{m}.{a}" for m, a, _ in TRACED_CALLS])
def test_every_traced_call_resolves(module, attribute, span):
    owner, name = _resolve(module, attribute)
    assert callable(getattr(owner, name))
