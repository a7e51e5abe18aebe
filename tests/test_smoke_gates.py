"""The CI smoke gates, ``benchmarks/smoke.py``.

Its serve and subscribe queries must rewrite through workload S's TBox,
so neither gate compares identity rewritings, and its check recorder
must run every check of a gate and fail the gate on any failed one.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.api import OBDASystem
from repro.queries.parser import parse_query
from repro.workloads import get_workload

SMOKE = Path(__file__).resolve().parents[1] / "benchmarks" / "smoke.py"


@pytest.fixture(scope="module")
def smoke():
    spec = importlib.util.spec_from_file_location("benchmarks_smoke", SMOKE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_serving_queries_rewrite_through_the_tbox(smoke):
    with OBDASystem(get_workload(smoke.WORKLOAD).theory) as system:
        for text in (smoke.QUERY, smoke.HERD_QUERY):
            assert len(system.prepare(parse_query(text)).rewriting.ucq) > 1, text


def test_recorder_keeps_running_after_a_failed_check(smoke, capsys):
    ran = []

    def failing(check):
        ran.append("failing")
        check(False, "planted failure")

    def crashing(check):
        ran.append("crashing")
        raise RuntimeError("planted crash")

    def passing(check):
        ran.append("passing")
        check(True, "checked after the failures")

    assert smoke.Checks().run(failing, crashing, passing) == 1
    assert ran == ["failing", "crashing", "passing"]
    out = capsys.readouterr().out
    assert "planted failure — FAILED" in out
    assert "crashing crashed — FAILED" in out
    assert "checked after the failures — ok" in out


def test_recorder_passes_a_gate_whose_checks_all_pass(smoke):
    assert smoke.Checks().run(lambda check: check(True, "fine")) == 0
