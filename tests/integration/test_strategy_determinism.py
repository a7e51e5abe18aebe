"""Scheduling strategies are interchangeable: identical rewritings everywhere.

The acceptance bar of the frontier kernel: sequential, threaded and
process-chunked scheduling must produce *byte-identical* rewritings — the
same representatives in the same order, the same canonical keys, the same
deterministic statistics — on the running example and all five Table 1
workloads, at any thread/worker count.  Expansion purity plus the ordered
merge point make this hold by construction; these tests pin it.
"""

import dataclasses

import pytest

from repro.core.rewriter import RewritingStatistics, TGDRewriter
from repro.scheduling import ChunkedProcessStrategy, ThreadedStrategy
from repro.workloads import get_workload
from repro.workloads import stock_exchange_example as running_example


class _RunningExample:
    """The paper's running example (Examples 1-5) shaped like a workload."""

    query_names = ("running",)

    def __init__(self):
        self.theory = running_example.theory()

    def query(self, name):
        assert name == "running"
        return running_example.running_query()


WORKLOADS = ("EX", "V", "S", "U", "A", "P5")


def _workload(name):
    return _RunningExample() if name == "EX" else get_workload(name)


def _non_volatile(statistics: RewritingStatistics) -> dict:
    return {
        key: value
        for key, value in dataclasses.asdict(statistics).items()
        if key not in RewritingStatistics.VOLATILE_FIELDS
    }


def _fingerprint(result):
    """Everything a stored record would persist: members, order, stats."""
    return (
        tuple(member.canonical_key for member in result.ucq),
        result.ucq.queries,
        result.auxiliary_queries,
        _non_volatile(result.statistics),
    )


@pytest.fixture(scope="module")
def sequential_results():
    """Reference rewritings of every workload query, expanded sequentially."""
    reference = {}
    for name in WORKLOADS:
        workload = _workload(name)
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        for query_name in workload.query_names:
            result = engine.rewrite(workload.query(query_name))
            reference[(name, query_name)] = result
    return reference


class TestStrategyEquivalence:
    @pytest.mark.parametrize("threads", [2, 4])
    def test_threaded_matches_sequential_everywhere(
        self, sequential_results, threads
    ):
        with ThreadedStrategy(threads=threads) as strategy:
            for name in WORKLOADS:
                workload = _workload(name)
                engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
                for query_name in workload.query_names:
                    result = engine.rewrite(
                        workload.query(query_name), strategy=strategy
                    )
                    assert _fingerprint(result) == _fingerprint(
                        sequential_results[(name, query_name)]
                    ), f"threaded({threads}) diverged on {name}/{query_name}"

    def test_chunked_matches_sequential_everywhere(self, sequential_results):
        # A small min_batch forces real IPC even on modest generations.
        with ChunkedProcessStrategy(workers=2, min_batch=2) as strategy:
            for name in WORKLOADS:
                workload = _workload(name)
                engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
                for query_name in workload.query_names:
                    result = engine.rewrite(
                        workload.query(query_name), strategy=strategy
                    )
                    assert _fingerprint(result) == _fingerprint(
                        sequential_results[(name, query_name)]
                    ), f"chunked diverged on {name}/{query_name}"

    def test_plain_ny_engine_agrees_across_strategies(self):
        """The non-eliminating engine (NY column) is strategy-invariant too."""
        workload = get_workload("S")
        reference = {
            name: _fingerprint(
                TGDRewriter(workload.theory.tgds).rewrite(workload.query(name))
            )
            for name in workload.query_names
        }
        for strategy in (ThreadedStrategy(threads=2), ChunkedProcessStrategy(workers=2, min_batch=2)):
            with strategy:
                engine = TGDRewriter(workload.theory.tgds)
                for name in workload.query_names:
                    result = engine.rewrite(workload.query(name), strategy=strategy)
                    assert _fingerprint(result) == reference[name]

    def test_strategy_override_per_run(self, sequential_results):
        """`rewrite(strategy=...)` expands one run through the given strategy."""
        workload = _workload("S")
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        with ThreadedStrategy(threads=2) as strategy:
            result = engine.rewrite(workload.query("q1"), strategy=strategy)
        assert _fingerprint(result) == _fingerprint(sequential_results[("S", "q1")])

    def test_the_caller_closes_the_strategy(self, sequential_results, monkeypatch):
        """No run closes the strategy it was given; one serves many runs."""
        closed = []
        close = ThreadedStrategy.close

        def recording_close(strategy):
            closed.append(strategy)
            close(strategy)

        monkeypatch.setattr(ThreadedStrategy, "close", recording_close)
        workload = _workload("S")
        engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
        with ThreadedStrategy(threads=2) as strategy:
            for name in workload.query_names:
                result = engine.rewrite(workload.query(name), strategy=strategy)
                assert _fingerprint(result) == _fingerprint(
                    sequential_results[("S", name)]
                ), f"threaded diverged on S/{name}"
            assert closed == []
        assert closed == [strategy]
