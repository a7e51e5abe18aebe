"""The ``strategy="auto"`` autotuner: registry, policy, and byte-identity."""

import pytest

from repro import scheduling
from repro.core.rewriter import TGDRewriter
from repro.scheduling import (
    AutoStrategy,
    SequentialStrategy,
    create_strategy,
    strategy_names,
)
from repro.serving.tenants import SharedArtifacts
from repro.workloads.stock_exchange_example import running_query, theory


class _StubRuleIndex:
    def __init__(self, fan_out: int) -> None:
        self._fan_out = fan_out

    def fan_out(self, query) -> int:
        return self._fan_out


class _StubEngine:
    def __init__(self, fan_out: int) -> None:
        self.rule_index = _StubRuleIndex(fan_out)


class TestRegistry:
    def test_auto_is_registered(self):
        assert "auto" in strategy_names()

    def test_create_strategy_builds_the_tuner(self):
        strategy = create_strategy("auto")
        try:
            assert isinstance(strategy, AutoStrategy)
            assert strategy.name == "auto"
        finally:
            strategy.close()

    def test_workers_resolve_like_every_other_strategy(self):
        strategy = create_strategy("auto", workers=3)
        try:
            assert strategy.workers == 3
        finally:
            strategy.close()


class TestPolicy:
    """The decision function over its observable inputs (no timing feedback)."""

    def test_single_worker_always_sequential(self):
        strategy = AutoStrategy(workers=1)
        try:
            strategy.begin_run(_StubEngine(fan_out=10_000), None)
            for width in (1, AutoStrategy.SMALL_GENERATION, 10_000):
                assert isinstance(strategy._choose(width), SequentialStrategy)
        finally:
            strategy.close()

    def test_narrow_generations_stay_sequential(self):
        strategy = AutoStrategy(workers=4)
        try:
            strategy.begin_run(_StubEngine(fan_out=10_000), None)
            chosen = strategy._choose(AutoStrategy.SMALL_GENERATION - 1)
            assert isinstance(chosen, SequentialStrategy)
        finally:
            strategy.close()

    def test_large_work_products_go_chunked(self):
        strategy = AutoStrategy(workers=4)
        try:
            strategy.begin_run(_StubEngine(fan_out=512), None)
            width = AutoStrategy.CHUNK_WORK_THRESHOLD // 512
            chosen = strategy._choose(width)
            assert chosen.name == "chunked"
        finally:
            strategy.close()

    def test_middle_band_depends_on_the_gil(self, monkeypatch):
        strategy = AutoStrategy(workers=4)
        try:
            strategy.begin_run(_StubEngine(fan_out=1), None)
            width = AutoStrategy.SMALL_GENERATION
            monkeypatch.setattr(scheduling, "_gil_enabled", lambda: True)
            assert isinstance(strategy._choose(width), SequentialStrategy)
            monkeypatch.setattr(scheduling, "_gil_enabled", lambda: False)
            assert strategy._choose(width).name == "threaded"
        finally:
            strategy.close()

    def test_begin_run_captures_the_rule_fan_out(self):
        engine = TGDRewriter(theory().tgds)
        strategy = AutoStrategy()
        try:
            query = running_query()
            strategy.begin_run(engine, query, generation=3)
            assert strategy._fan_out == engine.rule_index.fan_out(query)
            assert strategy._generation == 3
        finally:
            strategy.close()


class TestByteIdentity:
    def test_auto_rewriting_matches_sequential(self):
        example = theory()
        reference = TGDRewriter(example.tgds).rewrite(running_query())
        auto_engine = TGDRewriter(example.tgds, strategy="auto")
        try:
            candidate = auto_engine.rewrite(running_query())
        finally:
            auto_engine.strategy.close()
        assert candidate.ucq.queries == reference.ucq.queries
        assert [m.canonical_key for m in candidate.ucq] == [
            m.canonical_key for m in reference.ucq
        ]

    def test_decisions_counter_records_every_generation(self):
        auto_engine = TGDRewriter(theory().tgds, strategy="auto")
        try:
            auto_engine.rewrite(running_query())
            decisions = auto_engine.strategy.decisions
        finally:
            auto_engine.strategy.close()
        assert sum(decisions.values()) > 0
        assert set(decisions) == {"sequential", "threaded", "chunked"}


class TestIntegrationSeams:
    def test_serving_tier_compiles_sequentially(self):
        artifacts = SharedArtifacts(theory())
        try:
            # The artifact set's engine keeps its default strategy.
            strategy = artifacts.system._rewriter.strategy
            assert type(strategy) is SequentialStrategy
        finally:
            artifacts.release()

    def test_base_begin_run_is_a_no_op(self):
        # Strategies that don't care about telemetry inherit a do-nothing
        # hook, so the rewriter can call it unconditionally.
        SequentialStrategy().begin_run(_StubEngine(fan_out=5), None)
