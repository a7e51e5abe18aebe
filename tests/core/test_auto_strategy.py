"""The ``auto`` scheduling strategy: policy and byte-identity."""

from repro import scheduling
from repro.core.rewriter import TGDRewriter
from repro.scheduling import AutoStrategy, SequentialStrategy
from repro.workloads.stock_exchange_example import running_query, theory


class _StubRuleIndex:
    def __init__(self, fan_out: int) -> None:
        self._fan_out = fan_out

    def fan_out(self, query) -> int:
        return self._fan_out


class _StubEngine:
    def __init__(self, fan_out: int) -> None:
        self.rule_index = _StubRuleIndex(fan_out)


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
        finally:
            strategy.close()


class TestByteIdentity:
    def test_auto_rewriting_matches_sequential(self):
        example = theory()
        reference = TGDRewriter(example.tgds).rewrite(running_query())
        with AutoStrategy() as auto:
            candidate = TGDRewriter(example.tgds).rewrite(
                running_query(), strategy=auto
            )
        assert candidate.ucq.queries == reference.ucq.queries
        assert [m.canonical_key for m in candidate.ucq] == [
            m.canonical_key for m in reference.ucq
        ]


class TestIntegrationSeams:
    def test_base_begin_run_is_a_no_op(self):
        # Strategies that don't care about telemetry inherit a do-nothing
        # hook, so the rewriter can call it on whatever strategy a run gets.
        SequentialStrategy().begin_run(_StubEngine(fan_out=5), None)
