"""Every compile path expands sequentially, through no scheduling strategy.

A default ``TGDRewriter.rewrite``, ``OBDASystem.compile_many`` in
process and a cold serving ``/answer`` expand each frontier generation
with ``map(engine.expand, batch)``.  The four strategies of
:mod:`repro.scheduling` are test instruments that a caller passes to one
run; here each of them raises if anything calls it, and the compiles
must still produce the bytes pinned below, recorded when every engine
expanded through ``SequentialStrategy``.  No argument selects a strategy
or a checkpoint save cadence.
"""

import asyncio
import hashlib
import json

import pytest

from repro.api import OBDASystem
from repro.cache.checkpoint import FrontierCheckpoint
from repro.cache.serialization import result_to_json
from repro.core import rewriter as rewriter_module
from repro.core.rewriter import TGDRewriter
from repro.fuzzing.oracle import DifferentialOracle
from repro.scheduling import (
    AutoStrategy,
    ChunkedProcessStrategy,
    SequentialStrategy,
    ThreadedStrategy,
)
from repro.serving import ServingApp
from repro.workloads import get_workload

#: sha256 of the canonical JSON of P5 q5's TGD-rewrite* result (226 CQs
#: in 5 generations): members, auxiliary queries and the deterministic
#: statistics.
P5_Q5 = "33fff7b6e97d845ef087dc54c24d42189ec6b4fb59ae2f7d8074d9512c86c20c"

#: The same digest of S q1-q5 under ``OBDASystem``'s default options.
S_QUERIES = {
    "q1": "ed2e4fc948e465e042d1b9308269fbcb70bc8076e736cd6c15c337b58b8fe470",
    "q2": "093fb1e7792c0a9d815fb7378130fa41cfc1a1aeae84ff7f1b41c0042e3bc6bc",
    "q3": "9e8ac58adb14818d2a951871a4ad722b124aa101c59f69cdc4e9aef001c52bf9",
    "q4": "aa3d7dd47f16d3cedad5e56924e409c04229c54a0313a399a7a3839e2cdfa963",
    "q5": "d31c17b5849fb6a69fccce066ee13f7767b2822fd86b86a7e9cf29dd073ee801",
}

#: sha256 of the ``rewritings.jsonl`` a store-backed S batch writes.
S_STORE = "36e38322216f7b919c9567ce30810d91d00b0df014f329931f4ce7fe7e3175f9"

#: The serving tenant's facts, and the rows a cold ``/answer`` of each S
#: query returns over them.
FACTS = [
    ["Stock", ["acme_stock"]],
    ["Bond", ["acme_bond"]],
    ["hasStock", ["ann", "xcorp_stock"]],
    ["StockExchangeMember", ["ann"]],
    ["belongsToCompany", ["acme_stock", "acme"]],
    ["hasStock", ["acme", "acme_stock"]],
    ["isListedIn", ["acme", "nasdaq"]],
]
S_ANSWERS = {
    "q1": [["ann"]],
    "q2": [["acme", "acme_stock"], ["ann", "xcorp_stock"]],
    "q3": [["acme_stock", "acme", "acme_stock"]],
    "q4": [],
    "q5": [["acme_stock", "acme", "acme_stock", "nasdaq"]],
}


def digest(result) -> str:
    """sha256 of a result's canonical JSON, as the store serialises it."""
    payload = json.dumps(result_to_json(result), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.fixture()
def no_strategy(monkeypatch):
    """Make every scheduling strategy raise when a compile calls it."""

    def refuse(*args, **kwargs):
        raise AssertionError("a compile went through a scheduling strategy")

    for strategy in (
        SequentialStrategy,
        ThreadedStrategy,
        ChunkedProcessStrategy,
        AutoStrategy,
    ):
        monkeypatch.setattr(strategy, "begin_run", refuse)
        monkeypatch.setattr(strategy, "expand_generation", refuse)


@pytest.fixture()
def s_workload():
    return get_workload("S")


def test_default_rewrite(no_strategy):
    workload = get_workload("P5")
    engine = TGDRewriter(workload.theory.tgds, use_elimination=True)
    assert digest(engine.rewrite(workload.query("q5"))) == P5_Q5


def test_each_expansion_is_merged_before_the_next_is_computed(
    no_strategy, monkeypatch
):
    # ``map`` is lazy, so only one expansion of a generation is alive at
    # a time: the cadence ``SequentialStrategy`` yields with.
    events = []
    expand = TGDRewriter.expand
    merge = rewriter_module.merge_expansion

    def expanding(engine, query):
        events.append("expand")
        return expand(engine, query)

    def merging(state, expansion, max_queries):
        events.append("merge")
        return merge(state, expansion, max_queries)

    monkeypatch.setattr(TGDRewriter, "expand", expanding)
    monkeypatch.setattr(rewriter_module, "merge_expansion", merging)
    workload = get_workload("P5")
    result = TGDRewriter(workload.theory.tgds, use_elimination=True).rewrite(
        workload.query("q5")
    )
    assert events[:2] == ["expand", "merge"]
    assert events == ["expand", "merge"] * (len(events) // 2)
    assert digest(result) == P5_Q5


def test_a_checkpointed_run_saves_once_per_generation(no_strategy, tmp_path):
    workload = get_workload("P5")
    generations = []
    checkpoint = FrontierCheckpoint(tmp_path / "frontier.json")
    result = TGDRewriter(workload.theory.tgds, use_elimination=True).rewrite(
        workload.query("q5"), checkpoint=checkpoint, on_generation=generations.append
    )
    assert generations == list(range(5))
    assert checkpoint.saves == 5
    assert digest(result) == P5_Q5


def test_compile_many_in_process(no_strategy, s_workload, tmp_path):
    system = OBDASystem(s_workload.theory, cache=tmp_path)
    queries = [s_workload.query(name) for name in s_workload.query_names]
    results = system.compile_many(queries, workers=1)
    assert [digest(result) for result in results] == list(S_QUERIES.values())
    store = (tmp_path / "rewritings.jsonl").read_bytes()
    assert hashlib.sha256(store).hexdigest() == S_STORE


def test_cold_serving_answer(no_strategy, s_workload):
    async def answer_all():
        app = ServingApp()
        try:
            registration = {"tenant": "acme", "workload": "S", "facts": FACTS}
            response = await app.request("POST", "/register-theory", registration)
            assert response.status == 201, response.payload
            compiled = app.registry.get("acme").artifacts.rewriting_cache
            for name in s_workload.query_names:
                query = s_workload.query(name)
                response = await app.request(
                    "POST", "/answer", {"tenant": "acme", "query": str(query)}
                )
                assert response.status == 200, response.payload
                assert response.payload["source"] == "engine"
                assert response.payload["answers"] == S_ANSWERS[name]
                assert digest(compiled[query]) == S_QUERIES[name]
        finally:
            app.close()

    asyncio.run(answer_all())


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(
            lambda workload, directory: TGDRewriter(
                workload.theory.tgds, strategy="chunked"
            ),
            id="TGDRewriter-strategy",
        ),
        pytest.param(
            lambda workload, directory: OBDASystem(workload.theory).compile_many(
                [workload.query("q1")], workers=1, strategy="threaded"
            ),
            id="compile_many-strategy",
        ),
        pytest.param(
            lambda workload, directory: OBDASystem(workload.theory).compile_many(
                [workload.query("q1")], checkpoint_dir=directory, checkpoint_every=2
            ),
            id="compile_many-checkpoint_every",
        ),
        pytest.param(
            lambda workload, directory: FrontierCheckpoint(
                directory / "frontier.json", every=2
            ),
            id="FrontierCheckpoint-every",
        ),
        pytest.param(
            lambda workload, directory: FrontierCheckpoint.for_query(
                directory, "fingerprint", workload.query("q1"), every=2
            ),
            id="for_query-every",
        ),
        pytest.param(
            lambda workload, directory: DifferentialOracle(
                strategies=("sequential", "chunked")
            ),
            id="DifferentialOracle-strategies",
        ),
    ],
)
def test_no_argument_selects_a_strategy_or_a_save_cadence(
    call, s_workload, tmp_path
):
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call(s_workload, tmp_path)
