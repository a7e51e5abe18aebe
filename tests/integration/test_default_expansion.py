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
P5_Q5 = "adf023ac73ef3a168715f17041ee8f7a5b9a9e1a7ee161c6baf457d170c08685"

#: The same digest of S q1-q5 under ``OBDASystem``'s default options.
S_QUERIES = {
    "q1": "b3154857daa3064d453d5d3f9701bfae1cd6eb789deb2c97c5f0ba4743cc5ce4",
    "q2": "7886fe0831a7aae53ea4437ad18a6b209ec9fa8256a9d782401467b7cb6a7a1b",
    "q3": "cdf57ba427508d3e27dc76d9a851ca0476fcb1286a8ee6c597d74f83ff63dc89",
    "q4": "b6fdcc506d86279586e3c289193a0203b645a65b40205d762247a3048ff5671e",
    "q5": "9d7bc5bf279a420d6a32637f2de44d2bc49e3d0a8680da5af48dd2681bbdb059",
}

#: sha256 of the ``rewritings.jsonl`` a store-backed S batch writes.
S_STORE = "7c776053a4837767b649b37aa74b67bc1521066d4908dfc93d8a8dd3df8e34ca"

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
