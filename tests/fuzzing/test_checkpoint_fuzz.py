"""Checkpoint/resume under fuzzed inputs.

The frontier checkpoint is exercised elsewhere on the registry
ontologies; here, 20 generated theories (mixed fragments) are killed at
a seeded-random generation and resumed, and the resumed rewriting must
be byte-identical (canonical serialised JSON) to an uninterrupted run.
"""

import json
import random

import pytest

from repro.cache.checkpoint import FrontierCheckpoint
from repro.cache.serialization import result_to_json
from repro.core.rewriter import TGDRewriter
from repro.fuzzing.generator import FRAGMENTS, GeneratorConfig, WorkloadGenerator
from tests.cache.test_checkpoint import KillAfter, SimulatedKill

#: How many generated theories the gate replays.
_THEORIES = 20

#: Case indices to scan for multi-generation rewritings (cases finishing
#: in one generation cannot be interrupted mid-run).
_MAX_INDEX = 80


def _canonical(result) -> str:
    return json.dumps(result_to_json(result), sort_keys=True)


def _interruptible_cases():
    """(case, clean result, generation count) for multi-generation cases."""
    found = []
    for index in range(_MAX_INDEX):
        fragment = FRAGMENTS[index % len(FRAGMENTS)]
        config = GeneratorConfig(fragment=fragment)
        case = WorkloadGenerator(seed=23, config=config).case(index)
        generations = []
        clean = TGDRewriter(case.theory.tgds).rewrite(
            case.query, on_generation=generations.append
        )
        if len(generations) >= 2:
            found.append((case, clean, len(generations)))
        if len(found) == _THEORIES:
            return found
    raise AssertionError(
        f"only {len(found)} multi-generation cases in {_MAX_INDEX} indices"
    )


@pytest.fixture(scope="module")
def interruptible_cases():
    return _interruptible_cases()


def test_kill_and_resume_is_byte_identical(tmp_path, interruptible_cases):
    assert len(interruptible_cases) == _THEORIES
    for number, (case, clean, generations) in enumerate(interruptible_cases):
        killed_after = random.Random(number).randint(1, generations - 1)
        path = tmp_path / f"frontier-{number}.json"

        with pytest.raises(SimulatedKill):
            TGDRewriter(case.theory.tgds).rewrite(
                case.query,
                checkpoint=FrontierCheckpoint(path),
                on_generation=KillAfter(killed_after),
            )
        assert path.exists(), case.describe()

        resumed_checkpoint = FrontierCheckpoint(path)
        resumed = TGDRewriter(case.theory.tgds).rewrite(
            case.query, checkpoint=resumed_checkpoint
        )
        assert resumed_checkpoint.resumed_generation == killed_after, (
            case.describe()
        )
        assert _canonical(resumed) == _canonical(clean), (
            f"kill@{killed_after}: {case.describe()}"
        )
        assert not path.exists()  # completion cleans up
