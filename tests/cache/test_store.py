"""RewritingStore behaviour: persistence, varianthood, versioning, pruning."""

import json

from repro.cache.fingerprint import theory_fingerprint
from repro.cache.store import RewritingStore
from repro.core.rewriter import TGDRewriter
from repro.dependencies.tgd import tgd
from repro.logic.atoms import Atom
from repro.logic.terms import Constant, Variable
from repro.queries.parser import parse_query

X, Z = Variable("X"), Variable("Z")
RULES = (
    tgd(Atom.of("project", X), Atom.of("has_leader", X, Z)),
    tgd(Atom.of("has_leader", X, Z), Atom.of("leader", Z)),
)
FINGERPRINT = theory_fingerprint(RULES)


def compile_query(text: str):
    query = parse_query(text)
    return query, TGDRewriter(RULES).rewrite(query)


class TestPutGet:
    def test_round_trip(self, tmp_path):
        store = RewritingStore(tmp_path)
        query, result = compile_query("q(A) :- leader(A)")
        assert store.put(query, FINGERPRINT, result)
        served = store.get(query, FINGERPRINT, rules=RULES)
        assert served is not None
        assert list(served.ucq) == list(result.ucq)
        assert repr(served.ucq) == repr(result.ucq)
        assert served.rules == RULES

    def test_variant_query_hits(self, tmp_path):
        store = RewritingStore(tmp_path)
        query, result = compile_query("q(A) :- has_leader(A, B)")
        store.put(query, FINGERPRINT, result)
        variant = parse_query("q(P) :- has_leader(P, Leader)")
        served = store.get(variant, FINGERPRINT)
        assert served is not None
        assert len(served.ucq) == len(result.ucq)
        assert store.statistics.hits == 1

    def test_duplicate_put_is_refused(self, tmp_path):
        store = RewritingStore(tmp_path)
        query, result = compile_query("q(A) :- leader(A)")
        assert store.put(query, FINGERPRINT, result)
        variant = parse_query("q(B) :- leader(B)")
        assert not store.put(variant, FINGERPRINT, result)
        assert len(store) == 1

    def test_unserializable_query_is_reported_not_stored(self, tmp_path):
        store = RewritingStore(tmp_path)
        query = parse_query("q(A) :- leader(A)")
        frozen = query.apply({Variable("A"): Constant((1, 2))})
        result = TGDRewriter(RULES).rewrite(query)
        result.query = frozen  # smuggle in a non-scalar constant
        assert not store.put(frozen, FINGERPRINT, result)
        assert store.statistics.uncacheable == 1
        assert len(store) == 0


class TestPersistence:
    def test_entries_survive_reopening(self, tmp_path):
        query, result = compile_query("q(A) :- leader(A)")
        RewritingStore(tmp_path).put(query, FINGERPRINT, result)
        reopened = RewritingStore(tmp_path)
        assert len(reopened) == 1
        served = reopened.get(query, FINGERPRINT)
        assert served is not None
        assert repr(served.ucq) == repr(result.ucq)

    def test_corrupt_trailing_line_is_skipped(self, tmp_path):
        query, result = compile_query("q(A) :- leader(A)")
        store = RewritingStore(tmp_path)
        store.put(query, FINGERPRINT, result)
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"format":1,"digest":"truncated')
        reopened = RewritingStore(tmp_path)
        assert reopened.get(query, FINGERPRINT) is not None
        assert reopened.statistics.skipped_records == 1

    def test_append_after_torn_line_loses_only_the_torn_line(self, tmp_path):
        first, first_result = compile_query("q(A) :- leader(A)")
        second, second_result = compile_query("q(A) :- has_leader(A, B)")
        store = RewritingStore(tmp_path)
        store.put(first, FINGERPRINT, first_result)
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write('{"format":1,"digest":"torn')  # crash mid-append
        survivor = RewritingStore(tmp_path)
        survivor.put(second, FINGERPRINT, second_result)
        reopened = RewritingStore(tmp_path)
        assert reopened.get(first, FINGERPRINT) is not None
        assert reopened.get(second, FINGERPRINT) is not None
        # The append truncated the torn bytes first: the file is clean.
        assert reopened.statistics.skipped_records == 0

    def test_other_format_versions_are_skipped(self, tmp_path):
        query, result = compile_query("q(A) :- leader(A)")
        store = RewritingStore(tmp_path)
        store.put(query, FINGERPRINT, result)
        record = json.loads(store.path.read_text().strip())
        record["format"] = RewritingStore.FORMAT_VERSION + 1
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
        reopened = RewritingStore(tmp_path)
        assert len(reopened) == 1
        assert reopened.statistics.skipped_records == 1


    def test_results_for_yields_one_fingerprint_oldest_first(self, tmp_path):
        first, first_result = compile_query("q(A) :- leader(A)")
        second, second_result = compile_query("q(A) :- has_leader(A, B)")
        store = RewritingStore(tmp_path)
        store.put(first, FINGERPRINT, first_result)
        store.put(second, "other-fingerprint", second_result)
        store.put(second, FINGERPRINT, second_result)
        unreadable = {
            "format": RewritingStore.FORMAT_VERSION,
            "digest": "unreadable",
            "fingerprint": FINGERPRINT,
            "exact": True,
            "result": {},
        }
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(unreadable, separators=(",", ":")) + "\n")
        served = list(RewritingStore(tmp_path).results_for(FINGERPRINT, RULES))
        assert [query for query, _ in served] == [first, second]
        assert [repr(result.ucq) for _, result in served] == [
            repr(first_result.ucq),
            repr(second_result.ucq),
        ]
        assert all(result.rules == RULES for _, result in served)


class TestInvalidation:
    def test_fingerprint_mismatch_misses(self, tmp_path):
        store = RewritingStore(tmp_path)
        query, result = compile_query("q(A) :- leader(A)")
        store.put(query, FINGERPRINT, result)
        other = theory_fingerprint(RULES[:1])
        assert store.get(query, other) is None
        assert store.statistics.misses == 1

    def test_prune_drops_stale_fingerprints(self, tmp_path):
        store = RewritingStore(tmp_path)
        query, result = compile_query("q(A) :- leader(A)")
        store.put(query, FINGERPRINT, result)
        store.put(query, "stale-fingerprint", result)
        assert len(store) == 2
        assert store.prune(FINGERPRINT) == 1
        assert len(store) == 1
        assert store.fingerprints == frozenset({FINGERPRINT})
        reopened = RewritingStore(tmp_path)
        assert len(reopened) == 1
        assert reopened.get(query, FINGERPRINT) is not None

    def test_prune_without_stale_entries_is_a_no_op(self, tmp_path):
        store = RewritingStore(tmp_path)
        query, result = compile_query("q(A) :- leader(A)")
        store.put(query, FINGERPRINT, result)
        before = store.path.read_bytes()
        assert store.prune(FINGERPRINT) == 0
        assert store.path.read_bytes() == before


class TestCanonicalKeyCollisions:
    # p(X,Y),p(Y,X) and p(X,X),p(Y,Y) share a canonical key but are not
    # variants: the store must keep them apart (invariant 1 of repro.cache).
    CYCLE = "q() :- p(X, Y), p(Y, X)"
    LOOPS = "q() :- p(X, X), p(Y, Y)"

    def test_colliding_non_variants_are_kept_apart(self, tmp_path):
        store = RewritingStore(tmp_path)
        cycle, cycle_result = compile_query(self.CYCLE)
        loops, loops_result = compile_query(self.LOOPS)
        assert cycle.canonical_key == loops.canonical_key  # the premise
        assert store.put(cycle, FINGERPRINT, cycle_result)
        assert store.get(loops, FINGERPRINT) is None
        assert store.statistics.collisions == 1
        assert store.put(loops, FINGERPRINT, loops_result)
        served_cycle = store.get(cycle, FINGERPRINT)
        served_loops = store.get(loops, FINGERPRINT)
        assert repr(served_cycle.query) == repr(cycle)
        assert repr(served_loops.query) == repr(loops)


class TestTornRecordValidation:
    """The trailing line must *fully* parse, not just look like a record.

    A crash mid-append can truncate a record anywhere — including after
    the ``{"format":1,"digest":"..."}`` prefix the fast-path matcher
    accepts.  The final line of a file without a trailing newline is
    therefore validated with a full JSON parse; a torn one is skipped
    (and logged), and ``compact()`` physically repairs the file.
    """

    def test_prefix_valid_truncation_is_skipped_and_compacted_away(
        self, tmp_path, caplog
    ):
        first, first_result = compile_query("q(A) :- leader(A)")
        second, second_result = compile_query("q(A) :- has_leader(A, B)")
        store = RewritingStore(tmp_path)
        store.put(first, FINGERPRINT, first_result)
        store.put(second, FINGERPRINT, second_result)

        # Tear the second record mid-payload: the survivor keeps its
        # newline, the torn tail still matches the record prefix.
        text = store.path.read_text()
        lines = text.splitlines(keepends=True)
        torn = lines[-1][: int(len(lines[-1]) * 0.8)].rstrip("\n")
        assert RewritingStore._RECORD_PREFIX.match(torn)  # the premise
        store.path.write_text("".join(lines[:-1]) + torn)

        with caplog.at_level("WARNING", logger="repro.cache.store"):
            reopened = RewritingStore(tmp_path)
        assert reopened.get(first, FINGERPRINT) is not None
        assert reopened.get(second, FINGERPRINT) is None
        assert reopened.statistics.skipped_records == 1
        assert any("torn trailing record" in r.message for r in caplog.records)

        # compact() rewrites the file from the index: the torn bytes are
        # gone for good and the next open is clean.
        reopened.compact(max_entries=100)
        clean = RewritingStore(tmp_path)
        assert clean.statistics.skipped_records == 0
        assert clean.get(first, FINGERPRINT) is not None
        assert len(clean) == 1

    def test_interior_lines_keep_the_fast_path(self, tmp_path):
        # Lines followed by a newline are trusted via the prefix matcher;
        # only the newline-less trailing line pays for a full parse.
        first, first_result = compile_query("q(A) :- leader(A)")
        store = RewritingStore(tmp_path)
        store.put(first, FINGERPRINT, first_result)
        reopened = RewritingStore(tmp_path)  # file ends with "\n"
        assert reopened.statistics.skipped_records == 0
        assert reopened.get(first, FINGERPRINT) is not None

    def test_put_after_prefix_valid_torn_line_recovers(self, tmp_path):
        first, first_result = compile_query("q(A) :- leader(A)")
        second, second_result = compile_query("q(A) :- has_leader(A, B)")
        store = RewritingStore(tmp_path)
        store.put(first, FINGERPRINT, first_result)
        text = store.path.read_text().rstrip("\n")
        store.path.write_text(text[: int(len(text) * 0.8)])  # crash mid-append

        survivor = RewritingStore(tmp_path)
        assert survivor.statistics.skipped_records == 1
        assert survivor.put(second, FINGERPRINT, second_result)
        reopened = RewritingStore(tmp_path)
        # Only the torn record is lost; put() truncated its bytes before
        # appending, so the prefix-valid garbage never becomes a trusted
        # interior line on a later load.
        assert reopened.get(first, FINGERPRINT) is None
        assert reopened.get(second, FINGERPRINT) is not None
        assert reopened.statistics.skipped_records == 0
