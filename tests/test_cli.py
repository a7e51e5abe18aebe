"""Tests for the command-line interface (``python -m repro``)."""

import pytest

from repro.cli import build_parser, main


class TestWorkloadsCommand:
    def test_lists_every_workload(self, capsys):
        assert main(["workloads"]) == 0
        output = capsys.readouterr().out
        for name in ("V ", "S ", "U ", "A ", "P5 "):
            assert any(line.startswith(name) for line in output.splitlines())


class TestTable1Command:
    def test_single_workload_single_query(self, capsys):
        assert main(["table1", "V", "--systems", "NY", "NY*", "--queries", "q1"]) == 0
        output = capsys.readouterr().out
        assert "=== V" in output
        assert "NY_size" in output
        assert "q1" in output

    def test_invalid_system_is_rejected(self):
        with pytest.raises(SystemExit):
            main(["table1", "V", "--systems", "BOGUS"])


class TestRewriteCommand:
    TBOX = """
    Student [= Person
    exists attends [= Student
    exists attends- [= Course
    Student [= exists attends
    Student [= not Course
    """

    @pytest.fixture()
    def tbox_file(self, tmp_path):
        path = tmp_path / "university.dllite"
        path.write_text(self.TBOX, encoding="utf-8")
        return str(path)

    def test_rewrites_a_query(self, tbox_file, capsys):
        assert main(["rewrite", "--tbox", tbox_file, "--query", "q(A) :- Person(A)"]) == 0
        output = capsys.readouterr().out
        assert "perfect rewriting" in output
        assert "Student" in output

    def test_stats_output(self, tbox_file, capsys):
        assert main(
            ["rewrite", "--tbox", tbox_file, "--query", "q(A) :- Person(A)", "--stats"]
        ) == 0
        output = capsys.readouterr().out
        assert "# rule index:" in output
        assert "skipped by head-predicate index" in output
        assert "# interning:" in output
        assert "key collisions" in output
        assert "# pruning: 0 by negative constraints, 0 dead ends dropped" in output

    def test_sql_output(self, tbox_file, capsys):
        assert main(
            ["rewrite", "--tbox", tbox_file, "--query", "q(A) :- Person(A)", "--sql"]
        ) == 0
        output = capsys.readouterr().out
        assert "SELECT DISTINCT" in output
        assert "UNION" in output

    def test_no_elimination_flag(self, tbox_file, capsys):
        assert main(
            [
                "rewrite",
                "--tbox",
                tbox_file,
                "--query",
                "q(A, B) :- Student(A), attends(A, B), Course(B)",
                "--no-elimination",
            ]
        ) == 0
        plain_output = capsys.readouterr().out
        assert main(
            [
                "rewrite",
                "--tbox",
                tbox_file,
                "--query",
                "q(A, B) :- Student(A), attends(A, B), Course(B)",
            ]
        ) == 0
        optimised_output = capsys.readouterr().out

        def size(text: str) -> int:
            return int(text.split("perfect rewriting: ")[1].split(" ")[0])

        assert size(optimised_output) <= size(plain_output)


class TestCompileCommand:
    TBOX = TestRewriteCommand.TBOX

    @pytest.fixture()
    def tbox_file(self, tmp_path):
        path = tmp_path / "university.dllite"
        path.write_text(self.TBOX, encoding="utf-8")
        return str(path)

    @pytest.fixture()
    def queries_file(self, tmp_path):
        path = tmp_path / "queries.cq"
        path.write_text(
            "# workload queries\n"
            "q(A) :- Person(A)\n"
            "\n"
            "q(A, B) :- Student(A), attends(A, B)\n",
            encoding="utf-8",
        )
        return str(path)

    def test_compiles_a_query_file(self, tbox_file, queries_file, capsys):
        assert main(["compile", "--tbox", tbox_file, "--queries", queries_file]) == 0
        output = capsys.readouterr().out
        assert "line 2:" in output
        assert "line 4:" in output
        assert "# compiled 2 queries" in output

    def test_workload_defaults_to_its_table2_queries(self, capsys):
        assert main(["compile", "--workload", "S"]) == 0
        output = capsys.readouterr().out
        for name in ("q1", "q2", "q3", "q4", "q5"):
            assert f"{name}:" in output

    def test_cold_then_warm_cache_run(self, tbox_file, queries_file, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(
            ["compile", "--tbox", tbox_file, "--queries", queries_file,
             "--cache", cache, "--stats"]
        ) == 0
        cold = capsys.readouterr().out
        assert "2 misses" in cold
        assert "# theory fingerprint:" in cold
        assert main(
            ["compile", "--tbox", tbox_file, "--queries", queries_file,
             "--cache", cache, "--fail-on-miss"]
        ) == 0
        warm = capsys.readouterr().out
        assert "cache hit" in warm
        assert "2 persistent hits" in warm

    def test_fail_on_miss_fails_cold(self, tbox_file, queries_file, tmp_path, capsys):
        assert main(
            ["compile", "--tbox", tbox_file, "--queries", queries_file,
             "--cache", str(tmp_path / "cache"), "--fail-on-miss"]
        ) == 1
        assert "not served from the cache" in capsys.readouterr().err

    def test_fail_on_miss_reports_every_miss(
        self, tbox_file, queries_file, tmp_path, capsys
    ):
        # Both queries miss a cold cache: both must be named on stderr, and
        # the command must exit non-zero exactly once (not after the first).
        assert main(
            ["compile", "--tbox", tbox_file, "--queries", queries_file,
             "--cache", str(tmp_path / "cache"), "--fail-on-miss"]
        ) == 1
        captured = capsys.readouterr()
        assert "error: cache miss: line 2" in captured.err
        assert "error: cache miss: line 4" in captured.err
        assert "2 queries were not served" in captured.err
        # Both compilations still ran and were reported on stdout.
        assert "line 2:" in captured.out
        assert "line 4:" in captured.out

    def test_workers_flag_compiles_in_parallel(
        self, tbox_file, queries_file, tmp_path, capsys
    ):
        cache = str(tmp_path / "cache")
        assert main(
            ["compile", "--tbox", tbox_file, "--queries", queries_file,
             "--cache", cache, "--workers", "2"]
        ) == 0
        parallel = capsys.readouterr().out
        assert "# compiled 2 queries" in parallel
        # The parallel cold run fills the cache exactly like a sequential one.
        assert main(
            ["compile", "--tbox", tbox_file, "--queries", queries_file,
             "--cache", cache, "--workers", "1", "--fail-on-miss"]
        ) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_library_default_store_is_warm_for_the_cli(self, tmp_path, capsys):
        # P5 has no negative constraints: the library default and the CLI
        # must key its rewritings under one fingerprint.
        from repro.api import OBDASystem
        from repro.workloads import get_workload

        cache = str(tmp_path / "cache")
        workload = get_workload("P5")
        system = OBDASystem(workload.theory, cache=cache)
        system.compile_many(
            [workload.query(name) for name in workload.query_names], workers=1
        )
        assert len(system.rewriting_store) == 5
        system.close()
        assert main(
            ["compile", "--workload", "P5", "--cache", cache, "--workers", "1",
             "--fail-on-miss"]
        ) == 0
        assert "(5 persistent hits, 0 misses, 5 entries in store)" in (
            capsys.readouterr().out
        )

    def test_non_positive_workers_is_a_clean_cli_error(
        self, tbox_file, queries_file, capsys
    ):
        assert main(
            ["compile", "--tbox", tbox_file, "--queries", queries_file,
             "--workers", "0"]
        ) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_stats_prints_workload_totals(
        self, tbox_file, queries_file, capsys
    ):
        assert main(
            ["compile", "--tbox", tbox_file, "--queries", queries_file, "--stats"]
        ) == 0
        output = capsys.readouterr().out
        assert "# workload totals:" in output
        assert "queries processed" in output
        assert " 0 dead ends dropped, " in output

    def test_stats_count_the_dead_ends_of_internal_predicates(self, capsys):
        # P5's multi-head rule is normalised through an internal predicate.
        assert main(["compile", "--workload", "P5", "--stats"]) == 0
        output = capsys.readouterr().out
        assert " 298 dead ends dropped, " in output

    def test_fail_on_miss_requires_a_cache(self, tbox_file, queries_file, capsys):
        assert main(
            ["compile", "--tbox", tbox_file, "--queries", queries_file,
             "--fail-on-miss"]
        ) == 2
        assert "requires --cache" in capsys.readouterr().err

    def test_duplicate_queries_are_reported_as_in_process_hits(
        self, tbox_file, tmp_path, capsys
    ):
        path = tmp_path / "dup.cq"
        path.write_text("q(A) :- Person(A)\nq(A) :- Person(A)\n", encoding="utf-8")
        assert main(["compile", "--tbox", tbox_file, "--queries", str(path)]) == 0
        output = capsys.readouterr().out
        assert "in-process hit" in output

    def test_tbox_without_queries_is_rejected(self, tbox_file):
        with pytest.raises(SystemExit):
            main(["compile", "--tbox", tbox_file])

    def test_tbox_and_workload_are_mutually_exclusive(self, tbox_file):
        with pytest.raises(SystemExit):
            main(["compile", "--tbox", tbox_file, "--workload", "S"])


class TestCacheCompactCommand:
    def _fill_cache(self, directory):
        from repro.cache.store import RewritingStore
        from repro.core.rewriter import TGDRewriter
        from repro.queries.parser import parse_query
        from repro.workloads import stock_exchange_example

        store = RewritingStore(directory)
        rewriter = TGDRewriter(stock_exchange_example.theory().tgds)
        for index in range(4):
            query = parse_query(f"q(A) :- pred_{index}(A)")
            store.put(query, "f" * 64, rewriter.rewrite(query))
        return store

    def test_compact_bounds_the_store(self, tmp_path, capsys):
        from repro.cache.store import RewritingStore

        cache = str(tmp_path / "cache")
        self._fill_cache(cache)
        assert main(
            ["cache", "compact", "--cache", cache, "--max-entries", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "4 -> 2 entries" in output
        assert "2 evicted" in output
        assert len(RewritingStore(cache)) == 2

    def test_compact_below_bound_is_a_noop(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        self._fill_cache(cache)
        assert main(
            ["cache", "compact", "--cache", cache, "--max-entries", "10"]
        ) == 0
        assert "0 evicted" in capsys.readouterr().out

    def test_non_positive_max_entries_is_a_clean_cli_error(self, tmp_path, capsys):
        assert main(
            ["cache", "compact", "--cache", str(tmp_path), "--max-entries", "0"]
        ) == 2
        assert "--max-entries must be >= 1" in capsys.readouterr().err

    def test_cache_subcommand_is_required(self):
        with pytest.raises(SystemExit):
            main(["cache"])


class TestAnswerCommand:
    def test_workload_on_both_backends_agrees(self, capsys):
        assert main(
            ["answer", "--workload", "S", "--backend", "both", "--repeat", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "[memory]" in output and "[sqlite]" in output
        assert "cache hits" in output

    def test_query_filter_restricts_the_run(self, capsys):
        assert main(
            ["answer", "--workload", "S", "--query", "q1", "--show", "2"]
        ) == 0
        output = capsys.readouterr().out
        assert "q1 [memory]" in output
        assert "q2" not in output

    def test_sql_flag_prints_the_sqlite_plan(self, capsys):
        assert main(
            ["answer", "--workload", "S", "--query", "q1", "--sql"]
        ) == 0
        output = capsys.readouterr().out
        assert "-- q1" in output
        assert "SELECT DISTINCT" in output

    def test_tbox_mode_answers_a_data_file(self, tmp_path, capsys):
        tbox = tmp_path / "theory.dllite"
        tbox.write_text("Student [= Person\n", encoding="utf-8")
        data = tmp_path / "facts.txt"
        data.write_text(
            "# facts\nStudent(kim)\nPerson('lee')\n", encoding="utf-8"
        )
        queries = tmp_path / "queries.txt"
        queries.write_text("q(A) :- Person(A)\n", encoding="utf-8")
        assert main(
            [
                "answer",
                "--tbox", str(tbox),
                "--data", str(data),
                "--queries", str(queries),
                "--backend", "both",
                "--show", "5",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "2 answers" in output
        assert "Const('kim')" in output

    def test_tbox_mode_requires_data(self, tmp_path, capsys):
        tbox = tmp_path / "theory.dllite"
        tbox.write_text("Student [= Person\n", encoding="utf-8")
        assert main(["answer", "--tbox", str(tbox)]) == 2
        assert "--data" in capsys.readouterr().err

    def test_unknown_query_filter_is_a_clean_error(self, capsys):
        assert main(["answer", "--workload", "S", "--query", "q9"]) == 2
        assert "no queries left" in capsys.readouterr().err


class TestParser:
    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestNoSchedulingFlags:
    """Compiles expand sequentially and checkpoint after every generation:
    no flag picks a scheduling strategy or a save cadence, and the fuzz
    determinism oracle compares a fixed set of strategies."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["rewrite", "--tbox", "t.dllite", "--query", "q(A) :- Person(A)",
             "--strategy", "threaded"],
            ["rewrite", "--tbox", "t.dllite", "--query", "q(A) :- Person(A)",
             "--workers", "2"],
            ["compile", "--workload", "S", "--strategy", "chunked"],
            ["rewrite", "--tbox", "t.dllite", "--query", "q(A) :- Person(A)",
             "--checkpoint", "f.json", "--checkpoint-every", "2"],
            ["compile", "--workload", "S", "--checkpoint-dir", "d",
             "--checkpoint-every", "2"],
            ["fuzz", "--cases", "1", "--strategies", "sequential", "chunked"],
        ],
    )
    def test_scheduling_flags_are_unknown_arguments(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRewriteCheckpointFlags:
    TBOX = TestRewriteCommand.TBOX

    @pytest.fixture()
    def tbox_file(self, tmp_path):
        path = tmp_path / "university.dllite"
        path.write_text(self.TBOX, encoding="utf-8")
        return str(path)

    def test_checkpoint_file_is_cleared_on_completion(self, tbox_file, tmp_path, capsys):
        checkpoint = tmp_path / "frontier.json"
        assert main([
            "rewrite", "--tbox", tbox_file, "--query", "q(A) :- Person(A)",
            "--checkpoint", str(checkpoint),
        ]) == 0
        assert not checkpoint.exists()
        assert "perfect rewriting" in capsys.readouterr().out

    def test_stale_checkpoint_is_discarded_without_resume(self, tbox_file, tmp_path, capsys):
        checkpoint = tmp_path / "frontier.json"
        checkpoint.write_text("{stale", encoding="utf-8")
        assert main([
            "rewrite", "--tbox", tbox_file, "--query", "q(A) :- Person(A)",
            "--checkpoint", str(checkpoint),
        ]) == 0
        assert not checkpoint.exists()

    def test_resume_flag_accepts_a_missing_file(self, tbox_file, tmp_path, capsys):
        # There is no resume flag: a matching file is always resumed, and
        # a missing one simply means a fresh run.
        checkpoint = tmp_path / "frontier.json"
        assert main([
            "rewrite", "--tbox", tbox_file, "--query", "q(A) :- Person(A)",
            "--checkpoint", str(checkpoint),
        ]) == 0
        output = capsys.readouterr().out
        assert "resumed" not in output

    def test_leftover_checkpoint_of_the_same_run_is_resumed(
        self, tbox_file, tmp_path, capsys
    ):
        from repro.cache.checkpoint import FrontierCheckpoint
        from repro.core.rewriter import TGDRewriter
        from repro.ontology.parser import parse_ontology
        from repro.ontology.translation import to_theory
        from repro.queries.parser import parse_query
        from tests.cache.test_checkpoint import KillAfter, SimulatedKill

        query = "q(A) :- Person(A)"
        assert main(["rewrite", "--tbox", tbox_file, "--query", query]) == 0
        clean = capsys.readouterr().out.splitlines()

        # Die after one generation with the engine the command builds.
        checkpoint = tmp_path / "frontier.json"
        theory = to_theory(parse_ontology(self.TBOX, name="university"))
        engine = TGDRewriter(
            theory,
            use_elimination=theory.classification.linear,
            use_nc_pruning=bool(theory.negative_constraints),
        )
        with pytest.raises(SimulatedKill):
            engine.rewrite(
                parse_query(query),
                checkpoint=FrontierCheckpoint(checkpoint),
                on_generation=KillAfter(1),
            )
        assert checkpoint.exists()

        assert main([
            "rewrite", "--tbox", tbox_file, "--query", query,
            "--checkpoint", str(checkpoint),
        ]) == 0
        output = capsys.readouterr().out.splitlines()
        assert "# resumed from checkpoint at generation 1" in output
        assert [line for line in output if not line.startswith("#")] == [
            line for line in clean if not line.startswith("#")
        ]
        assert not checkpoint.exists()


class TestFuzzCommand:
    def test_bounded_run_passes(self, capsys):
        assert main(
            ["fuzz", "--seed", "0", "--cases", "2", "--fragment", "linear"]
        ) == 0
        output = capsys.readouterr().out
        assert "# linear: 2 cases, 2 ok, 0 skipped, 0 failed (seed 0)" in output
        assert "linear[0] ok" in output

    def test_quiet_suppresses_per_case_lines(self, capsys):
        assert main(
            ["fuzz", "--seed", "0", "--cases", "2", "--fragment", "linear",
             "--quiet"]
        ) == 0
        output = capsys.readouterr().out
        assert "linear[0]" not in output
        assert "# linear: 2 cases" in output

    def test_all_fragments_by_default(self, capsys):
        assert main(["fuzz", "--seed", "0", "--cases", "1", "--quiet"]) == 0
        output = capsys.readouterr().out
        for fragment in ("linear", "sticky", "sticky-join"):
            assert f"# {fragment}: 1 cases" in output

    def test_replay_of_a_clean_repro_passes(self, tmp_path, capsys):
        from repro.fuzzing.generator import WorkloadGenerator
        from repro.fuzzing.shrink import write_repro

        case = WorkloadGenerator(seed=0).case(0)
        path = write_repro(tmp_path / "case.json", case)
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_replay_prints_the_recorded_failure(self, tmp_path, capsys):
        from repro.fuzzing.generator import WorkloadGenerator
        from repro.fuzzing.oracle import OracleFailure
        from repro.fuzzing.shrink import write_repro

        case = WorkloadGenerator(seed=0).case(0)
        failure = OracleFailure("chase", "recorded for the test")
        path = write_repro(tmp_path / "case.json", case, failure)
        assert main(["fuzz", "--replay", str(path)]) == 0
        output = capsys.readouterr().out
        assert "# recorded failure: [chase] recorded for the test" in output

    def test_invalid_fragment_is_a_parser_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--fragment", "guarded"])


class TestServeCommand:
    def test_parser_accepts_the_serving_flags(self):
        arguments = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--cache", "/tmp/cache",
                "--max-tenants", "8",
                "--backend", "sqlite",
                "--preload", "acme=S", "beta=U",
            ]
        )
        assert arguments.port == 0
        assert arguments.max_tenants == 8
        assert arguments.backend == "sqlite"
        assert arguments.preload == ["acme=S", "beta=U"]

    def test_bad_preload_spec_is_a_clean_error(self, capsys):
        assert main(["serve", "--port", "0", "--preload", "no-equals-sign"]) == 2
        assert "NAME=WORKLOAD" in capsys.readouterr().err

    def test_unknown_preload_workload_fails_before_binding(self, capsys):
        assert main(["serve", "--port", "0", "--preload", "acme=nope"]) == 2
        assert "preload acme=nope failed" in capsys.readouterr().err

    def test_unknown_backend_is_a_parser_error(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backend", "postgres"])


class TestResilienceFlags:
    def test_parser_accepts_the_resilience_flags(self):
        arguments = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--compile-timeout", "5.0",
                "--answer-timeout", "2.0",
                "--max-inflight-compiles", "4",
                "--queue-depth", "32",
                "--breaker-threshold", "2",
            ]
        )
        assert arguments.compile_timeout == 5.0
        assert arguments.answer_timeout == 2.0
        assert arguments.max_inflight_compiles == 4
        assert arguments.queue_depth == 32
        assert arguments.breaker_threshold == 2

    def test_resilience_defaults_match_the_config(self):
        from repro.serving.resilience import ResilienceConfig

        arguments = build_parser().parse_args(["serve", "--port", "0"])
        defaults = ResilienceConfig()
        assert arguments.compile_timeout == defaults.compile_timeout
        assert arguments.answer_timeout == defaults.answer_timeout
        assert arguments.max_inflight_compiles == defaults.max_inflight_compiles
        assert arguments.queue_depth == defaults.queue_depth
        assert arguments.breaker_threshold == defaults.breaker_threshold


class TestChaosCommand:
    def test_small_seeded_run_passes(self, tmp_path, capsys):
        assert main(
            ["chaos", "--seed", "11", "--cases", "1",
             "--repro-dir", str(tmp_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "chaos[0]" in output
        assert "# chaos: 1 cases, 1 ok, 0 failed (seed 11, epsilon 0.5s)" in output
        assert list(tmp_path.glob("*.json")) == []

    def test_quiet_suppresses_passing_case_lines(self, tmp_path, capsys):
        assert main(
            ["chaos", "--seed", "11", "--cases", "1", "--quiet",
             "--repro-dir", str(tmp_path)]
        ) == 0
        output = capsys.readouterr().out
        assert "chaos[0]" not in output
        assert "# chaos: 1 cases" in output

    def test_replay_of_a_clean_repro_passes(self, tmp_path, capsys):
        from repro.serving.chaos import CaseOutcome, write_chaos_repro

        path = write_chaos_repro(
            tmp_path / "case.json",
            seed=11,
            outcome=CaseOutcome(index=0, case_seed=0, fragment="linear", faults={}),
        )
        assert main(["chaos", "--replay", str(path)]) == 0
        assert "chaos[0]" in capsys.readouterr().out

    def test_replay_of_foreign_json_is_an_error(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"kind": "fuzz-repro"}')
        with pytest.raises(ValueError):
            main(["chaos", "--replay", str(path)])

    def test_chaos_parser_defaults(self):
        arguments = build_parser().parse_args(["chaos"])
        assert arguments.seed == 0
        assert arguments.cases == 10
        assert arguments.epsilon == 0.5
        assert arguments.repro_dir == "chaos-repros"


class TestAnswerExplain:
    def test_explain_prints_the_cost_ordered_plan(self, capsys):
        assert main(
            ["answer", "--workload", "S", "--query", "q1", "--explain"]
        ) == 0
        output = capsys.readouterr().out
        assert "backend: memory" in output
        assert "disjunct 0: cost ~" in output
        assert "matching rows" in output

    def test_explain_covers_both_backends(self, capsys):
        assert main(
            [
                "answer",
                "--workload",
                "S",
                "--query",
                "q1",
                "--backend",
                "both",
                "--explain",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "backend: memory" in output
        assert "backend: sqlite" in output
        assert "sql:" in output

    def test_explain_parser_default_is_off(self):
        arguments = build_parser().parse_args(["answer", "--workload", "S"])
        assert arguments.explain is False


class TestCompileCheckpointFlags:
    def test_checkpointed_compile_cleans_its_directory(self, tmp_path, capsys):
        directory = tmp_path / "batch"
        assert main(
            [
                "compile",
                "--workload",
                "S",
                "--checkpoint-dir",
                str(directory),
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "# compiled" in output
        # The batch completed, so every per-query frontier checkpoint was
        # cleared.
        assert not list(directory.glob("*.json"))

    def test_checkpoint_parser_defaults(self):
        arguments = build_parser().parse_args(["compile", "--workload", "S"])
        assert arguments.checkpoint_dir is None
