"""Fixture-driven tests for the repro-lint framework and its rules.

Each rule gets at least one seeded-failure snippet (must fire) and one
corrected snippet (must stay silent); on top of that the suite covers
suppression comments, baseline round-trips, and a self-check that the
shipped ``src/repro`` tree is clean modulo the committed baseline.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import Baseline, all_rules, main, run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src" / "repro"
COMMITTED_BASELINE = REPO_ROOT / "lint-baseline.json"


def lint_files(root, files, rules=None, baseline=None):
    """Write ``files`` (name -> source) under ``root`` and lint them."""
    paths = []
    for name, source in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        paths.append(path)
    return run_lint(root, rule_ids=rules, baseline=baseline, paths=paths)


def rules_fired(report):
    return {violation.rule for violation in report.violations}


class TestRegistry:
    def test_all_nine_rules_registered(self):
        # R4 (fallback parity) is retired: its dispatch switches are gone;
        # R6, R9 and R11 guarded the deleted process pool
        assert set(all_rules()) == {
            "R1", "R2", "R3", "R5", "R7", "R8", "R10", "R12", "R13",
        }

    def test_deep_tier_split(self):
        registry = all_rules()
        deep = {rule_id for rule_id, rule in registry.items() if rule.deep}
        assert deep == {"R10", "R12", "R13"}

    def test_default_run_excludes_deep_rules(self, tmp_path):
        report = run_lint(tmp_path)
        assert not any(r in report.rules_run for r in ("R10", "R12", "R13"))
        deep_report = run_lint(tmp_path, deep=True)
        assert set(deep_report.rules_run) == set(all_rules())

    def test_rules_run_in_natural_order(self, tmp_path):
        report = run_lint(tmp_path, deep=True)
        assert report.rules_run == [
            "R1", "R2", "R3", "R5", "R7", "R8", "R10", "R12", "R13",
        ]

    def test_rules_carry_rationales(self):
        for rule in all_rules().values():
            assert rule.title
            assert rule.rationale

    def test_deep_rules_carry_explain_material(self):
        for rule in all_rules().values():
            if rule.deep:
                assert rule.contract
                assert rule.example_bad
                assert rule.example_good

    def test_unknown_rule_id_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            run_lint(tmp_path, rule_ids=["R99"])


class TestR1OptionalIntTruthiness:
    def test_seed_field_truthiness_fires(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            def f(options):
                if options.reload_ranks:
                    return 1
                return 0
            """}, rules=["R1"])
        assert rules_fired(report) == {"R1"}
        assert "reload_ranks" in report.violations[0].message

    def test_or_default_on_annotated_param_fires(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            from typing import Optional

            def g(ranks_per_node: Optional[int] = None):
                return ranks_per_node or 4
            """}, rules=["R1"])
        assert rules_fired(report) == {"R1"}

    def test_annotated_options_field_fires(self, tmp_path):
        report = lint_files(tmp_path, {"knobs.py": """\
            from typing import Optional

            class TunerOptions:
                budget: Optional[int] = None

            def h(options):
                while options.budget:
                    pass
            """}, rules=["R1"])
        assert rules_fired(report) == {"R1"}

    def test_explicit_none_compare_is_clean(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            def f(options):
                if options.reload_ranks is not None:
                    return 1
                if options.reload_ranks is not None and options.reload_ranks != 0:
                    return 2
                return 0
            """}, rules=["R1"])
        assert report.clean

    def test_value_position_last_operand_is_clean(self, tmp_path):
        # ``a if ... else b`` / trailing ``or default`` operands are
        # results, not truth tests.
        report = lint_files(tmp_path, {"helpers.py": """\
            def f(options, flag):
                return options.num_ranks if flag else options.reload_ranks
            """}, rules=["R1"])
        assert report.clean


class TestR2OptionsThreading:
    def test_unconsumed_field_fires(self, tmp_path):
        report = lint_files(tmp_path, {
            "pipeline.py": """\
                from dataclasses import dataclass

                @dataclass
                class PipelineOptions:
                    num_ranks: int = 4
                    dead_knob: bool = False
                """,
            "naive.py": """\
                def use(options):
                    return options.num_ranks
                """,
        }, rules=["R2"])
        assert rules_fired(report) == {"R2"}
        assert any("dead_knob" in v.message for v in report.violations)

    def test_threaded_options_are_clean(self, tmp_path):
        report = lint_files(tmp_path, {
            "pipeline.py": """\
                from dataclasses import dataclass

                @dataclass
                class PipelineOptions:
                    num_ranks: int = 4
                    verification: bool = True
                """,
            "naive.py": """\
                def use(options):
                    return (options.num_ranks, options.verification)
                """,
        }, rules=["R2"])
        assert report.clean


class TestR3TracerGuard:
    def test_unguarded_span_add_fires(self, tmp_path):
        report = lint_files(tmp_path, {"lcc.py": """\
            def prune(engine, state):
                tracer = engine.tracer
                with tracer.span("lcc") as span:
                    pass
                span.add(pruned=1)
            """}, rules=["R3"])
        assert rules_fired(report) == {"R3"}

    def test_enabled_guard_is_clean(self, tmp_path):
        report = lint_files(tmp_path, {"lcc.py": """\
            def prune(engine, state):
                tracer = engine.tracer
                with tracer.span("lcc") as span:
                    pass
                if tracer.enabled:
                    span.add(pruned=1)
                tracing = tracer.enabled
                if tracing:
                    span.add(extra=2)
            """}, rules=["R3"])
        assert report.clean

    def test_only_hot_modules_checked(self, tmp_path):
        report = lint_files(tmp_path, {"report_helpers.py": """\
            def summarize(engine):
                tracer = engine.tracer
                with tracer.span("summary") as span:
                    pass
                span.add(rows=3)
            """}, rules=["R3"])
        assert report.clean


class TestR5HotLoopHygiene:
    def test_python_loop_over_csr_array_fires(self, tmp_path):
        report = lint_files(tmp_path, {"kernels.py": """\
            def scan(csr):
                total = 0
                for v in csr.indices:
                    total += v
                return total
            """}, rules=["R5"])
        assert rules_fired(report) == {"R5"}

    def test_np_append_in_loop_fires(self, tmp_path):
        report = lint_files(tmp_path, {"arraystate/fixpoint.py": """\
            import numpy as np

            def grow():
                out = np.array([], dtype=float)
                for i in range(3):
                    out = np.append(out, [i])
                return out
            """}, rules=["R5"])
        assert rules_fired(report) == {"R5"}

    def test_object_dtype_fires(self, tmp_path):
        report = lint_files(tmp_path, {"nlcc.py": """\
            import numpy as np

            def frontier():
                return np.empty(4, dtype=object)
            """}, rules=["R5"])
        assert rules_fired(report) == {"R5"}

    def test_vectorized_code_is_clean(self, tmp_path):
        report = lint_files(tmp_path, {"kernels.py": """\
            import numpy as np

            def scan(csr, rows):
                total = int(csr.indices.sum())
                for row in rows.tolist():
                    total += row
                return total + int(np.count_nonzero(csr.vertex_active))
            """}, rules=["R5"])
        assert report.clean

    def test_cold_modules_not_checked(self, tmp_path):
        report = lint_files(tmp_path, {"report_helpers.py": """\
            def scan(csr):
                return [v for v in csr.indices]
            """}, rules=["R5"])
        assert report.clean

    def test_every_array_backend_module_is_hot(self, tmp_path):
        # the package's modules are hot by directory, whatever their
        # names; core/state.py, beside it, stays cold
        loop = """\
            def scan(csr):
                total = 0
                for v in csr.indices:
                    total += v
                return total
            """
        report = lint_files(tmp_path, {
            "core/arraystate/fixpoint.py": loop,
            "core/arraystate/walk.py": loop,
            "core/state.py": loop,
        }, rules=["R5"])
        assert rules_fired(report) == {"R5"}
        assert sorted(v.path for v in report.violations) == [
            "core/arraystate/fixpoint.py", "core/arraystate/walk.py",
        ]


class TestR7BatchedTemplateExecution:
    def test_pipeline_loop_over_templates_fires(self, tmp_path):
        report = lint_files(tmp_path, {"census.py": """\
            def census(graph, templates, options, run_pipeline):
                results = []
                for template in templates:
                    results.append(run_pipeline(graph, template, 0, options))
                return results
            """}, rules=["R7"])
        assert rules_fired(report) == {"R7"}
        assert "core/batch.py" in report.violations[0].message

    def test_templateish_iterable_fires(self, tmp_path):
        # the hint can sit on the iterated expression instead of the target
        report = lint_files(tmp_path, {"sweep.py": """\
            def sweep(graph, library, options, run_pipeline):
                for entry in library.motif_queries:
                    run_pipeline(graph, entry.template, entry.k, options)
            """}, rules=["R7"])
        assert rules_fired(report) == {"R7"}

    def test_non_template_loop_is_clean(self, tmp_path):
        # repeating one search across seeds is not a template sweep
        report = lint_files(tmp_path, {"repeat.py": """\
            def repeat(graph, t, options, seeds, run_pipeline):
                for seed in seeds:
                    run_pipeline(graph, t, 0, options, seed=seed)
            """}, rules=["R7"])
        assert report.clean

    def test_loop_without_run_pipeline_is_clean(self, tmp_path):
        report = lint_files(tmp_path, {"compile.py": """\
            def compile_all(templates, compile_kernel):
                return [compile_kernel(t.graph) for t in templates]

            def walk(templates, visit):
                for template in templates:
                    visit(template)
            """}, rules=["R7"])
        assert report.clean

    def test_batch_executor_module_is_exempt(self, tmp_path):
        report = lint_files(tmp_path, {"batch.py": """\
            def run_batch(graph, queries, options, run_pipeline):
                for query in queries:
                    run_pipeline(graph, query.template, query.k, options)
            """}, rules=["R7"])
        assert report.clean

    def test_suppression_comment_is_honored(self, tmp_path):
        report = lint_files(tmp_path, {"census.py": """\
            def census(graph, templates, options, run_pipeline):
                # the sequential baseline the benchmark measures against
                for template in templates:  # repro-lint: ignore[R7]
                    run_pipeline(graph, template, 0, options)
            """}, rules=["R7"])
        assert report.clean
        assert report.suppressed == 1


class TestR8MetricAccumulation:
    def test_dict_counter_augassign_fires(self, tmp_path):
        # the kernels.py bug class: a module-level stats dict
        report = lint_files(tmp_path, {"kernels.py": """\
            _CACHE_STATS = {"hits": 0, "misses": 0}

            def cached(key, cache, build):
                if key in cache:
                    _CACHE_STATS["hits"] += 1
                    return cache[key]
                _CACHE_STATS["misses"] += 1
                cache[key] = build(key)
                return cache[key]
            """}, rules=["R8"])
        assert rules_fired(report) == {"R8"}
        assert len(report.violations) == 2
        assert "metrics.counter" in report.violations[0].message

    def test_attribute_counter_augassign_fires(self, tmp_path):
        report = lint_files(tmp_path, {"nlcc.py": """\
            def check(cache, result):
                cache.hits += len(result.recycled)
            """}, rules=["R8"])
        assert rules_fired(report) == {"R8"}

    def test_registry_handle_is_clean(self, tmp_path):
        report = lint_files(tmp_path, {"kernels.py": """\
            def cached(key, cache, build, metrics):
                hits = metrics.counter("cache.kernel.hits")
                if key in cache:
                    hits.inc()
                    return cache[key]
                metrics.counter("cache.kernel.misses").inc()
                cache[key] = build(key)
                return cache[key]
            """}, rules=["R8"])
        assert report.clean

    def test_non_metric_accumulation_is_clean(self, tmp_path):
        # ordinary accumulators (offsets, degrees) are not metrics
        report = lint_files(tmp_path, {"arraystate/accounting.py": """\
            def fold(totals, rows):
                for row in rows:
                    totals["offset"] += row
                    totals.seen += 1
            """}, rules=["R8"])
        assert report.clean

    def test_only_hot_modules_checked(self, tmp_path):
        # the dict-state NlccCache (state.py) keeps its plain counters
        report = lint_files(tmp_path, {"state.py": """\
            class NlccCache:
                def record(self, recycled):
                    self.hits += recycled
            """}, rules=["R8"])
        assert report.clean


class TestSuppression:
    def test_inline_suppression(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            def f(options):
                if options.reload_ranks:  # repro-lint: ignore[R1]
                    return 1
                return 0
            """}, rules=["R1"])
        assert report.clean
        assert report.suppressed == 1

    def test_comment_line_above(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            def f(options):
                # repro-lint: ignore[R1]
                if options.reload_ranks:
                    return 1
                return 0
            """}, rules=["R1"])
        assert report.clean
        assert report.suppressed == 1

    def test_suppression_is_rule_specific(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            def f(options):
                if options.reload_ranks:  # repro-lint: ignore[R3]
                    return 1
                return 0
            """}, rules=["R1"])
        assert rules_fired(report) == {"R1"}

    def test_bare_ignore_suppresses_everything(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            def f(options):
                if options.reload_ranks:  # repro-lint: ignore
                    return 1
                return 0
            """}, rules=["R1"])
        assert report.clean

    def test_multiline_statement_first_line_comment(self, tmp_path):
        # the violation anchors to the continuation line; the trailing
        # comment on the statement's *first* line must cover it
        report = lint_files(tmp_path, {"helpers.py": """\
            def f(options):
                if (options.max_prototypes is not None  # repro-lint: ignore[R1]
                        and options.reload_ranks):
                    return 1
                return 0
            """}, rules=["R1"])
        assert report.clean, [v.render() for v in report.violations]
        assert report.suppressed == 1

    def test_multiline_statement_comment_line_above(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            def f(options):
                # repro-lint: ignore[R1]
                if (options.max_prototypes is not None
                        and options.reload_ranks):
                    return 1
                return 0
            """}, rules=["R1"])
        assert report.clean, [v.render() for v in report.violations]
        assert report.suppressed == 1

    def test_multiline_suppression_stays_rule_specific(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            def f(options):
                if (options.max_prototypes is not None  # repro-lint: ignore[R3]
                        and options.reload_ranks):
                    return 1
                return 0
            """}, rules=["R1"])
        assert rules_fired(report) == {"R1"}


class TestBaseline:
    def _dirty_report(self, tmp_path):
        return lint_files(tmp_path, {"helpers.py": """\
            def f(options):
                if options.reload_ranks:
                    return 1
                if options.max_prototypes:
                    return 2
                return 0
            """}, rules=["R1"])

    def test_round_trip_silences_known_findings(self, tmp_path):
        report = self._dirty_report(tmp_path)
        assert len(report.violations) == 2
        baseline = Baseline.from_violations(report.violations)
        path = tmp_path / "base.json"
        baseline.save(path)
        reloaded = Baseline.load(path)
        again = run_lint(
            tmp_path, rule_ids=["R1"], baseline=reloaded,
            paths=[tmp_path / "helpers.py"],
        )
        assert again.clean
        assert len(again.baselined) == 2

    def test_baseline_is_line_content_keyed(self, tmp_path):
        report = self._dirty_report(tmp_path)
        baseline = Baseline.from_violations(report.violations)
        # a *new* violation on a different source line is not absorbed
        (tmp_path / "helpers.py").write_text(textwrap.dedent("""\
            def f(options):
                if options.reload_ranks:
                    return 1
                if options.max_prototypes:
                    return 2
                if options.distinct_matches:
                    return 3
                return 0
            """))
        again = run_lint(
            tmp_path, rule_ids=["R1"], baseline=baseline,
            paths=[tmp_path / "helpers.py"],
        )
        assert len(again.violations) == 1
        assert "distinct_matches" in again.violations[0].message
        assert len(again.baselined) == 2

    def test_saved_file_is_versioned_json(self, tmp_path):
        report = self._dirty_report(tmp_path)
        path = tmp_path / "base.json"
        Baseline.from_violations(report.violations).save(path)
        document = json.loads(path.read_text())
        assert document["version"] == 1
        assert all({"rule", "path", "snippet", "count"} <= set(e)
                   for e in document["entries"])

    def test_saved_file_is_byte_stable_and_sorted(self, tmp_path):
        report = self._dirty_report(tmp_path)
        forward = tmp_path / "forward.json"
        Baseline.from_violations(report.violations).save(forward)
        # same findings in reverse insertion order -> identical bytes
        backward = tmp_path / "backward.json"
        Baseline.from_violations(
            list(reversed(report.violations))
        ).save(backward)
        assert forward.read_bytes() == backward.read_bytes()
        # a load/save round trip is also byte-stable
        roundtrip = tmp_path / "roundtrip.json"
        Baseline.load(forward).save(roundtrip)
        assert roundtrip.read_bytes() == forward.read_bytes()
        document = json.loads(forward.read_text())
        keys = [(e["rule"], e["path"], e["snippet"])
                for e in document["entries"]]
        assert keys == sorted(keys)


class TestParseResilience:
    def test_syntax_error_becomes_finding_not_crash(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = run_lint(tmp_path, paths=[tmp_path / "broken.py"])
        assert [v.rule for v in report.violations] == ["parse"]


class TestRunnerCli:
    def _seed(self, tmp_path):
        target = tmp_path / "helpers.py"
        target.write_text(textwrap.dedent("""\
            def f(options):
                if options.reload_ranks:
                    return 1
                return 0
            """))
        return target

    def test_exit_one_on_findings(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main([str(tmp_path)]) == 1
        assert "R1" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main([str(tmp_path), "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["new"] == 1
        assert document["summary"]["by_rule"] == {"R1": 1}

    def test_rule_filter(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main([str(tmp_path), "--rule", "R3"]) == 0
        capsys.readouterr()

    def test_write_then_check_baseline(self, tmp_path, capsys):
        self._seed(tmp_path)
        base = tmp_path / "base.json"
        assert main([
            str(tmp_path), "--baseline", str(base), "--write-baseline",
        ]) == 0
        capsys.readouterr()
        assert main([str(tmp_path), "--baseline", str(base)]) == 0
        assert "baselined" in capsys.readouterr().out

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        self._seed(tmp_path)
        code = main([str(tmp_path), "--baseline", str(tmp_path / "no.json")])
        assert code == 2
        assert "baseline" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main([str(tmp_path), "--rule", "R99"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("R1", "R2", "R3", "R5"):
            assert rule_id in out
        assert "R13 [deep]" in out

    def test_explain_prints_contract_and_examples(self, capsys):
        assert main(["--explain", "R10"]) == 0
        out = capsys.readouterr().out
        assert "resident-state-immutability" in out
        assert "contract:" in out
        assert "bad:" in out
        assert "good:" in out

    def test_explain_shallow_rule_falls_back_to_docstring(self, capsys):
        assert main(["--explain", "R1"]) == 0
        out = capsys.readouterr().out
        assert "R1" in out
        assert "contract:" in out

    def test_explain_unknown_rule_is_usage_error(self, capsys):
        assert main(["--explain", "R99"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_deep_flag_runs_interprocedural_rules(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main([str(tmp_path), "--deep", "--json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert "R10" in document["rules_run"]
        assert "R13" in document["rules_run"]


class TestSelfCheck:
    """The shipped tree must satisfy its own linter."""

    def test_src_repro_is_clean_modulo_baseline(self):
        baseline = Baseline.load(COMMITTED_BASELINE)
        report = run_lint(REPO_SRC, baseline=baseline)
        assert report.clean, [v.to_json() for v in report.violations]

    def test_baseline_has_no_r1_or_r3_debt(self):
        document = json.loads(COMMITTED_BASELINE.read_text())
        rules = {entry["rule"] for entry in document["entries"]}
        assert not rules & {"R1", "R3"}
