"""Fixture-driven tests for the interprocedural rules R10, R12 and R13.

Two layers: the committed known-bad files under
``tests/analysis/fixtures/`` (shared with the CI analyzer self-check)
must each fire their rule, and inline tmp-path snippets pin down the
per-rule edge cases — construction exemptions, interprocedural dtype
propagation, transitive options neediness.  A final self-check runs the full deep pass over the
shipped ``src/repro`` tree, which must be clean.
"""

import textwrap
from pathlib import Path

from repro.analysis.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
REPO_SRC = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

DEEP_RULES = ("R10", "R12", "R13")

FIXTURE_FOR_RULE = {
    "R10": "bad_resident_mutation.py",
    "R12": "bad_dtype_escape.py",
    "R13": "bad_options_drop.py",
}


def lint_files(root, files, rules=None):
    paths = []
    for name, source in files.items():
        path = root / name
        path.write_text(textwrap.dedent(source))
        paths.append(path)
    return run_lint(root, rule_ids=rules, paths=paths)


def rules_fired(report):
    return {violation.rule for violation in report.violations}


def lines_flagged(report, rule):
    return sorted(
        violation.line for violation in report.violations
        if violation.rule == rule
    )


class TestFixtureFiles:
    """The committed fixtures drive both pytest and the CI self-check."""

    def test_every_deep_rule_fires_on_its_fixture(self):
        for rule, name in FIXTURE_FOR_RULE.items():
            path = FIXTURES / name
            report = run_lint(FIXTURES, rule_ids=[rule], paths=[path])
            fired = rules_fired(report)
            assert fired == {rule}, f"{name}: expected {rule}, got {fired}"

    def test_fixture_directory_full_deep_run(self):
        report = run_lint(FIXTURES, deep=True)
        assert set(DEEP_RULES) <= rules_fired(report)

    def test_ok_functions_stay_silent(self):
        # every fixture also carries corrected ok_* code; none of the
        # violations may anchor inside it
        report = run_lint(FIXTURES, deep=True)
        for violation in report.violations:
            source = (FIXTURES / violation.path).read_text().splitlines()
            enclosing = [
                line for line in source[:violation.line]
                if line.startswith("def ")
            ]
            assert not (
                enclosing and enclosing[-1].startswith("def ok_")
            ), violation.render()


class TestR10ResidentImmutability:
    def test_memoized_csr_store_fires(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            from repro.core.arraystate import csr_of

            def f(graph):
                csr = csr_of(graph)
                csr.degrees[0] = 1
            """}, rules=["R10"])
        assert rules_fired(report) == {"R10"}

    def test_annotated_param_store_fires(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            def f(csr: "GraphCsr"):
                csr.indptr = None
            """}, rules=["R10"])
        assert rules_fired(report) == {"R10"}

    def test_construction_scope_is_exempt(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            from repro.core.arraystate import GraphCsr

            def induced(parent):
                view = GraphCsr.__new__(GraphCsr)
                view.indptr = parent.sliced_indptr()
                view.indptr.setflags(write=False)
                return view
            """}, rules=["R10"])
        assert report.clean, [v.render() for v in report.violations]

    def test_column_constructor_is_construction_scope(self, tmp_path):
        # GraphCsr.from_columns: a static constructor inside the class
        # fills and freezes a local it allocated, in-place stores included
        report = lint_files(tmp_path, {"csr.py": """            import numpy as np

            class GraphCsr:
                @staticmethod
                def from_columns(order, src, dst):
                    csr = GraphCsr.__new__(GraphCsr)
                    csr.order = order
                    csr.edge_label_codes = np.zeros(src.shape[0], dtype=np.int64)
                    csr.edge_label_codes[dst] = 1
                    csr.order.flags.writeable = False
                    return csr
            """}, rules=["R10"])
        assert report.clean, [v.render() for v in report.violations]

    def test_column_constructor_result_is_resident(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """            from repro.graph.csr import GraphCsr

            def f(order, src, dst, labels):
                csr = GraphCsr.from_columns(order, src, dst, labels)
                csr.degrees[0] = 1
            """}, rules=["R10"])
        assert rules_fired(report) == {"R10"}

    def test_shipped_csr_module_is_clean(self):
        path = REPO_SRC / "graph" / "csr.py"
        report = run_lint(REPO_SRC, rule_ids=["R5", "R10", "R12"], paths=[path])
        assert report.clean, [v.render() for v in report.violations]

    def test_refreeze_allowed_thaw_fires(self, tmp_path):
        report = lint_files(tmp_path, {"helpers.py": """\
            from repro.core.arraystate import csr_of

            def f(graph):
                csr = csr_of(graph)
                csr.indptr.flags.writeable = False
                csr.indices.flags.writeable = True
            """}, rules=["R10"])
        assert len(report.violations) == 1
        assert "thaw" in report.violations[0].message

    def test_mutable_search_state_untouched(self, tmp_path):
        # ArraySearchState is mutable by design; R10 must not flag it
        report = lint_files(tmp_path, {"helpers.py": """\
            from repro.core.arraystate import ArraySearchState

            def f(state: "ArraySearchState"):
                state.role_mask[0] = 3
                state.vertex_active[1] = False
            """}, rules=["R10"])
        assert report.clean


class TestR12DtypeContract:
    def test_float_default_into_int_slot_fires(self, tmp_path):
        report = lint_files(tmp_path, {"build.py": """\
            import numpy as np
            from repro.core.arraystate import GraphCsr

            def build(n, indptr, indices):
                degrees = np.zeros(n)
                return GraphCsr(
                    indptr=indptr, indices=indices, degrees=degrees
                )
            """}, rules=["R12"])
        assert rules_fired(report) == {"R12"}
        assert "degrees" in report.violations[0].message

    def test_interprocedural_float_return_fires(self, tmp_path):
        report = lint_files(tmp_path, {"build.py": """\
            import numpy as np
            from repro.core.arraystate import GraphCsr

            def make(n):
                return np.zeros(n)

            def build(n, indptr, indices):
                degrees = make(n)
                return GraphCsr(
                    indptr=indptr, indices=indices, degrees=degrees
                )
            """}, rules=["R12"])
        assert rules_fired(report) == {"R12"}

    def test_explicit_int_dtype_is_clean(self, tmp_path):
        report = lint_files(tmp_path, {"build.py": """\
            import numpy as np
            from repro.core.arraystate import GraphCsr

            def build(n, indptr, indices):
                degrees = np.zeros(n, dtype=np.int64)
                return GraphCsr(
                    indptr=indptr, indices=indices, degrees=degrees
                )
            """}, rules=["R12"])
        assert report.clean, [v.render() for v in report.violations]

    def test_module_alias_dtype_is_not_flagged(self, tmp_path):
        # dtype=_U64 is unrecognized, not float — must stay silent
        report = lint_files(tmp_path, {"build.py": """\
            import numpy as np
            from repro.core.arraystate import GraphCsr

            _U64 = np.uint64

            def build(n, indptr, indices):
                degrees = np.zeros(n, dtype=_U64)
                return GraphCsr(
                    indptr=indptr, indices=indices, degrees=degrees
                )
            """}, rules=["R12"])
        assert report.clean, [v.render() for v in report.violations]

    def test_object_dtype_escape_fires(self, tmp_path):
        report = lint_files(tmp_path, {"build.py": """\
            import numpy as np

            def boxes(n):
                return np.empty(n, dtype=object)
            """}, rules=["R12"])
        assert rules_fired(report) == {"R12"}
        assert "object" in report.violations[0].message

    def test_float_index_fires(self, tmp_path):
        report = lint_files(tmp_path, {"build.py": """\
            def pick(order, n):
                mid = n / 2
                return order[mid]
            """}, rules=["R12"])
        assert rules_fired(report) == {"R12"}

    def test_floor_division_index_is_clean(self, tmp_path):
        report = lint_files(tmp_path, {"build.py": """\
            def pick(order, n):
                mid = n // 2
                return order[mid]
            """}, rules=["R12"])
        assert report.clean


class TestR13OptionsThreading:
    def test_dropped_options_through_chain_fires(self, tmp_path):
        report = lint_files(tmp_path, {"drivers.py": """\
            def leaf(graph, options=None):
                if options is not None and options.budget is not None:
                    return options.budget
                return 0

            def middle(graph, options=None):
                return leaf(graph, options=options)

            def driver(graph, options):
                return middle(graph)
            """}, rules=["R13"])
        assert rules_fired(report) == {"R13"}
        assert "middle" in report.violations[0].message

    def test_forwarded_options_is_clean(self, tmp_path):
        report = lint_files(tmp_path, {"drivers.py": """\
            def leaf(graph, options=None):
                if options is not None and options.budget is not None:
                    return options.budget
                return 0

            def driver(graph, options):
                return leaf(graph, options=options)
            """}, rules=["R13"])
        assert report.clean, [v.render() for v in report.violations]

    def test_positional_forwarding_is_clean(self, tmp_path):
        report = lint_files(tmp_path, {"drivers.py": """\
            def leaf(graph, options=None):
                return options.budget if options else 0

            def driver(graph, options):
                return leaf(graph, options)
            """}, rules=["R13"])
        assert report.clean, [v.render() for v in report.violations]

    def test_callee_ignoring_options_is_clean(self, tmp_path):
        # the callee has an options param but never reads a field —
        # dropping it changes nothing observable
        report = lint_files(tmp_path, {"drivers.py": """\
            def helper(graph, options=None):
                return graph

            def driver(graph, options):
                return helper(graph)
            """}, rules=["R13"])
        assert report.clean, [v.render() for v in report.violations]

    def test_caller_without_options_in_scope_is_clean(self, tmp_path):
        # nothing to forward: the caller never had options
        report = lint_files(tmp_path, {"drivers.py": """\
            def leaf(graph, options=None):
                return options.budget if options else 0

            def entry(graph):
                return leaf(graph)
            """}, rules=["R13"])
        assert report.clean, [v.render() for v in report.violations]


class TestDeepSelfCheck:
    """The shipped tree must satisfy its own interprocedural analyzer."""

    def test_src_repro_deep_run_is_clean(self):
        report = run_lint(REPO_SRC, deep=True)
        assert report.clean, [v.to_json() for v in report.violations]
