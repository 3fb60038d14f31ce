"""Unit tests for the interprocedural analysis engine.

Covers the two layers the deep rules stand on: call-graph resolution
(:mod:`repro.analysis.lint.callgraph`) and the per-function effect
summaries (:mod:`repro.analysis.lint.effects`).
"""

import ast
import textwrap

from repro.analysis.lint.callgraph import CallGraph, callgraph_of
from repro.analysis.lint.effects import (
    EffectsIndex,
    dtype_label,
    effects_of,
    infer_call_dtype,
    map_arguments,
)
from repro.analysis.lint.framework import Project


def project_of(tmp_path, files):
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return Project.load(tmp_path)


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_local_and_imported_calls_resolve(self, tmp_path):
        project = project_of(tmp_path, {
            "a.py": """\
                from b import helper as h

                def caller():
                    local()
                    h()

                def local():
                    pass
                """,
            "b.py": """\
                def helper():
                    pass
                """,
        })
        graph = callgraph_of(project)
        sites = graph.calls_from["a.py::caller"]
        callees = {c for s in sites for c in s.callees}
        assert callees == {"a.py::local", "b.py::helper"}
        assert not any(s.external for s in sites)
        assert "a.py::caller" in graph.callers_of["b.py::helper"]

    def test_self_method_and_constructor_dispatch(self, tmp_path):
        project = project_of(tmp_path, {
            "m.py": """\
                class Widget:
                    def __init__(self):
                        self.reset()

                    def reset(self):
                        pass

                def build():
                    w = Widget()
                    w.reset()
                    return w
                """,
        })
        graph = callgraph_of(project)
        init_sites = graph.calls_from["m.py::Widget.__init__"]
        assert init_sites[0].callees == ("m.py::Widget.reset",)
        build_callees = {
            c for s in graph.calls_from["m.py::build"] for c in s.callees
        }
        # Widget() dispatches to __init__, w.reset() by receiver class
        assert build_callees == {
            "m.py::Widget.__init__", "m.py::Widget.reset",
        }

    def test_annotation_receiver_dispatch(self, tmp_path):
        project = project_of(tmp_path, {
            "m.py": """\
                class Store:
                    def get(self):
                        return 1

                def read(store: "Store"):
                    return store.get()
                """,
        })
        graph = callgraph_of(project)
        sites = graph.calls_from["m.py::read"]
        assert sites[0].callees == ("m.py::Store.get",)
        assert not sites[0].external

    def test_unknown_callee_is_external(self, tmp_path):
        project = project_of(tmp_path, {
            "m.py": """\
                import numpy as np

                def f(x):
                    return np.zeros(x)
                """,
        })
        graph = callgraph_of(project)
        sites = graph.calls_from["m.py::f"]
        assert sites[0].external
        assert sites[0].callees == ()

    def test_base_class_method_resolution(self, tmp_path):
        project = project_of(tmp_path, {
            "m.py": """\
                class Base:
                    def shared(self):
                        pass

                class Child(Base):
                    def run(self):
                        self.shared()
                """,
        })
        graph = callgraph_of(project)
        sites = graph.calls_from["m.py::Child.run"]
        assert sites[0].callees == ("m.py::Base.shared",)

    def test_reachable_from_is_transitive(self, tmp_path):
        project = project_of(tmp_path, {
            "m.py": """\
                def a():
                    b()

                def b():
                    c()

                def c():
                    pass

                def unrelated():
                    pass
                """,
        })
        graph = callgraph_of(project)
        reached = graph.reachable_from({"m.py::a"})
        assert reached == {"m.py::a", "m.py::b", "m.py::c"}

    def test_resolve_name_follows_import_alias(self, tmp_path):
        project = project_of(tmp_path, {
            "a.py": "from b import worker as w\n",
            "b.py": "def worker():\n    pass\n",
        })
        graph = callgraph_of(project)
        module = project.by_rel_path["a.py"]
        assert graph.resolve_name(module, "w") == ("b.py::worker",)

    def test_memoized_on_project_cache(self, tmp_path):
        project = project_of(tmp_path, {"m.py": "def f():\n    pass\n"})
        assert callgraph_of(project) is callgraph_of(project)
        assert isinstance(project.cache["callgraph"], CallGraph)


# ----------------------------------------------------------------------
# effect summaries
# ----------------------------------------------------------------------
class TestEffects:
    def test_options_param_and_fields(self, tmp_path):
        project = project_of(tmp_path, {
            "m.py": """\
                def leaf(graph, options=None):
                    if options.budget:
                        return options.budget
                    return options.num_ranks
                """,
        })
        fx = effects_of(project).by_qname["m.py::leaf"]
        assert fx.options_param == "options"
        assert fx.options_fields == {"budget", "num_ranks"}

    def test_param_reads_and_writes(self, tmp_path):
        project = project_of(tmp_path, {
            "m.py": """\
                def f(state):
                    x = state.role_mask
                    state.vertex_active = x
                    state.edge_alive[0] = False
                """,
        })
        fx = effects_of(project).by_qname["m.py::f"]
        assert "role_mask" in fx.param_reads["state"]
        assert fx.param_writes["state"] == {"vertex_active", "edge_alive"}

    def test_return_dtype_through_helper(self, tmp_path):
        project = project_of(tmp_path, {
            "m.py": """\
                import numpy as np

                def floats(n):
                    return np.zeros(n)

                def ints(n):
                    return np.zeros(n, dtype=np.int64)

                def chained(n):
                    out = floats(n)
                    return out

                def divided(a, b):
                    return a / b
                """,
        })
        effects = effects_of(project)
        assert effects.by_qname["m.py::floats"].return_dtype == "float"
        assert effects.by_qname["m.py::ints"].return_dtype == "int"
        assert effects.by_qname["m.py::chained"].return_dtype == "float"
        assert effects.by_qname["m.py::divided"].return_dtype == "float"

    def test_unrecognized_dtype_keyword_is_unknown(self):
        call = ast.parse("np.zeros(n, dtype=_U64)", mode="eval").body
        assert infer_call_dtype(call) is None
        bare = ast.parse("np.zeros(n)", mode="eval").body
        assert infer_call_dtype(bare) == "float"

    def test_dtype_label_families(self):
        cases = {
            "np.int64": "int",
            "np.uint64": "uint",
            "np.float32": "float",
            "float": "float",
            "object": "object",
            "bool": "bool",
        }
        for source, expected in cases.items():
            node = ast.parse(source, mode="eval").body
            assert dtype_label(node) == expected, source

    def test_map_arguments_positional_and_keyword(self, tmp_path):
        project = project_of(tmp_path, {
            "m.py": """\
                def callee(a, b, c=None):
                    pass

                def caller(x, y, z):
                    callee(x, b=y, c=z)
                """,
        })
        graph = callgraph_of(project)
        site = graph.calls_from["m.py::caller"][0]
        callee = graph.functions["m.py::callee"]
        mapped = {
            param: arg.id for arg, param in map_arguments(site.node, callee)
        }
        assert mapped == {"a": "x", "b": "y", "c": "z"}

    def test_memoized_on_project_cache(self, tmp_path):
        project = project_of(tmp_path, {"m.py": "def f():\n    pass\n"})
        assert effects_of(project) is effects_of(project)
        assert isinstance(project.cache["effects"], EffectsIndex)
