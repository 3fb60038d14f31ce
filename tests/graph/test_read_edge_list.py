"""The column reader and the graph facade it returns.

``read_edge_list`` parses a file into integer columns, builds the CSR
from them and returns a :class:`Graph` *over* that CSR.  Guards:

* (a) differential — the reader equals :class:`GraphBuilder` fed the same
  lines one by one (today's reader, before it was vectorised), vertex
  order included, on files full of the things ingest files contain;
* (b) typed failures — every malformed input raises ``GraphError`` naming
  ``path:line``; no ``ValueError`` escapes;
* (c) the facade — sizes and label counts answer from the arrays, every
  dict consumer sees the graph the builder would have built, and a
  mutator's first touch builds the dicts before it lets the CSR go;
* (d) the default drivers never build the dicts of a loaded graph, and a
  reference-backend run on the same graph still returns the brute-force
  answer.
"""

import pickle

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.core import (
    PatternTemplate,
    PipelineOptions,
    count_motifs,
    csr_of,
    exploratory_search,
    run_pipeline,
)
from repro.errors import GraphError
from repro.graph import GraphBuilder, read_edge_list, read_label_file
from repro.graph.csr import GraphCsr
from repro.graph.generators import planted_graph
from repro.graph.graph import Graph, canonical_edge
from repro.graph.io import write_edge_list, write_labels
from repro.graph.isomorphism import find_subgraph_isomorphisms

IDS = st.integers(-3, 9)
SLOW = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


# ----------------------------------------------------------------------
# (a) differential against the line-at-a-time builder
# ----------------------------------------------------------------------
edge_rows = st.tuples(IDS, IDS, st.one_of(st.none(), st.integers(0, 3)))
noise_rows = st.sampled_from(["", "   ", "# 1 2", "#", "\t# u v label"])


@st.composite
def rendered(draw, rows):
    """``rows`` as file bytes, in the layouts real files come in."""
    out = []
    for row in rows:
        if isinstance(row, str):
            body = row
        else:
            gap = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
            body = draw(st.sampled_from(["", " ", "\t"])) + gap.join(
                str(field) for field in row if field is not None
            ) + draw(st.sampled_from(["", " "]))
        out.append(body + draw(st.sampled_from(["\n", "\r\n"])))
    text = "".join(out)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no trailing newline
    return text.encode()


@st.composite
def edge_files(draw):
    rows = draw(st.lists(st.one_of(edge_rows, noise_rows), max_size=25))
    label_rows = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.one_of(st.tuples(st.integers(-3, 12), st.integers(0, 4)),
                          noise_rows),
                max_size=15,
            ),
        )
    )
    return (
        rows, draw(rendered(rows)),
        label_rows, None if label_rows is None else draw(rendered(label_rows)),
    )


def built_line_by_line(rows, label_rows):
    builder = GraphBuilder()
    for row in rows:
        if not isinstance(row, str):
            builder.add_edge(row[0], row[1], edge_label=row[2])
    if label_rows is not None:
        labels = {}
        for row in label_rows:
            if not isinstance(row, str):
                labels[row[0]] = row[1]
        builder.set_labels(labels)
    return builder.build()


def first_conflicting_line(label_rows):
    """Line number of the first label row giving a vertex a second,
    different label (``rendered`` writes one line per row), or None."""
    given = {}
    for line, row in enumerate(label_rows or (), start=1):
        if isinstance(row, str):
            continue
        vertex, label = row
        if given.setdefault(vertex, label) != label:
            return line
    return None


def assert_same_graph(loaded, expected):
    assert list(loaded.vertices()) == list(expected.vertices())
    assert loaded.labels() == expected.labels()
    assert set(loaded.edges()) == set(expected.edges())
    assert loaded.edge_labels() == expected.edge_labels()
    assert loaded == expected


class TestDifferential:
    @SLOW
    @given(case=edge_files())
    def test_reader_equals_the_builder(self, case, tmp_path):
        rows, edge_bytes, label_rows, label_bytes = case
        (tmp_path / "g.el").write_bytes(edge_bytes)
        labels_path = None
        if label_bytes is not None:
            labels_path = tmp_path / "g.labels"
            labels_path.write_bytes(label_bytes)
        conflict = first_conflicting_line(label_rows)
        if conflict is not None:
            # a vertex listed again with another label is refused
            for read in (read_label_file, lambda path: read_edge_list(
                tmp_path / "g.el", path
            )):
                with pytest.raises(GraphError, match=rf"g\.labels:{conflict}: "):
                    read(labels_path)
            return
        expected = built_line_by_line(rows, label_rows)
        loaded = read_edge_list(tmp_path / "g.el", labels_path)
        # sizes and histogram first: they answer from the arrays
        assert loaded.num_vertices == expected.num_vertices
        assert loaded.num_edges == expected.num_edges
        assert loaded.has_edge_labels == expected.has_edge_labels
        assert loaded.label_counts() == expected.label_counts()
        assert list(loaded.label_counts()) == list(expected.label_counts())
        assert_same_graph(loaded, expected)
        # and the CSR it was built on is the CSR of that graph
        assert_same_graph(Graph.over_csr(csr_of(expected)), expected)
        assert csr_of(loaded).order.tolist() == csr_of(expected).order.tolist()
        if label_bytes is not None:
            assert read_label_file(labels_path) == {
                row[0]: row[1] for row in label_rows if not isinstance(row, str)
            }

    def test_the_cases_the_issue_names(self, tmp_path):
        (tmp_path / "g.el").write_text(
            "# header\n"
            "5 3\n"
            "3 5 7\n"      # labelled duplicate after an unlabelled one
            "8 8\n"        # 8 occurs only in a self loop: not a vertex
            "\n"
            "3 -2 4\n"
            "-2 3\n"       # unlabelled duplicate after a labelled one
            "5 3 9\n"      # last labelled duplicate wins
            "6 6 1\n"
            "1 5"
        )
        # an identical repeat is accepted (another label is refused below)
        (tmp_path / "g.labels").write_text("3 6\n40 2\n3 6\n5 1\n")
        graph = read_edge_list(tmp_path / "g.el", tmp_path / "g.labels")
        assert list(graph.vertices()) == [5, 3, -2, 1, 40]
        assert graph.labels() == {5: 1, 3: 6, -2: 0, 1: 0, 40: 2}
        assert set(graph.edges()) == {(3, 5), (-2, 3), (1, 5)}
        assert graph.edge_labels() == {(3, 5): 9, (-2, 3): 4}

    def test_round_trip_through_the_writers(self, tmp_path):
        graph = planted_graph(
            60, 150, [(0, 1), (1, 2), (2, 0)], [0, 1, 2], copies=2,
            num_labels=4, seed=5,
        )
        for i, (u, v) in enumerate(sorted(graph.edges())):
            if i % 3 == 0:
                graph.add_edge(u, v, i % 5)
        write_edge_list(graph, tmp_path / "g.el")
        write_labels(graph, tmp_path / "g.labels")
        assert read_edge_list(tmp_path / "g.el", tmp_path / "g.labels") == graph


# ----------------------------------------------------------------------
# (b) typed failures
# ----------------------------------------------------------------------
class TestParseFailures:
    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 1\n1 x\n", 2),
            ("0 1\n\n# c\n1 2.5\n", 4),
            ("0 1\n1 9223372036854775808\n", 2),
            ("0 1\n1 -9223372036854775809 4\n", 2),
            ("0 1\n1 2\n2\n", 3),
            ("0 1\n1 2\n2", 3),            # last line truncated to one column
            ("0 1 2 3\n", 1),
            ("0 1\r\n1 0x10\r\n", 2),
            ("0 1\r1 2 3 4\r", 2),         # lone CR ends a line, as in text mode
        ],
    )
    def test_edge_file(self, tmp_path, text, line):
        path = tmp_path / "bad.el"
        path.write_bytes(text.encode())
        with pytest.raises(GraphError, match=rf"bad\.el:{line}: "):
            read_edge_list(path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 1\n1 one\n", 2),
            ("0 1\n1 2 3\n", 2),
            ("0 1\n1\n", 2),
            ("0 18446744073709551616\n", 1),
        ],
    )
    def test_label_file(self, tmp_path, text, line):
        (tmp_path / "g.el").write_text("0 1\n")
        path = tmp_path / "bad.labels"
        path.write_text(text)
        with pytest.raises(GraphError, match=rf"bad\.labels:{line}: "):
            read_label_file(path)
        with pytest.raises(GraphError, match=rf"bad\.labels:{line}: "):
            read_edge_list(tmp_path / "g.el", path)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("0 5\n0 6\n", 2),
            ("# c\n0 5\n\n1 2\n0 5\r\n1 3\n0 6\n", 6),
            ("0 5\n1 2\n0 5\n1 2\n", None),   # identical repeats
        ],
        ids=["conflict", "first-conflict-after-repeats", "identical-repeat"],
    )
    def test_a_vertex_labelled_twice(self, tmp_path, text, line):
        (tmp_path / "g.el").write_text("0 1\n")
        path = tmp_path / "twice.labels"
        path.write_text(text)
        if line is None:
            assert read_label_file(path) == {0: 5, 1: 2}
            assert read_edge_list(tmp_path / "g.el", path).labels() == {
                0: 5, 1: 2,
            }
            return
        for read in (read_label_file, lambda p: read_edge_list(
            tmp_path / "g.el", p
        )):
            with pytest.raises(GraphError, match=rf"twice\.labels:{line}: "):
                read(path)

    def test_the_message_shows_the_line(self, tmp_path):
        path = tmp_path / "bad.el"
        path.write_text("0 1\n  7 seven  \n")
        with pytest.raises(GraphError) as caught:
            read_edge_list(path)
        assert "'7 seven'" in str(caught.value)
        assert "u v [label]" in str(caught.value)

    @pytest.mark.parametrize("text", ["", "\n\n", "# only\n#comments", "  \t\r\n"])
    def test_an_empty_file_is_the_empty_graph(self, tmp_path, text):
        path = tmp_path / "empty.el"
        path.write_text(text)
        graph = read_edge_list(path)
        assert graph.num_vertices == graph.num_edges == 0
        assert graph == Graph() and graph.label_counts() == {}
        assert csr_of(graph).num_directed_edges == 0
        assert read_label_file(path) == {}
        # label-only vertices on an empty edge file
        (tmp_path / "l.labels").write_text("4 2\n1 2")
        graph = read_edge_list(path, tmp_path / "l.labels")
        assert list(graph.vertices()) == [4, 1] and graph.label_counts() == {2: 2}

    def test_layouts_parse_as_before(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_bytes(b"  0\t1\r\n\t1  2 5 \r\n\r\n 2 0")
        graph = read_edge_list(path)
        assert set(graph.edges()) == {(0, 1), (1, 2), (0, 2)}
        assert graph.edge_labels() == {(1, 2): 5}


# ----------------------------------------------------------------------
# (c) the facade
# ----------------------------------------------------------------------
@pytest.fixture
def dict_builds(monkeypatch):
    """The CSRs whose graph facade had to build its dicts."""
    built = []
    eager = GraphCsr.dict_members

    def spy(csr):
        built.append(csr)
        return eager(csr)

    monkeypatch.setattr(GraphCsr, "dict_members", spy)
    return built


def case_graph():
    graph = planted_graph(
        120, 320, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)], [0, 1, 2, 1],
        copies=3, num_labels=5, seed=9,
    )
    for i, (u, v) in enumerate(sorted(graph.edges())):
        if i % 4 == 0:
            graph.add_edge(u, v, 7 + i % 2)
    return graph


@pytest.fixture
def files(tmp_path):
    graph = case_graph()
    write_edge_list(graph, tmp_path / "g.el")
    write_labels(graph, tmp_path / "g.labels")
    return graph, tmp_path / "g.el", tmp_path / "g.labels"


class TestFacade:
    def test_sizes_answer_from_the_arrays(self, files, dict_builds):
        expected, edges, labels = files
        graph = read_edge_list(edges, labels)
        assert graph.num_vertices == len(graph) == expected.num_vertices
        assert graph.num_edges == expected.num_edges
        assert graph.has_edge_labels
        assert graph.label_counts() == expected.label_counts()
        assert repr(graph) == repr(expected)
        csr = csr_of(graph)
        assert csr.graph is graph and csr.num_vertices == expected.num_vertices
        assert not dict_builds and type(graph) is not Graph
        assert graph.degree(next(iter(expected.vertices()))) >= 0
        # built once, and from here on it is a plain Graph
        assert dict_builds == [csr] and type(graph) is Graph

    def test_dict_consumers_see_the_builders_graph(self, files):
        expected, edges, labels = files
        keep = sorted(expected.vertices())[::2]
        assert read_edge_list(edges, labels) == expected
        assert expected == read_edge_list(edges, labels)
        assert read_edge_list(edges, labels).copy() == expected
        assert read_edge_list(edges, labels).subgraph(keep) == expected.subgraph(keep)
        shipped = pickle.loads(pickle.dumps(read_edge_list(edges, labels)))
        assert shipped == expected and shipped._csr_cache is None
        assert type(shipped) is Graph  # not the facade class: no slow path
        assert csr_of(shipped).order.tolist() == csr_of(
            read_edge_list(edges, labels)
        ).order.tolist()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda g, u, v, w: g.add_vertex(10_000, 3),
            lambda g, u, v, w: g.add_vertex(u, 4),           # relabel
            lambda g, u, v, w: g.add_edge(u, w),
            lambda g, u, v, w: g.add_edge(u, v, 99),         # relabel an edge
            lambda g, u, v, w: g.remove_edge(v, u),
            lambda g, u, v, w: g.remove_vertex(u),
        ],
        ids=["add_vertex", "relabel_vertex", "add_edge", "relabel_edge",
             "remove_edge", "remove_vertex"],
    )
    def test_a_mutators_first_touch(self, files, mutate):
        expected, edges, labels = files
        graph = read_edge_list(edges, labels)
        loaded_csr = csr_of(graph)
        u, v = next(iter(sorted(expected.edges())))
        w = next(x for x in sorted(expected.vertices())
                 if x != u and not expected.has_edge(u, x))
        mutate(graph, u, v, w)
        mutate(expected, u, v, w)
        assert graph == expected
        assert graph.num_vertices == expected.num_vertices
        assert graph.num_edges == expected.num_edges
        assert graph.label_counts() == expected.label_counts()
        # the CSR was let go, and the next one sees the mutation
        assert csr_of(graph) is not loaded_csr
        assert Graph.over_csr(csr_of(graph)) == expected

    def test_unknown_attributes_still_raise(self, files):
        graph = read_edge_list(*files[1:])
        with pytest.raises(AttributeError):
            graph.no_such_member
        with pytest.raises(AttributeError):
            Graph.__new__(Graph)._adj


# ----------------------------------------------------------------------
# (d) default runs stay in array-land
# ----------------------------------------------------------------------
DIAMOND = PatternTemplate.from_edges(
    [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
    {0: 0, 1: 1, 2: 2, 3: 1}, name="diamond",
)


def brute_force_vertices(graph, template):
    found = set()
    for mapping in find_subgraph_isomorphisms(template.graph, graph):
        found.update(mapping.values())
    return found


class TestDefaultRunsNeverBuildTheDicts:
    @pytest.fixture
    def add_edge_calls(self, monkeypatch):
        calls = []
        eager = Graph.add_edge

        def spy(graph, u, v, label=None):
            if graph.num_vertices > 10:  # templates and prototypes are dict graphs
                calls.append((u, v))
            return eager(graph, u, v, label)

        monkeypatch.setattr(Graph, "add_edge", spy)
        return calls

    @pytest.mark.parametrize(
        "run",
        [
            lambda g: run_pipeline(
                g, DIAMOND, 1, PipelineOptions(count_matches=True)
            ).matched_vertices(),
            lambda g: exploratory_search(
                g, DIAMOND, max_k=1, options=PipelineOptions(count_matches=True)
            ).matched_vertices(),
            lambda g: count_motifs(g, 3, batched=True).induced,
        ],
        ids=["run_pipeline", "exploratory_search", "count_motifs"],
    )
    def test_default_drivers(self, files, dict_builds, add_edge_calls, run):
        expected, edges, labels = files
        graph = read_edge_list(edges, labels)
        answer = run(graph)
        assert answer
        assert not dict_builds and not add_edge_calls
        with pytest.raises(AttributeError):
            object.__getattribute__(graph, "_adj")
        # the same run on the graph the builder would have built
        assert answer == run(expected)

    def test_a_dict_tier_run_builds_them_and_is_right(self, files, dict_builds):
        expected, edges, labels = files
        graph = read_edge_list(edges, labels)
        result = run_pipeline(
            graph, DIAMOND, 0,
            PipelineOptions(backend="reference", count_matches=True),
        )
        assert dict_builds == [csr_of(graph)]
        assert result.matched_vertices() == brute_force_vertices(expected, DIAMOND)
        assert result.matched_vertices()
        default = run_pipeline(
            read_edge_list(edges, labels), DIAMOND, 0,
            PipelineOptions(count_matches=True),
        )
        assert default.matched_vertices() == result.matched_vertices()
        assert default.total_match_mappings() == result.total_match_mappings()


def test_edge_label_order_is_canonical():
    # edge_labels() keys are (min, max) whatever direction the file gave
    graph = Graph.over_csr(
        GraphCsr.from_columns(
            np.array([9, 4, 6]), np.array([0, 2]), np.array([1, 1]),
            np.array([1, 1, 2]),
            (np.array([0, 1]), np.array([1, 2]), np.array([5, 8])),
        )
    )
    assert graph.edge_labels() == {
        canonical_edge(9, 4): 5, canonical_edge(4, 6): 8,
    }
