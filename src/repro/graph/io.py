"""Reading and writing graphs in simple interchange formats.

Two formats are supported:

* **edge list + label file** — the format used by HavoqGT ingest tooling:
  one ``u v`` pair per line, plus an optional ``vertex label`` file;
* **JSON** — a self-contained single-file format convenient for examples
  and checkpoint metadata.

Lines starting with ``#`` are comments in the text formats, blank lines
are skipped, and fields are separated by any run of blanks or tabs.
The text readers parse a whole file at once into integer columns; a line
of the wrong shape, a field that is not a 64-bit integer or a label line
giving a vertex a second, different label raises
:class:`~repro.errors.GraphError` naming ``path:line``.
"""

from __future__ import annotations

import json
from itertools import compress, islice
from pathlib import Path
from typing import Dict, Iterator, Tuple, Union

import numpy as np

from ..errors import GraphError
from .csr import GraphCsr, first_appearance_codes
from .graph import Graph

PathLike = Union[str, Path]

#: the bytes ``bytes.split()`` separates fields on
_SPACE = np.zeros(256, dtype=bool)
_SPACE[[9, 10, 11, 12, 13, 32]] = True


def write_edge_list(graph: Graph, path: PathLike) -> None:
    """Write canonical undirected edges, one ``u v [edge_label]`` per line."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# undirected simple graph: n={graph.num_vertices} m={graph.num_edges}\n")
        for u, v in sorted(graph.edges()):
            label = graph.edge_label(u, v)
            if label is None:
                handle.write(f"{u} {v}\n")
            else:
                handle.write(f"{u} {v} {label}\n")


def write_labels(graph: Graph, path: PathLike) -> None:
    """Write ``vertex label`` pairs, one per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for vertex in sorted(graph.vertices()):
            handle.write(f"{vertex} {graph.label(vertex)}\n")


def _read_columns(
    path: PathLike, min_width: int, max_width: int, shape: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Parse a text file of integer rows into ``(values, widths)``.

    ``values`` holds every field of every data line in file order and
    ``widths[i]`` the number of fields on the ``i``-th data line, each
    within ``min_width..max_width``.  Nothing here loops over lines: the
    fields per line are counted on the bytes, and the fields converted by
    one ``np.array`` over ``bytes.split()``.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    text = np.frombuffer(data, dtype=np.uint8)
    space = _SPACE[text]
    after_space = np.empty_like(space)
    after_space[:1] = True
    after_space[1:] = space[:-1]
    field_start = np.flatnonzero(after_space & ~space)
    line_end = np.flatnonzero((text == 10) | (text == 13))
    # fields before each line end; the last line may lack a terminator
    upto = np.append(
        np.searchsorted(field_start, line_end), field_start.shape[0]
    )
    per_line = np.diff(upto, prepend=0)
    data_line = per_line > 0
    first_byte = text[field_start[(upto - per_line)[data_line]]]
    fields = data.split()
    if (first_byte == ord("#")).any():
        data_line[data_line] = first_byte != ord("#")
        fields = list(compress(fields, np.repeat(data_line, per_line).tolist()))
    widths = per_line[data_line]
    well_formed = not ((widths < min_width) | (widths > max_width)).any()
    if well_formed:
        try:
            return np.array(fields, dtype=np.int64), widths
        except (ValueError, OverflowError):
            pass
    raise _first_error(path, data, min_width, max_width, shape)


def _first_error(
    path: PathLike, data: bytes, min_width: int, max_width: int, shape: str
) -> GraphError:
    """The error of the first line :func:`_read_columns` cannot take."""
    for line_no, line in _data_lines(data):
        shown = line.decode("utf-8", "replace")
        fields = line.split()
        if not min_width <= len(fields) <= max_width:
            return GraphError(f"{path}:{line_no}: expected {shape}, got {shown!r}")
        for field in fields:
            try:
                fits = -(2 ** 63) <= int(field) < 2 ** 63
            except ValueError:
                fits = False
            if not fits:
                return GraphError(
                    f"{path}:{line_no}: expected {shape} of 64-bit integers, "
                    f"got {shown!r}"
                )
    return GraphError(f"{path}: expected lines of {shape}")


def _data_lines(data: bytes) -> Iterator[Tuple[int, bytes]]:
    """``(line number, stripped line)`` of each data line of a text file:
    the lines :func:`_read_columns` reads, in file order."""
    for line_no, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith(b"#"):
            yield line_no, line


def _first_label_rows(
    path: PathLike, codes: np.ndarray, labels: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Each vertex's first line of a label file, as a data-line index.

    ``codes[i]`` is the dense vertex of the label file's ``i``-th data
    line and ``labels[i]`` the label it gives; a vertex no line lists
    reads ``-1``.  A vertex may be listed again with the same label; the
    first line that gives it a different one raises ``GraphError``
    naming ``path:line``.
    """
    rows = codes.shape[0]
    first = np.full(num_vertices, rows, dtype=np.int64)
    np.minimum.at(first, codes, np.arange(rows, dtype=np.int64))
    conflicts = np.flatnonzero(labels != labels[first[codes]])
    if conflicts.shape[0]:
        row = int(conflicts[0])
        with open(path, "rb") as handle:
            data = handle.read()
        line_no, line = next(islice(_data_lines(data), row, None))
        earlier = int(labels[first[codes[row]]])
        raise GraphError(
            f"{path}:{line_no}: vertex already labelled {earlier}, got "
            f"{line.decode('utf-8', 'replace')!r}"
        )
    first[first == rows] = -1
    return first


def read_edge_list(path: PathLike, labels_path: PathLike = None) -> Graph:
    """Read an edge-list file (and optional label file) into a graph.

    Duplicate edges and self loops in the input are dropped, mirroring the
    symmetrization step the paper applies to its raw datasets; a vertex
    met only in self loops is not created.  Of the labels given to one
    edge, in either direction, the last wins.  A vertex the label file
    lists twice must get the same label both times (else ``GraphError``
    names the line).  Vertices come in order of first appearance in the
    edge file, then in the label file.

    The file is parsed into columns and the graph's CSR built from them
    (:meth:`GraphCsr.from_columns`); the returned graph is a facade over
    that CSR whose dicts exist once something reads them
    (:meth:`Graph.over_csr`) — ``csr_of`` on it is a memo hit.
    """
    values, widths = _read_columns(path, 2, 3, "'u v [label]'")
    row = np.cumsum(widths) - widths  # offset of each line's first field
    # a self loop is dropped here, before it can create its vertex
    proper = values[row] != values[row + 1]
    row, labelled = row[proper], (widths == 3)[proper]
    ends = np.column_stack((values[row], values[row + 1])).ravel()
    if labels_path is not None:
        label_rows, _ = _read_columns(labels_path, 2, 2, "'vertex label'")
    else:
        label_rows = values[:0]
    # vertex order: u0 v0 u1 v1 ... of the edge file, then the label file's ids
    codes, order = first_appearance_codes(
        np.concatenate((ends, label_rows[0::2]))
    )
    src, dst = codes[0:ends.shape[0]:2], codes[1:ends.shape[0]:2]
    # an unlabelled vertex gets 0
    label_values = label_rows[1::2]
    first_row = _first_label_rows(
        labels_path, codes[ends.shape[0]:], label_values, order.shape[0]
    )
    given = first_row >= 0
    labels = np.zeros(order.shape[0], dtype=np.int64)
    labels[given] = label_values[first_row[given]]
    edge_labels = None
    if labelled.any():
        edge_labels = (src[labelled], dst[labelled], values[row[labelled] + 2])
    return GraphCsr.from_columns(order, src, dst, labels, edge_labels).graph


def read_label_file(path: PathLike) -> Dict[int, int]:
    """Read a ``vertex label`` file into a dict.

    A vertex listed twice must get the same label both times; the first
    line that gives it another raises ``GraphError`` naming ``path:line``.
    """
    values, _ = _read_columns(path, 2, 2, "'vertex label'")
    codes, order = first_appearance_codes(values[0::2])
    labels = values[1::2]
    first_row = _first_label_rows(path, codes, labels, order.shape[0])
    return dict(zip(order.tolist(), labels[first_row].tolist()))


def write_json(graph: Graph, path: PathLike) -> None:
    """Write the graph as a single JSON document."""
    document = {
        "format": "repro-graph-v1",
        "labels": {str(v): graph.label(v) for v in graph.vertices()},
        "edges": sorted(graph.edges()),
        "edge_labels": [
            [u, v, label] for (u, v), label in sorted(graph.edge_labels().items())
        ],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def read_json(path: PathLike) -> Graph:
    """Read a graph written by :func:`write_json`."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("format") != "repro-graph-v1":
        raise GraphError(f"{path}: not a repro-graph-v1 document")
    graph = Graph()
    for vertex, label in document["labels"].items():
        graph.add_vertex(int(vertex), int(label))
    for u, v in document["edges"]:
        graph.add_edge(int(u), int(v))
    for u, v, label in document.get("edge_labels", []):
        graph.add_edge(int(u), int(v), int(label))
    return graph
