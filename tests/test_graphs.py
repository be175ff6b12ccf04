import json

import numpy as np
import pytest

from tycat.cli import main
from tycat.errors import CapacityError, ModularityError, UnsupportedError
from tycat.graphs import (
    MAX_GRAPH_EDGES,
    BipartiteGraph,
    _check_shape,
    dual_principal_graph,
    emit_dot,
    principal_graph,
)
from tycat.groups import FinAbGroup, positive_set
from tycat.labels import TYPt, TYSigma
from tycat.moddata import ty_center_md
from tycat.quadforms import metric_group, standard_qform


def is_connected(graph: BipartiteGraph) -> bool:
    """Whether every vertex is reached from the distinguished one."""
    if not graph.even and not graph.odd:
        return True
    adj: dict[str, set[str]] = {v: set() for v in graph.even + graph.odd}
    for e, o in graph.edges:
        adj[e].add(o)
        adj[o].add(e)
    seen = {graph.star}
    frontier = [graph.star]
    while frontier:
        cur = frontier.pop()
        for nxt in adj[cur]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(adj)


def test_n3_counts():
    g = principal_graph(FinAbGroup.of(3))
    assert len(g.even) == 10 and len(g.odd) == 3 and len(g.edges) == 12
    assert g.degree("(rho,rho)") == 3

    d = dual_principal_graph(FinAbGroup.of(3))
    assert len(d.even) == 9 and len(d.odd) == 3 and len(d.edges) == 12
    assert all(d.degree(v) == 4 for v in d.odd)


def test_a_graph_with_one_edge_moved_is_refused():
    n = 5
    g = principal_graph(FinAbGroup.of(n))
    (even, odd), rest = g.edges[0], g.edges[1:]
    assert odd == g.odd[0]
    moved = BipartiteGraph(g.name, g.even, g.odd, ((even, g.odd[1]),) + rest, g.star)
    counts = (n * n + 1, n, n * (n + 1))
    degrees = {v: n + 1 for v in g.odd} | {"(rho,rho)": n}
    _check_shape(g, counts, degrees)
    with pytest.raises(ModularityError, match=r"degrees off at \['iota\(0\)', 'iota\(1\)'\]"):
        _check_shape(moved, counts, degrees)


def test_n1_degenerate():
    g = principal_graph(FinAbGroup.of(1))
    assert len(g.even) == 2 and len(g.odd) == 1 and len(g.edges) == 2
    d = dual_principal_graph(FinAbGroup.of(1))
    assert len(d.even) == 2 and len(d.odd) == 1 and len(d.edges) == 2


def test_n5_counts():
    g = principal_graph(FinAbGroup.of(5))
    assert len(g.even) == 26 and len(g.odd) == 5 and len(g.edges) == 30
    d = dual_principal_graph(FinAbGroup.of(5))
    assert len(d.even) == 20 and len(d.odd) == 5 and len(d.edges) == 30
    assert all(d.degree(v) == 6 for v in d.odd)


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11, 13, 15])
def test_formulas_all_odd(n):
    group = FinAbGroup.of(n)
    k = (n - 1) // 2
    g = principal_graph(group)
    assert (len(g.even), len(g.odd), len(g.edges)) == (n * n + 1, n, n * (n + 1))
    d = dual_principal_graph(group)
    assert (len(d.even), len(d.odd), len(d.edges)) == (n * (2 + k), n, n * (n + 1))
    # handshake: even degrees sum to the edge count on both sides
    assert sum(g.degree(v) for v in g.even) == len(g.edges)
    assert sum(g.degree(v) for v in g.odd) == len(g.edges)
    assert is_connected(g) and is_connected(d)


def test_the_edge_bound_admits_order_511_and_no_larger_odd_order():
    # both graphs have |A|(|A|+1) edges
    assert 511 * 512 <= MAX_GRAPH_EDGES < 513 * 514
    for build in (principal_graph, dual_principal_graph):
        assert len(build(FinAbGroup.of(511)).edges) == 511 * 512
        with pytest.raises(CapacityError, match="^[|]A[|] = 513 gives 263682 edges, which exceed"):
            build(FinAbGroup.of(513))


def test_nonabelian_grid_group():
    d = dual_principal_graph(FinAbGroup.of(3, 3))
    assert len(d.even) == 9 * 6 and len(d.odd) == 9


def test_even_rejected():
    with pytest.raises(UnsupportedError):
        principal_graph(FinAbGroup.of(2))


def test_dot_output():
    g = principal_graph(FinAbGroup.of(1))
    dot = emit_dot(g)
    assert dot == emit_dot(principal_graph(FinAbGroup.of(1)))  # deterministic
    assert dot.startswith('graph "ty_principal_1"')
    assert dot.count("--") == 2
    assert "peripheries=2" in dot
    assert dot.endswith("}\n")
    # every quoted vertex declared before use, no stray characters
    lines = dot.splitlines()
    assert lines[1] == "  node [shape=circle];"


def test_dot_n3_structure():
    dot = emit_dot(dual_principal_graph(FinAbGroup.of(3)))
    assert dot.count("--") == 12
    assert dot.count("style=filled") == 9
    assert dot.count("style=solid") == 3


# -- the index 2|A| against proven dimensions ----------------------------------


def _graph_json(capsys, which: str, group: str) -> dict:
    assert main(["graph", which, "--group", group]) == 0
    return json.loads(capsys.readouterr().out)


def _tag(g) -> str:  # a vertex name's group element, as `graph` writes it
    return ",".join(map(str, g.coords)) if g.coords else "0"


def _index_holds(graph: dict, dims: dict, index: int) -> bool:
    """Lambda Lambda^T d = index d for the even-by-odd adjacency Lambda."""
    even, odd = graph["even_vertices"], graph["odd_vertices"]
    lam = np.zeros((len(even), len(odd)), dtype=np.int64)
    for e, o in graph["edges"]:
        lam[even.index(e), odd.index(o)] += 1
    d = np.array([dims[v] for v in even], dtype=np.int64)
    return bool((lam @ (lam.T @ d) == index * d).all())


def _moved(graph: dict) -> dict:
    """The graph with its first edge moved to the next odd vertex."""
    (e, o), odd = graph["edges"][0], graph["odd_vertices"]
    other = odd[(odd.index(o) + 1) % len(odd)]
    return dict(graph, edges=[[e, other]] + graph["edges"][1:])


GRAPH_GROUPS = ["1", "3", "5", "7", "9", "3,3"]


@pytest.mark.parametrize("group", GRAPH_GROUPS)
def test_dual_graph_has_index_2a_on_proven_dimensions(capsys, group):
    A = FinAbGroup.of(*map(int, group.split(",")))
    md = ty_center_md(A, metric_group(standard_qform(A)).bichar, 1)
    proven = dict(zip(md.labels, md.dims()))
    dims = {}
    for g in A.elements():
        dims[f"(id,{_tag(g)})"] = proven[TYPt(g, 0)]
        dims[f"(alpha,{_tag(g)})"] = proven[TYPt(g, 1)]
        for d in positive_set(A).members:
            dims[f"(sigma{_tag(d)},{_tag(g)})"] = proven[TYSigma.of(g - d, g + d)]
    assert all(x.is_rational() for x in dims.values())
    dims = {v: int(x.rational_value()) for v, x in dims.items()}
    graph = _graph_json(capsys, "lr-dual", group)
    assert _index_holds(graph, dims, 2 * A.order)
    if A.order > 1:
        assert not _index_holds(_moved(graph), dims, 2 * A.order)


@pytest.mark.parametrize("group", GRAPH_GROUPS)
def test_principal_graph_has_index_2a(capsys, group):
    A = FinAbGroup.of(*map(int, group.split(",")))
    graph = _graph_json(capsys, "lr-principal", group)
    # TY x TY^op dimensions: 1 on each (g, h), |A| on (rho, rho)
    dims = {v: A.order if v == "(rho,rho)" else 1 for v in graph["even_vertices"]}
    assert _index_holds(graph, dims, 2 * A.order)
    if A.order > 1:
        assert not _index_holds(_moved(graph), dims, 2 * A.order)
