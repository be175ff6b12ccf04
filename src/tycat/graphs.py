"""Principal and dual principal graphs of the quantum double subfactor
attached to a Tambara-Yamagami category over an odd group.

The graphs are pure combinatorics on sector names: vertices carry string
tags built from group elements, edges follow the explicit induction-
restriction description, and the builders check the expected vertex,
degree, and edge counts (raising ``ModularityError``).  Output formats are
deterministic DOT and a JSON adjacency form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import CapacityError, ModularityError, UnsupportedError
from .groups import FinAbGroup, GroupElement, positive_set

__all__ = [
    "BipartiteGraph",
    "principal_graph",
    "dual_principal_graph",
    "emit_dot",
]

# most edges a graph may have; both graphs have |A|(|A|+1), so |A| <= 511
MAX_GRAPH_EDGES = 1 << 18


def _check_order(n: int) -> None:
    if n % 2 == 0:
        raise UnsupportedError("these graphs are defined for odd group order")
    if n * (n + 1) > MAX_GRAPH_EDGES:  # before any vertex is named
        raise CapacityError(f"|A| = {n} gives {n * (n + 1)} edges, which exceed "
                            f"{MAX_GRAPH_EDGES}, the size limit for graphs")


def _check_shape(graph: "BipartiteGraph", counts: tuple, degrees: dict) -> None:
    """The (even, odd, edge) counts and the degrees the construction promises."""
    got = (len(graph.even), len(graph.odd), len(graph.edges))
    have = Counter(v for edge in graph.edges for v in edge)
    wrong = [v for v, d in degrees.items() if have[v] != d]
    if got != counts or wrong:
        raise ModularityError(
            f"{graph.name} has counts {got} (expected {counts}), degrees off at {wrong}"
        )


def _tag(g: GroupElement) -> str:
    return ",".join(map(str, g.coords)) if g.coords else "0"


@dataclass(frozen=True)
class BipartiteGraph:
    name: str
    even: tuple[str, ...]
    odd: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]  # (even, odd)
    star: str

    def __post_init__(self):
        even, odd = set(self.even), set(self.odd)
        if len(even) != len(self.even) or len(odd) != len(self.odd):
            raise ModularityError(f"{self.name} repeats a vertex")
        if self.star not in even and self.star not in odd:
            raise ModularityError(f"{self.name} lacks its distinguished vertex")
        if len(set(self.edges)) != len(self.edges):
            raise ModularityError(f"{self.name} has an unexpected multi-edge")
        if any(e not in even or o not in odd for e, o in self.edges):
            raise ModularityError(f"{self.name} has an edge outside its bipartition")

    def degree(self, v: str) -> int:
        return sum(1 for e, o in self.edges if v in (e, o))

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "even_vertices": list(self.even),
            "odd_vertices": list(self.odd),
            "edges": [list(e) for e in self.edges],
            "star": self.star,
        }


def dual_principal_graph(A: FinAbGroup) -> BipartiteGraph:
    """Even vertices (id,g), (alpha,g), (sigma_d,g); odd vertices iota(g);
    iota(g) joins (id,g), (alpha,g), and (sigma_{|g-h|}, h) for h != g."""
    n = A.order
    _check_order(n)
    pos = positive_set(A)
    els = A.elements()
    even = (
        [f"(id,{_tag(g)})" for g in els]
        + [f"(alpha,{_tag(g)})" for g in els]
        + [f"(sigma{_tag(d)},{_tag(g)})" for d in pos.members for g in els]
    )
    odd = [f"iota({_tag(g)})" for g in els]
    edges = []
    for g in els:
        og = f"iota({_tag(g)})"
        edges.append((f"(id,{_tag(g)})", og))
        edges.append((f"(alpha,{_tag(g)})", og))
        for h in els:
            if h == g:
                continue
            d = pos.fold(g - h)
            edges.append((f"(sigma{_tag(d)},{_tag(h)})", og))
    graph = BipartiteGraph(
        f"ty_dual_principal_{n}", tuple(even), tuple(odd), tuple(edges),
        f"(id,{_tag(A.zero())})",
    )
    k = (n - 1) // 2
    _check_shape(graph, (n * (2 + k), n, n * (n + 1)), {v: n + 1 for v in graph.odd})
    return graph


def principal_graph(A: FinAbGroup) -> BipartiteGraph:
    """Even vertices the pairs (g,h) plus one extra vertex of degree |A|;
    odd vertices iota(g); iota(g) joins (h, h+g) for every h, and the
    extra vertex."""
    n = A.order
    _check_order(n)
    els = A.elements()
    even = [f"({_tag(g)},{_tag(h)})" for g in els for h in els] + ["(rho,rho)"]
    odd = [f"iota({_tag(g)})" for g in els]
    edges = []
    for g in els:
        og = f"iota({_tag(g)})"
        for h in els:
            edges.append((f"({_tag(h)},{_tag(h + g)})", og))
        edges.append(("(rho,rho)", og))
    graph = BipartiteGraph(
        f"ty_principal_{n}", tuple(even), tuple(odd), tuple(edges),
        f"({_tag(A.zero())},{_tag(A.zero())})",
    )
    degrees = {v: n + 1 for v in graph.odd}
    degrees["(rho,rho)"] = n
    _check_shape(graph, (n * n + 1, n, n * (n + 1)), degrees)
    return graph


def emit_dot(graph: BipartiteGraph) -> str:
    """Deterministic DOT text: even vertices filled, odd hollow, the
    distinguished vertex marked with a doubled border."""
    lines = [f'graph "{graph.name}" {{', "  node [shape=circle];"]
    for v in graph.even:
        star = ", peripheries=2" if v == graph.star else ""
        lines.append(f'  "{v}" [style=filled, fillcolor=black{star}];')
    for v in graph.odd:
        star = ", peripheries=2" if v == graph.star else ""
        lines.append(f'  "{v}" [style=solid{star}];')
    for e, o in graph.edges:
        lines.append(f'  "{e}" -- "{o}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
