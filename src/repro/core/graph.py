"""Computation graphs: weakly connected DAGs of operators joined by tensors.

Nodes are `OpSpec` instances; each directed edge carries one tensor from a
producer output port to a consumer input port, with positional axis
correspondence (axis ``k`` of the source tensor feeds axis ``k`` of the
destination tensor, hence their extents must match).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..ops.base import OpSpec
from .exceptions import GraphError

__all__ = ["Edge", "CompGraph"]


@dataclass(frozen=True, slots=True)
class Edge:
    """A tensor flowing from ``src``'s output port to ``dst``'s input port."""

    src: str
    src_port: str
    dst: str
    dst_port: str

    @property
    def key(self) -> tuple[str, str]:
        return (self.src, self.dst)


class CompGraph:
    """A DNN computation graph.

    Parameters
    ----------
    nodes:
        Operators; names must be unique.
    edges:
        Tensor flows; both endpoints must exist and the connected tensor
        ports must have identical shapes.

    Notes
    -----
    The strategy search treats the graph as *undirected* (the paper's
    neighbor sets and transfer costs are edge-direction agnostic); the
    direction is retained for topological scheduling in the cluster
    simulator and for cost attribution in reports.
    """

    def __init__(self, nodes: Iterable[OpSpec] = (), edges: Iterable[Edge] = ()) -> None:
        self._nodes: dict[str, OpSpec] = {}
        self._edges: list[Edge] = []
        self._succ: dict[str, list[Edge]] = {}
        self._pred: dict[str, list[Edge]] = {}
        for op in nodes:
            self.add_node(op)
        for e in edges:
            self.add_edge(e)

    # -- construction --------------------------------------------------------

    def add_node(self, op: OpSpec) -> OpSpec:
        if op.name in self._nodes:
            raise GraphError(f"duplicate node name {op.name!r}")
        self._nodes[op.name] = op
        self._succ[op.name] = []
        self._pred[op.name] = []
        return op

    def add_edge(self, edge: Edge) -> Edge:
        src = self._nodes.get(edge.src)
        dst = self._nodes.get(edge.dst)
        if src is None or dst is None:
            raise GraphError(f"edge {edge} references unknown node")
        if edge.src == edge.dst:
            raise GraphError(f"self-loop on {edge.src!r}")
        try:
            out_spec = src.outputs[edge.src_port]
        except KeyError:
            raise GraphError(f"{edge.src!r} has no output port {edge.src_port!r}") from None
        try:
            in_spec = dst.inputs[edge.dst_port]
        except KeyError:
            raise GraphError(f"{edge.dst!r} has no input port {edge.dst_port!r}") from None
        if in_spec.is_param:
            raise GraphError(f"edge {edge} targets parameter port {edge.dst_port!r}")
        s_out, s_in = out_spec.shape(src), in_spec.shape(dst)
        if s_out != s_in:
            raise GraphError(
                f"shape mismatch on {edge.src}->{edge.dst}: {s_out} vs {s_in}")
        self._edges.append(edge)
        self._succ[edge.src].append(edge)
        self._pred[edge.dst].append(edge)
        return edge

    def connect(self, src: str, dst: str, *, src_port: str = "out",
                dst_port: str = "in") -> Edge:
        """Convenience wrapper around :meth:`add_edge`."""
        return self.add_edge(Edge(src, src_port, dst, dst_port))

    # -- queries ---------------------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[OpSpec]:
        return iter(self._nodes.values())

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(self._edges)

    def node(self, name: str) -> OpSpec:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    def out_edges(self, name: str) -> tuple[Edge, ...]:
        return tuple(self._succ[name])

    def in_edges(self, name: str) -> tuple[Edge, ...]:
        return tuple(self._pred[name])

    def neighbors(self, name: str) -> tuple[str, ...]:
        """Undirected neighbor set N(v), deduplicated, in insertion order."""
        seen: dict[str, None] = {}
        for e in self._pred[name]:
            seen.setdefault(e.src)
        for e in self._succ[name]:
            seen.setdefault(e.dst)
        return tuple(seen)

    def degree(self, name: str) -> int:
        return len(self.neighbors(name))

    def edges_between(self, u: str, v: str) -> tuple[Edge, ...]:
        """All edges joining u and v, in either direction."""
        return tuple(e for e in self._succ[u] if e.dst == v) + \
            tuple(e for e in self._succ[v] if e.dst == u)

    # -- structure ---------------------------------------------------------------

    def topological_order(self) -> tuple[str, ...]:
        """Kahn topological order; raises `GraphError` on cycles."""
        indeg = {n: len(self._pred[n]) for n in self._nodes}
        ready = [n for n, d in indeg.items() if d == 0]
        order: list[str] = []
        while ready:
            n = ready.pop()
            order.append(n)
            for e in self._succ[n]:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    ready.append(e.dst)
        if len(order) != len(self._nodes):
            raise GraphError("computation graph contains a cycle")
        return tuple(order)

    def weakly_connected_components(self) -> list[set[str]]:
        seen: set[str] = set()
        comps: list[set[str]] = []
        for start in self._nodes:
            if start in seen:
                continue
            comp: set[str] = set()
            stack = [start]
            while stack:
                n = stack.pop()
                if n in comp:
                    continue
                comp.add(n)
                stack.extend(m for m in self.neighbors(n) if m not in comp)
            seen |= comp
            comps.append(comp)
        return comps

    def is_weakly_connected(self) -> bool:
        return len(self) == 0 or len(self.weakly_connected_components()) == 1

    def validate(self) -> None:
        """Full structural validation: acyclic and weakly connected."""
        self.topological_order()
        if not self.is_weakly_connected():
            raise GraphError("computation graph is not weakly connected")

    def induced_subgraph(self, names: Iterable[str]) -> "CompGraph":
        """The subgraph on ``names`` with all edges between them.

        Input ports whose producer falls outside the subset simply lose
        their edge (they become graph inputs).  The result may be a
        forest; the strategy searchers handle that.
        """
        keep = set(names)
        missing = keep - set(self._nodes)
        if missing:
            raise GraphError(f"unknown nodes in subgraph: {sorted(missing)[:5]}")
        sub = CompGraph(self._nodes[n] for n in self._nodes if n in keep)
        for e in self._edges:
            if e.src in keep and e.dst in keep:
                sub.add_edge(e)
        return sub

    def stats(self) -> dict[str, float]:
        """Summary statistics used by the Section III-C analysis."""
        degrees = [self.degree(n) for n in self._nodes]
        return {
            "nodes": len(self._nodes),
            "edges": len(self._edges),
            "max_degree": max(degrees, default=0),
            "nodes_degree_ge_5": sum(1 for d in degrees if d >= 5),
            "total_flops": float(sum(op.flops for op in self)),
            "total_params": int(sum(op.param_volume() for op in self)),
        }
