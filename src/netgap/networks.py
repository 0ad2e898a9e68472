"""Directed-acyclic multicast networks: builders, cuts, minimality, file I/O.

Networks are multigraphs: parallel edges are first-class citizens with
their own ids, which both the message-extension construction and
m-parallelization rely on.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .errors import Budget, SizeLimitExceeded, UnsolvableNetwork
from .gf import make_field
from .subspaces import ENUMERATION_LIMIT, DirectSumIndex, enumerate_subspaces


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


# edge counts up to which the edge-deletion minimality test is cheap enough
# to run for route selection; bigger networks must be structurally minimal
_MINIMALITY_PROBE_EDGES = 120


@dataclass(frozen=True)
class Network:
    h: int
    source: str
    terminals: tuple[str, ...]
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    labels: dict | None = dc_field(default=None, compare=False)

    @cached_property
    def _incidence(self) -> tuple[dict, dict]:
        """(outgoing, incoming) edge lists per node, in edge-list order.

        Built on first use from the edges alone, so nodes without edges and
        names outside `nodes` read as empty; not a field, so it stays out of
        equality, hashing and the JSON form.  Spent per edge: `Budget.each`'s
        chunk lists, here and in the other walks that index a network, raised
        a `kneser-gap` pass's peak RSS by 0.15 MB (Python 3.11, 2-vCPU VM).
        """
        outs: dict[str, list[Edge]] = {}
        ins: dict[str, list[Edge]] = {}
        bud = Budget()
        for e in self.edges:
            bud.spend()
            outs.setdefault(e.tail, []).append(e)
            ins.setdefault(e.head, []).append(e)
        return outs, ins

    @cached_property
    def _shape(self) -> tuple[bool, tuple[int, int, int] | None]:
        """(`is_subcombination`, `combination_parameters`) from one walk over
        the source edges, the middles and the terminals' in-lists, cached
        like `_incidence` and like it outside equality, hashing and JSON.

        Each terminal's feeders are one bitmask, bit k standing for the
        middle of the k-th source edge: a feeder that is no middle adds no
        bit and a middle feeding twice adds one, so the feeders are distinct
        middles iff the popcount is the in-degree.
        """
        outs, ins = self._incidence
        src_out = outs.get(self.source, ())
        bit = {e.head: 1 << k for k, e in enumerate(src_out)}
        terms = dict.fromkeys(self.terminals)  # a set in the terminals' order
        if (
            len(bit) != len(src_out)
            or not terms.keys().isdisjoint(bit)
            or set(self.nodes) != {self.source, *bit, *terms}
            or any(len(ins[m]) != 1 for m in bit)
        ):
            return False, None
        degrees, feeder_masks = set(), set()
        fed = 0  # edges into terminals, all from middles
        bud = Budget()
        for term in terms:
            bud.spend()
            in_list = ins.get(term, ())
            mask = 0
            for e in in_list:
                mask |= bit.get(e.tail, 0)
            if mask.bit_count() != len(in_list) or term in outs:
                return False, None
            degrees.add(len(in_list))
            feeder_masks.add(mask)
            fed += len(in_list)
        # a sub-combination network's middles feed only terminals (so their
        # out-degrees add up to the edges into terminals), each drawing h edges
        sub = (
            self.source not in terms
            and degrees <= {self.h}
            and sum(len(outs.get(m, ())) for m in bit) == fed
        )
        # a full combination network has one terminal per s-subset of its r middles
        if self.source in bit or len(degrees) != 1:
            return sub, None
        r, (s,) = len(src_out), degrees
        if len(feeder_masks) != len(self.terminals) or len(self.terminals) != math.comb(r, s):
            return sub, None
        return sub, (self.h, r, s)

    @cached_property
    def _routing_minimal(self) -> bool:
        """Minimality for route selection, cached like `_shape`: the
        sub-combination shape, else the edge-deletion test on networks of at
        most _MINIMALITY_PROBE_EDGES edges, else False (unknown, so the
        routes fall back to certified exhaustive searches)."""
        if self._shape[0]:
            return True
        return len(self.edges) <= _MINIMALITY_PROBE_EDGES and is_minimal(self)

    @cached_property
    def _skeleton(self):
        """The edge-class skeleton, built on first use and cached like `_shape`."""
        from .skeleton import skeleton

        return skeleton(self)

    def in_edges(self, node: str) -> list[Edge]:
        return list(self._incidence[1].get(node, ()))

    def out_edges(self, node: str) -> list[Edge]:
        return list(self._incidence[0].get(node, ()))

    def in_degree(self, node: str) -> int:
        return len(self._incidence[1].get(node, ()))

    def without_edge(self, eid: str) -> "Network":
        return Network(
            h=self.h,
            source=self.source,
            terminals=self.terminals,
            nodes=self.nodes,
            edges=tuple(e for e in self.edges if e.id != eid),
            labels=self.labels,
        )


def topological_order(net: Network) -> list[str]:
    """Kahn's algorithm; raises on cycles. Deterministic by node order."""
    outs, ins = net._incidence
    indeg = {v: len(ins.get(v, ())) for v in net.nodes}
    order = [v for v in net.nodes if not indeg[v]]
    bud = Budget()  # one node per node, and only the deadline stops it
    for v in order:  # the order is its own queue
        bud.spend()
        for e in outs.get(v, ()):
            indeg[e.head] -= 1
            if not indeg[e.head]:
                order.append(e.head)
    if len(order) != len(net.nodes):
        raise ValueError("network graph contains a cycle")
    return order


def essential_nodes(net: Network) -> set[str]:
    """Nodes on some source-to-terminal path."""
    # one node per visit, and only the deadline stops it
    bud = Budget()
    outs, ins = net._incidence
    fwd = {net.source}
    frontier = deque([net.source])
    while frontier:
        v = frontier.popleft()
        bud.spend()
        for e in outs.get(v, ()):
            if e.head not in fwd:
                fwd.add(e.head)
                frontier.append(e.head)
    back = set(net.terminals)
    frontier = deque(net.terminals)
    while frontier:
        v = frontier.popleft()
        bud.spend()
        for e in ins.get(v, ()):
            if e.tail not in back:
                back.add(e.tail)
                frontier.append(e.tail)
    return fwd & back


def validate_network(net: Network) -> None:
    if net.h < 1:
        raise ValueError("message count h must be >= 1")
    if not net.terminals:
        raise ValueError("network needs at least one terminal")
    node_set = set(net.nodes)
    if len(node_set) != len(net.nodes):
        raise ValueError("duplicate node ids")
    if net.source not in node_set:
        raise ValueError("source not among nodes")
    if len({e.id for e in net.edges}) != len(net.edges):
        raise ValueError("duplicate edge ids")
    outs, ins = net._incidence
    if not node_set.issuperset(outs) or not node_set.issuperset(ins):
        bad = next(e for e in net.edges if e.tail not in node_set or e.head not in node_set)
        raise ValueError(f"edge {bad.id} references unknown node")
    for t in net.terminals:
        if t not in node_set:
            raise ValueError(f"terminal {t} not among nodes")
    topological_order(net)
    if net.source in ins:
        raise ValueError("source must have in-degree 0")
    # in a DAG every node is reached from a node of in-degree 0 and reaches
    # a node of out-degree 0, so every node lies on a source-to-terminal
    # path iff the source is the only node of in-degree 0 and every node of
    # out-degree 0 is a terminal
    if len(ins) != len(node_set) - 1 or not outs.keys() >= node_set.difference(net.terminals):
        raise ValueError("network contains non-essential nodes")


def prune(net: Network) -> Network:
    """Drop non-essential nodes (for imported networks)."""
    keep = essential_nodes(net)
    return Network(
        h=net.h,
        source=net.source,
        terminals=net.terminals,
        nodes=tuple(v for v in net.nodes if v in keep),
        edges=tuple(e for e in net.edges if e.tail in keep and e.head in keep),
        labels=net.labels,
    )


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _edge_ids(count: int) -> list[str]:
    # one %-format built once: a nested f-string spec is parsed per id
    form = f"e%0{len(str(max(count - 1, 0)))}d"
    return [form % i for i in range(count)]


def _middle_network(
    h: int,
    middles: list[str],
    hyperedges: Iterable[tuple[int, ...]],
    labels: dict | None = None,
    bud: Budget | None = None,
) -> Network:
    """Source `s` -> one middle per name -> one terminal per hyperedge.

    The form of every combination, Kneser and reverse-skeleton network: a
    hyperedge is a tuple of middle indices, and its terminal `t<i>_<j>...`
    is fed by those middles in order.  Edges are numbered source edges
    first, then each terminal's.  One node per terminal edge is spent on
    `bud` (by default one with no node limit), so only the deadline stops
    the construction.
    """
    hyperedges = list(hyperedges)
    n_edges = len(middles) + sum(map(len, hyperedges))
    if bud is None:
        bud = Budget()
    ids = iter(_edge_ids(n_edges))
    edges = [Edge(next(ids), "s", m) for m in middles]
    terminals = []
    for members in hyperedges:
        bud.spend_many(len(members))
        tname = "t" + "_".join([str(i) for i in members])
        terminals.append(tname)
        for i in members:
            edges.append(Edge(next(ids), middles[i], tname))
    net = Network(
        h=h,
        source="s",
        terminals=tuple(terminals),
        nodes=("s", *middles, *terminals),
        edges=tuple(edges),
        labels=labels,
    )
    validate_network(net)
    return net


def build_combination(h: int, r: int, s: int, *, max_terminals: int = ENUMERATION_LIMIT) -> Network:
    """The N_{h,r,s} combination network."""
    if s < 1 or r < s:
        raise ValueError(f"require r >= s >= 1, got r={r}, s={s}")
    if h < 1:
        raise ValueError("h must be >= 1")
    n_terminals = math.comb(r, s)
    if n_terminals > max_terminals:
        raise SizeLimitExceeded(f"{n_terminals} terminals exceed limit {max_terminals}")
    return _middle_network(h, [f"m{i}" for i in range(r)], itertools.combinations(range(r), s))


def build_butterfly() -> Network:
    """The butterfly network with the standard node/edge labelling."""
    edges = [
        Edge("e1", "s", "v1"),
        Edge("e2", "s", "v2"),
        Edge("e3", "v1", "v3"),
        Edge("e4", "v2", "v3"),
        Edge("e5", "v1", "t1"),
        Edge("e6", "v3", "v4"),
        Edge("e7", "v2", "t2"),
        Edge("e8", "v4", "t1"),
        Edge("e9", "v4", "t2"),
    ]
    net = Network(
        h=2,
        source="s",
        terminals=("t1", "t2"),
        nodes=("s", "v1", "v2", "v3", "v4", "t1", "t2"),
        edges=tuple(edges),
    )
    validate_network(net)
    return net


def build_kneser(q: int, t: int, h: int, *, max_terminal_scan: int = ENUMERATION_LIMIT) -> Network:
    """The Kneser network K_{q,t;h}.

    Middle nodes carry all t-subspaces of F_q^{ht} in canonical order; a
    terminal exists for each h-subset whose labels sum to the full space.
    """
    if h < 2:
        raise ValueError("Kneser networks need h >= 2")
    if t < 1:
        raise ValueError(f"Kneser networks need t >= 1, got t={t}")
    from .gf import field_of_order

    fld = field_of_order(q)
    middles = enumerate_subspaces(fld, h * t, t)
    r = len(middles)
    n_subsets = math.comb(r, h)
    if n_subsets > max_terminal_scan:
        raise SizeLimitExceeded(
            f"scanning {n_subsets} candidate terminals of K_{{{q},{t};{h}}} exceeds "
            f"limit {max_terminal_scan}"
        )
    # h t-subspaces span F_q^{ht} iff they are in direct sum.  One node per
    # candidate scanned, per vector listed in a span of k < h middles and
    # per terminal edge made, and only the deadline stops the construction
    bud = Budget()
    middle_ids = [f"m{i}" for i in range(r)]
    subsets = DirectSumIndex(middles).direct_sum_subsets(h, bud)
    return _middle_network(h, middle_ids, subsets, dict(zip(middle_ids, middles)), bud)


def _fresh_prefix(net: Network) -> str:
    taken = set(net.nodes) | {e.id for e in net.edges}
    prefix = "x"
    while any(name.startswith(prefix) for name in taken):
        prefix += "x"
    return prefix


def extend_messages(net: Network, h_new: int) -> Network:
    """Message extension: new source, h parallel edges to the old source,
    and h_new - h parallel edges to every terminal."""
    if h_new <= net.h:
        raise ValueError(f"h'={h_new} must exceed h={net.h}")
    prefix = _fresh_prefix(net)
    new_source = prefix + "src"
    edges = [Edge(f"{prefix}s{i}", new_source, net.source) for i in range(net.h)]
    edges.extend(net.edges)
    for term in net.terminals:
        edges.extend(
            Edge(f"{prefix}t_{term}_{j}", new_source, term) for j in range(h_new - net.h)
        )
    out = Network(
        h=h_new,
        source=new_source,
        terminals=net.terminals,
        nodes=(new_source, *net.nodes),
        edges=tuple(edges),
        labels=net.labels,
    )
    validate_network(out)
    return out


def parallelize(net: Network, m: int) -> Network:
    """Duplicate every edge m times and scale the message count by m."""
    if m < 1:
        raise ValueError("parallelization factor must be >= 1")
    edges = tuple(
        Edge(f"{e.id}.{j}", e.tail, e.head) for e in net.edges for j in range(1, m + 1)
    )
    out = Network(
        h=net.h * m,
        source=net.source,
        terminals=net.terminals,
        nodes=net.nodes,
        edges=edges,
        labels=net.labels,
    )
    validate_network(out)
    return out


def combination_parameters(net: Network) -> tuple[int, int, int] | None:
    """(h, r, s) if the network is a full combination network, else None."""
    return net._shape[1]


def is_subcombination(net: Network) -> bool:
    """Sub-network of a combination network with every terminal of in-degree h.

    Shape: one source edge per middle node, middle nodes feed only
    terminals, each terminal draws exactly h edges from h distinct middle
    nodes.  Such networks are always minimal: dropping a terminal edge
    starves that terminal, dropping a source edge starves any terminal the
    middle node feeds (and it feeds one, since all nodes are essential).
    """
    return net._shape[0]


# ---------------------------------------------------------------------------
# cuts and minimality
# ---------------------------------------------------------------------------

class _FlowSolver:
    """Unit-capacity max flow with BFS augmenting paths; the arc structure
    is built once and capacities reset between terminals."""

    def __init__(self, net: Network):
        self.node_index = {v: i for i, v in enumerate(net.nodes)}
        self.n = len(net.nodes)
        self.to: list[int] = []
        self.adj: list[list[int]] = [[] for _ in net.nodes]
        bud = Budget()
        for e in net.edges:
            bud.spend()
            u, v = self.node_index[e.tail], self.node_index[e.head]
            self.adj[u].append(len(self.to))
            self.to.append(v)
            self.adj[v].append(len(self.to))
            self.to.append(u)
        self.src = self.node_index[net.source]

    def max_flow_to(
        self, terminal_index: int, cutoff: int | None = None, without: int | None = None
    ) -> int:
        """Max flow to a node; `without` is the index of an edge left out."""
        cap = bytearray(b"\x01\x00" * (len(self.to) // 2))
        if without is not None:
            cap[2 * without] = 0
        to, adj = self.to, self.adj
        dst = terminal_index
        flow = 0
        while cutoff is None or flow < cutoff:
            parent_arc = [-1] * self.n
            parent_arc[self.src] = -2
            queue = deque([self.src])
            while queue and parent_arc[dst] == -1:
                u = queue.popleft()
                for ai in adj[u]:
                    v = to[ai]
                    if cap[ai] and parent_arc[v] == -1:
                        parent_arc[v] = ai
                        queue.append(v)
            if parent_arc[dst] == -1:
                return flow
            v = dst
            while v != self.src:
                ai = parent_arc[v]
                cap[ai] -= 1
                cap[ai ^ 1] += 1
                v = to[ai ^ 1]
            flow += 1
        return flow


def min_cut(net: Network, terminal: str) -> int:
    """Minimum edge cut between the source and the terminal.

    Unit capacities, BFS augmenting paths.
    """
    if terminal not in net.terminals:
        raise ValueError(f"{terminal!r} is not a terminal")
    solver = _FlowSolver(net)
    return solver.max_flow_to(solver.node_index[terminal])


def is_solvable(net: Network) -> bool:
    """Cut criterion: every terminal separated by cuts of size >= h."""
    if is_subcombination(net):
        return True  # h disjoint source-middle-terminal paths per terminal
    solver = _FlowSolver(net)
    for t in Budget().each(net.terminals):  # only the deadline stops it
        if solver.max_flow_to(solver.node_index[t], cutoff=net.h) < net.h:
            return False
    return True


def is_minimal(net: Network) -> bool:
    """True iff removing any single edge breaks the cut criterion.

    Raises UnsolvableNetwork when the input itself fails the criterion,
    since minimality is undefined there.  One flow solver serves every
    reduced network, and only the terminals reachable from the removed
    edge's head are re-checked: no path to any other terminal uses the
    edge, so their flows cannot drop.  Each max flow spends one budget
    node, so the deadline reaches them.
    """
    if not is_solvable(net):
        raise UnsolvableNetwork("network fails the cut criterion; minimality undefined")
    solver = _FlowSolver(net)
    term_bit = {t: 1 << k for k, t in enumerate(net.terminals)}
    term_index = [solver.node_index[t] for t in net.terminals]
    # bitmask of the terminals reachable from each node, itself included
    reach: dict[str, int] = {}
    for v in reversed(topological_order(net)):
        mask = term_bit.get(v, 0)
        for e in net.out_edges(v):
            mask |= reach[e.head]
        reach[v] = mask
    # one node per max flow: only the deadline stops it
    bud = Budget()
    for k, e in enumerate(net.edges):
        mask = reach[e.head]
        while mask:
            low = mask & -mask
            mask ^= low
            bud.spend()
            flow = solver.max_flow_to(term_index[low.bit_length() - 1], net.h, without=k)
            if flow < net.h:
                break
        else:
            return False  # every terminal keeps its cut without this edge
    return True


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def network_to_json(net: Network) -> dict:
    obj = {
        "h": net.h,
        "source": net.source,
        "terminals": list(net.terminals),
        "nodes": [{"id": v} for v in net.nodes],
        "edges": [{"id": e.id, "from": e.tail, "to": e.head} for e in net.edges],
    }
    if net.labels:
        some = next(iter(net.labels.values()))
        obj["field"] = {"p": some.field.p, "m": some.field.m}
        obj["ambient"] = some.ambient
        obj["labels"] = {
            node: [list(row) for row in sub.row_list()] for node, sub in net.labels.items()
        }
    return obj


def network_from_json(obj: dict, *, validate: bool = True) -> Network:
    """Parse the documented network schema.

    validate=False skips the well-formedness check so that imports with
    non-essential nodes can be repaired via prune() before validation.
    """
    labels = None
    if "labels" in obj:
        fld = make_field(obj["field"]["p"], obj["field"]["m"])
        ambient = obj["ambient"]
        from .subspaces import subspace_from_rows

        labels = {
            node: subspace_from_rows(fld, rows, ambient) for node, rows in obj["labels"].items()
        }
    net = Network(
        h=obj["h"],
        source=obj["source"],
        terminals=tuple(obj["terminals"]),
        nodes=tuple(n["id"] for n in obj["nodes"]),
        edges=tuple(Edge(e["id"], e["from"], e["to"]) for e in obj["edges"]),
        labels=labels,
    )
    if validate:
        validate_network(net)
    return net


def network_to_dot(net: Network) -> str:
    lines = ["digraph N {"]
    for v in net.nodes:
        if v == net.source:
            shape = "box"
        elif v in net.terminals:
            shape = "doublecircle"
        else:
            shape = "circle"
        lines.append(f'  "{v}" [shape={shape}];')
    for e in net.edges:
        lines.append(f'  "{e.tail}" -> "{e.head}" [label="{e.id}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
