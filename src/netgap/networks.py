"""Directed-acyclic multicast networks: builders, cuts, minimality, file I/O.

Networks are multigraphs: parallel edges are first-class citizens with
their own ids, which both the message-extension construction and
m-parallelization rely on.  Names are kept at the boundary (the `Edge`
view and the JSON form); inside, a node is an index and an edge a place
in the edge list.  A network of three layers, source -> middles ->
terminals, is read off one pass over its edge arrays (`middle_layer`);
every other walk reads one cached index, each node's list of out-edges
and list of in-edges.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from dataclasses import dataclass, field as dc_field, replace
from functools import cached_property
from operator import itemgetter

from .errors import Budget, UnsolvableNetwork
from .gf import checked_int, field_of_order, make_field, matrix_from_json
from .subspaces import DirectSumIndex, canonicalize, check_size, enumerate_subspaces


@dataclass(frozen=True)
class Edge:
    """One edge by name, the view of an edge outside this module."""

    id: str
    tail: str
    head: str


# edge counts up to which the edge-deletion minimality test is cheap enough
# to run for route selection; bigger networks must be structurally minimal
_MINIMALITY_PROBE_EDGES = 120


@dataclass(frozen=True)
class Network:
    """A DAG multigraph with one source, its terminals and h messages.

    Names are kept once, as tuples, and the structure is integers:
    - `nodes`: the node names; node index k is `nodes[k]`;
    - `edge_ids`: the edge ids in edge-list order; edge e is `edge_ids[e]`;
    - `tail`, `head`: the node index of each edge's tail and head;
    - `strays`: names edges use that `nodes` lacks, indexed after the
      nodes (only a network `validate_network` rejects has any);
    - `labels`: node name -> subspace, where the middles carry one.
    Builders and the parser give the arrays; `from_edges` takes `Edge`s.
    The cached properties below are built on first use and stay out of
    equality, hashing and the JSON form.
    """

    h: int
    source: str
    terminals: tuple[str, ...]
    nodes: tuple[str, ...]
    edge_ids: tuple[str, ...]
    tail: tuple[int, ...]
    head: tuple[int, ...]
    strays: tuple[str, ...] = ()
    labels: dict | None = dc_field(default=None, compare=False)

    @classmethod
    def from_edges(cls, h, source, terminals, nodes, edges, labels=None) -> Network:
        """The network on a list of `Edge`s, the one way in by name."""
        edges = tuple(edges)
        ends = (lambda: (e.tail for e in edges)), (lambda: (e.head for e in edges))
        return _named(h, source, terminals, nodes, [e.id for e in edges], *ends, labels)

    @cached_property
    def _node_of(self) -> dict:
        """Name -> node index (a name given twice: its last place)."""
        return dict(zip(self.nodes + self.strays, itertools.count()))

    @cached_property
    def _index(self) -> tuple[list[list[int]], list[list[int]]]:
        """(outs, ins): each node place's out- and in-edges in edge-list order
        (names may repeat), from one loop, so both lists share each edge's int."""
        outs = [[] for _ in range(len(self.nodes) + len(self.strays))]
        ins = [[] for _ in outs]
        Budget().spend_many(len(self.tail))
        for e, v, w in zip(itertools.count(), self.tail, self.head):
            outs[v].append(e)
            ins[w].append(e)
        return outs, ins

    @cached_property
    def _layers(self) -> tuple:
        """(roots, mids, indeg, outdeg, feeders) from one pass over the edge
        arrays, no index: the source edges in edge-list order, their heads,
        Counters of the degrees, and each node's feeders among the middles
        as one bitmask, bit k standing for mids[k]."""
        tail, head = self.tail, self.head
        src = self._node_of.get(self.source)
        sourced = () if src is None else map(src.__eq__, tail)
        roots = list(itertools.compress(itertools.count(), sourced))
        mids = list(map(head.__getitem__, roots))
        bit = {m: 1 << k for k, m in enumerate(mids)}
        feeders = [0] * (len(self.nodes) + len(self.strays))  # by place: names may repeat
        Budget().spend_many(len(tail))  # one node per edge
        for b, v in zip(map(bit.get, tail), head):
            if b:
                feeders[v] |= b
        return roots, mids, Counter(head), Counter(tail), feeders

    @cached_property
    def _shape(self) -> tuple[bool, tuple[int, int, int] | None]:
        """(`is_subcombination`, `combination_parameters`) from the layers: a
        feeder that is no middle adds no bit and a middle feeding twice adds
        one, so a terminal's feeders are distinct middles iff the popcount
        of its feeder mask is its in-degree."""
        _, mids, indeg, outdeg, feeders = self._layers
        node_of = self._node_of
        src = node_of.get(self.source)
        terms = list(dict.fromkeys(map(node_of.get, self.terminals)))  # each once, in order
        if src is None or None in terms:
            return False, None
        if (  # the source, the middles and the terminals must be every node
            len(set(mids)) != len(mids)
            or not set(mids).isdisjoint(terms)
            or max((src, *mids, *terms)) >= len(self.nodes)
            or len({src, *mids, *terms}) != len(node_of) - len(self.strays)
            or any(indeg[m] != 1 for m in mids)
        ):
            return False, None
        masks = list(map(feeders.__getitem__, terms))
        degrees = list(map(indeg.__getitem__, terms))
        if list(map(int.bit_count, masks)) != degrees or not outdeg.keys().isdisjoint(terms):
            return False, None
        # a sub-combination network's middles each feed, and feed only,
        # terminals (so their out-degrees add up to the edges into
        # terminals), each drawing h edges
        subcombination = (
            src not in terms
            and set(degrees) <= {self.h}
            and sum(outdeg[m] for m in mids) == sum(degrees)
            and all(map(outdeg.__getitem__, mids))
        )
        # a full combination network has one terminal per s-subset of its r middles
        if src in mids or len(set(degrees)) != 1:
            return subcombination, None
        r, s = len(mids), degrees[0]
        if len(self.terminals) != math.comb(r, s) or len(masks) != len(self.terminals):
            return subcombination, None
        masks.sort()  # not a set: 1 << k hashes as 1 << (k % 61), so sparse masks collide
        if any(map(int.__eq__, masks, masks[1:])):
            return subcombination, None
        return subcombination, (self.h, r, s)

    @cached_property
    def _routing_minimal(self) -> bool:
        """Minimality for route selection: the sub-combination shape, else
        the edge-deletion test on networks of at most
        _MINIMALITY_PROBE_EDGES edges, else False (unknown, so the routes
        fall back to certified exhaustive searches)."""
        return self._shape[0] or len(self.edge_ids) <= _MINIMALITY_PROBE_EDGES and is_minimal(self)

    @cached_property
    def _skeleton(self):
        """The edge-class skeleton."""
        from .skeleton import skeleton

        return skeleton(self)

    def middle_layer(self) -> tuple[list[int], list[int]] | None:
        """(roots, feeders) of a network of three layers, source -> middles
        -> terminals: the sub-combination shape, which keeps the source out
        of the middles and has every middle feeding.  Bit k of feeders[v]
        is set when the head of roots[k], the source edges in edge-list
        order, feeds node v.  None for any other network."""
        roots, _, _, _, feeders = self._layers
        return (roots, feeders) if self._shape[0] else None

    def source_edges(self) -> list[int]:
        """The edges leaving the source in edge-list order, read without the index."""
        return self._layers[0][:]

    def index_of(self, node: str) -> int:
        """A node name's index; KeyError for a name no node or edge has."""
        return self._node_of[node]

    def out_slice(self, k: int) -> list[int]:
        """The edges leaving node index k, in edge-list order."""
        return self._index[0][k][:]

    def in_slice(self, k: int) -> list[int]:
        """The edges entering node index k, in edge-list order."""
        return self._index[1][k][:]

    def in_degrees(self) -> list[int]:
        """A new list of the in-degree of every node index."""
        return list(map(len, self._index[1]))

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge by name, in edge-list order, made on each call."""
        return tuple(self._views(range(len(self.edge_ids))))

    def _views(self, edges) -> list[Edge]:
        names = self.nodes + self.strays
        return [Edge(self.edge_ids[e], names[self.tail[e]], names[self.head[e]]) for e in edges]

    def in_edges(self, node: str) -> list[Edge]:
        return self._views(self._index[1][self._node_of[node]]) if node in self._node_of else []

    def out_edges(self, node: str) -> list[Edge]:
        return self._views(self._index[0][self._node_of[node]]) if node in self._node_of else []

    def in_degree(self, node: str) -> int:
        return len(self.in_edges(node))

    def without_edge(self, eid: str) -> Network:
        keep = [i != eid for i in self.edge_ids]
        ids, tail, head = (
            tuple(itertools.compress(a, keep)) for a in (self.edge_ids, self.tail, self.head)
        )
        return replace(self, edge_ids=ids, tail=tail, head=head)


def _named(h, source, terminals, nodes, ids, tails, heads, labels) -> Network:
    """The network whose edge ends are named by `tails()` and `heads()`,
    each a fresh iterator; an end that is not among `nodes` becomes a
    stray."""
    nodes = tuple(nodes)
    node_of = dict(zip(nodes, itertools.count()))
    index = node_of.__getitem__
    try:
        tail, head, strays = tuple(map(index, tails())), tuple(map(index, heads())), ()
    except KeyError:
        ends = itertools.chain(*zip(tails(), heads()))
        strays = tuple(dict.fromkeys(v for v in ends if v not in node_of))
        node_of.update(zip(strays, itertools.count(len(nodes))))
        tail, head = tuple(map(index, tails())), tuple(map(index, heads()))
    return Network(h, source, tuple(terminals), nodes, tuple(ids), tail, head, strays, labels)


def _kahn(net: Network) -> list[int]:
    """Kahn's algorithm on node indices, the list its own queue; raises on
    cycles.  One node per edge, and only the deadline stops it."""
    outs = net._index[0]
    head, indeg, spend = net.head, net.in_degrees(), Budget().spend_many
    order = [k for k in map(net._node_of.__getitem__, net.nodes) if not indeg[k]]
    for v in order:
        spend(len(outs[v]))
        for w in map(head.__getitem__, outs[v]):
            indeg[w] -= 1
            if not indeg[w]:
                order.append(w)
    if len(order) != len(net.nodes):
        raise ValueError("network graph contains a cycle")
    return order


def topological_order(net: Network) -> list[str]:
    """Kahn's algorithm; raises on cycles. Deterministic by node order."""
    return list(map((net.nodes + net.strays).__getitem__, _kahn(net)))


def essential_nodes(net: Network) -> set[str]:
    """Nodes on some source-to-terminal path: reached from the source along
    the edges and from a terminal against them, one node spent per edge."""
    outs, ins = net._index
    names, bud, reached = net.nodes + net.strays, Budget(), []
    for seeds, lists, ends in (([net.source], outs, net.head), (net.terminals, ins, net.tail)):
        seen = bytearray(len(names))
        frontier = [v for v in map(net._node_of.get, seeds) if v is not None]
        while frontier:
            v = frontier.pop()
            if not seen[v]:
                seen[v] = 1
                bud.spend_many(len(lists[v]))
                frontier += map(ends.__getitem__, lists[v])
        reached.append(seen)
    return set(itertools.compress(names, map(int.__and__, *reached)))


def validate_network(net: Network) -> None:
    if net.h < 1:
        raise ValueError("message count h must be >= 1")
    if not net.terminals:
        raise ValueError("network needs at least one terminal")
    node_of, n = net._node_of, len(net.nodes)
    if len(node_of) != n + len(net.strays):
        raise ValueError("duplicate node ids")
    if node_of.get(net.source, n) >= n:
        raise ValueError("source not among nodes")
    if len(set(net.edge_ids)) != len(net.edge_ids):
        raise ValueError("duplicate edge ids")
    if max(net.tail, default=-1) >= n or max(net.head, default=-1) >= n:
        bad = next(e for e, ends in enumerate(zip(net.tail, net.head)) if max(ends) >= n)
        raise ValueError(f"edge {net.edge_ids[bad]} references unknown node")
    seen = bytearray(n)
    for t in net.terminals:
        k = node_of.get(t, n)
        if k >= n or seen[k]:
            raise ValueError(f"terminal {t} {'not among nodes' if k >= n else 'listed twice'}")
        seen[k] = 1
    # three layers, source -> middles -> terminals, are acyclic, the source
    # is their one node of in-degree 0 and every sink is a terminal
    if net.middle_layer() is not None:
        return
    _kahn(net)
    if net.in_degree(net.source):
        raise ValueError("source must have in-degree 0")
    # in a DAG every node is reached from a node of in-degree 0 and reaches
    # a node of out-degree 0, so every node lies on a source-to-terminal
    # path iff the source is the only node of in-degree 0 and every node of
    # out-degree 0 is a terminal
    outs, ins = net._index
    sinks = [v for v in range(n) if not outs[v]]
    if ins.count([]) != 1 or not set(map(node_of.get, net.terminals)).issuperset(sinks):
        raise ValueError("network contains non-essential nodes")


def prune(net: Network) -> Network:
    """Drop non-essential nodes (for imported networks)."""
    keep = essential_nodes(net)
    edges = [e for e in net.edges if e.tail in keep and e.head in keep]
    nodes = [v for v in net.nodes if v in keep]
    return Network.from_edges(net.h, net.source, net.terminals, nodes, edges, net.labels)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _edge_ids(count: int) -> list[str]:
    # one %-format built once: a nested f-string spec is parsed per id
    form = f"e%0{len(str(max(count - 1, 0)))}d"
    return [form % i for i in range(count)]


def _middle_network(
    h: int, middles: list[str], hyperedges, labels: dict | None = None, bud: Budget | None = None
) -> Network:
    """Source `s` -> one middle per name -> one terminal per hyperedge.

    The form of every combination, Kneser and reverse-skeleton network: a
    hyperedge is a tuple of middle indices, and its terminal `t<i>_<j>...`
    is fed by those middles in order.  Node 0 is the source, then the
    middles, then the terminals; edges are numbered source edges first,
    then each terminal's.  One node per terminal edge is spent on `bud`
    (by default one with no node limit), so only the deadline stops the
    construction.  Not validated here: a caller whose hyperedges come from
    outside the program validates the result.
    """
    if bud is None:
        bud = Budget()
    r = len(middles)
    terminals = []
    tail, head = [0] * r, list(range(1, r + 1))
    for k, members in enumerate(hyperedges, r + 1):
        bud.spend_many(len(members))
        terminals.append("t" + "_".join([str(i) for i in members]))
        tail += [i + 1 for i in members]
        head += [k] * len(members)
    nodes, ids = ("s", *middles, *terminals), tuple(_edge_ids(len(tail)))
    return Network(h, "s", tuple(terminals), nodes, ids, tuple(tail), tuple(head), labels=labels)


def build_combination(h: int, r: int, s: int) -> Network:
    """The N_{h,r,s} combination network, valid by construction: with
    r >= s >= 1 every middle lies in some s-subset."""
    if s < 1 or r < s:
        raise ValueError(f"require r >= s >= 1, got r={r}, s={s}")
    if h < 1:
        raise ValueError("h must be >= 1")
    check_size(math.comb(r, s), "terminals")
    return _middle_network(h, [f"m{i}" for i in range(r)], itertools.combinations(range(r), s))


def build_butterfly() -> Network:
    """The butterfly network with the standard node/edge labelling."""
    pairs = "s v1, s v2, v1 v3, v2 v3, v1 t1, v3 v4, v2 t2, v4 t1, v4 t2".split(", ")
    edges = [Edge(f"e{i}", *pair.split()) for i, pair in enumerate(pairs, 1)]
    return Network.from_edges(2, "s", ("t1", "t2"), "s v1 v2 v3 v4 t1 t2".split(), edges)


def build_kneser(q: int, t: int, h: int) -> Network:
    """The Kneser network K_{q,t;h}.

    Middle nodes carry all t-subspaces of F_q^{ht} in canonical order; a
    terminal exists for each h-subset whose labels sum to the full space.
    Valid by construction: every t-subspace has h - 1 others completing it
    to a direct sum, so every middle feeds a terminal.
    """
    if h < 2:
        raise ValueError("Kneser networks need h >= 2")
    if t < 1:
        raise ValueError(f"Kneser networks need t >= 1, got t={t}")
    fld = field_of_order(q)
    middles = enumerate_subspaces(fld, h * t, t)
    r = len(middles)
    check_size(math.comb(r, h), f"candidate terminals of K_{{{q},{t};{h}}}")
    # h t-subspaces span F_q^{ht} iff they are in direct sum.  One node per
    # candidate scanned, per vector listed in a span of k < h middles and
    # per terminal edge made, and only the deadline stops the construction
    bud = Budget()
    middle_ids = [f"m{i}" for i in range(r)]
    subsets = DirectSumIndex(middles).direct_sum_subsets(h, bud)
    return _middle_network(h, middle_ids, subsets, dict(zip(middle_ids, middles)), bud)


def _fresh_prefix(net: Network) -> str:
    taken = set(net.nodes) | set(net.edge_ids)
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
    src = prefix + "src"
    edges = [Edge(f"{prefix}s{i}", src, net.source) for i in range(net.h)] + list(net.edges)
    extra = range(h_new - net.h)
    edges += [Edge(f"{prefix}t_{term}_{j}", src, term) for term in net.terminals for j in extra]
    out = Network.from_edges(h_new, src, net.terminals, (src, *net.nodes), edges, net.labels)
    validate_network(out)
    return out


def parallelize(net: Network, m: int) -> Network:
    """Duplicate every edge m times and scale the message count by m."""
    if m < 1:
        raise ValueError("parallelization factor must be >= 1")
    copies = range(1, m + 1)
    out = replace(
        net,
        h=net.h * m,
        edge_ids=tuple(f"{eid}.{j}" for eid in net.edge_ids for j in copies),
        tail=tuple(k for k in net.tail for _ in copies),
        head=tuple(k for k in net.head for _ in copies),
    )
    validate_network(out)
    return out


def combination_parameters(net: Network) -> tuple[int, int, int] | None:
    """(h, r, s) if the network is a full combination network, else None."""
    return net._shape[1]


def is_subcombination(net: Network) -> bool:
    """Sub-network of a combination network with every terminal of in-degree h.

    Shape: one source edge per middle node, middle nodes feed at least
    one terminal and only terminals, each terminal draws exactly h edges
    from h distinct middle nodes.  Such networks are always minimal:
    dropping a terminal edge starves that terminal, dropping a source edge
    starves any terminal the middle node feeds, and it feeds one.
    """
    return net._shape[0]


# ---------------------------------------------------------------------------
# cuts and minimality
# ---------------------------------------------------------------------------

def _max_flow(net: Network, dst: int, cutoff: int | None = None, without: int | None = None) -> int:
    """Unit-capacity max flow from the source to node index `dst`, by BFS
    augmenting paths on the edge index: edge e is residual arc 2e forward
    and 2e + 1 back.  `without` is the index of an edge left out."""
    outs, ins = net._index
    tail, head, src = net.tail, net.head, net._node_of[net.source]
    cap = bytearray(b"\x01\x00" * len(tail))
    if without is not None:
        cap[2 * without] = 0
    flow = 0
    while cutoff is None or flow < cutoff:
        parent_arc = [-1] * len(outs)
        parent_arc[src] = -2
        queue = deque([src])
        while queue and parent_arc[dst] == -1:
            u = queue.popleft()
            for arcs, ends, back in ((outs[u], head, 0), (ins[u], tail, 1)):
                for e in arcs:
                    v = ends[e]
                    if cap[2 * e + back] and parent_arc[v] == -1:
                        parent_arc[v] = 2 * e + back
                        queue.append(v)
        if parent_arc[dst] == -1:
            return flow
        v = dst
        while v != src:
            arc = parent_arc[v]
            cap[arc] -= 1
            cap[arc ^ 1] += 1
            v = head[arc >> 1] if arc & 1 else tail[arc >> 1]
        flow += 1
    return flow


def min_cut(net: Network, terminal: str) -> int:
    """Minimum edge cut between the source and the terminal.

    Unit capacities, BFS augmenting paths.
    """
    if terminal not in net.terminals:
        raise ValueError(f"{terminal!r} is not a terminal")
    return _max_flow(net, net.index_of(terminal))


def is_solvable(net: Network) -> bool:
    """Cut criterion: every terminal separated by cuts of size >= h."""
    if is_subcombination(net):
        return True  # h disjoint source-middle-terminal paths per terminal
    for t in Budget().each(net.terminals):  # only the deadline stops it
        if _max_flow(net, net.index_of(t), cutoff=net.h) < net.h:
            return False
    return True


def is_minimal(net: Network) -> bool:
    """True iff removing any single edge breaks the cut criterion.

    Raises UnsolvableNetwork when the input itself fails the criterion,
    since minimality is undefined there.  Only the terminals reachable from
    the removed edge's head are re-checked: no path to any other terminal
    uses the edge, so their flows cannot drop.  Each max flow spends one
    budget node, so the deadline reaches them.
    """
    if not is_solvable(net):
        raise UnsolvableNetwork("network fails the cut criterion; minimality undefined")
    outs = net._index[0]
    terms = [net._node_of[t] for t in net.terminals]
    # bitmask of the terminals reachable from each node, itself included;
    # one node per edge walked, and only the deadline stops it
    reach = [0] * len(outs)
    for k, v in enumerate(terms):
        reach[v] = 1 << k
    bud = Budget()
    for v in reversed(_kahn(net)):
        bud.spend_many(len(outs[v]))
        for w in map(net.head.__getitem__, outs[v]):
            reach[v] |= reach[w]
    # one node per max flow: only the deadline stops it
    bud = Budget()
    for e, v in enumerate(net.head):
        mask = reach[v]
        while mask:
            low = mask & -mask
            mask ^= low
            bud.spend()
            if _max_flow(net, terms[low.bit_length() - 1], net.h, without=e) < net.h:
                break
        else:
            return False  # every terminal keeps its cut without this edge
    return True


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def network_to_json(net: Network) -> dict:
    name = (net.nodes + net.strays).__getitem__
    obj = {
        "h": net.h,
        "source": net.source,
        "terminals": list(net.terminals),
        "nodes": [{"id": v} for v in net.nodes],
        "edges": [
            {"id": eid, "from": a, "to": b}
            for eid, a, b in zip(net.edge_ids, map(name, net.tail), map(name, net.head))
        ],
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
        ambient = checked_int(obj["ambient"], "ambient")
        labels = {
            node: canonicalize(fld, matrix_from_json(fld, rows, None, ambient))
            for node, rows in obj["labels"].items()
        }
    checked_int(obj["h"], "message count h")
    edges, nodes = obj["edges"], map(itemgetter("id"), obj["nodes"])
    ids = tuple(map(itemgetter("id"), edges))
    if {*map(type, ids)} - {str}:
        raise ValueError("edge ids must be strings")
    tails, heads = (lambda: map(itemgetter("from"), edges)), (lambda: map(itemgetter("to"), edges))
    net = _named(obj["h"], obj["source"], obj["terminals"], nodes, ids, tails, heads, labels)
    if validate:
        validate_network(net)
    return net


def network_to_dot(net: Network) -> str:
    shape = dict.fromkeys(net.terminals, "doublecircle") | {net.source: "box"}
    lines = ["digraph N {"]
    lines += [f'  "{v}" [shape={shape.get(v, "circle")}];' for v in net.nodes]
    lines += [f'  "{e.tail}" -> "{e.head}" [label="{e.id}"];' for e in net.edges]
    return "\n".join(lines) + "\n}\n"
