"""Edge-class skeleton of a DAG network and its reverse construction.

Every edge leaving a node of in-degree != 1 starts a class; the class is
closed under traversal through in-degree-1 nodes.  Classes partition the
edge set, become skeleton vertices, and two classes are joined whenever
they contain edges entering a common node.  For minimal two-message
networks, linear solutions correspond to homomorphisms of this skeleton
into a q-Kneser graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

from .errors import Budget
from .graphs import UGraph, ugraph_to_json
from .networks import Network, _middle_network, validate_network


@dataclass(frozen=True)
class SkeletonGraph:
    graph: UGraph  # vertex names are class ids
    members: tuple  # per vertex, its class's edge ids, the root edge first

    @property
    def class_ids(self) -> tuple[str, ...]:
        return self.graph.names

    @cached_property
    def classes(self) -> dict:
        """Class id -> frozenset of edge ids; the searches read only the graph."""
        return {cid: frozenset(m) for cid, m in zip(self.class_ids, self.members)}


def skeleton(net: Network) -> SkeletonGraph:
    """The classes, numbered by their root edge's place in the edge list."""
    layer = net.middle_layer()
    return _class_walk(net) if layer is None else _layered(net, *layer)


def _layered(net: Network, roots: list[int], feeders: list[int]) -> SkeletonGraph:
    """The skeleton of a three-layer network: class k is the k-th source
    edge and its middle's out-edges, its mask the OR of the feeder masks of
    the terminals they enter less its own bit; one node per edge spent."""
    tail, head, ids = net.tail, net.head, net.edge_ids
    class_of = {head[e]: k for k, e in enumerate(roots)}
    members, adj = [[ids[e]] for e in roots], [0] * len(roots)
    Budget().spend_many(len(tail))
    for e, k in enumerate(map(class_of.get, tail)):
        if k is not None:
            members[k].append(ids[e])
            adj[k] |= feeders[head[e]]
    adj = tuple(a & ~(1 << k) for k, a in enumerate(adj))
    graph = UGraph(len(roots), adj, names=tuple(map(min, members)))
    return SkeletonGraph(graph=graph, members=tuple(map(tuple, members)))


def _class_walk(net: Network) -> SkeletonGraph:
    """The skeleton of any network, by walking each class from its root.

    A node of in-degree 1 continues the class of its one in-edge, so a
    class is its root edge and the out-edges of the nodes it reaches
    through such nodes.  Every node ORs the class bits of its in-edges into
    one mask, and each class's adjacency mask ORs the masks of the nodes
    its edges enter, less its own bit (a node of in-degree 1 adds nothing).
    The three walks spend on one Budget with no node limit: one node per
    root and per edge of each node's out-edges or class they take.
    """
    tail, head, ids = net.tail, net.head, net.edge_ids
    single = bytes(d == 1 for d in net.in_degrees())
    roots = [e for e, v in enumerate(tail) if not single[v]]
    class_members, class_heads = [], []  # each class's edge ids, and the nodes they enter
    bud = Budget()
    for root in roots:
        bud.spend()
        members, heads = [ids[root]], [head[root]]
        frontier = [head[root]] if single[head[root]] else []
        while frontier:
            out = net.out_slice(frontier.pop())
            bud.spend_many(len(out))
            members += [ids[e] for e in out]
            heads += (entered := [head[e] for e in out])
            frontier += [v for v in entered if single[v]]
        class_members.append(members)
        class_heads.append(heads)

    node_bits = [0] * len(single)
    for k, heads in enumerate(class_heads):
        bud.spend_many(len(heads))
        bit = 1 << k
        for v in heads:
            node_bits[v] |= bit
    adj = []
    for k, heads in enumerate(class_heads):
        bud.spend_many(len(heads))
        adj.append(reduce(or_, map(node_bits.__getitem__, heads), 0) & ~(1 << k))

    graph = UGraph(len(roots), tuple(adj), names=tuple(map(min, class_members)))
    return SkeletonGraph(graph=graph, members=tuple(map(tuple, class_members)))


def reverse_skeleton(g: UGraph) -> Network:
    """A minimal two-message network whose skeleton is the given graph.

    Source feeding one middle node per vertex; one terminal per edge, fed
    by its two endpoint middle nodes.  The result is a sub-network of the
    full combination network on len(g) middle nodes.  Middle nodes carry
    the vertex names; terminals are named by vertex indices, which stay
    distinct even where names contain the separator.
    """
    names = g.vertex_names
    degrees = g.degree_sequence()
    isolated = [names[v] for v in range(g.num_vertices) if degrees[v] == 0]
    if isolated:
        raise ValueError(f"isolated vertices {isolated} would be non-essential middle nodes")
    net = _middle_network(2, [f"v{name}" for name in names], g.edges)
    validate_network(net)  # the names and edges come from outside
    return net


def skeleton_to_json(skel: SkeletonGraph) -> dict:
    obj = ugraph_to_json(skel.graph)
    obj["classes"] = {cid: sorted(members) for cid, members in skel.classes.items()}
    return obj
