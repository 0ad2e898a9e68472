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
from functools import reduce
from operator import or_

from .errors import Budget
from .graphs import UGraph
from .networks import Network, _middle_network


@dataclass(frozen=True)
class SkeletonGraph:
    graph: UGraph  # vertex names are class ids
    classes: dict  # class id -> frozenset of edge ids

    @property
    def class_ids(self) -> tuple[str, ...]:
        return self.graph.names


def skeleton(net: Network) -> SkeletonGraph:
    """The classes, numbered by their root edge's place in the edge list.

    A node of in-degree 1 continues the class of its one in-edge, so a
    class is its root edge and the out-edges of the nodes it reaches
    through such nodes.  Every node ORs the class bits of its in-edges into
    one mask, and each class's adjacency mask ORs the masks of the nodes
    its edges enter, less its own bit (a node of in-degree 1 adds nothing).
    Each of the three walks spends one node per edge on one Budget with no
    node limit, a node or class at a time.
    """
    outs, ins = net._incidence
    single = {v for v, in_list in ins.items() if len(in_list) == 1}
    roots = [e for e in net.edges if e.tail not in single]
    class_members: list[list[str]] = []
    class_heads: list[list[str]] = []  # the node each member edge enters
    bud = Budget()
    for root in roots:
        bud.spend()
        members, heads = [root.id], [root.head]
        frontier = [root.head] if root.head in single else []
        while frontier:
            out = outs.get(frontier.pop(), ())
            bud.spend_many(len(out))
            members += [e.id for e in out]
            entered = [e.head for e in out]
            heads += entered
            frontier += [v for v in entered if v in single]
        class_members.append(members)
        class_heads.append(heads)

    node_bits: dict[str, int] = {}
    for k, heads in enumerate(class_heads):
        bud.spend_many(len(heads))
        bit = 1 << k
        for v in heads:
            node_bits[v] = node_bits.get(v, 0) | bit
    adj = []
    for k, heads in enumerate(class_heads):
        bud.spend_many(len(heads))
        adj.append(reduce(or_, map(node_bits.__getitem__, heads), 0) & ~(1 << k))

    class_ids = [min(members) for members in class_members]
    graph = UGraph.from_masks(len(roots), adj, names=tuple(class_ids))
    classes = {cid: frozenset(members) for cid, members in zip(class_ids, class_members)}
    return SkeletonGraph(graph=graph, classes=classes)


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
    return _middle_network(2, [f"v{name}" for name in names], g.edges)


def skeleton_roundtrip_check(g: UGraph) -> bool:
    """skeleton(reverse_skeleton(g)) matches g under the natural labels."""
    net = reverse_skeleton(g)
    skel = skeleton(net)
    names = g.vertex_names
    middle_of_vertex = {f"v{name}": i for i, name in enumerate(names)}

    # each class must contain exactly one source edge; its head names the vertex
    edge_of = {e.id: e for e in net.edges}
    class_vertex: dict[int, int] = {}
    for idx, cid in enumerate(skel.class_ids):
        src_edges = [edge_of[eid] for eid in skel.classes[cid] if edge_of[eid].tail == net.source]
        if len(src_edges) != 1:
            return False
        class_vertex[idx] = middle_of_vertex[src_edges[0].head]
    if sorted(class_vertex.values()) != list(range(g.num_vertices)):
        return False
    mapped = {
        (min(class_vertex[a], class_vertex[b]), max(class_vertex[a], class_vertex[b]))
        for a, b in skel.graph.edges
    }
    return mapped == set(g.edges)


def skeleton_to_dot(skel: SkeletonGraph) -> str:
    from .graphs import ugraph_to_dot

    return ugraph_to_dot(skel.graph)


def skeleton_to_json(skel: SkeletonGraph) -> dict:
    from .graphs import ugraph_to_json

    obj = ugraph_to_json(skel.graph)
    obj["classes"] = {cid: sorted(members) for cid, members in skel.classes.items()}
    return obj
