"""Test inputs: sub-networks of combination networks, and relabelled copies
of any network, built without the library's routing code."""

import random

from netgap.networks import (
    Network,
    build_combination,
    network_from_json,
    network_to_json,
    validate_network,
)


def sub_combination(h: int, r: int, keep: int, seed: int) -> Network:
    """N_{h,r,h} keeping `keep` of its terminals, drawn by random.Random(seed),
    with the middle nodes that then feed no terminal dropped."""
    full = build_combination(h, r, h)
    kept = set(random.Random(seed).sample(full.terminals, keep))
    middles = {e.tail for e in full.edges if e.head in kept}
    net = Network.from_edges(
        h,
        full.source,
        tuple(v for v in full.terminals if v in kept),
        tuple(v for v in full.nodes if v == full.source or v in kept or v in middles),
        tuple(e for e in full.edges if e.head in kept or e.head in middles),
    )
    validate_network(net)
    return net


def relabel(net: Network, seed: int) -> Network:
    """The same network with fresh node and edge ids and its node and
    terminal lists shuffled; the edge list keeps its order."""
    rng = random.Random(seed)
    obj = network_to_json(net)
    nodes = [n["id"] for n in obj["nodes"]]
    fresh = [f"v{i}" for i in range(len(nodes))]
    rng.shuffle(fresh)
    name = dict(zip(nodes, fresh))
    edge_ids = [f"a{i}" for i in range(len(obj["edges"]))]
    rng.shuffle(edge_ids)
    obj["source"] = name[obj["source"]]
    obj["nodes"] = [{"id": name[v]} for v in nodes]
    rng.shuffle(obj["nodes"])
    obj["terminals"] = [name[v] for v in obj["terminals"]]
    rng.shuffle(obj["terminals"])
    obj["edges"] = [
        {"id": eid, "from": name[e["from"]], "to": name[e["to"]]}
        for eid, e in zip(edge_ids, obj["edges"])
    ]
    if "labels" in obj:
        obj["labels"] = {name[v]: rows for v, rows in obj["labels"].items()}
    return network_from_json(obj)
