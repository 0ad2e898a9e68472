"""The benchmark's workloads: seeded inputs, commands and expected answers.

A workload is a fixed list of ``netgap`` CLI commands.  Its network inputs
are built with netgap's own builders and written as JSON; a non-zero seed
relabels them first.  Every command has an expected exit code and answer,
and every certificate a pass writes is replayed with ``check-cert``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable


def relabel(obj: dict, seed: int) -> dict:
    """Network JSON with node and edge ids renamed and lists reordered.

    Seed 0 returns the builder's labelling unchanged.  Any other seed gives
    every node and edge a fresh random name and shuffles the node and
    terminal lists.  The edge list keeps the builder's order: the skeleton's
    vertex order and the code search's edge order follow it, and shuffling
    it moved the time of q_s of K_{3,2;2} to 0.54x and 0.67x of the built
    order's on two seeds, which would make the timing depend on the seed
    more than on the code.  With the order kept, every seed does the same
    work.
    """
    if seed == 0:
        return obj
    rng = random.Random(seed)
    old_nodes = [n["id"] for n in obj["nodes"]]
    new_nodes = [f"v{i}" for i in range(len(old_nodes))]
    rng.shuffle(new_nodes)
    node_map = dict(zip(old_nodes, new_nodes))
    old_edges = [e["id"] for e in obj["edges"]]
    new_edges = [f"a{i}" for i in range(len(old_edges))]
    rng.shuffle(new_edges)
    edge_map = dict(zip(old_edges, new_edges))

    out = dict(obj)
    out["source"] = node_map[obj["source"]]
    out["nodes"] = [{"id": node_map[v]} for v in old_nodes]
    rng.shuffle(out["nodes"])
    out["terminals"] = [node_map[t] for t in obj["terminals"]]
    rng.shuffle(out["terminals"])
    out["edges"] = [
        {"id": edge_map[e["id"]], "from": node_map[e["from"]], "to": node_map[e["to"]]}
        for e in obj["edges"]
    ]
    if "labels" in obj:
        out["labels"] = {node_map[v]: rows for v, rows in obj["labels"].items()}
    return out


def write_inputs(netgap_networks, inputs: dict, seed: int) -> None:
    """Build each named network, relabel it by the seed and write it as JSON."""
    for filename, build in inputs.items():
        obj = relabel(netgap_networks.network_to_json(build(netgap_networks)), seed)
        with open(filename, "w") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _expect(**wanted) -> Callable[[dict], str | None]:
    """Checker that the command's JSON output has exactly these values."""

    def check(out: dict) -> str | None:
        for key, value in wanted.items():
            if key not in out:
                return f"missing {key!r} (a bracket where an exact value is expected?)"
            if out[key] != value:
                return f"{key}={out[key]!r}, expected {value!r}"
        return None

    return check


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict], str | None]
    certs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """Commands of one workload; BENCHMARK.json says why each was chosen."""

    name: str
    # input file name -> builder taking the netgap.networks module
    inputs: dict = field(default_factory=dict)
    steps: tuple[Step, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="kneser-gap",
            inputs={
                "k222.json": lambda nw: nw.build_kneser(2, 2, 2),
                "k322.json": lambda nw: nw.build_kneser(3, 2, 2),
            },
            steps=(
                Step(
                    "gap-k222",
                    ("gap", "--network", "k222.json", "--json", "--cert-prefix", "gap-k222"),
                    0,
                    _expect(q_v=4, q_s=5, gap=1, methods="qs:skeleton-chi;qv:homomorphism"),
                    ("gap-k222-qs-cert.json", "gap-k222-qv-cert.json"),
                ),
                Step(
                    "qs-k322",
                    ("qs", "--network", "k322.json", "--json", "--cert", "qs-k322.json"),
                    0,
                    _expect(q_s=11, method="skeleton-chi"),
                    ("qs-k322.json",),
                ),
                # q_v of K_{3,2;2} by its parameters: on a relabelled network the
                # homomorphism search does not settle it (known defect, NOTES.md)
                Step(
                    "qv-kneser322",
                    ("qv", "--kneser", "3", "2", "2", "--json", "--cert", "qv-k322.json"),
                    0,
                    _expect(q_v=9, method="homomorphism"),
                    ("qv-k322.json",),
                ),
            ),
        ),
        Workload(
            name="code-search",
            inputs={
                "n262.json": lambda nw: nw.build_combination(2, 6, 2),
                "n363.json": lambda nw: nw.build_combination(3, 6, 3),
                "n353.json": lambda nw: nw.build_combination(3, 5, 3),
            },
            steps=(
                Step(
                    "solve-n262-q2t2",
                    ("solve", "--network", "n262.json", "--q", "2", "--t", "2", "--json",
                     "--cert", "solve-n262.json"),
                    1,
                    _expect(status="nonexistent"),
                ),
                Step(
                    "solve-n363-q3",
                    ("solve", "--network", "n363.json", "--q", "3", "--json",
                     "--cert", "solve-n363.json"),
                    1,
                    _expect(status="nonexistent"),
                ),
                Step(
                    "solve-n353-q2t2",
                    ("solve", "--network", "n353.json", "--q", "2", "--t", "2", "--json",
                     "--cert", "solve-n353.json"),
                    0,
                    _expect(status="found"),
                    ("solve-n353.json",),
                ),
                Step(
                    "qs-n363",
                    ("qs", "--network", "n363.json", "--json", "--cert", "qs-n363.json"),
                    0,
                    _expect(q_s=4, method="exhaustive"),
                    ("qs-n363.json",),
                ),
            ),
        ),
        Workload(
            name="ic-maxima",
            inputs={"n353.json": lambda nw: nw.build_combination(3, 5, 3)},
            steps=(
                Step(
                    "ic-2-2-3-3",
                    ("ic", "search", "--q", "2", "--t", "2", "--h", "3", "--alpha", "3",
                     "--json", "--cert", "ic-2233.json"),
                    0,
                    _expect(size=6, bound=6, exact=True),
                    ("ic-2233.json",),
                ),
                Step(
                    "ic-5-1-3-3",
                    ("ic", "search", "--q", "5", "--t", "1", "--h", "3", "--alpha", "3",
                     "--json", "--cert", "ic-5133.json"),
                    0,
                    _expect(size=6, bound=7, exact=True),
                    ("ic-5133.json",),
                ),
                Step(
                    "ic-3-2-2-2",
                    ("ic", "search", "--q", "3", "--t", "2", "--h", "2", "--alpha", "2",
                     "--json", "--cert", "ic-3222.json"),
                    0,
                    _expect(size=10, exact=True),
                    ("ic-3222.json",),
                ),
                Step(
                    "qv-n353",
                    ("qv", "--network", "n353.json", "--json", "--cert", "qv-n353.json"),
                    0,
                    _expect(q_v=4, method="ic"),
                    ("qv-n353.json",),
                ),
            ),
        ),
    )
}
