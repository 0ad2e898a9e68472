"""Self-contained certificates and the one checker for each of them.

Certificates embed the full instance (graph, network, code, or
configuration) so `check` re-derives every claim from field and rank
primitives alone, without trusting the solvers that produced them.  The
checkers here are netgap's only coloring, homomorphism, network-code and
independent-configuration predicates: `lincode.verify_solution` and
`mdsic.ic_is_valid` replay their arguments through them, and this module
imports nothing from netgap but `gf`.  Each kind has one maker, beside
the objects it serialises: `graphs` makes coloring and homomorphism
certificates, `lincode` network-code ones and `mdsic`
independent-configuration ones.  A malformed certificate (a missing key,
a value of the wrong type) is rejected, never raised.

A network-code certificate is checked for its shape before any rank:
p, m, q, t and h are ints (`gf.checked_int`); q = p^m; t >= 1; every
edge has a t x ht matrix over F_q; the code's h is the network's; the
source, the terminals and every edge endpoint are listed nodes; every
node without inputs but the source has no outputs; and the edge graph
is acyclic (Kahn's sweep), so every terminal's data flows from the
source.  An independent-configuration certificate needs int p, m, t, h
and alpha, t >= 1 and 1 <= alpha <= h.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .gf import Matrix, checked_int, make_field, rank, stack


@dataclass
class Verdict:
    ok: bool
    terminal_ranks: dict
    failure: str | None = None
    failure_kind: str | None = None  # "shape" | "local" | "terminal"


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

def _check_coloring(cert: dict) -> tuple[bool, str]:
    names = [str(v) for v in cert["graph"]["vertices"]]
    colors = cert["colors"]
    if set(colors) != set(names):
        return False, "coloring does not cover the vertex set exactly"
    for a, b in cert["graph"]["edges"]:
        if colors[str(a)] == colors[str(b)]:
            return False, f"edge ({a},{b}) is monochromatic"
    used = len(set(colors.values()))
    if used != cert["num_colors"]:
        return False, f"claims {cert['num_colors']} colors but uses {used}"
    return True, f"proper coloring with {used} colors"


def _check_homomorphism(cert: dict) -> tuple[bool, str]:
    mapping = cert["map"]
    g1, g2 = cert["from"], cert["to"]
    names1 = {str(v) for v in g1["vertices"]}
    names2 = {str(v) for v in g2["vertices"]}
    if set(mapping) != names1 or not set(mapping.values()) <= names2:
        return False, "map is not a total function into the target vertices"
    target_edges = set()
    for a, b in g2["edges"]:
        target_edges.add((str(a), str(b)))
        target_edges.add((str(b), str(a)))
    for a, b in g1["edges"]:
        fa, fb = mapping[str(a)], mapping[str(b)]
        if fa == fb or (fa, fb) not in target_edges:
            return False, f"edge ({a},{b}) maps to non-edge ({fa},{fb})"
    return True, "valid homomorphism"


def _matrix(fld, rows, t: int, width: int) -> Matrix | None:
    """`rows` as a t x width matrix over fld, or None when the shape is off
    or an entry is not an element of fld."""
    if len(rows) != t or any(len(row) != width for row in rows):
        return None
    mat = Matrix.from_rows(fld, rows)
    elements = range(fld.q)
    return mat if all(x in elements for x in mat.data) else None


def network_code_verdict(cert: dict) -> Verdict:
    """Every terminal's rank and the first failure of a network-code
    certificate: "shape" (module docstring), "local" (an edge not computable
    from its tail's inputs) or "terminal" (a terminal below rank ht)."""
    net, code = cert["network"], cert["code"]

    def shape(failure: str) -> Verdict:
        return Verdict(ok=False, terminal_ranks={}, failure=failure, failure_kind="shape")

    fld = make_field(code["p"], code["m"])
    if checked_int(code["q"], "q") != fld.q:
        return shape(f"code declares q={code['q']}, but p^m = {fld.q}")
    t = checked_int(code["t"], "t")
    nt = checked_int(net["h"], "h") * t
    if t < 1:
        return shape(f"code declares t={t}, but t >= 1")
    mats = {}
    for e in net["edges"]:
        if e["id"] not in code["edges"]:
            return shape(f"missing assignment for edge {e['id']}")
        mat = _matrix(fld, code["edges"][e["id"]], t, nt)
        if mat is None:
            return shape(f"edge {e['id']}: matrix must be {t}x{nt} over the code's field")
        mats[e["id"]] = mat
    if checked_int(code["h"], "h") != net["h"]:
        return shape(f"code declares h={code['h']}, network has h={net['h']}")

    nodes = {n["id"] for n in net["nodes"]}
    source = net["source"]
    if source not in nodes or not nodes.issuperset(net["terminals"]):
        return shape("the source or a terminal is not among the nodes")
    in_edges: dict[str, list[str]] = {}
    out_edges: dict[str, list[dict]] = {}
    for e in net["edges"]:
        if e["from"] not in nodes or e["to"] not in nodes:
            return shape(f"edge {e['id']} references unknown node")
        in_edges.setdefault(e["to"], []).append(e["id"])
        out_edges.setdefault(e["from"], []).append(e)
    # Kahn's sweep in node order: every node is reached iff there is no cycle
    indegree = {n["id"]: len(in_edges.get(n["id"], ())) for n in net["nodes"]}
    ready = [v for v, d in indegree.items() if not d]
    stray = next((v for v in ready if v != source and v in out_edges), None)
    if stray is not None:
        return shape(f"non-source node {stray} has outputs but no inputs")
    for v in ready:  # the list is its own queue
        for e in out_edges.get(v, ()):
            indegree[e["to"]] -= 1
            if not indegree[e["to"]]:
                ready.append(e["to"])
    if len(ready) != len(indegree):
        return shape("network graph contains a cycle")

    for node in indegree:
        if node == source or node not in out_edges:
            continue
        incoming = stack(*[mats[eid] for eid in in_edges[node]])
        base_rank = rank(incoming)
        for e in out_edges[node]:
            if rank(incoming.stack(mats[e["id"]])) != base_rank:
                failure = f"edge {e['id']} leaving node {node} is not computable from its inputs"
                return Verdict(ok=False, terminal_ranks={}, failure=failure, failure_kind="local")
    ranks = {}
    failure = None
    for term in net["terminals"]:
        incoming = in_edges.get(term)
        r = ranks[term] = rank(stack(*[mats[eid] for eid in incoming])) if incoming else 0
        if r != nt and failure is None:
            failure = f"terminal {term} has rank {r} < {nt}"
    if failure:
        return Verdict(ok=False, terminal_ranks=ranks, failure=failure, failure_kind="terminal")
    return Verdict(ok=True, terminal_ranks=ranks)


def _check_network_code(cert: dict) -> tuple[bool, str]:
    v = network_code_verdict(cert)
    return v.ok, v.failure or "accepted linear solution"


def _check_ic(cert: dict) -> tuple[bool, str]:
    obj = cert["ic"]
    fld = make_field(obj["p"], obj["m"])
    t, h = checked_int(obj["t"], "t"), checked_int(obj["h"], "h")
    alpha = checked_int(cert["alpha"], "alpha")
    if t < 1:
        return False, f"t={t}, but a configuration needs t >= 1"
    if not 1 <= alpha <= h:
        return False, f"alpha={alpha} is outside 1..{h}"
    bases = []
    for rows in obj["members"]:
        mat = _matrix(fld, rows, t, h * t)
        if mat is None or rank(mat) != t:
            return False, "member is not a t-dimensional subspace of F_q^{ht}"
        bases.append(mat)
    for subset in itertools.combinations(bases, alpha):
        if rank(stack(*subset)) != alpha * t:
            return False, "an alpha-subset fails the direct-sum condition"
    return True, f"valid ({t};{h},{alpha})_{fld.q} independent configuration of size {len(bases)}"


_CHECKERS = {
    "coloring": _check_coloring,
    "homomorphism": _check_homomorphism,
    "network-code": _check_network_code,
    "independent-configuration": _check_ic,
}


def check_certificate(cert: dict) -> tuple[bool, str]:
    try:
        kind = cert.get("kind")
        checker = _CHECKERS.get(kind)
        if checker is None:
            return False, f"unknown certificate kind {kind!r}"
        return checker(cert)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        return False, f"malformed certificate: {type(exc).__name__}: {exc}"
