"""Classical codes and independent configurations.

`rs_code` and `min_distance` serve `mds`.  A linear code solves N_{h,r,s}
when `verify_solution`, the one network-code checker, accepts its
`lincode.solution_from_classical_code`: exactly when d >= r - s + 1.

A (t;h,alpha)_q independent configuration is a set of t-subspaces of
F_q^{ht} in which every alpha members are in direct sum.  Size-r
configurations with alpha = h are exactly the (q,t)-vector solutions of
the full minimal combination network on r middle nodes.  On any
sub-combination network a solution is one t-subspace per middle node with
every terminal's h spaces in direct sum: an assignment over the
hypergraph of the terminals, of which the IC is the complete case.

One assignment search serves both, a walk of `graphs.backtrack`.  It
lists the universe of t-subspaces once into a DirectSumIndex.  Its pair
masks restrict candidates to spaces independent of every chosen
co-member, and its cached `blocked` masks over the other members of a
hyperedge decide the alpha-wise test with bit tests, so the search makes
no rank call per candidate.  `ic_is_valid`, behind `ic check`, replays a
witness through `certs`.

Frame lemma.  GL(ht, q) maps ICs to ICs of the same size, and it maps any
IC with at least alpha + [alpha = h] members to one that starts with the
standard frame (`standard_frame`): the coordinate blocks B_1, ..., B_alpha
of F_q^{ht} and, when alpha = h, the diagonal D = {(x, ..., x)}.  Proof
sketch: the first alpha members are in direct sum, so a basis change maps
them onto B_1, ..., B_alpha.  When alpha = h, every h of the first h + 1
members are in direct sum; so the (h+1)-th member meets no sum of h - 1
blocks, and it is the graph {(x, A_2 x, ..., A_h x)} of invertible t x t
matrices A_i.  The block-diagonal map diag(I, A_2^{-1}, ..., A_h^{-1})
fixes every block and sends that graph to D.  Every maximum IC is at least
that large (the frame itself is an IC), so the search pins the frame and
looks only for the rest.  The same maps pin a hypergraph's assignment:
any hyperedge's members to the blocks, and a vertex w to D when every h
of those members and w form a hyperedge.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .certs import check_certificate
from .errors import DEFAULT_BUDGET, Budget, BudgetExhausted, InternalError
from .gf import FieldSpec, Matrix, checked_int, field_of_order, make_field, prime_power
from .graphs import backtrack
from .lincode import NetworkCode, forwarding_code, verify_solution
from .networks import Network, build_combination, combination_parameters
from .subspaces import (
    DirectSumIndex,
    Subspace,
    canonicalize,
    check_size,
    enumerate_subspaces,
    positions,
    subspace_from_rows,
)


@dataclass(frozen=True)
class LinearCode:
    field: FieldSpec
    length: int
    dim: int
    generator: Matrix  # dim x length, full row rank


def rs_code(q: int, r: int, h: int) -> LinearCode:
    """[r, h, r-h+1]_q Reed-Solomon generator, extended at r = q+1.

    Evaluation points in canonical field-element order 0, 1, ...; the
    point at infinity contributes the last column when r = q+1.
    """
    fld = field_of_order(q)
    if h < 1 or h > r:
        raise ValueError(f"require 1 <= h <= r, got h={h}, r={r}")
    if r > q + 1:
        raise ValueError(f"length {r} exceeds q+1 = {q + 1}")
    cols = []
    for j in range(min(r, q)):
        cols.append([fld.pow(j, i) for i in range(h)])
    if r == q + 1:
        inf = [0] * h
        inf[h - 1] = 1
        cols.append(inf)
    rows = [[cols[j][i] for j in range(r)] for i in range(h)]
    return LinearCode(field=fld, length=r, dim=h, generator=Matrix.from_rows(fld, rows))


def min_distance(code: LinearCode) -> int:
    """Exact minimum distance of a linear code: its least nonzero weight."""
    check_size(code.field.q**code.dim, "codewords")
    weights = (sum(1 for x in word if x) for word in code.generator.row_combinations())
    best = min((w for w in weights if w), default=0)
    if not best:
        raise ValueError("code has no nonzero codewords")
    return best


# ---------------------------------------------------------------------------
# independent configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndependentConfiguration:
    field: FieldSpec
    t: int
    h: int
    members: tuple  # Subspace tuple, each of dimension t in F_q^{ht}


def ic_is_valid(config: IndependentConfiguration, alpha: int) -> bool:
    """Every member is a t-subspace of F_q^{ht} and every alpha are in direct sum.

    This replays witnesses (`ic check`, and the self-checks of the
    solution bridge) through the certificate checker, so a verdict never
    rests on the DirectSumIndex that the search used to find the
    configuration.
    """
    if alpha > config.h:
        raise ValueError(f"alpha={alpha} exceeds h={config.h}")
    return check_certificate(ic_certificate(config, alpha))[0]


def ic_size_bound(q: int, t: int, h: int, alpha: int) -> int:
    """Proven ceiling on the size of a (t;h,alpha)_q independent configuration."""
    if alpha < 2 or alpha > h:
        raise ValueError(f"require 2 <= alpha <= h, got alpha={alpha}, h={h}")
    if t < 1:
        raise ValueError(f"require t >= 1, got t={t}")
    if prime_power(q) is None:
        raise ValueError(f"q={q} is not a prime power")
    return (q ** ((h - alpha + 2) * t) - 1) // (q**t - 1) + alpha - 2


@dataclass
class ICSearchResult:
    size: int
    witness: IndependentConfiguration
    bound: int
    exact: bool
    nodes_used: int


def standard_frame(fld: FieldSpec, t: int, h: int, alpha: int) -> list[Subspace]:
    """The members every IC search starts from (the frame lemma above).

    The first alpha coordinate blocks of F_q^{ht}, then, when alpha = h,
    the diagonal {(x, ..., x)}, spanned by the rows that repeat a unit
    vector of F_q^t in every block (e_1 + ... + e_h for t = 1).  Each basis
    is already reduced (its pivots are the first block's columns or unit
    columns), so no rank computation is needed.
    """
    n = h * t

    def member(columns_of_row) -> Subspace:
        rows = [[int(j in cols) for j in range(n)] for cols in columns_of_row]
        return Subspace.from_rows(fld, rows)

    members = [member([{b * t + i} for i in range(t)]) for b in range(alpha)]
    if alpha == h:
        members.append(member([{b * t + i for b in range(h)} for i in range(t)]))
    return members


def _search_order(edges: list[tuple[int, ...]], size: int) -> tuple[list[int], int]:
    """Search order of a hypergraph's vertices 0..size-1, and how many of
    the first take the standard frame.

    The frame is a hyperedge's h vertices, and a vertex w when every h of
    the h + 1 form a hyperedge (the frame lemma, module docstring); else
    the lowest hyperedge alone.  The rest follow most-constrained first:
    the vertex completing the most hyperedges, then sharing the most with
    placed vertices, then the lowest, read off a per-vertex index.  The
    hyperedges are taken in vertex order, so the order of the list (a
    network's terminal list) does not change the search.
    """
    known = {frozenset(e) for e in edges}
    hyperedges = sorted(known, key=sorted)
    edges_of: list[list[frozenset]] = [[] for _ in range(size)]
    for e in hyperedges:
        for v in e:
            edges_of[v].append(e)
    frame = sorted(hyperedges[0])
    for e in hyperedges:
        # w joins e - {v} in a hyperedge for every member v of e
        first, second = sorted(e)[:2]
        joins = [f - e for f in edges_of[second] if first not in f and len(f - e) == 1]
        w = next((x for x in joins if all(e - {v} | x in known for v in e)), None)
        if w is not None:
            frame = sorted(e) + sorted(w)
            break
    position: dict[int, int] = {}
    left = {e: len(e) for e in known}
    completes, shared = [0] * size, [0] * size
    for k in range(size):
        v = frame[k] if k < len(frame) else max(
            (u for u in range(size) if u not in position),
            key=lambda u: (completes[u], shared[u], -u),
        )
        position[v] = k
        for e in edges_of[v]:
            left[e] -= 1
            for u in e:
                if u in position:
                    continue
                shared[u] += 1
                completes[u] += left[e] == 1
    return sorted(position, key=position.get), len(frame)


def _assignment_search(
    fld: FieldSpec,
    t: int,
    h: int,
    alpha: int,
    budget: int,
    size: int,
    edges: list[tuple[int, ...]] | None = None,
    target: int | None = None,
) -> tuple[list[int], list[Subspace], bool, int]:
    """One t-subspace of F_q^{ht} per vertex of a hypergraph, the members of
    every hyperedge in direct sum: the longest assignable prefix of the
    search order, or the first with `target` vertices.

    `edges` lists hyperedges of alpha vertices among 0..size-1 (terminals
    over middle nodes); None is the complete alpha-uniform hypergraph,
    whose assignments are ICs.  A vertex takes a candidate that the pair
    masks of its assigned co-members allow and that `blocked` of the other
    members of each hyperedge it completes leaves clear.  The first
    vertices take the standard frame.  The vertices of the complete
    hypergraph are interchangeable, so they take ascending universe
    indices, and a node is cut once its candidates cannot beat the best
    prefix.  Returns (search order, spaces of the best prefix, exact,
    nodes used); a search stopped at the target is not exact.
    """
    complete = edges is None
    universe = enumerate_subspaces(fld, h * t, t)
    index = DirectSumIndex(universe)
    # per position: the other members' positions of each hyperedge it
    # completes, and the earlier positions sharing a hyperedge with it.  In
    # the complete hypergraph that is every earlier position, all of whose
    # alpha-sets with the new one are tested together.
    if complete:
        order, pinned = list(range(size)), alpha + (alpha == h)
        members = [[range(k)] for k in range(size)]
        earlier = [range(k) for k in range(size)]
    else:
        order, pinned = _search_order(edges, size)
        position = {v: k for k, v in enumerate(order)}
        members = [[] for _ in range(size)]
        for e in dict.fromkeys(frozenset(e) for e in edges):
            last = max(e, key=position.get)
            members[position[last]].append(tuple(sorted(position[u] for u in e if u != last)))
        earlier = [sorted({p for c in cs for p in c}) for cs in members]

    def fits(chosen: list[int], j: int) -> bool:
        # alpha >= 3 (the pair masks decide pairs): no (alpha-1)-set may block j
        return not any(
            index.blocked(subset) >> j & 1
            for c in members[len(chosen)]
            for subset in itertools.combinations([chosen[p] for p in c], alpha - 1)
        )

    # symmetry: GL(ht, q) maps every assignment onto one that puts the
    # standard frame on the first positions (module docstring)
    frame = tuple(positions(universe, standard_frame(fld, t, h, alpha)[:pinned]))
    best: list[int] = []
    bud = Budget(budget)
    try:
        found = backtrack(
            earlier[:target], index.pair_masks(), bud,
            fits=None if alpha == 2 else fits, pinned=frame, ascending=complete, best=best,
        )
        # stopping at the target size proves nothing about the maximum
        exact = found is None or target is None
    except BudgetExhausted:
        exact = False
    return order, [universe[i] for i in best], exact, bud.used


def ic_max_size(
    q: int,
    t: int,
    h: int,
    alpha: int,
    budget: int = DEFAULT_BUDGET,
) -> ICSearchResult:
    """Exact maximum size of a (t;h,alpha)_q-IC with witness.

    The proven size bound prunes the search; when the node budget or the
    wall-clock deadline stops it, the result is a lower bound flagged
    inexact.
    """
    fld = field_of_order(q)
    bound = ic_size_bound(q, t, h, alpha)
    _, best, exact, nodes = _assignment_search(fld, t, h, alpha, budget, bound)
    return ICSearchResult(len(best), IndependentConfiguration(fld, t, h, tuple(best)), bound, exact, nodes)


def ic_exists_of_size(
    q: int,
    t: int,
    h: int,
    alpha: int,
    size: int,
    budget: int = DEFAULT_BUDGET,
) -> IndependentConfiguration | None:
    """A (t;h,alpha)_q-IC with `size` members, or None (complete search).

    The standard frame is itself an IC, so a size up to its length returns
    its first `size` members without listing the universe (size 1: the
    span of the first t unit vectors).  Otherwise raises SizeLimitExceeded
    on enormous universes and BudgetExhausted when the search stops early.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    fld = field_of_order(q)
    bound = ic_size_bound(q, t, h, alpha)
    if size > bound:
        return None
    frame = standard_frame(fld, t, h, alpha)
    if size <= len(frame):
        return IndependentConfiguration(fld, t, h, tuple(frame[:size]))
    _, best, exact, nodes = _assignment_search(fld, t, h, alpha, budget, bound, target=size)
    if len(best) >= size:
        return IndependentConfiguration(fld, t, h, tuple(best[:size]))
    if not exact:
        raise BudgetExhausted("IC existence search ran out of budget", nodes_used=nodes)
    return None


def subcombination_solution(
    net: Network,
    q: int,
    t: int,
    budget: int = DEFAULT_BUDGET,
) -> NetworkCode | None:
    """A verified (q,t)-linear solution of a sub-combination network with
    h >= 2, or None when the complete search proves none exists; raises
    BudgetExhausted when undecided.

    The solution is one t-subspace per middle node, each terminal's h in
    direct sum (`_assignment_search`); on a full N_{h,r,h} an IC of size r
    (`ic_exists_of_size`, which `ic_size_bound` may refute outright).
    Each middle forwards its source edge's space, on the network's own
    edge ids.
    """
    layer = net.middle_layer()
    if layer is None or net.h < 2:
        raise ValueError("the assignment search needs a sub-combination network with h >= 2")
    fld = field_of_order(q)
    size = len(layer[0])  # one middle per source edge
    if combination_parameters(net) is not None:
        config = ic_exists_of_size(q, t, net.h, net.h, size, budget)
        spaces = None if config is None else list(config.members)
    else:
        # a terminal's hyperedge: the set bits of its feeder mask, bit k first
        masks = map(layer[1].__getitem__, map(net.index_of, net.terminals))
        edges = [tuple(k for k in range(size) if mask >> k & 1) for mask in masks]
        order, best, exact, nodes = _assignment_search(
            fld, t, net.h, net.h, budget, size, edges, target=size
        )
        if len(best) < size and not exact:
            raise BudgetExhausted("assignment search ran out of budget", nodes_used=nodes)
        spaces = None if len(best) < size else [s for _, s in sorted(zip(order, best))]
    if spaces is None:
        return None
    code = forwarding_code(net, fld, t, spaces)
    verdict = verify_solution(net, code)
    if not verdict.ok:
        raise InternalError(f"assignment search produced a rejected code: {verdict.failure}")
    return code


def ic_to_solution(config: IndependentConfiguration) -> NetworkCode:
    """Vector solution of the full combination network on |C| middle nodes:
    member i rides the i-th source edge, middle nodes forward.

    Edge ids follow build_combination(h, |C|, h).
    """
    if not ic_is_valid(config, config.h):
        raise ValueError("not a valid independent configuration at alpha = h")
    net = build_combination(config.h, len(config.members), config.h)
    return forwarding_code(net, config.field, config.t, config.members)


def solution_to_ic(net: Network, code: NetworkCode) -> IndependentConfiguration:
    """Read the middle-layer subspaces of an accepted solution back off as an IC."""
    params, layer = combination_parameters(net), net.middle_layer()
    if params is None or params[2] != params[0] or layer is None:
        raise ValueError("network is not a full minimal combination network")
    h = params[0]
    verdict = verify_solution(net, code)
    if not verdict.ok:
        raise ValueError(f"code rejected: {verdict.failure}")
    members = []
    for eid in map(net.edge_ids.__getitem__, layer[0]):
        sub = canonicalize(code.field, code.assignment[eid])
        if sub.dim != code.t:
            raise ValueError(f"source edge {eid} carries a rank-deficient space")
        members.append(sub)
    config = IndependentConfiguration(field=code.field, t=code.t, h=h, members=tuple(members))
    if not ic_is_valid(config, h):
        raise InternalError("an accepted solution's middle spaces do not form an IC")
    return config


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def linear_code_to_json(code: LinearCode) -> dict:
    return {
        "q": code.field.q,
        "p": code.field.p,
        "m": code.field.m,
        "length": code.length,
        "dim": code.dim,
        "generator": [list(row) for row in code.generator.row_list()],
    }


def ic_to_json(config: IndependentConfiguration) -> dict:
    return {
        "p": config.field.p,
        "m": config.field.m,
        "t": config.t,
        "h": config.h,
        "members": [[list(row) for row in s.row_list()] for s in config.members],
    }


def ic_from_json(obj: dict) -> IndependentConfiguration:
    fld = make_field(obj["p"], obj["m"])
    t, h = checked_int(obj["t"], "t"), checked_int(obj["h"], "h")
    members = tuple(subspace_from_rows(fld, rows, h * t) for rows in obj["members"])
    return IndependentConfiguration(field=fld, t=t, h=h, members=members)


def ic_certificate(config: IndependentConfiguration, alpha: int, context: str = "") -> dict:
    """The configuration and the alpha it claims, replayed by `certs`."""
    return {
        "kind": "independent-configuration",
        "context": context,
        "alpha": alpha,
        "ic": ic_to_json(config),
    }
