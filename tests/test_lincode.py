import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgap import lincode
from netgap.errors import BudgetExhausted, InternalError
from netgap.gf import Matrix, make_field, matrix_from_json, rank, stack
from netgap.lincode import (
    NetworkCode,
    RunningEchelon,
    Verdict,
    code_to_json,
    extend_solution,
    restrict_solution,
    search_solution,
    solution_from_classical_code,
    split_to_scalar,
    verify_solution,
)
from netgap.mdsic import ic_exists_of_size, ic_max_size, ic_to_solution
from netgap.networks import (
    Edge,
    Network,
    build_butterfly,
    build_combination,
    build_kneser,
    combination_parameters,
    extend_messages,
    is_minimal,
    prune,
)
from netgap.subspaces import subspace_from_rows, subspace_sum, subspaces_up_to_dim

F2 = make_field(2, 1)


def classic_butterfly_code() -> NetworkCode:
    x1 = Matrix.from_rows(F2, [(1, 0)])
    x2 = Matrix.from_rows(F2, [(0, 1)])
    x12 = Matrix.from_rows(F2, [(1, 1)])
    return NetworkCode(
        F2,
        1,
        2,
        {"e1": x1, "e2": x2, "e3": x1, "e4": x2, "e5": x1, "e6": x12, "e7": x2, "e8": x12, "e9": x12},
    )


def test_classic_butterfly_accepts():
    verdict = verify_solution(build_butterfly(), classic_butterfly_code())
    assert verdict.ok and verdict.terminal_ranks == {"t1": 2, "t2": 2}


def test_all_zero_rejects_at_terminal():
    net = build_butterfly()
    zero = Matrix.zeros(F2, 1, 2)
    code = NetworkCode(F2, 1, 2, {e.id: zero for e in net.edges})
    verdict = verify_solution(net, code)
    assert not verdict.ok and verdict.failure_kind == "terminal"
    assert set(verdict.terminal_ranks.values()) == {0}


def test_broken_middle_edge_rejects():
    code = classic_butterfly_code()
    x1 = Matrix.from_rows(F2, [(1, 0)])
    broken = dict(code.assignment)
    broken.update({"e6": x1, "e8": x1, "e9": x1})
    verdict = verify_solution(build_butterfly(), NetworkCode(F2, 1, 2, broken))
    assert not verdict.ok and verdict.failure_kind == "terminal"
    assert verdict.terminal_ranks["t1"] == 1  # sees x1 twice, never x2
    assert verdict.terminal_ranks["t2"] == 2


def test_local_inconsistency_detected():
    code = dict(classic_butterfly_code().assignment)
    code["e6"] = Matrix.from_rows(F2, [(1, 0)])  # v4 then forwards data v3 never had... keep e8/e9
    code["e8"] = Matrix.from_rows(F2, [(0, 1)])  # not computable from e6 alone
    verdict = verify_solution(build_butterfly(), NetworkCode(F2, 1, 2, code))
    assert not verdict.ok and verdict.failure_kind == "local"
    assert "e8" in verdict.failure


@pytest.mark.parametrize("t", [0, -1])
def test_search_solution_needs_t_of_at_least_one(t):
    # at t = 0 every matrix is empty and every rank check would pass
    with pytest.raises(ValueError, match=f"t >= 1, got t={t}"):
        search_solution(build_combination(2, 3, 2), 2, t)


def test_missing_assignment_raises():
    code = dict(classic_butterfly_code().assignment)
    del code["e9"]
    with pytest.raises(ValueError):
        verify_solution(build_butterfly(), NetworkCode(F2, 1, 2, code))


def test_node_space_dims():
    net = build_butterfly()
    code = classic_butterfly_code()
    dims = {v: rank(stack(*(code.matrix(e.id) for e in net.in_edges(v)))) for v in ("v3", "v4")}
    assert dims == {"v3": 2, "v4": 1}
    assert verify_solution(net, code).terminal_ranks == {"t1": 2, "t2": 2}


def test_node_fed_identical_edges():
    net = Network.from_edges(
        h=1,
        source="s",
        terminals=("t",),
        nodes=("s", "a", "t"),
        edges=(Edge("e1", "s", "a"), Edge("e2", "s", "a"), Edge("e3", "a", "t")),
    )
    v = Matrix.from_rows(F2, [(1,)])
    code = NetworkCode(F2, 1, 1, {"e1": v, "e2": v, "e3": v})
    assert rank(stack(*(code.matrix(e.id) for e in net.in_edges("a")))) == 1
    assert verify_solution(net, code).terminal_ranks == {"t": 1}


def test_solution_from_classical_code_mds():
    net = build_combination(2, 3, 2)
    gen = Matrix.from_rows(F2, [(1, 0, 1), (0, 1, 1)])  # columns (1,0),(0,1),(1,1)
    code = solution_from_classical_code(net, gen)
    assert verify_solution(net, code).ok


def test_solution_from_classical_code_non_mds_rejects():
    net = build_combination(2, 4, 2)
    gen = Matrix.from_rows(F2, [(1, 0, 1, 1), (0, 1, 0, 1)])  # columns 0 and 2 collide
    code = solution_from_classical_code(net, gen)
    verdict = verify_solution(net, code)
    assert not verdict.ok and verdict.failure_kind == "terminal"


def test_solution_from_classical_code_on_terminals_wider_than_h():
    # N_{2,r,3} is three layers but no sub-combination network (its
    # terminals draw 3 > h edges): the middles still forward
    for r, gen in ((3, [(1, 0, 1), (0, 1, 1)]), (4, [(1, 0, 1, 1), (0, 1, 1, 0)])):
        net = build_combination(2, r, 3)
        assert combination_parameters(net) == (2, r, 3) and net.middle_layer() is None
        code = solution_from_classical_code(net, Matrix.from_rows(F2, gen))
        assert verify_solution(net, code).ok


def test_identity_generator_on_n_hhh():
    for h in (2, 3):
        net = build_combination(h, h, h)
        gen = Matrix.identity(F2, h)
        code = solution_from_classical_code(net, gen)
        assert verify_solution(net, code).ok


def test_search_butterfly_found_and_verified():
    net = build_butterfly()
    code = search_solution(net, 2, 1)
    assert code is not None and verify_solution(net, code).ok


def test_search_nonexistence_matches_code_theory():
    # scalar solution of the full combination network needs an MDS code
    assert search_solution(build_combination(2, 4, 2), 2, 1) is None
    assert search_solution(build_combination(2, 5, 2), 3, 1) is None


def test_search_trivial_direct_paths():
    net = Network.from_edges(
        h=2,
        source="s",
        terminals=("t",),
        nodes=("s", "t"),
        edges=(Edge("e1", "s", "t"), Edge("e2", "s", "t")),
    )
    code = search_solution(net, 2, 1)
    assert code is not None and verify_solution(net, code).ok


def test_search_budget_exhaustion_is_not_a_verdict():
    with pytest.raises(BudgetExhausted):
        search_solution(build_combination(2, 4, 2), 2, 1, budget=3)


def test_search_respects_cut_bound():
    assert search_solution(build_combination(3, 4, 2), 2, 1) is None


def test_node_dims_saturate_on_minimal_accepted():
    # accepted solutions on minimal networks fill every node's space
    cases = [
        (build_butterfly(), 2, 1),
        (build_combination(2, 4, 2), 3, 1),
        (build_combination(2, 5, 2), 4, 1),
        (build_kneser(2, 1, 2), 2, 1),
    ]
    for net, q, t in cases:
        assert is_minimal(net)
        code = search_solution(net, q, t)
        assert code is not None
        ranks = verify_solution(net, code).terminal_ranks
        assert all(ranks[v] == net.in_degree(v) * t for v in net.terminals)
        for node in set(net.nodes) - set(net.terminals) - {net.source}:
            dim = rank(stack(*(code.matrix(e.id) for e in net.in_edges(node))))
            assert dim == net.in_degree(node) * t


def test_split_to_scalar_butterfly_vector_solution():
    net = build_butterfly()
    code = search_solution(net, 2, 2)
    assert code is not None
    par, scalar = split_to_scalar(net, code)
    assert par.h == 4 and scalar.t == 1
    assert verify_solution(par, scalar).ok


@pytest.mark.parametrize("h_new", [3, 4])
@pytest.mark.parametrize("q", [2, 3])
def test_message_extension_preserves_solvability(h_new, q):
    base = build_butterfly()
    ext = extend_messages(base, h_new)
    base_code = search_solution(base, q, 1)
    ext_code = search_solution(ext, q, 1)
    assert (base_code is None) == (ext_code is None)
    carried = extend_solution(base, ext, base_code)
    assert verify_solution(ext, carried).ok
    recovered = restrict_solution(base, ext, ext_code)
    assert verify_solution(base, recovered).ok


def test_code_json_roundtrip():
    # a code's coding matrices, also those read off subspaces, come back
    # from the file through the one matrix reader as the same values
    base, ext = build_butterfly(), extend_messages(build_butterfly(), 3)
    carried = extend_solution(base, ext, classic_butterfly_code())
    forwarded = ic_to_solution(ic_max_size(2, 1, 2, 2).witness)
    for code in (classic_butterfly_code(), carried, forwarded):
        obj = json.loads(json.dumps(code_to_json(code)))
        fld = make_field(obj["p"], obj["m"])
        assert (fld, obj["t"], obj["h"]) == (code.field, code.t, code.h)
        back = {eid: matrix_from_json(fld, rows, code.t, code.h * code.t) for eid, rows in obj["edges"].items()}
        assert {eid: (m.rows, m.cols, m.data) for eid, m in back.items()} == {
            eid: (m.rows, m.cols, m.data) for eid, m in code.assignment.items()
        }


def _brute_force_scalar_solvable(net, q):
    """Independent oracle: try every matrix-level assignment and verify."""
    import itertools

    f = make_field(q, 1)
    vectors = [Matrix.from_rows(f, [v]) for v in itertools.product(range(q), repeat=net.h)]
    edge_ids = [e.id for e in net.edges]
    for combo in itertools.product(vectors, repeat=len(edge_ids)):
        if verify_solution(net, NetworkCode(f, 1, net.h, dict(zip(edge_ids, combo)))).ok:
            return True
    return False


@pytest.mark.parametrize("seed", range(40))
def test_search_matches_brute_force_on_random_networks(seed):
    import random

    from netgap.networks import prune, validate_network

    rng = random.Random(seed)
    for q, max_edges in ((2, 4), (3, 3)):
        net = None
        while net is None:
            n_mid = rng.randint(1, 3)
            nodes = ["s"] + [f"n{i}" for i in range(n_mid)] + ["t0"]
            edges = []
            k = 0
            for i, u in enumerate(nodes[:-1]):
                for v in nodes[i + 1 :]:
                    for _ in range(rng.randint(0, 2)):
                        if rng.random() < 0.6:
                            edges.append(Edge(f"e{k}", u, v))
                            k += 1
            if not (2 <= len(edges) <= max_edges):
                continue
            cand = Network.from_edges(2, "s", ("t0",), tuple(nodes), tuple(edges))
            cand = prune(cand)
            if "t0" not in cand.nodes or not cand.edges:
                continue
            try:
                validate_network(cand)
            except ValueError:
                continue
            net = cand
        found = search_solution(net, q, 1)
        assert (found is not None) == _brute_force_scalar_solvable(net, q)


# --- the isomorph-free search on (sub-)combination networks ----------------

def _brute_force_source_spaces(net, q, t):
    """Independent oracle for (sub-)combination networks: a middle node can
    send no more than its source edge's space, so a (q,t)-solution exists iff
    some tuple of <= t-dim source spaces sums to F_q^{ht} at every terminal."""
    import itertools

    nt = net.h * t
    spaces = subspaces_up_to_dim(make_field(q, 1), nt, t)
    middles = [e.head for e in net.out_edges(net.source)]
    feeders = [[middles.index(e.tail) for e in net.in_edges(term)] for term in net.terminals]
    return any(
        all(subspace_sum([choice[i] for i in f]).dim == nt for f in feeders)
        for choice in itertools.product(spaces, repeat=len(middles))
    )


@pytest.mark.parametrize(
    ("params", "q", "t"),
    [
        ((2, 2, 2), 2, 2),
        ((2, 3, 2), 2, 1),
        ((2, 4, 2), 2, 1),
        ((2, 4, 2), 3, 1),
        ((2, 5, 2), 3, 1),
        ((2, 4, 3), 2, 1),
        ((2, 5, 3), 2, 1),  # solvable only with two equal source spaces
        ((3, 4, 3), 2, 1),
        ((3, 4, 2), 2, 1),
    ],
)
def test_search_matches_brute_force_on_combination_networks(params, q, t):
    net = build_combination(*params)
    assert (search_solution(net, q, t) is not None) == _brute_force_source_spaces(net, q, t)


def _terminal_subset(net, keep):
    dropped = set(net.terminals) - set(keep)
    return prune(
        Network.from_edges(
            h=net.h,
            source=net.source,
            terminals=tuple(keep),
            nodes=net.nodes,
            edges=tuple(e for e in net.edges if e.head not in dropped),
        )
    )


@pytest.mark.parametrize("q", [2, 3])
def test_search_matches_brute_force_on_every_terminal_subset(q):
    import itertools

    full = build_combination(2, 4, 2)
    full_shapes = 0
    for k in range(1, len(full.terminals) + 1):
        for keep in itertools.combinations(full.terminals, k):
            net = _terminal_subset(full, keep)
            # the search sorts source spaces only where this is not None: a
            # single terminal (N_{2,2,2}), a triangle (N_{2,3,2}) and all six
            full_shapes += combination_parameters(net) is not None
            found = search_solution(net, q, 1)
            assert (found is not None) == _brute_force_source_spaces(net, q, 1), keep
    assert full_shapes == 6 + 4 + 1


@pytest.mark.parametrize(
    ("h", "q", "t", "rs"),
    [
        (2, 2, 1, range(2, 5)),
        (2, 3, 1, range(2, 6)),
        (2, 2, 2, range(4, 7)),
        (3, 2, 1, range(3, 7)),
        (3, 3, 1, range(4, 7)),
        (3, 4, 1, range(5, 8)),
    ],
)
def test_search_agrees_with_the_ic_route_on_minimal_combination_networks(h, q, t, rs):
    # N_{h,r,h} has a (q,t)-solution iff a (t;h,h)_q-IC of size r exists;
    # the IC search is an independent implementation
    for r in rs:
        found = search_solution(build_combination(h, r, h), q, t) is not None
        assert found == (ic_exists_of_size(q, t, h, h, r) is not None), r


def _relabelled(net, seed):
    import random

    rng = random.Random(seed)
    names = [f"v{i}" for i in range(len(net.nodes))]
    rng.shuffle(names)
    node = dict(zip(net.nodes, names))
    ids = [f"a{i}" for i in range(len(net.edges))]
    rng.shuffle(ids)
    edges = [Edge(eid, node[e.tail], node[e.head]) for eid, e in zip(ids, net.edges)]
    rng.shuffle(edges)
    terminals = [node[v] for v in net.terminals]
    rng.shuffle(terminals)
    nodes = list(names)
    rng.shuffle(nodes)
    return Network.from_edges(
        h=net.h,
        source=node[net.source],
        terminals=tuple(terminals),
        nodes=tuple(nodes),
        edges=tuple(edges),
    )


@pytest.mark.parametrize(
    ("params", "q", "t", "found"),
    [
        ((2, 5, 2), 3, 1, False),
        ((2, 5, 2), 4, 1, True),
        ((2, 5, 2), 2, 2, True),
        ((3, 5, 3), 2, 2, True),
        ((3, 6, 3), 3, 1, False),
        ((3, 6, 3), 4, 1, True),
    ],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_combination_network_keeps_its_verdict(params, q, t, found, seed):
    net = _relabelled(build_combination(*params), seed)
    assert combination_parameters(net) == params
    assert (search_solution(net, q, t) is not None) == found


# --- the running echelon basis of the search's terminal rank test -----------

# F_2, F_3 and F_4 (m = 2, so neither add nor mul is plain mod-p arithmetic)
ECHELON_FIELDS = {"F2": make_field(2, 1), "F3": make_field(3, 1), "F4": make_field(2, 2)}


@given(st.sampled_from(sorted(ECHELON_FIELDS)), st.integers(1, 5), st.data())
@settings(max_examples=200, deadline=None)
def test_running_echelon_matches_subspace_sum(field_name, n, data):
    fld = ECHELON_FIELDS[field_name]
    vector = st.lists(st.integers(0, fld.q - 1), min_size=n, max_size=n)
    # a push of up to three vectors (zero and dependent ones included), or a pop
    steps = data.draw(st.lists(st.one_of(st.none(), st.lists(vector, max_size=3)), max_size=14))
    ech = RunningEchelon(fld)
    pushed = []  # (space spanned by the pushed vectors, rows the push added)
    for step in steps:
        if step is None:
            if not pushed:
                continue
            ech.pop(pushed.pop()[1])
        else:
            pushed.append((subspace_from_rows(fld, step, n), ech.push(step)))
        # oracle: the sum rebuilt from scratch, as the search did before
        expected = subspace_sum([space for space, _ in pushed]) if pushed else None
        assert len(ech.rows) == (expected.dim if expected else 0)
        if expected:
            assert subspace_from_rows(fld, [row for _, row in ech.rows], n) == expected
        for k, (piv, row) in enumerate(ech.rows):
            assert row[piv] == 1
            assert all(row[p] == 0 for p, _ in ech.rows[:k])


def test_running_echelon_push_reports_new_dimensions_only():
    f3 = ECHELON_FIELDS["F3"]
    ech = RunningEchelon(f3)
    assert ech.push([(0, 2, 1), (0, 1, 2)]) == 1  # the second row is 2x the first
    assert ech.push([(0, 0, 0)]) == 0
    assert ech.push([(1, 1, 1), (0, 1, 2)]) == 1
    ech.pop(1)
    assert [piv for piv, _ in ech.rows] == [1]
    ech.pop(0)
    assert len(ech.rows) == 1


# --- self-checks that must hold under python -O ------------------------------

def test_search_raises_internal_error_when_its_code_is_rejected(monkeypatch):
    def reject(net, code):
        return Verdict(ok=False, terminal_ranks={}, failure="rejected on purpose", failure_kind="local")

    monkeypatch.setattr(lincode, "verify_solution", reject)
    with pytest.raises(InternalError, match="rejected on purpose"):
        search_solution(build_butterfly(), 2, 1)


def test_search_rejects_a_network_with_unreachable_edges():
    # the edge a -> t cannot be reached from the source, so no edge order
    # covers it; the cut bound at t still holds through the two s -> t edges
    net = Network.from_edges(
        h=2,
        source="s",
        terminals=("t",),
        nodes=("s", "a", "t"),
        edges=(Edge("e1", "s", "t"), Edge("e2", "s", "t"), Edge("e3", "a", "t")),
    )
    with pytest.raises(ValueError, match="unreachable"):
        lincode._completion_dfs_order(net)
    with pytest.raises(ValueError, match="unreachable"):
        search_solution(net, 2, 1)
