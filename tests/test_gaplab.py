import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgap.certs import check_certificate
from netgap.errors import DEFAULT_BUDGET, InternalError, SizeLimitExceeded, UnsolvableNetwork
from netgap.gaplab import (
    Extremal,
    candidate_qt_pairs,
    gap_exact,
    gap_formulas,
    gap_table_rows,
    is_prime_power,
    psi,
    qs_exact,
    qv_exact,
)
from netgap.graphs import UGraph
from netgap.lincode import search_solution
from netgap.networks import (
    Edge,
    Network,
    _middle_network,
    build_butterfly,
    build_combination,
    build_kneser,
    combination_parameters,
    extend_messages,
    is_minimal,
    is_subcombination,
    parallelize,
)
from netgap.skeleton import reverse_skeleton

from subnetworks import relabel, sub_combination


def test_psi_examples():
    assert psi(5) == 5
    assert psi(6) == 7
    assert psi(1) == 2
    assert psi(10) == 11
    assert psi(Fraction(9, 2)) == 5
    assert psi(25.5) == 27
    with pytest.raises(ValueError):
        psi(0)


def test_is_prime_power():
    powers = {2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32}
    for n in range(1, 33):
        assert is_prime_power(n) == (n in powers)


@given(st.integers(1, 5000))
@settings(max_examples=100, deadline=None)
def test_psi_bertrand_pointwise(n):
    value = psi(n)
    assert n <= value <= 2 * n
    assert is_prime_power(value)
    for k in range(n, value):
        assert not is_prime_power(k)


def test_bertrand_range_check():
    # psi(n) <= 2n for every n <= 10^4, walked along the prime powers
    v = psi(1)
    while v < 10**4:
        assert psi(v + 1) <= 2 * (v + 1)
        v = psi(v + 1)


def test_candidate_qt_pairs_prefers_smaller_q():
    assert candidate_qt_pairs(16) == [(2, 4), (4, 2), (16, 1)]
    assert candidate_qt_pairs(12) == []
    assert candidate_qt_pairs(7) == [(7, 1)]


def test_butterfly_gap_zero():
    report = gap_exact(build_butterfly())
    assert report.exact
    assert report.qs.value == 2 and report.qv.value == 2 and report.gap == 0


def _qs_by_search(net) -> int:
    """The oracle for the chromatic route: the least prime power with a
    scalar solution, scanned with the exhaustive code search."""
    q = 2
    while search_solution(net, q, 1) is None:
        q = psi(q + 1)
    return q


def test_butterfly_chi_and_search_agree():
    net = build_butterfly()
    qs = qs_exact(net)
    assert qs.method == "skeleton-chi" and qs.value == _qs_by_search(net) == 2


def test_chi_and_search_agree_on_reverse_skeletons():
    from netgap.graphs import UGraph, complete_graph
    from netgap.mdsic import subcombination_solution
    from netgap.qkneser import build_qkneser, chromatic_number, find_homomorphism
    from netgap.skeleton import reverse_skeleton

    instances = [
        complete_graph(3),
        UGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),  # C5
        UGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),  # P4
        # the greedy coloring overshoots chi on these; (chi, greedy, clique)
        UGraph.from_edges(  # (3, 4, 3)
            8, [(0, 1), (1, 2), (1, 7), (2, 4), (2, 6), (3, 5), (3, 6), (3, 7), (5, 6), (5, 7)]
        ),
        UGraph.from_edges(  # (4, 5, 3)
            8,
            [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (1, 6), (2, 3), (2, 4), (2, 5),
             (2, 7), (3, 5), (3, 6), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)],
        ),
        UGraph.from_edges(  # (5, 6, 5)
            10,
            [(0, 2), (0, 4), (0, 5), (0, 7), (0, 9), (1, 3), (1, 4), (1, 5), (1, 6), (1, 8),
             (1, 9), (2, 4), (2, 5), (2, 7), (2, 8), (3, 6), (4, 5), (4, 6), (4, 7), (4, 8),
             (4, 9), (5, 6), (5, 7), (5, 8), (5, 9), (6, 7), (6, 9), (8, 9)],
        ),
        UGraph.from_edges(  # (6, 7, 5)
            11,
            [(0, 1), (0, 4), (0, 5), (0, 6), (0, 7), (0, 10), (1, 2), (1, 3), (1, 6), (1, 7),
             (1, 8), (1, 10), (2, 3), (2, 4), (2, 6), (2, 7), (2, 9), (3, 4), (3, 5), (3, 6),
             (3, 7), (3, 8), (3, 9), (3, 10), (4, 5), (4, 7), (4, 9), (4, 10), (5, 7), (5, 8),
             (5, 9), (5, 10), (6, 7), (6, 8), (6, 9), (7, 8), (7, 9), (7, 10), (8, 10)],
        ),
    ]
    target = build_qkneser(2, 4, 2)
    for g in instances:
        net = reverse_skeleton(g)
        qs = qs_exact(net)
        assert qs.method == "skeleton-chi"
        # the chi route tests only the counts q + 1; the exact chi is the oracle
        assert qs.value == _qs_by_search(net) == psi(chromatic_number(g).chi - 1)
        # the assignment search at h = 2, mostly on non-full N_{2,r,2}
        # sub-networks: scalar, its least q is q_s; over (2,2), a solution
        # is a homomorphism into 2K_{4:2}
        q = 2
        while subcombination_solution(net, q, 1) is None:
            q = psi(q + 1)
        assert q == qs.value
        hom = find_homomorphism(g, target)
        assert (subcombination_solution(net, 2, 2) is None) == (hom is None)
    # K_{3,2;2}: 10 colors of the skeleton 3K_{4:2} are refuted and 11 is
    # skipped (10 is no prime power), so chi stays in [11, 12], and
    # psi(10) = psi(11) = 11 is certified by the greedy 12-coloring
    net = build_kneser(3, 2, 2)
    qs = qs_exact(net)
    graph = net._skeleton.graph
    res = chromatic_number(graph, needed=lambda k: is_prime_power(k - 1))
    assert (res.lo, res.hi) == (11, 12)
    assert check_certificate(qs.certificate) == (True, "proper coloring with 12 colors")
    assert qs.value == psi(chromatic_number(graph).chi - 1) == 11


# (lo, hi, exact, method, SHA-256 of the certificate's sorted JSON) of q_s
# and q_v: every route, both code-search labels and the skeleton chi
# bracket that the greedy colouring closes at 11
_ROUTE_PINS = [
    pytest.param(
        build_butterfly,
        DEFAULT_BUDGET,
        (2, 2, True, "skeleton-chi", "188cbebee44f29e1621e414546e69d9a67cc36757f20e6a3c65802b6a35f3874"),
        (2, 2, True, "homomorphism", "710961ecf7d4a60d680e548b8a6c404d2777e5839d33f78320c4327187b06327"),
        id="butterfly",
    ),
    pytest.param(
        lambda: extend_messages(build_combination(2, 3, 2), 3),
        DEFAULT_BUDGET,
        (2, 2, True, "exhaustive", "ff6141b7fc0b6ce3eba62cca85d4dc3fefc451715524d1a971fdba6e312980dd"),
        (2, 2, True, "exhaustive", "ff6141b7fc0b6ce3eba62cca85d4dc3fefc451715524d1a971fdba6e312980dd"),
        id="N232-extend3",
    ),
    pytest.param(
        lambda: parallelize(build_combination(2, 3, 2), 2),
        DEFAULT_BUDGET,
        (2, 2, True, "exhaustive", "d5f98371f36b2c5de0176f7aeb09b41b41bef4299858be949ea43d2ec60d2fe8"),
        (2, 2, True, "exhaustive", "d5f98371f36b2c5de0176f7aeb09b41b41bef4299858be949ea43d2ec60d2fe8"),
        id="N232-parallel2",
    ),
    pytest.param(
        lambda: build_kneser(2, 1, 2),
        DEFAULT_BUDGET,
        (2, 2, True, "skeleton-chi", "070667205e4c841a2d5c4da8ea17e843b36ea7214969fb9ca195cef3477de180"),
        (2, 2, True, "ic", "e299a95d0d476d4de791315058fa234fd46a091bc41673f644cd8d41a0aa5e87"),
        id="K212",
    ),
    pytest.param(
        lambda: build_kneser(2, 2, 2),
        DEFAULT_BUDGET,
        (5, 5, True, "skeleton-chi", "86629e4b606fd75f95c3fb9b74453d80b9178d07be7ced870f8c8bb255f2a665"),
        (4, 4, True, "homomorphism", "a75267d5c4a5e4b302b559a73ca633b70759f1f0e693e29ca85425703d327dc8"),
        id="K222",
    ),
    pytest.param(
        lambda: build_kneser(3, 2, 2),
        DEFAULT_BUDGET,
        (11, 11, True, "skeleton-chi", "ea85d7e991d6239d251733cfb597f86451742150c80558b31ab332ebe9ae53bf"),
        (9, 9, True, "homomorphism", "97170b1bec692708d3a8c7b586a90ad78bb9bfdd304d82988c7d5636f2f4f6de"),
        id="K322",
    ),
    pytest.param(
        lambda: build_combination(2, 5, 2),
        DEFAULT_BUDGET,
        (4, 4, True, "skeleton-chi", "5b967fb9ddfb9bc97bf4fc4cae588b9332e7fb906e40fb78124ccdfbcdd821be"),
        (4, 4, True, "ic", "48ba0ba233aae038ce60b9e059d80e81fc9737bdad1e84a0f77a2d76d3d94497"),
        id="N252",
    ),
    pytest.param(
        lambda: build_combination(3, 6, 3),
        DEFAULT_BUDGET,
        (4, 4, True, "exhaustive", "e7eddf64d0e1fd905b9de13905ebaa512f2576f38b0fb4068ea3c096ea0b080c"),
        (4, 4, True, "ic", "e8d282a15c50381a6ed326db37f0e12a63333d6678be7d2b050ebcbf69c95ec7"),
        id="N363",
    ),
    pytest.param(
        lambda: build_combination(4, 7, 4),
        DEFAULT_BUDGET,
        (7, 7, True, "exhaustive", "286b54629ce91082f6c907856fdabd9b41a5bf3ca0861764fd256f20c8d6cf53"),
        (7, 7, True, "ic", "286b54629ce91082f6c907856fdabd9b41a5bf3ca0861764fd256f20c8d6cf53"),
        id="N474",
    ),
    pytest.param(
        lambda: sub_combination(3, 8, 50, 1),
        DEFAULT_BUDGET,
        (7, 7, True, "exhaustive", "acbc73bf680fabbdfd183d064d3cc53a55c8f3fd428761d3f0f227ded13049d1"),
        (7, 7, True, "exhaustive", "acbc73bf680fabbdfd183d064d3cc53a55c8f3fd428761d3f0f227ded13049d1"),
        id="N383-50",
    ),
    pytest.param(
        lambda: reverse_skeleton(UGraph.from_edges(5, [(v, (v + 1) % 5) for v in range(5)])),
        DEFAULT_BUDGET,
        (2, 2, True, "skeleton-chi", "0793efdbb1f15beb995667305ef3ad48a423c17299a79d7f5d7b685d1e4b8368"),
        (2, 2, True, "homomorphism", "4bdb18f6ae6c355bdf939872e0b1e041e3822dd4d64919ca47b6c58f221984bf"),
        id="C5-reverse",
    ),
    pytest.param(
        lambda: build_kneser(3, 2, 2),
        1206,
        (9, 11, False, "skeleton-chi-bracket", "74234e98afe7498fb5daf1f36ac2d78acc339464f950703b8c019892f982b90b"),
        (9, 9, True, "homomorphism", "97170b1bec692708d3a8c7b586a90ad78bb9bfdd304d82988c7d5636f2f4f6de"),
        id="K322-1206",
    ),
]


@pytest.mark.parametrize(("build", "budget", "qs_pin", "qv_pin"), _ROUTE_PINS)
def test_routes_labels_brackets_and_certificates_are_pinned(build, budget, qs_pin, qv_pin):
    for run, pin in ((qs_exact, qs_pin), (qv_exact, qv_pin)):
        res = run(build(), budget)
        digest = hashlib.sha256(json.dumps(res.certificate, sort_keys=True).encode()).hexdigest()
        assert (res.lo, res.hi, res.exact, res.method, digest) == pin, run.__name__


def test_a_homomorphism_target_too_large_to_list_ends_qv(monkeypatch):
    # the code search listing the same t-subspaces would stop at the same
    # limit, so q_v reports the limit instead of searching codes
    from netgap import subspaces

    net = build_butterfly()
    monkeypatch.setattr(subspaces, "ENUMERATION_LIMIT", 0)
    with pytest.raises(SizeLimitExceeded, match="exceed limit 0"):
        qv_exact(net)


def test_unsolvable_reported_distinctly():
    with pytest.raises(UnsolvableNetwork):
        qs_exact(build_combination(3, 4, 2))


def test_exhausted_budgets_yield_honest_brackets():
    # h = 3: the assignment search.  ic_size_bound(2, 1, 3, 3) = 4 < 5
    # refutes q = 2 without a node, and three nodes do not decide q = 3
    net = build_combination(3, 5, 3)
    qs = qs_exact(net, budget=3)
    assert not qs.exact and qs.lo == 3 and qs.hi >= 4
    assert (qs.method, qs.certificate) == ("exhaustive-bracket", None)
    with pytest.raises(ValueError):
        qs.value
    # v = 4 needs a real IC search on N_{2,5,2}; one node is never enough
    net5 = build_combination(2, 5, 2)
    qv = qv_exact(net5, budget=1)
    assert not qv.exact and qv.lo == 4 and qv.hi >= qv.lo
    report = gap_exact(net5, budget=1)
    assert not report.exact
    lo, hi = report.gap
    assert lo == 0 and hi >= 0  # true gap 0 stays inside the bracket


@pytest.mark.parametrize(
    ("run", "method"),
    [
        (lambda: qs_exact(build_butterfly()), "skeleton-chi"),
        (lambda: qv_exact(build_butterfly()), "homomorphism"),
        (lambda: qv_exact(build_combination(2, 5, 2)), "ic"),
        # h = 3 sub-combination network: the assignment search
        (lambda: qs_exact(build_combination(3, 5, 3)), "exhaustive"),
        (lambda: qs_exact(build_combination(3, 5, 3), budget=3), "exhaustive-bracket"),
        # terminals of in-degree 4 > h = 3: the code search
        (lambda: qs_exact(build_combination(3, 5, 4)), "exhaustive"),
        (lambda: qs_exact(build_combination(3, 5, 4), budget=3), "exhaustive-bracket"),
        (lambda: qv_exact(build_combination(2, 4, 3)), "exhaustive"),
        (lambda: qs_exact(build_kneser(3, 2, 2), budget=1206), "skeleton-chi-bracket"),
        (lambda: qv_exact(build_combination(2, 5, 2), budget=1), "bracket"),
        # one message: no IC (alpha >= 2), so the code search
        (lambda: qv_exact(build_combination(1, 3, 1)), "exhaustive"),
    ],
    ids=["qs-chi", "qv-hom", "qv-ic", "qs-assignment", "qs-assignment-bracket",
         "qs-search", "qs-search-bracket", "qv-search", "qs-chi-bracket",
         "qv-bracket", "qv-one-message"],
)
def test_every_route_returns_its_replayable_certificate(run, method):
    res = run()
    assert res.method == method
    if "bracket" in method:
        assert not res.exact and res.certificate is None
    else:
        assert res.exact and check_certificate(res.certificate)[0]


def test_an_exact_value_without_a_certificate_is_an_internal_error():
    with pytest.raises(InternalError):
        Extremal(4, 4, "exhaustive")
    with pytest.raises(InternalError, match="bracket"):
        Extremal(3, 4, "exhaustive", certificate={"kind": "network-code"})
    assert not Extremal(4, 4, "bracket", exact=False).exact


@pytest.mark.parametrize(
    ("run", "method"), [(qs_exact, "exhaustive-bracket"), (qv_exact, "bracket")], ids=["qs", "qv"]
)
def test_a_scan_stopped_at_its_bound_stays_a_bracket(run, method):
    # N_{3,4,4}: one terminal, so psi(2) = 2 bounds the scan, and one node
    # does not decide q = 2.  The ends meet, but nothing is certified
    net = build_combination(3, 4, 4)
    res = run(net, budget=1)
    assert (res.lo, res.hi, res.exact, res.certificate, res.method) == (2, 2, False, None, method)
    with pytest.raises(ValueError):
        res.value
    assert run(net).exact and run(net).value == 2


def test_gap_of_scans_stopped_at_their_bound_is_a_bracket():
    report = gap_exact(build_combination(3, 4, 4), budget=1)
    assert not report.exact and report.gap == (0, 0)


def test_n_2_5_2_values():
    net = build_combination(2, 5, 2)
    qs = qs_exact(net)
    qv = qv_exact(net)
    assert qs.exact and qs.value == 4  # [5,2,4]_q needs q >= 4
    assert qv.exact and qv.value == 4  # a (2;2,2)_2 spread of size 5 works


def test_kneser_2_2_2_gap_one():
    net = build_kneser(2, 2, 2)
    report = gap_exact(net)
    assert report.exact
    assert report.qv.value == 4 and report.qs.value == 5 and report.gap == 1
    assert report.qv.method == "homomorphism" and report.qs.method == "skeleton-chi"


def test_kneser_3_2_2_gap_two():
    # the q=3, t=2 instance end to end: refuting 10 colors of the skeleton
    # 3K_{4:2} proves q_s >= 11 and the greedy 12-coloring q_s <= psi(11) =
    # 11 (11 colors would decide nothing); vector side certified by the
    # identity homomorphism
    net = build_kneser(3, 2, 2)
    report = gap_exact(net)
    assert report.exact
    assert report.qv.value == 9 and report.qs.value == 11 and report.gap == 2
    assert report.gap == gap_formulas("kneser-h2", q=3, t=2).value


def test_qv_skips_targets_below_a_clique_not_proven_maximum():
    # the skeleton's 5,000-node clique search finds a 10-clique of 3K_{4:2}
    # without proving it maximum (8,442 nodes); cliques map injectively, so
    # every qK_{2t:t} with q^t + 1 < 10 is skipped before any search
    qv = qv_exact(build_kneser(3, 2, 2), budget=50000)
    assert qv.exact and qv.value == 9 and qv.method == "homomorphism"


def test_n_3_7_3_values():
    # the IC search on the full network: ic_size_bound refutes q <= 4,
    # the search refutes q = 5 and finds q = 7
    report = gap_exact(build_combination(3, 7, 3))
    assert report.exact
    assert report.qs.value == 7 and report.qs.method == "exhaustive"
    assert report.qv.value == 7 and report.gap == 0


def test_qv_le_qs_on_resolved_instances():
    for net in (build_butterfly(), build_combination(2, 4, 2), build_kneser(2, 1, 2)):
        report = gap_exact(net)
        assert report.exact and report.qv.value <= report.qs.value


def test_formula_kneser_h2():
    res = gap_formulas("kneser-h2", q=2, t=2)
    assert res.value == 1 and res.hypotheses_ok
    assert gap_formulas("kneser-h2", q=3, t=2).value == 2
    assert not gap_formulas("kneser-h2", q=2, t=4).hypotheses_ok


def test_formula_combination_upper_h2_is_zero():
    for r in range(3, 10):
        assert gap_formulas("combination-upper", h=2, r=r).value == 0


def test_formula_h3_lower():
    res = gap_formulas("kneser-h3-lower", q=2, t=3, h=3)
    assert res.value == psi(10) - 8 == 3 and res.hypotheses_ok
    # t < h branch keeps the psi argument exact as a fraction
    small_t = gap_formulas("kneser-h3-lower", q=3, t=2, h=4)
    assert small_t.value == psi(Fraction(9) + Fraction(3, 9)) - 9


def test_formula_t2_lower():
    res = gap_formulas("kneser-h2-t2-lower", q=2, t=2)
    assert res.value == psi(5) - 4 == 1 and res.hypotheses_ok


def test_formula_unknown_kind():
    with pytest.raises(ValueError):
        gap_formulas("nope", q=2)
    with pytest.raises(ValueError):
        gap_formulas("kneser-h2", q=2, t=0)
    with pytest.raises(ValueError):
        gap_formulas("combination-upper", h=3, r=2)
    with pytest.raises(ValueError, match="takes no parameter h"):
        gap_formulas("kneser-h2", q=2, t=2, h=3)


def test_formula_inequalities_across_grid():
    # closed-form values obey the accompanying simple bounds everywhere
    for q in (2, 3, 4, 5, 7, 8, 9):
        for t in (1, 2, 3, 4):
            eq = gap_formulas("kneser-h2", q=q, t=t)
            assert eq.value >= q ** (t - 1) - 1  # from psi(n) >= n
            if t >= 2:
                low = gap_formulas("kneser-h2-t2-lower", q=q, t=t)
                assert low.value >= 1
            for h in (3, 4):
                if t >= 2:
                    res = gap_formulas("kneser-h3-lower", q=q, t=t, h=h)
                    denom = (h - 1) if t >= h else (h - 1) ** 2
                    assert res.value >= Fraction(q ** (t - 1), denom)
    for h in (2, 3, 4):
        for r in range(max(h, 2), 12):
            up = gap_formulas("combination-upper", h=h, r=r)
            assert up.value <= r + h - 3
            if h == 2:
                assert up.value == 0


def test_gap_upper_bound_holds_on_resolved_h2_instances():
    # gap <= psi(q^t + q^{t-1} - 1) - q^t at the vector-optimal value
    for net in (
        build_butterfly(),
        build_kneser(2, 1, 2),
        build_kneser(2, 2, 2),
        build_combination(2, 5, 2),
    ):
        report = gap_exact(net)
        assert report.exact
        for q, t in candidate_qt_pairs(report.qv.value):
            bound = gap_formulas("minimal-h2-upper", q=q, t=t).value
            assert report.gap <= bound
            break


def test_gap_table_rows_match_formulas():
    rows = gap_table_rows(qs=(2, 3), ts=(1, 2), exact_limit=2)
    by_net = {r["network"]: r for r in rows}
    assert by_net["K_{2,1;2}"]["gap"] == 0
    assert by_net["K_{2,2;2}"]["gap"] == 1
    assert by_net["K_{3,2;2}"]["q_s"] == 11 and by_net["K_{3,2;2}"]["gap"] == 2
    for (q, t), row in zip([(2, 1), (2, 2), (3, 1), (3, 2)], rows):
        assert row["q_v"] == q**t
        assert row["q_s"] == psi(q**t + q ** (t - 1) - 1)
        assert row["gap"] == row["q_s"] - row["q_v"]


def test_gap_computes_each_network_structure_once(monkeypatch):
    import functools
    import importlib

    from netgap import networks
    from netgap.networks import Network
    from netgap.skeleton import skeleton

    # the package exports the function under the module's name
    skeleton_module = importlib.import_module("netgap.skeleton")

    shapes = []
    walk = Network._shape.func

    def counted_shape(net):
        shapes.append(net)
        return walk(net)

    prop = functools.cached_property(counted_shape)
    prop.__set_name__(Network, "_shape")
    monkeypatch.setattr(Network, "_shape", prop)
    skeletons = []
    monkeypatch.setattr(
        skeleton_module, "skeleton", lambda net: skeletons.append(net) or skeleton(net)
    )
    minimality = []
    monkeypatch.setattr(
        networks, "is_minimal", lambda net: minimality.append(net) or is_minimal(net)
    )

    net = build_kneser(2, 2, 2)
    report = gap_exact(net)
    assert (report.qs.value, report.qv.value) == (5, 4)
    assert len(shapes) == len({id(n) for n in shapes}) == 1
    assert skeletons == [net] and minimality == []

    # not a sub-combination network, so route selection runs the
    # edge-deletion test, once for both routes
    bf = build_butterfly()
    report = gap_exact(bf)
    assert report.exact and minimality == [bf]
    assert skeletons == [net, bf]
    # both facts live on the network, so later calls on it reuse them
    qs_exact(bf)
    qv_exact(bf)
    assert minimality == [bf] and skeletons == [net, bf]


def test_q_s_of_a_kneser_file_builds_no_edge_index():
    # K_{2,2;2} is three layers: reading it, validating it, its shape and
    # its skeleton all come from one pass over its edges, with no index
    net = relabel(build_kneser(2, 2, 2), 5)
    assert qs_exact(net).value == 5
    assert "_layers" in vars(net) and "_index" not in vars(net)


@pytest.mark.parametrize(
    "make, qs, qv",
    [
        (lambda: build_combination(3, 6, 3), (4, "exhaustive"), (4, "ic")),
        (lambda: build_combination(3, 5, 3), (4, "exhaustive"), (4, "ic")),
        (lambda: sub_combination(3, 8, 50, 1), (7, "exhaustive"), (7, "exhaustive")),
    ],
    ids=["N363", "N353", "N383-keep-50"],
)
def test_the_middle_space_routes_build_no_edge_index(make, qs, qv):
    # the assignment search, the IC search and the forwarding code read the
    # middle layer alone, in the builder's labelling and a relabelled one
    for net in (make(), relabel(make(), 3)):
        a, b = qs_exact(net), qv_exact(net)
        assert ((a.value, a.method), (b.value, b.method)) == (qs, qv)
        assert "_layers" in vars(net) and "_index" not in vars(net)


# ---------------------------------------------------------------------------
# the assignment search over the middle nodes (sub-combination networks)
# ---------------------------------------------------------------------------

def _qv_by_search(net) -> int:
    """The oracle for the middle-space route's q_v: the least q^t with a
    (q,t)-solution, scanned with the exhaustive code search."""
    v = 2
    while all(search_solution(net, q, t) is None for q, t in candidate_qt_pairs(v)):
        v = psi(v + 1)
    return v


def _random_sub_combination(seed):
    r = 5 + seed % 2
    half = math.comb(r, 3) // 2
    return sub_combination(3, r, half + seed * 7 % half, seed)


@pytest.mark.parametrize("seed", range(12))
def test_middle_space_route_agrees_with_the_code_search(seed):
    # h = 3 networks from random terminal subsets of N_{3,5,3} and N_{3,6,3};
    # their q_s and q_v range over 2, 3 and 4
    net = _random_sub_combination(seed)
    assert is_subcombination(net) and combination_parameters(net) is None
    qs, qv = qs_exact(net), qv_exact(net)
    assert (qs.value, qv.value) == (_qs_by_search(net), _qv_by_search(net))
    assert (qs.method, qv.method) == ("exhaustive", "exhaustive")
    # the same verdicts, and certificates on the new ids, after relabelling
    for relabelled in (relabel(net, seed), relabel(net, seed + 100)):
        qs_r, qv_r = qs_exact(relabelled), qv_exact(relabelled)
        assert (qs_r.value, qv_r.value, qs_r.method, qv_r.method) == (
            qs.value, qv.value, qs.method, qv.method
        )
        for res in (qs_r, qv_r):
            assert check_certificate(res.certificate) == (True, "accepted linear solution")


def test_a_middle_feeding_nothing_takes_the_code_search_with_the_same_answers():
    # N_{3,4,3} with a fifth middle fed by the source alone loses the
    # sub-combination shape and the middle layer with it, so q_s and q_v
    # come from the code search, never a ValueError from the middle-space
    # route
    base = build_combination(3, 4, 3)
    edges = base.edges + (Edge("idle", base.source, "m4"),)
    net = Network.from_edges(base.h, base.source, base.terminals, base.nodes + ("m4",), edges)
    assert not is_subcombination(net) and net.middle_layer() is None
    for run in (qs_exact, qv_exact):
        res = run(net)
        assert (res.value, res.method) == (run(base).value, "exhaustive")
        assert check_certificate(res.certificate) == (True, "accepted linear solution")


def test_an_idle_middle_is_not_minimal_so_qs_skips_the_skeleton_route():
    # N_{2,3,2} plus a fourth middle fed by the source alone: its source
    # edge can go, so the network is not minimal, and q_s must not take
    # skeleton chi, a route that needs a minimal network
    net = _middle_network(2, ["m0", "m1", "m2", "m3"], [(0, 1), (0, 2), (1, 2)])
    assert not is_subcombination(net) and not is_minimal(net)
    assert not net._routing_minimal
    qs, qv = qs_exact(net), qv_exact(net)
    assert (qs.value, qv.value) == (2, 2) and qs.method != "skeleton-chi"
    for res in (qs, qv):
        assert check_certificate(res.certificate)[0]


@pytest.mark.parametrize(
    ("build", "expected"),
    [
        (lambda: build_combination(3, 6, 3), (4, "exhaustive", 4, "ic")),
        (lambda: build_combination(3, 5, 3), (4, "exhaustive", 4, "ic")),
        (lambda: sub_combination(3, 6, 15, 5), (3, "exhaustive", 3, "exhaustive")),
        (lambda: build_kneser(2, 2, 2), (5, "skeleton-chi", 4, "homomorphism")),
    ],
    ids=["N363", "N353", "N363-15-terminals", "K222"],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_route_methods_are_pinned_and_certificates_replay_on_relabelled_inputs(
    build, expected, seed
):
    # the benchmark reads `exhaustive` for q_s of N_{3,6,3} and `ic` for q_v
    # of N_{3,5,3}, on inputs relabelled like these at every non-zero seed
    net = build() if seed == 0 else relabel(build(), seed)
    qs, qv = qs_exact(net), qv_exact(net)
    assert (qs.value, qs.method, qv.value, qv.method) == expected
    assert check_certificate(qs.certificate)[0] and check_certificate(qv.certificate)[0]


def test_fifty_terminals_of_n_3_8_3_are_exact_within_the_default_budget():
    # random.Random(1) keeps 50 of the 56 terminals, so ic_size_bound no
    # longer applies: the assignment search refutes q = 2, 3, 4 and 5, and
    # t = 2 over F_2, then finds a solution over F_7
    net = sub_combination(3, 8, 50, 1)
    report = gap_exact(net)
    assert (report.qs.value, report.qv.value, report.gap) == (7, 7, 0)
    assert report.methods == "qs:exhaustive;qv:exhaustive"
    assert check_certificate(report.qs.certificate)[0]
    assert check_certificate(report.qv.certificate)[0]


@pytest.mark.parametrize("budget", [1, 2, 5, 20, 60, 150, 400])
def test_a_stopped_middle_space_search_is_a_bracket_never_a_negative(budget):
    # q_s = q_v = 4 here; a budget too small for a (q,t) pair must leave
    # that pair open, so the bracket always still holds 4
    net = sub_combination(3, 6, 17, 1)
    for res, bracket in (
        (qs_exact(net, budget), "exhaustive-bracket"),
        (qv_exact(net, budget), "bracket"),
    ):
        if res.exact:
            assert res.value == 4 and check_certificate(res.certificate)[0]
        else:
            assert res.method == bracket and res.certificate is None
            assert res.lo <= 4 <= res.hi
