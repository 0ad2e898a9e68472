import contextlib
import functools
import gc
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netgap
from netgap import errors, subspaces
from netgap.cli import (
    EXIT_BUDGET,
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    main,
)
from netgap.networks import build_combination, build_kneser, network_to_json


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_psi_command(capsys):
    code, out, _ = run_cli(["psi", "6"], capsys)
    assert code == EXIT_OK and out.strip() == "7"


def test_psi_json(capsys):
    code, out, _ = run_cli(["psi", "10", "--json"], capsys)
    assert code == EXIT_OK and json.loads(out) == {"psi": 11}


def _json_values(depth):
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text()
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
        max_leaves=depth,
    )


@settings(max_examples=300, deadline=None)
@given(_json_values(30))
def test_json_output_is_the_standard_library_layout(obj):
    # --json prints what json.dumps(sort_keys=True) would, the compact line
    # of the C encoder, whatever the value: here psi's, through a stand-in
    from unittest import mock

    from netgap import cli

    out = io.StringIO()
    with mock.patch.object(cli, "psi", lambda x: obj), contextlib.redirect_stdout(out):
        assert main(["psi", "6", "--json"]) == EXIT_OK
    assert out.getvalue() == json.dumps({"psi": obj}, sort_keys=True) + "\n"


def test_psi_beyond_the_proven_prime_test_is_a_usage_error(capsys):
    start = time.monotonic()
    code, out, err = run_cli(["psi", "1e30"], capsys)
    assert time.monotonic() - start < 1
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and "no primality test is proven" in err


@pytest.mark.parametrize("x", ["nan", "inf", "1e400"])
def test_psi_of_a_non_finite_argument_is_a_usage_error(x, capsys):
    # 1e400 parses as inf; neither has an integer ceiling to scan from
    code, out, err = run_cli(["psi", x], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: psi needs a finite argument")


def test_build_comb_and_verify_roundtrip(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    code, _, _ = run_cli(["build", "comb", "2", "3", "2", "-o", str(net_path)], capsys)
    assert code == EXIT_OK
    obj = json.loads(net_path.read_text())
    assert obj["h"] == 2 and len(obj["edges"]) == 9

    cert = tmp_path / "sol.json"
    code, _, _ = run_cli(
        ["solve", "--network", str(net_path), "--q", "2", "--t", "1", "--cert", str(cert)], capsys
    )
    assert code == EXIT_OK
    payload = json.loads(cert.read_text())
    code_path = tmp_path / "code.json"
    code_path.write_text(json.dumps(payload["code"]))
    code, out, _ = run_cli(["verify", "--network", str(net_path), "--code", str(code_path)], capsys)
    assert code == EXIT_OK and "ACCEPT" in out


def test_every_listing_refuses_above_the_enumeration_limit(tmp_path, capsys, monkeypatch):
    (tmp_path / "edge.json").write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]]}))
    monkeypatch.chdir(tmp_path)
    # N_{2,5,2} has C(5, 2) = 10 terminals; at the default limit it is built
    code, _, _ = run_cli(["build", "comb", "2", "5", "2", "-o", "n.json"], capsys)
    assert code == EXIT_OK and len(json.loads(Path("n.json").read_text())["terminals"]) == 10
    monkeypatch.setattr(subspaces, "ENUMERATION_LIMIT", 5)
    refused = [
        (["build", "comb", "2", "5", "2", "-o", "m.json"], "10 terminals"),
        (["qs", "--comb", "2", "5", "2"], "10 terminals"),
        (["qv", "--comb", "2", "5", "2"], "10 terminals"),
        (["gap", "--comb", "2", "5", "2"], "10 terminals"),
        # the 5 lines of F_4^2 are listed, their C(5, 2) pairs are not scanned
        (["build", "kneser", "4", "1", "2"], "10 candidate terminals of K_{4,1;2}"),
        (["chi", "--qkneser", "2", "3", "1"], "7 subspaces of F_2^3"),
        (["hom", "--from", "edge.json", "--to-qkneser", "2", "3", "1"], "7 subspaces of F_2^3"),
        (["coloring", "--qkneser", "2", "4", "2"], "35 subspaces of F_2^4"),
        (["ic", "search", "--q", "2", "--t", "1", "--h", "3", "--alpha", "2"], "7 subspaces of F_2^3"),
        (["mds", "--q", "4", "--r", "5", "--h", "2"], "16 codewords"),
    ]
    for argv, what in refused:
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {what} exceed limit 5\n"), argv
    assert not Path("m.json").exists()


def test_verify_rejects_broken_code(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    run_cli(["build", "comb", "2", "3", "2", "-o", str(net_path)], capsys)
    net = json.loads(net_path.read_text())
    zero_code = {
        "q": 2, "p": 2, "m": 1, "t": 1, "h": 2,
        "edges": {e["id"]: [[0, 0]] for e in net["edges"]},
    }
    code_path = tmp_path / "zero.json"
    code_path.write_text(json.dumps(zero_code))
    code, out, _ = run_cli(["verify", "--network", str(net_path), "--code", str(code_path)], capsys)
    assert code == EXIT_NEGATIVE and "REJECT" in out


def test_solve_negative_exit_code(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    run_cli(["build", "comb", "2", "4", "2", "-o", str(net_path)], capsys)
    code, out, _ = run_cli(
        ["solve", "--network", str(net_path), "--q", "2", "--cert", str(tmp_path / "c.json")],
        capsys,
    )
    assert code == EXIT_NEGATIVE and "no (2,1)-linear solution" in out


@pytest.mark.parametrize("t", ["0", "-1"])
def test_solve_rejects_t_below_one_with_the_usage_code(tmp_path, capsys, t):
    net_path, cert = tmp_path / "net.json", tmp_path / "c.json"
    run_cli(["build", "comb", "2", "3", "2", "-o", str(net_path)], capsys)
    code, out, err = run_cli(
        ["solve", "--network", str(net_path), "--q", "2", "--t", t, "--cert", str(cert)], capsys
    )
    assert code == EXIT_USAGE and out == "" and f"t >= 1, got t={t}" in err
    assert not cert.exists()


def test_a_code_or_configuration_with_t_zero_fails_its_checks(tmp_path, capsys):
    # a (2,0) "solution" of N_{2,3,2} (every matrix empty) and a (0;2,2)_2
    # configuration (every member empty) pass every rank check, so t itself
    # must be checked
    net_path, code_cert, ic_cert = tmp_path / "n.json", tmp_path / "code.json", tmp_path / "ic.json"
    run_cli(["build", "comb", "2", "3", "2", "-o", str(net_path)], capsys)
    run_cli(["solve", "--network", str(net_path), "--q", "2", "--cert", str(code_cert)], capsys)
    run_cli(["ic", "search", "--q", "2", "--t", "1", "--h", "2", "--alpha", "2", "--cert", str(ic_cert)], capsys)
    obj = json.loads(code_cert.read_text())
    obj["code"]["t"] = 0
    obj["code"]["edges"] = {eid: [] for eid in obj["code"]["edges"]}
    code_cert.write_text(json.dumps(obj))
    obj = json.loads(ic_cert.read_text())
    obj["ic"]["t"] = 0
    obj["ic"]["members"] = [[] for _ in obj["ic"]["members"]]
    ic_cert.write_text(json.dumps(obj))
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(obj["ic"]))
    code, out, _ = run_cli(["check-cert", str(code_cert), str(ic_cert)], capsys)
    assert code == EXIT_NEGATIVE
    assert out.splitlines() == [
        f"{code_cert}: FAIL - code declares t=0, but t >= 1",
        f"{ic_cert}: FAIL - t=0, but a configuration needs t >= 1",
    ]
    code, out, _ = run_cli(["ic", "check", "--witness", str(witness), "--alpha", "2"], capsys)
    assert code == EXIT_NEGATIVE and "INVALID" in out


def test_solve_budget_exit_code(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    run_cli(["build", "comb", "2", "4", "2", "-o", str(net_path)], capsys)
    code, _, _ = run_cli(
        ["solve", "--network", str(net_path), "--q", "2", "--budget", "2",
         "--cert", str(tmp_path / "c.json")],
        capsys,
    )
    assert code == EXIT_BUDGET


def _assert_undecided(argv, capsys, reason, nodes_used):
    """Both outputs of a stopped search name the stop and the nodes it used."""
    code, out, _ = run_cli(argv, capsys)
    assert code == EXIT_BUDGET and out == f"undecided: {reason} after {nodes_used} nodes\n"
    code, out, _ = run_cli(argv + ["--json"], capsys)
    assert code == EXIT_BUDGET
    assert json.loads(out) == {"status": "unknown", "reason": reason, "nodes_used": nodes_used}


# the deadline is read before every 1024th node, so an expired one stops a
# search after 1023
@pytest.mark.parametrize(
    "stop, reason, nodes_used",
    [
        (["--budget", "5"], "homomorphism budget exhausted", 5),
        (["--timeout-secs", "1e-9"], "wall-clock timeout", 1023),
    ],
    ids=["budget", "deadline"],
)
def test_hom_reports_which_stop_left_it_undecided(tmp_path, capsys, stop, reason, nodes_used):
    # C5 has no homomorphism into C101, and the search outlasts the first
    # checkpoint; the clique search of the target ends before it
    for n in (5, 101):
        names = [f"v{i}" for i in range(n)]
        edges = [[names[i], names[(i + 1) % n]] for i in range(n)]
        (tmp_path / f"c{n}.json").write_text(json.dumps({"vertices": names, "edges": edges}))
    argv = ["hom", "--from", str(tmp_path / "c5.json"), "--to", str(tmp_path / "c101.json")]
    _assert_undecided(argv + stop, capsys, reason, nodes_used)


@pytest.mark.parametrize(
    "stop, reason, nodes_used",
    [
        (["--budget", "2"], "solution search budget exhausted", 2),
        (["--timeout-secs", "1e-9"], "wall-clock timeout", 1023),
    ],
    ids=["budget", "deadline"],
)
def test_solve_reports_which_stop_left_it_undecided(tmp_path, capsys, stop, reason, nodes_used):
    # the (2,2) search on N_{2,6,2} is negative and outlasts the first checkpoint
    net_path, cert = tmp_path / "net.json", tmp_path / "c.json"
    run_cli(["build", "comb", "2", "6", "2", "-o", str(net_path)], capsys)
    argv = ["solve", "--network", str(net_path), "--q", "2", "--t", "2", "--cert", str(cert)]
    _assert_undecided(argv + stop, capsys, reason, nodes_used)
    assert not cert.exists()


def test_chi_qkneser_with_certificate(tmp_path, capsys):
    cert = tmp_path / "chi.json"
    code, out, _ = run_cli(["chi", "--qkneser", "2", "4", "2", "--cert", str(cert)], capsys)
    assert code == EXIT_OK and "= 6" in out
    code, out, _ = run_cli(["check-cert", str(cert)], capsys)
    assert code == EXIT_OK and "OK" in out


def test_chi_brackets_4k42_within_a_short_timeout(tmp_path, capsys):
    # 4K_{4:2}: the clique dive gives 17 (the partial-spread ceiling) and
    # the greedy coloring 20 (chi is 20); the deadline ends the coloring
    # search with an honest bracket and a certificate for its upper end
    cert = tmp_path / "chi.json"
    code, out, _ = run_cli(
        ["chi", "--qkneser", "4", "4", "2", "--timeout-secs", "2", "--json", "--cert", str(cert)],
        capsys,
    )
    assert code == EXIT_BUDGET
    res = json.loads(out)
    assert res["exact"] is False and 17 <= res["chi_lower"] <= 20 <= res["chi_upper"]
    code, out, _ = run_cli(["check-cert", str(cert)], capsys)
    assert code == EXIT_OK and f"proper coloring with {res['chi_upper']} colors" in out


def test_written_certificates_are_compact_sorted_and_reproducible(tmp_path, capsys):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"vertices": ["z", "\u00e9", "a"], "edges": [["z", "a"]]}))
    path = tmp_path / "obj.json"
    code, _, _ = run_cli(["chi", "--graph", str(graph), "--cert", str(path)], capsys)
    assert code == EXIT_OK
    text = path.read_text()
    obj = json.loads(text)
    assert obj["colors"].keys() == {"z", "\u00e9", "a"}
    assert text == json.dumps(obj, sort_keys=True) + "\n" and text.count("\n") == 1
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for cert in (first, second):
        code, _, _ = run_cli(["chi", "--qkneser", "2", "4", "2", "--cert", str(cert)], capsys)
        assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_check_cert_replays_an_indented_certificate(tmp_path, capsys):
    # certificates once were written with indent=2; the parsed content is
    # what check-cert reads, so those files still replay
    cert = tmp_path / "qs.json"
    code, _, _ = run_cli(["qs", "--kneser", "2", "2", "2", "--cert", str(cert)], capsys)
    assert code == EXIT_OK
    indented = tmp_path / "qs-indented.json"
    indented.write_text(json.dumps(json.loads(cert.read_text()), indent=2, sort_keys=True) + "\n")
    assert indented.read_text() != cert.read_text()
    code, out, _ = run_cli(["check-cert", str(indented)], capsys)
    assert code == EXIT_OK and "OK" in out


def test_kneser_q_s_and_q_v_run_no_clique_search(tmp_path, capsys, monkeypatch):
    # any clique bounds chi and maps injectively, so the routes take the
    # clique dive; a maximum clique search here would spend thousands of
    # nodes on a proof that no answer reads
    calls = []

    def counted(original):
        def wrapper(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        return wrapper

    for module in (netgap, netgap.qkneser, netgap.gaplab, netgap.cli):
        if hasattr(module, "max_clique"):
            monkeypatch.setattr(module, "max_clique", counted(module.max_clique))
    net_path = tmp_path / "k322.json"
    net_path.write_text(json.dumps(network_to_json(build_kneser(3, 2, 2))))
    code, out, _ = run_cli(
        ["qs", "--network", str(net_path), "--json", "--cert", str(tmp_path / "qs.json")], capsys
    )
    assert code == EXIT_OK and json.loads(out)["q_s"] == 11
    code, out, _ = run_cli(
        ["qv", "--kneser", "3", "2", "2", "--json", "--cert", str(tmp_path / "qv.json")], capsys
    )
    assert code == EXIT_OK and json.loads(out)["q_v"] == 9
    assert calls == []


def test_chi_hypergraph(tmp_path, capsys):
    # chi(qK^3_{3:1}) over F_2 is that of its co-occurrence graph qK_{3:1}
    cert = tmp_path / "chi-h.json"
    code, out, _ = run_cli(["chi", "--qkneser", "2", "3", "1", "--cert", str(cert)], capsys)
    assert code == EXIT_OK and "chi(qK_{3:1} over F_2) = 7" in out
    code, _, _ = run_cli(["check-cert", str(cert)], capsys)
    assert code == EXIT_OK


def test_hom_positive_negative(tmp_path, capsys):
    g_path = tmp_path / "g.json"
    run_cli(["build", "comb", "2", "3", "2", "-o", str(tmp_path / "n.json")], capsys)
    code, _, _ = run_cli(
        ["skeleton", "--network", str(tmp_path / "n.json"), "-o", str(g_path)], capsys
    )
    assert code == EXIT_OK
    cert = tmp_path / "hom.json"
    code, _, _ = run_cli(
        ["hom", "--from", str(g_path), "--to-complete", "3", "--cert", str(cert)], capsys
    )
    assert code == EXIT_OK
    code, _, _ = run_cli(["check-cert", str(cert)], capsys)
    assert code == EXIT_OK
    code, out, _ = run_cli(["hom", "--from", str(g_path), "--to-complete", "2"], capsys)
    assert code == EXIT_NEGATIVE and "no homomorphism" in out


def test_hom_into_k_zero_and_no_negative_order(tmp_path, capsys):
    k2, empty = tmp_path / "k2.json", tmp_path / "empty.json"
    k2.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
    empty.write_text(json.dumps({"vertices": [], "edges": []}))
    cert = tmp_path / "hom.json"
    code, out, _ = run_cli(["hom", "--from", str(k2), "--to-complete", "0", "--cert", str(cert)], capsys)
    assert code == EXIT_NEGATIVE and "no homomorphism into K_0" in out
    code, out, _ = run_cli(["hom", "--from", str(empty), "--to-complete", "0", "--cert", str(cert)], capsys)
    assert code == EXIT_OK and "homomorphism found" in out
    assert run_cli(["check-cert", str(cert)], capsys)[0] == EXIT_OK
    code, out, err = run_cli(["hom", "--from", str(k2), "--to-complete", "-1"], capsys)
    assert code == EXIT_USAGE and out == "" and "n=-1" in err


def test_skeleton_command_lists_classes(tmp_path, capsys):
    net_path = tmp_path / "bf.json"
    from netgap.networks import build_butterfly, network_to_json

    net_path.write_text(json.dumps(network_to_json(build_butterfly())))
    code, out, _ = run_cli(["skeleton", "--network", str(net_path)], capsys)
    assert code == EXIT_OK
    assert "e1: {e1, e3, e5}" in out


def test_skeleton_and_chi_writers_list_every_vertex_and_edge_once(tmp_path, capsys):
    # the DOT and DIMACS files of N_{2,3,2}'s skeleton: each class is one
    # vertex line of the DOT file, each pair of classes sharing a terminal
    # one edge line of the DOT file, of `skeleton --dimacs` and of the
    # `chi --dimacs` of the skeleton's graph file
    from netgap.skeleton import skeleton

    net = build_combination(2, 3, 2)
    net_path, graph_path = tmp_path / "n.json", tmp_path / "skel.json"
    net_path.write_text(json.dumps(network_to_json(net)))
    dot, dimacs, chi_dimacs = (tmp_path / name for name in ("s.dot", "s.dimacs", "chi.dimacs"))
    code, _, _ = run_cli(
        ["skeleton", "--network", str(net_path), "--dot", str(dot), "--dimacs", str(dimacs),
         "-o", str(graph_path)],
        capsys,
    )
    assert code == EXIT_OK
    code, _, _ = run_cli(
        ["chi", "--graph", str(graph_path), "--dimacs", str(chi_dimacs),
         "--cert", str(tmp_path / "chi.json")],
        capsys,
    )
    assert code == EXIT_OK
    graph = skeleton(net).graph
    names, edges = graph.vertex_names, graph.edges
    assert (len(names), len(edges)) == (3, 3)
    dot_lines = dot.read_text().splitlines()
    assert dot_lines[0] == "graph G {" and dot_lines[-1] == "}"
    body = sorted(dot_lines[1:-1])
    expected = [f'  "{name}";' for name in names]
    expected += [f'  "{names[a]}" -- "{names[b]}";' for a, b in edges]
    assert body == sorted(expected)
    for path in (dimacs, chi_dimacs):
        header, *lines = path.read_text().splitlines()
        assert header == f"p edge {len(names)} {len(edges)}"
        pairs = [tuple(sorted(map(int, line.split()[1:]))) for line in lines]
        assert all(line.startswith("e ") for line in lines)
        assert sorted(pairs) == sorted(tuple(sorted((a + 1, b + 1))) for a, b in edges)


def test_gap_kneser_command(tmp_path, capsys):
    code, out, _ = run_cli(
        ["gap", "--kneser", "2", "2", "2", "--cert-prefix", str(tmp_path / "gap")], capsys
    )
    assert code == EXIT_OK
    assert "q_v=4" in out and "q_s=5" in out and "gap=1" in out
    for suffix in ("qs", "qv"):
        code, _, _ = run_cli(["check-cert", str(tmp_path / f"gap-{suffix}-cert.json")], capsys)
        assert code == EXIT_OK


def test_qs_qv_commands(tmp_path, capsys):
    code, out, _ = run_cli(
        ["qs", "--comb", "2", "5", "2", "--cert", str(tmp_path / "qs.json")], capsys
    )
    assert code == EXIT_OK and "= 4" in out
    code, out, _ = run_cli(
        ["qv", "--comb", "2", "5", "2", "--cert", str(tmp_path / "qv.json")], capsys
    )
    assert code == EXIT_OK and "= 4" in out
    code, _, _ = run_cli(["check-cert", str(tmp_path / "qv.json")], capsys)
    assert code == EXIT_OK


def test_qs_exact_under_a_budget_writes_a_replayable_certificate(tmp_path, capsys):
    # 50,000 nodes settle q_s(K_{3,2;2}) = 11: refuting 10 colors of the
    # skeleton gives chi >= 11 and the greedy 12-coloring is the certificate
    cert = tmp_path / "qs.json"
    code, out, _ = run_cli(
        ["qs", "--kneser", "3", "2", "2", "--budget", "50000", "--json", "--cert", str(cert)],
        capsys,
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"q_s": 11, "method": "skeleton-chi", "certificate": str(cert)}
    code, out, _ = run_cli(["check-cert", str(cert)], capsys)
    assert code == EXIT_OK and "proper coloring with 12 colors" in out


def test_mds_command(tmp_path, capsys):
    out_path = tmp_path / "rs.json"
    code, out, _ = run_cli(
        ["mds", "--q", "4", "--r", "5", "--h", "2", "-o", str(out_path)], capsys
    )
    assert code == EXIT_OK and "[5,2,4]_4" in out
    assert json.loads(out_path.read_text())["distance"] == 4


def test_ic_commands(tmp_path, capsys):
    code, out, _ = run_cli(["ic", "bound", "--q", "2", "--t", "2", "--h", "2", "--alpha", "2"], capsys)
    assert code == EXIT_OK and "5" in out
    cert = tmp_path / "ic.json"
    code, out, _ = run_cli(
        ["ic", "search", "--q", "2", "--t", "2", "--h", "2", "--alpha", "2", "--cert", str(cert)],
        capsys,
    )
    assert code == EXIT_OK and "max size = 5" in out
    code, _, _ = run_cli(["check-cert", str(cert)], capsys)
    assert code == EXIT_OK
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(json.loads(cert.read_text())["ic"]))
    code, out, _ = run_cli(["ic", "check", "--witness", str(witness), "--alpha", "2"], capsys)
    assert code == EXIT_OK and "valid" in out


@pytest.mark.parametrize("action", ["search", "bound"])
def test_ic_rejects_t_zero_with_the_usage_code(capsys, action):
    code, _, err = run_cli(
        ["ic", action, "--q", "5", "--t", "0", "--h", "4", "--alpha", "4"], capsys
    )
    assert code == EXIT_USAGE and "t >= 1" in err


def test_ic_search_settles_the_arcs_of_pg_3_5(tmp_path, capsys):
    cert = tmp_path / "ic.json"
    code, out, _ = run_cli(
        ["ic", "search", "--q", "5", "--t", "1", "--h", "4", "--alpha", "4",
         "--timeout-secs", "20", "--json", "--cert", str(cert)],
        capsys,
    )
    assert code == EXIT_OK
    assert json.loads(out) == {"size": 6, "bound": 8, "exact": True, "certificate": str(cert)}
    assert run_cli(["check-cert", str(cert)], capsys)[0] == EXIT_OK


def test_qv_of_n_4_8_4_by_the_ic_route(tmp_path, capsys):
    # ic_size_bound refutes every q^t < 5, the frame-pinned search refutes
    # (5,1) and finds an 8-arc of PG(3,7)
    cert = tmp_path / "qv.json"
    code, out, _ = run_cli(
        ["qv", "--comb", "4", "8", "4", "--timeout-secs", "20", "--json", "--cert", str(cert)],
        capsys,
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert (obj["q_v"], obj["method"]) == (7, "ic")
    code, out, _ = run_cli(["check-cert", str(cert)], capsys)
    assert code == EXIT_OK and "OK" in out


def test_qv_of_a_network_listing_a_terminal_twice_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # the clean N_{3,4,3} file answers by the IC search; the repeat is refused
    monkeypatch.chdir(tmp_path)
    obj = network_to_json(build_combination(3, 4, 3))
    Path("clean.json").write_text(json.dumps(obj))
    obj["terminals"].append(obj["terminals"][0])
    Path("repeat.json").write_text(json.dumps(obj))
    code, out, _ = run_cli(["qv", "--network", "clean.json", "--json"], capsys)
    assert code == EXIT_OK and (json.loads(out)["q_v"], json.loads(out)["method"]) == (2, "ic")
    code, out, err = run_cli(["qv", "--network", "repeat.json"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: repeat.json: malformed input") and "listed twice" in err, err


@pytest.mark.parametrize("r", [7, 8])
def test_gap_of_n_4_r_4_is_exact_and_certified(tmp_path, capsys, r):
    # q_s: ic_size_bound refutes q = 2, 3 (and q = 4 at r = 8), the
    # frame-pinned assignment search refutes the rest below 7 and finds 7
    prefix = str(tmp_path / "gap")
    code, out, _ = run_cli(
        ["gap", "--comb", "4", str(r), "4", "--timeout-secs", "30", "--json",
         "--cert-prefix", prefix],
        capsys,
    )
    assert code == EXIT_OK
    obj = json.loads(out)
    assert (obj["q_s"], obj["q_v"], obj["gap"]) == (7, 7, 0)
    assert obj["methods"] == "qs:exhaustive;qv:ic"
    certs = [f"{prefix}-qs-cert.json", f"{prefix}-qv-cert.json"]
    code, out, _ = run_cli(["check-cert", *certs], capsys)
    assert code == EXIT_OK and out.count(": OK - accepted linear solution") == 2


def test_formula_command(capsys):
    code, out, _ = run_cli(["formula", "kneser-h2", "q=2", "t=2"], capsys)
    assert code == EXIT_OK and "= 1" in out
    code, out, _ = run_cli(["formula", "kneser-h2", "q=2", "t=5"], capsys)
    assert code == EXIT_OK and "outside stated hypotheses" in out


def test_gap_table_csv(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code, _, _ = run_cli(
        ["gap-table", "--q", "2", "3", "--t", "1", "2", "--exact-limit", "2", "-o", str(out_path)],
        capsys,
    )
    assert code == EXIT_OK
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "network,q_v,q_s,gap,methods,runtime"
    assert len(lines) == 5
    assert lines[2].startswith("K_{2,2;2},4,5,1")


def test_usage_error_exit_codes(tmp_path, capsys):
    code, _, err = run_cli(["build", "comb", "2", "2", "3"], capsys)
    assert code == EXIT_USAGE and "error" in err
    code, _, err = run_cli(["verify", "--network", "missing.json", "--code", "x.json"], capsys)
    assert code == EXIT_USAGE


def _write_malformed_inputs(tmp_path):
    """A valid network and, beside it, one file of each wrong shape."""
    net = network_to_json(build_combination(2, 3, 2))
    (tmp_path / "net.json").write_text(json.dumps(net))
    (tmp_path / "string-nodes.json").write_text(
        json.dumps(dict(net, nodes=[node["id"] for node in net["nodes"]]))
    )
    (tmp_path / "code.json").write_text(
        json.dumps({"p": 2, "m": 1, "q": 2, "t": 1, "h": 2, "edges": {"e0": 5}})
    )
    (tmp_path / "ic.json").write_text(json.dumps({"p": 2, "m": 1, "t": 1, "h": 2, "members": 5}))
    (tmp_path / "list.json").write_text("[1, 2]")
    # a graph edge of three names, and vertices as a string, one per character
    (tmp_path / "three-names.json").write_text(
        json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"]]})
    )
    (tmp_path / "string-vertices.json").write_text(
        json.dumps({"vertices": "abc", "edges": [["a", "b"], ["b", "c"]]})
    )
    # a graph edge as a string, which would unpack one name per character
    (tmp_path / "string-edge.json").write_text(json.dumps({"vertices": ["a", "b"], "edges": ["ab"]}))
    # a message count that is no integer, and edge ids that are no strings
    for name, h in (("h-float", 2.0), ("h-bool", True), ("h-half", 2.5)):
        (tmp_path / f"{name}.json").write_text(json.dumps(dict(net, h=h)))
    int_ids = [dict(edge, id=i) for i, edge in enumerate(net["edges"])]
    (tmp_path / "int-edge-ids.json").write_text(json.dumps(dict(net, edges=int_ids)))


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["qs", "--network", "string-nodes.json"], "string-nodes.json"),
        (["solve", "--network", "string-nodes.json", "--q", "2"], "string-nodes.json"),
        (["skeleton", "--network", "string-nodes.json"], "string-nodes.json"),
        (["build", "extend", "--network", "string-nodes.json", "--messages", "3"], "string-nodes.json"),
        (["build", "prune", "--network", "list.json"], "list.json"),
        (["verify", "--network", "net.json", "--code", "code.json"], "code.json"),
        (["ic", "check", "--witness", "ic.json", "--alpha", "2"], "ic.json"),
        (["qs", "--network", "list.json"], "list.json"),
        (["chi", "--graph", "list.json"], "list.json"),
        (["hom", "--from", "list.json", "--to-complete", "3"], "list.json"),
        (["build", "from-graph", "--graph", "list.json"], "list.json"),
        (["chi", "--graph", "three-names.json"], "three-names.json"),
        (["chi", "--graph", "string-vertices.json"], "string-vertices.json"),
        (["chi", "--graph", "string-edge.json"], "string-edge.json"),
        (["build", "from-graph", "--graph", "string-edge.json"], "string-edge.json"),
        (["qv", "--network", "h-float.json"], "h-float.json"),
        (["gap", "--network", "h-bool.json"], "h-bool.json"),
        (["solve", "--network", "h-half.json", "--q", "2"], "h-half.json"),
        (["qs", "--network", "int-edge-ids.json"], "int-edge-ids.json"),
    ],
    ids=[
        "qs-string-nodes",
        "solve-string-nodes",
        "skeleton-string-nodes",
        "build-extend-string-nodes",
        "build-prune-list",
        "verify-code-int-edge",
        "ic-check-int-members",
        "qs-list",
        "chi-list",
        "hom-from-list",
        "build-from-graph-list",
        "chi-three-name-edge",
        "chi-string-vertices",
        "chi-string-edge",
        "build-from-graph-string-edge",
        "qv-h-float",
        "gap-h-bool",
        "solve-h-half",
        "qs-int-edge-ids",
    ],
)
def test_a_malformed_input_file_is_a_usage_error_naming_the_file(tmp_path, capsys, monkeypatch, argv, bad):
    _write_malformed_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"error: {bad}: malformed input") and err.count("\n") == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "key, value", [("p", 2.0), ("m", 1.0), ("t", True), ("h", 2.0)], ids=["p", "m", "t", "h"]
)
def test_a_count_that_is_not_an_integer_is_refused_naming_it(tmp_path, capsys, key, value):
    # a code, IC or certificate file whose p, m, t or h is a float or a
    # bool: verify and ic check exit 2, check-cert fails, each naming the
    # value, where a lenient parser read 2.0 as 2 and true as 1
    net_path, solved, ic_cert = (tmp_path / name for name in ("n.json", "sol.json", "ic.json"))
    net_path.write_text(json.dumps(network_to_json(build_combination(2, 3, 2))))
    assert run_cli(["solve", "--network", str(net_path), "--q", "2", "--cert", str(solved)],
                   capsys)[0] == EXIT_OK
    assert run_cli(["ic", "search", "--q", "2", "--t", "2", "--h", "2", "--alpha", "2",
                    "--cert", str(ic_cert)], capsys)[0] == EXIT_OK
    cert, ic = json.loads(solved.read_text()), json.loads(ic_cert.read_text())
    cert["code"][key] = ic["ic"][key] = value
    if key == "h":
        cert["network"]["h"] = value
    files = {}
    for name, obj in (("code", cert["code"]), ("ic", ic["ic"]), ("cert", cert), ("ic-cert", ic)):
        files[name] = tmp_path / f"bad-{name}.json"
        files[name].write_text(json.dumps(obj))
    named = f"{key} must be an integer, got {value!r}"
    for argv in (
        ["verify", "--network", str(net_path), "--code", str(files["code"])],
        ["ic", "check", "--witness", str(files["ic"]), "--alpha", "2"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (EXIT_USAGE, "") and named in err, (argv, err)
    code, out, _ = run_cli(["check-cert", str(files["cert"]), str(files["ic-cert"])], capsys)
    assert code == EXIT_NEGATIVE
    assert out.count("FAIL") == 2 and out.count(named) == 2, out


@pytest.mark.parametrize("entry", [1.0, True], ids=["float", "bool"])
def test_a_code_entry_that_is_not_an_integer_is_refused_naming_it(tmp_path, capsys, entry):
    # verify hands the code file itself to the checker: an entry 1.0 once
    # ended in a traceback, and true was accepted by verify and check-cert
    net_path, solved = tmp_path / "n.json", tmp_path / "sol.json"
    net_path.write_text(json.dumps(network_to_json(build_combination(2, 3, 2))))
    assert run_cli(["solve", "--network", str(net_path), "--q", "2", "--cert", str(solved)],
                   capsys)[0] == EXIT_OK
    cert = json.loads(solved.read_text())
    matrix = cert["code"]["edges"]["e0"]
    cert["code"]["edges"]["e0"] = [[entry if x == 1 else x for x in row] for row in matrix]
    code_path, cert_path = tmp_path / "code.json", tmp_path / "cert.json"
    code_path.write_text(json.dumps(cert["code"]))
    cert_path.write_text(json.dumps(cert))
    named = f"matrix must be 1x2 over the code's field: a matrix entry must be an integer in [0, 2), got {entry!r}"
    code, out, err = run_cli(["verify", "--network", str(net_path), "--code", str(code_path)], capsys)
    assert (code, out) == (EXIT_USAGE, "") and err.startswith(f"error: {code_path}: malformed input")
    assert named in err and err.count("\n") == 1, err
    code, out, _ = run_cli(["check-cert", str(cert_path)], capsys)
    assert code == EXIT_NEGATIVE and out == f"{cert_path}: FAIL - edge e0: {named}\n"


@pytest.mark.parametrize("entry", [7, True], ids=["seven", "bool"])
def test_an_ic_witness_entry_outside_the_field_is_refused_naming_it(tmp_path, capsys, entry):
    # ic check hands the witness file itself to the checker: an entry 7 over
    # F_3 was read as 1 and the witness called INVALID, true as 1 and valid
    cert = tmp_path / "ic.json"
    assert run_cli(["ic", "search", "--q", "3", "--t", "1", "--h", "2", "--alpha", "2",
                    "--cert", str(cert)], capsys)[0] == EXIT_OK
    witness = json.loads(cert.read_text())["ic"]
    assert witness["members"][0] == [[1, 0]]
    witness["members"][0] = [[entry, 0]]
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(witness))
    code, out, err = run_cli(["ic", "check", "--witness", str(path), "--alpha", "2"], capsys)
    assert (code, out) == (EXIT_USAGE, "") and err.startswith(f"error: {path}: malformed input")
    assert f"a matrix entry must be an integer in [0, 3), got {entry!r}" in err, err


@pytest.mark.parametrize("alpha", ["0", "3"])
def test_ic_check_refuses_an_alpha_outside_one_to_h(tmp_path, capsys, alpha):
    # a certificate with such an alpha fails, but as an argument it is an
    # input error at both ends, not a verified INVALID
    cert, path = tmp_path / "ic.json", tmp_path / "witness.json"
    run_cli(["ic", "search", "--q", "3", "--t", "1", "--h", "2", "--alpha", "2", "--cert", str(cert)], capsys)
    path.write_text(json.dumps(json.loads(cert.read_text())["ic"]))
    code, out, err = run_cli(["ic", "check", "--witness", str(path), "--alpha", alpha], capsys)
    assert (code, out) == (EXIT_USAGE, "") and f"alpha={alpha} is outside 1..2" in err, err
    assert run_cli(["ic", "check", "--witness", str(path), "--alpha", "2"], capsys)[0] == EXIT_OK


@pytest.mark.parametrize(
    "row, named",
    [
        ([7, 0], "a matrix entry must be an integer in [0, 2), got 7"),
        ([True, 0], "a matrix entry must be an integer in [0, 2), got True"),
        ([1, 0, 1], "a matrix row must be a list of 2 entries, got [1, 0, 1]"),
    ],
    ids=["seven", "bool", "wide"],
)
def test_a_label_outside_the_field_or_the_ambient_is_refused_naming_it(tmp_path, capsys, row, named):
    # every label of K_{2,1;2} is read at the declared ambient 2 over F_2;
    # a wide label was read at its own width and written on as "ambient": 3
    obj = network_to_json(build_kneser(2, 1, 2))
    assert (obj["ambient"], obj["field"]) == (2, {"p": 2, "m": 1})
    obj["labels"][next(iter(obj["labels"]))] = [row]
    path = tmp_path / "k.json"
    path.write_text(json.dumps(obj))
    for argv in (
        ["qv", "--network", str(path), "--cert", str(tmp_path / "qv.json")],
        ["build", "parallelize", "--network", str(path), "--factor", "1", "-o", str(tmp_path / "p.json")],
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (EXIT_USAGE, "") and err.startswith(f"error: {path}: malformed input")
        assert named in err, err
    assert not (tmp_path / "qv.json").exists() and not (tmp_path / "p.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["coloring", "--qkneser", "2", "4", "0"], "needs m >= 1"),
        (["build", "kneser", "2", "0", "2"], "need t >= 1"),
        (["qv", "--kneser", "2", "0", "2"], "need t >= 1"),
        (["formula", "kneser-h3-lower", "q=2", "t=2"], "needs the parameter h"),
        (["chi", "--qkneser", "2", "0", "0"], "got n=0, m=0"),
        (["hom", "--from", "edge.json", "--to-qkneser", "2", "0", "0"], "got n=0, m=0"),
        (["formula", "kneser-h2", "q2", "t=2"], "parameter 'q2' is not key=integer"),
        (["formula", "kneser-h2", "q=2", "t=two"], "parameter 't=two' is not key=integer"),
        (["formula", "kneser-h2", "q=2", "t=2", "t=3"], "parameter t is given twice"),
        (["formula", "kneser-h2", "q=2", "t=2", "z=3"], "takes no parameter z"),
        # there is no F_6, so no K_{6,1;2}, whose closed-form row was printed
        (["gap-table", "--q", "6", "--t", "1"], "q=6 is not a prime power"),
    ],
    ids=[
        "coloring-m0", "build-kneser-t0", "qv-kneser-t0", "formula-no-h",
        "chi-qkneser-n0-m0", "hom-to-qkneser-n0-m0", "formula-no-equals", "formula-not-integer",
        "formula-repeated-key", "formula-unknown-key", "gap-table-q6",
    ],
)
def test_a_parameter_error_names_the_parameter(tmp_path, capsys, monkeypatch, argv, message):
    (tmp_path / "edge.json").write_text(json.dumps({"vertices": [0, 1], "edges": [[0, 1]]}))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1, err


def test_check_cert_rejects_tampered(tmp_path, capsys):
    cert = tmp_path / "chi.json"
    run_cli(["chi", "--qkneser", "2", "2", "1", "--cert", str(cert)], capsys)
    obj = json.loads(cert.read_text())
    first = next(iter(obj["colors"]))
    second = next(k for k in obj["colors"] if obj["colors"][k] != obj["colors"][first])
    obj["colors"][second] = obj["colors"][first]
    cert.write_text(json.dumps(obj))
    code, out, _ = run_cli(["check-cert", str(cert)], capsys)
    assert code == EXIT_NEGATIVE and "FAIL" in out


def test_check_cert_fails_ic_alpha_out_of_range_and_checks_the_next_file(tmp_path, capsys):
    good = tmp_path / "ic.json"
    run_cli(
        ["ic", "search", "--q", "2", "--t", "1", "--h", "2", "--alpha", "2", "--cert", str(good)],
        capsys,
    )
    paths = []
    for alpha in (0, 5):
        obj = json.loads(good.read_text())
        obj["alpha"] = alpha
        paths.append(tmp_path / f"alpha-{alpha}.json")
        paths[-1].write_text(json.dumps(obj))
    proc = _run_module("check-cert", *map(str, paths), str(good))
    assert proc.returncode == EXIT_NEGATIVE and proc.stderr == ""
    assert proc.stdout.splitlines() == [
        f"{paths[0]}: FAIL - alpha=0 is outside 1..2",
        f"{paths[1]}: FAIL - alpha=5 is outside 1..2",
        f"{good}: OK - valid (1;2,2)_2 independent configuration of size 3",
    ]


def _malformed_ic_alpha(cert):
    cert["alpha"] = "2"


def _malformed_ic_without_t(cert):
    del cert["ic"]["t"]


def _coloring_edge_to_an_unlisted_vertex(cert):
    cert["graph"]["edges"].append([cert["graph"]["vertices"][0], "unlisted"])


def test_check_cert_fails_each_malformed_certificate_and_checks_the_next_file(tmp_path, capsys):
    ic, chi = tmp_path / "ic.json", tmp_path / "chi.json"
    run_cli(
        ["ic", "search", "--q", "2", "--t", "1", "--h", "2", "--alpha", "2", "--cert", str(ic)],
        capsys,
    )
    run_cli(["chi", "--qkneser", "2", "2", "1", "--cert", str(chi)], capsys)
    argv = []
    for good, edit in (
        (ic, _malformed_ic_alpha),
        (ic, _malformed_ic_without_t),
        (chi, _coloring_edge_to_an_unlisted_vertex),
    ):
        obj = json.loads(good.read_text())
        edit(obj)
        bad = tmp_path / f"{edit.__name__}.json"
        bad.write_text(json.dumps(obj))
        argv += [str(bad), str(good)]
    proc = _run_module("check-cert", *argv)
    assert proc.returncode == EXIT_NEGATIVE and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert [line.split(": ", 1)[0] for line in lines] == argv
    for bad_line, good_line in zip(lines[::2], lines[1::2]):
        assert ": FAIL - malformed certificate: " in bad_line
        assert ": OK - " in good_line


@pytest.mark.parametrize("unreadable", ["missing", "truncated"])
def test_check_cert_reports_an_unreadable_file_and_checks_the_next(tmp_path, capsys, unreadable):
    good = tmp_path / "good.json"
    run_cli(["chi", "--qkneser", "2", "2", "1", "--cert", str(good)], capsys)
    bad = tmp_path / f"{unreadable}.json"
    if unreadable == "truncated":
        bad.write_text('{"kind": ')
    proc = _run_module("check-cert", str(bad), str(good))
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout.splitlines() == [f"{good}: OK - proper coloring with 3 colors"]


def _help_text(parse, argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return capsys.readouterr().out


def _networks(csv_text) -> list[str]:
    # the network name holds commas; the five columns after it do not
    return [row.rsplit(",", 5)[0] for row in csv_text.splitlines()[1:]]


def test_main_builds_one_parser_and_reuses_it(monkeypatch, capsys):
    from netgap import cli

    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.setattr(cli, "_parser", None)
    # each call parses into its own namespace: the --json of one command
    # is not seen by the next
    code, out, _ = run_cli(
        ["ic", "bound", "--q", "2", "--t", "1", "--h", "3", "--alpha", "3", "--json"], capsys
    )
    assert code == EXIT_OK and json.loads(out) == {"bound": 4}
    code, out, _ = run_cli(["psi", "6"], capsys)
    assert code == EXIT_OK and out == "7\n"
    # gap-table's default --q and --t lists outlive a call that overrides them
    code, out, _ = run_cli(["gap-table", "--q", "2", "--t", "1", "--exact-limit", "0"], capsys)
    assert code == EXIT_OK and _networks(out) == ["K_{2,1;2}"]
    code, out, _ = run_cli(["gap-table", "--exact-limit", "0"], capsys)
    assert _networks(out) == [
        "K_{2,1;2}", "K_{2,2;2}", "K_{3,1;2}", "K_{3,2;2}"
    ]
    assert built == [1]
    for argv in (["--help"], ["qs", "--help"], ["gap-table", "--help"]):
        fresh = _help_text(build_parser().parse_args, argv, capsys)
        assert _help_text(main, argv, capsys) == fresh
    assert built == [1]


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# Child process body: import the declared `module:attr` target and call it
# with the remaining arguments as argv, as the generated console script would.
_CONSOLE_SCRIPT = """
import importlib, sys
module, _, attr = sys.argv[1].partition(":")
sys.argv = ["netgap"] + sys.argv[2:]
sys.exit(getattr(importlib.import_module(module), attr)())
"""


def _child_env():
    # The child must import the same netgap as this suite, whether it comes
    # from a checkout, an editable install or a regular install.
    package_root = str(Path(netgap.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def _run_console_entry_point(*argv):
    tomllib = pytest.importorskip("tomllib")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["netgap"]
    return subprocess.run(
        [sys.executable, "-c", _CONSOLE_SCRIPT, target, *argv],
        capture_output=True, text=True, env=_child_env(),
    )


def _run_module(*argv, timeout=60):
    return subprocess.run(
        [sys.executable, "-m", "netgap", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=timeout,
    )


def test_console_entry_point_subprocess():
    proc = _run_console_entry_point("psi", "5")
    assert proc.returncode == 0 and proc.stdout.strip() == "5"


def test_console_entry_point_propagates_exit_code():
    # psi 0 fails inside main(), not in argparse, so only run() passing
    # main()'s return value to sys.exit yields the usage exit code.
    proc = _run_console_entry_point("psi", "0")
    assert proc.returncode == EXIT_USAGE and "positive argument" in proc.stderr


def test_python_dash_m_netgap():
    proc = _run_module("psi", "5")
    assert proc.returncode == 0 and proc.stdout.strip() == "5"


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, line",
    [
        ("reproduce_gap_results.py", "K_{2,2;2}: q_v=4 q_s=5 gap=1"),
        ("reproduce_gap_results.py", "N_{3,7,3}: q_v=7 q_s=7 gap=0"),
        ("reproduce_gap_results.py", "N_{4,7,4}: q_v=7 q_s=7 gap=0"),
        ("reproduce_gap_results.py", "N_{4,8,4}: q_v=7 q_s=7 gap=0"),
        ("kneser_chromatic.py", "qK_{4:2} over F_2: 35 vertices, clique >= 5, chi = 6"),
        ("kneser_chromatic.py", "qK^3_{3:1} over F_2: chi = chi(qK_{3:1} over F_2) = 7"),
    ],
)
def test_experiment_script_runs(script, line):
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout


@functools.cache
def _run_script(script):
    # one run per script, shared by every line checked in its output
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script)],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )


# Child process body: with `python -O` stripping every assert, each
# self-check must still raise once the check it guards is made to fail.
_SELF_CHECKS_UNDER_O = """
from netgap import gaplab, lincode, mdsic
from netgap.errors import InternalError
from netgap.networks import Edge, Network, build_butterfly, build_combination

assert False, "asserts are on"
res = mdsic.ic_max_size(2, 2, 2, 2)
net, code = build_combination(2, res.size, 2), mdsic.ic_to_solution(res.witness)
mdsic.ic_is_valid = lambda config, alpha: False
try:
    mdsic.solution_to_ic(net, code)
except InternalError:
    print("ic check")
lincode.verify_solution = lambda net, code: lincode.Verdict(ok=False, terminal_ranks={})
try:
    lincode.search_solution(build_butterfly(), 2, 1)
except InternalError:
    print("search check")
edges = (Edge("e1", "s", "t"), Edge("e2", "s", "t"), Edge("e3", "a", "t"))
try:
    lincode.search_solution(Network.from_edges(2, "s", ("t",), ("s", "a", "t"), edges), 2, 1)
except ValueError:
    print("order check")
# q_s = 1 below the butterfly's q_v = 2, then a K_{2,1;2} row off its closed form
gaplab.qs_exact = lambda net, budget: gaplab.Extremal(1, 1, "stub", certificate={})
try:
    gaplab.gap_exact(build_butterfly())
except InternalError:
    print("gap check")
gaplab.gap_exact = lambda net, budget: gaplab.GapReport(
    gaplab.Extremal(3, 3, "stub", certificate={}), gaplab.Extremal(2, 2, "stub", certificate={})
)
try:
    gaplab.gap_table_rows(qs=(2,), ts=(1,), exact_limit=2)
except InternalError:
    print("table check")
"""


def test_self_checks_survive_python_dash_o():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SELF_CHECKS_UNDER_O],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:5] == [
        "ic check", "search check", "order check", "gap check", "table check"
    ]


def test_chi_wall_clock_timeout_is_enforced(tmp_path):
    # building qK_{6:3} and searching its colorings takes far longer than
    # the limit; the deadline must end the run with the budget exit code
    start = time.monotonic()
    proc = _run_module(
        "chi", "--qkneser", "2", "6", "3", "--timeout-secs", "0.5",
        "--cert", str(tmp_path / "chi.json"),
    )
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert time.monotonic() - start < 10


def _write_cycle(path, n):
    edges = [[v, (v + 1) % n] for v in range(n)]
    path.write_text(json.dumps({"vertices": list(range(n)), "edges": edges}))


def test_chi_and_complete_target_hom_on_a_long_odd_cycle(tmp_path, capsys):
    # 1201 vertices: deeper than the interpreter's recursion limit
    cycle = tmp_path / "cycle.json"
    _write_cycle(cycle, 1201)
    cert = tmp_path / "chi.json"
    code, out, _ = run_cli(["chi", "--graph", str(cycle), "--json", "--cert", str(cert)], capsys)
    assert code == EXIT_OK and json.loads(out)["chi"] == 3
    code, _, _ = run_cli(["check-cert", str(cert)], capsys)
    assert code == EXIT_OK
    code, _, _ = run_cli(
        ["hom", "--from", str(cycle), "--to-complete", "3", "--cert", str(tmp_path / "h.json")],
        capsys,
    )
    assert code == EXIT_OK


def test_searches_deeper_than_the_recursion_limit_give_certified_answers(tmp_path, capsys):
    # the homomorphism search into a non-complete target goes one level
    # per source vertex, the solution search one per edge
    from netgap.networks import Edge, Network

    cycle, c5 = tmp_path / "cycle.json", tmp_path / "c5.json"
    _write_cycle(cycle, 1201)
    _write_cycle(c5, 5)
    hom_cert = tmp_path / "h.json"
    code, _, err = run_cli(
        ["hom", "--from", str(cycle), "--to", str(c5), "--cert", str(hom_cert)], capsys
    )
    assert code == EXIT_OK, err
    nodes = ("s", *(f"v{i}" for i in range(1, 1100)), "t")
    edges = tuple(Edge(f"e{i}", a, b) for i, (a, b) in enumerate(zip(nodes, nodes[1:])))
    path = tmp_path / "path.json"
    path.write_text(json.dumps(network_to_json(Network.from_edges(1, "s", ("t",), nodes, edges))))
    solve_cert = tmp_path / "s.json"
    code, _, err = run_cli(
        ["solve", "--network", str(path), "--q", "2", "--cert", str(solve_cert)], capsys
    )
    assert code == EXIT_OK, err
    code, out, _ = run_cli(["check-cert", str(hom_cert), str(solve_cert)], capsys)
    assert code == EXIT_OK and out.count(": OK") == 2, out


def test_json_nested_deeper_than_the_decoder_is_an_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run_cli(["check-cert", str(deep)], capsys)
    assert code == EXIT_USAGE and "error:" in err and "nested too deeply" in err, err


def test_gap_timeout_holds_after_a_bracketed_qs(tmp_path):
    # With the edge list shuffled, q_s is settled quickly but the q_v
    # search cannot settle the relabelled skeleton; it must still stop at
    # the limit.
    obj = network_to_json(build_kneser(3, 2, 2))
    random.Random(2).shuffle(obj["edges"])
    net_path = tmp_path / "k322-shuffled.json"
    net_path.write_text(json.dumps(obj))
    start = time.monotonic()
    proc = _run_module(
        "gap", "--network", str(net_path), "--timeout-secs", "0.55",
        "--cert-prefix", str(tmp_path / "gap"), timeout=20,
    )
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert time.monotonic() - start < 3


def test_gap_timeout_holds_after_a_qs_bracketed_by_the_limit(tmp_path):
    # The skeleton is the Mycielski graph M7 (95 vertices, chi = 7,
    # triangle-free): 3 and 4 colors are refuted in milliseconds, but
    # refuting 5 colors, which q_s = 4 hinges on, takes seconds, so q_s is
    # a bracket; the q_v searches that follow must still stop.  (M6 is too
    # small: its 5 colors fall in about 1 s.)
    from netgap.graphs import UGraph
    from netgap.skeleton import reverse_skeleton

    g = UGraph.from_edges(2, [(0, 1)])
    for _ in range(5):
        n = g.num_vertices
        edges = list(g.edges) + [(a, n + b) for a, b in g.edges] + [(b, n + a) for a, b in g.edges]
        g = UGraph.from_edges(2 * n + 1, edges + [(n + v, 2 * n) for v in range(n)])
    net_path = tmp_path / "m7.json"
    net_path.write_text(json.dumps(network_to_json(reverse_skeleton(g))))
    start = time.monotonic()
    proc = _run_module(
        "gap", "--network", str(net_path), "--timeout-secs", "1", "--json",
        "--cert-prefix", str(tmp_path / "gap"), timeout=20,
    )
    assert proc.returncode == EXIT_BUDGET, proc.stderr
    assert time.monotonic() - start < 3
    report = json.loads(proc.stdout)
    assert report["q_s"] == {"lower": 4, "upper": 7, "method": "skeleton-chi-bracket"}
    assert report["q_v"]["method"] == "bracket"


@pytest.mark.parametrize(
    "first, exit_code",
    [
        (["chi", "--qkneser", "2", "4", "2"], EXIT_OK),  # ends before any checkpoint
        (["chi", "--qkneser", "3", "4", "2"], EXIT_BUDGET),
        (["solve", "--network", "missing.json", "--q", "2"], EXIT_USAGE),
    ],
    ids=["return", "budget", "usage"],
)
def test_main_clears_the_deadline(tmp_path, capsys, first, exit_code):
    code, _, _ = run_cli(
        first + ["--timeout-secs", "1e-9", "--cert", str(tmp_path / "first.json")], capsys
    )
    assert code == exit_code and errors._deadline is None
    # 50,129 search nodes: a deadline left behind would stop it at node 1024
    code, out, _ = run_cli(
        ["ic", "search", "--q", "3", "--t", "1", "--h", "4", "--alpha", "3",
         "--cert", str(tmp_path / "ic.json")],
        capsys,
    )
    assert code == EXIT_OK and "max size = 10" in out


SEARCH_COMMANDS = {"chi", "hom", "solve", "ic", "qs", "qv", "gap", "gap-table"}
TEXT_ONLY_COMMANDS = {"gap-table", "check-cert"}  # they print no JSON, so take no --json
MINIMAL_ARGV = {
    "build": ["build", "comb"],
    "skeleton": ["skeleton", "--network", "n.json"],
    "chi": ["chi"],
    "hom": ["hom", "--from", "g.json"],
    "coloring": ["coloring", "--qkneser", "2", "4", "2"],
    "solve": ["solve", "--network", "n.json", "--q", "2"],
    "verify": ["verify", "--network", "n.json", "--code", "c.json"],
    "mds": ["mds", "--q", "4", "--r", "5", "--h", "2"],
    "ic": ["ic", "bound"],
    "psi": ["psi", "5"],
    "qs": ["qs"],
    "qv": ["qv"],
    "gap": ["gap"],
    "formula": ["formula", "kneser-h2", "q=2", "t=1"],
    "gap-table": ["gap-table"],
    "check-cert": ["check-cert", "c.json"],
}


def _parses(argv) -> bool:
    """True if argv parses; a rejected flag must give the usage exit code,
    so `psi 5 --budget 3` exits 2."""
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:
        assert exc.code == EXIT_USAGE
        return False
    return True


@pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
def test_limit_flags_only_where_they_are_read(command, capsys):
    base = MINIMAL_ARGV[command]
    assert _parses(base)
    searches = command in SEARCH_COMMANDS
    assert _parses(base + ["--budget", "3"]) == searches
    assert _parses(base + ["--timeout-secs", "0.5"]) == searches
    # every listing refuses above one limit, `subspaces.ENUMERATION_LIMIT`
    assert not _parses(base + ["--max-subspaces", "10"])
    assert not _parses(base + ["--qkneser-hyper", "2", "1", "3"])
    assert _parses(base + ["--json"]) == (command not in TEXT_ONLY_COMMANDS)
    capsys.readouterr()


@pytest.mark.parametrize("value", ["nan", "NaN", "-1", "-0.5", "-inf"])
def test_a_timeout_no_time_reaches_is_a_usage_error(value, capsys):
    # a NaN deadline would never pass, so the search would run unbounded
    with pytest.raises(SystemExit) as exc:
        main(["chi", "--qkneser", "2", "6", "3", f"--timeout-secs={value}"])
    assert exc.value.code == EXIT_USAGE
    assert f"--timeout-secs: needs a number of seconds >= 0, got '{value}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["qs", "--comb", "3", "6", "3", "--budget", "-5"], ["chi", "--qkneser", "2", "4", "2", "--budget", "-1"]],
    ids=["qs", "chi"],
)
def test_a_negative_budget_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # a negative budget passed for a spent one: qs printed the bracket
    # [4, 23] and chi [5, 6], each with the budget exit code; 0 is a budget
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert f"--budget: needs a node count >= 0, got '{argv[-1]}'" in capsys.readouterr().err
    assert main(argv[:-1] + ["0"]) == EXIT_BUDGET


def test_a_zero_timeout_sets_no_limit(tmp_path, capsys):
    # K_{2,2;2}'s construction crosses a checkpoint, where any passed deadline stops it
    argv = ["qs", "--kneser", "2", "2", "2", "--cert", str(tmp_path / "qs.json"), "--timeout-secs"]
    assert run_cli(argv + ["1e-9"], capsys)[0] == EXIT_BUDGET
    code, out, _ = run_cli(argv + ["0"], capsys)
    assert code == EXIT_OK and "q_s(K_{2,2;2}) = 5" in out


@pytest.mark.skipif(shutil.which("netgap") is None, reason="netgap console script not installed")
def test_installed_console_script_on_path():
    proc = subprocess.run(["netgap", "psi", "5"], capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "5"


def test_verify_butterfly_xor_code(tmp_path, capsys):
    from netgap.networks import build_butterfly, network_to_json

    net_path = tmp_path / "butterfly.json"
    net_path.write_text(json.dumps(network_to_json(build_butterfly())))
    xor = {
        "q": 2, "p": 2, "m": 1, "t": 1, "h": 2,
        "edges": {
            "e1": [[1, 0]], "e2": [[0, 1]], "e3": [[1, 0]], "e4": [[0, 1]],
            "e5": [[1, 0]], "e6": [[1, 1]], "e7": [[0, 1]], "e8": [[1, 1]],
            "e9": [[1, 1]],
        },
    }
    code_path = tmp_path / "xor.json"
    code_path.write_text(json.dumps(xor))
    code, out, _ = run_cli(["verify", "--network", str(net_path), "--code", str(code_path)], capsys)
    assert code == EXIT_OK and "ACCEPT" in out


def test_build_from_graph_extend_parallelize(tmp_path, capsys):
    triangle = {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"], ["a", "c"]]}
    g_path = tmp_path / "k3.json"
    g_path.write_text(json.dumps(triangle))
    net_path = tmp_path / "net.json"
    code, _, _ = run_cli(["build", "from-graph", "--graph", str(g_path), "-o", str(net_path)], capsys)
    assert code == EXIT_OK
    obj = json.loads(net_path.read_text())
    assert obj["h"] == 2 and len(obj["terminals"]) == 3

    ext_path = tmp_path / "ext.json"
    code, _, _ = run_cli(
        ["build", "extend", "--network", str(net_path), "--messages", "3", "-o", str(ext_path)],
        capsys,
    )
    assert code == EXIT_OK and json.loads(ext_path.read_text())["h"] == 3

    par_path = tmp_path / "par.json"
    code, _, _ = run_cli(
        ["build", "parallelize", "--network", str(net_path), "--factor", "2", "-o", str(par_path)],
        capsys,
    )
    assert code == EXIT_OK
    par = json.loads(par_path.read_text())
    assert par["h"] == 4 and len(par["edges"]) == 2 * len(obj["edges"])


def test_build_from_graph_names_terminals_apart_when_names_hold_the_separator(tmp_path, capsys):
    # by names, both terminals would be "ta_b_c"; by vertex indices they differ
    graph = {"vertices": ["a_b", "c", "a", "b_c"], "edges": [["a_b", "c"], ["a", "b_c"]]}
    g_path = tmp_path / "g.json"
    g_path.write_text(json.dumps(graph))
    net_path = tmp_path / "net.json"
    code, _, err = run_cli(["build", "from-graph", "--graph", str(g_path), "-o", str(net_path)], capsys)
    assert code == EXIT_OK, err
    obj = json.loads(net_path.read_text())
    assert obj["terminals"] == ["t0_1", "t2_3"]
    assert {e["to"] for e in obj["edges"] if e["from"] == "s"} == {"va_b", "vc", "va", "vb_c"}


def test_build_prune_repairs_imported_network(tmp_path, capsys):
    from netgap.networks import build_butterfly, network_to_json

    obj = network_to_json(build_butterfly())
    obj["nodes"].append({"id": "dead"})
    obj["edges"].append({"id": "edead", "from": "s", "to": "dead"})
    dirty = tmp_path / "dirty.json"
    dirty.write_text(json.dumps(obj))
    # strict commands refuse the non-essential node
    code, _, err = run_cli(["skeleton", "--network", str(dirty)], capsys)
    assert code == EXIT_USAGE and "non-essential" in err
    clean = tmp_path / "clean.json"
    code, _, _ = run_cli(["build", "prune", "--network", str(dirty), "-o", str(clean)], capsys)
    assert code == EXIT_OK
    cleaned = json.loads(clean.read_text())
    assert all(n["id"] != "dead" for n in cleaned["nodes"])
    assert len(cleaned["edges"]) == 9


def test_build_missing_flags_usage_error(capsys):
    assert run_cli(["build", "extend", "--messages", "3"], capsys)[0] == EXIT_USAGE
    assert run_cli(["build", "from-graph"], capsys)[0] == EXIT_USAGE
    assert run_cli(["build", "comb", "2", "3"], capsys)[0] == EXIT_USAGE
    assert run_cli(["chi"], capsys)[0] == EXIT_USAGE
    assert run_cli(["gap"], capsys)[0] == EXIT_USAGE


@pytest.mark.parametrize("command", ["qs", "qv", "gap"])
def test_a_scan_stopped_at_its_bound_prints_a_bracket(tmp_path, capsys, command):
    # N_{3,4,4} under one node: the scans stop at their bound q = 2 with the
    # bracket [2, 2], which is no certified value: exit 3, no certificate
    cert = tmp_path / "cert.json"
    out_flag = ["--cert-prefix", str(tmp_path / "gap")] if command == "gap" else ["--cert", str(cert)]
    code, out, _ = run_cli([command, "--comb", "3", "4", "4", "--budget", "1", *out_flag], capsys)
    assert code == EXIT_BUDGET
    expected = {"qs": "q_s(N_{3,4,4}) in [2, 2]", "qv": "q_v(N_{3,4,4}) in [2, 2]", "gap": "gap in [0, 0]"}
    assert expected[command] in out
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run_cli([command, "--comb", "3", "4", "4", "--budget", "1", "--json", *out_flag], capsys)
    assert code == EXIT_BUDGET
    obj = json.loads(out)
    if command == "gap":
        assert obj["q_s"]["lower"] == obj["q_s"]["upper"] == 2 and obj["gap_bracket"] == [0, 0]
    else:
        label = command.replace("q", "q_")
        assert obj[f"{label}_lower"] == obj[f"{label}_upper"] == 2


# ---------------------------------------------------------------------------
# the cyclic collector is paused for each command
# ---------------------------------------------------------------------------

def _set_collector(enabled):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def collector_state():
    was_enabled = gc.isenabled()
    yield
    _set_collector(was_enabled)


def _n24_file(tmp_path):
    net_path = tmp_path / "n242.json"
    net_path.write_text(json.dumps(network_to_json(build_combination(2, 4, 2))))
    return str(net_path)


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["psi", "6"], EXIT_OK),
        (["solve", "--network", "{n242}", "--q", "2"], EXIT_NEGATIVE),
        (["build", "comb", "2", "2", "3"], EXIT_USAGE),
        (["solve", "--network", "{n242}", "--q", "2", "--budget", "2"], EXIT_BUDGET),
    ],
    ids=["ok", "negative", "usage", "budget"],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_hands_back_the_collector_state(
    tmp_path, capsys, collector_state, argv, exit_code, enabled
):
    n242 = _n24_file(tmp_path)
    argv = [a.format(n242=n242) for a in argv] + (
        ["--cert", str(tmp_path / "c.json")] if argv[0] == "solve" else []
    )
    _set_collector(enabled)
    assert run_cli(argv, capsys)[0] == exit_code
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_the_collector_is_paused_inside_a_command_and_back_after_any_exit(
    capsys, collector_state, monkeypatch, enabled
):
    from netgap import cli

    seen = []
    monkeypatch.setattr(cli, "psi", lambda x: seen.append(gc.isenabled()) or 7)
    _set_collector(enabled)
    assert run_cli(["psi", "6"], capsys)[:2] == (EXIT_OK, "7\n")
    assert seen == [False] and gc.isenabled() == enabled

    def crash(x):
        raise RuntimeError("not a netgap error")

    monkeypatch.setattr(cli, "psi", crash)
    with pytest.raises(RuntimeError):
        main(["psi", "6"])
    assert gc.isenabled() == enabled
    # argparse's usage errors exit before the command starts
    with pytest.raises(SystemExit) as exc:
        main(["psi"])
    assert exc.value.code == EXIT_USAGE and gc.isenabled() == enabled
    capsys.readouterr()


def test_running_out_of_memory_is_one_error_line(capsys, collector_state, monkeypatch):
    # a command that exhausts memory exits with the usage code and one
    # `error:` line, never a traceback, and the collector is back on
    from netgap import cli

    def exhaust(x):
        raise MemoryError

    monkeypatch.setattr(cli, "psi", exhaust)
    _set_collector(True)
    code, out, err = run_cli(["psi", "6"], capsys)
    assert (code, out, err) == (EXIT_USAGE, "", "error: out of memory\n")
    assert gc.isenabled()


def test_commands_create_no_reference_cycles(tmp_path, capsys, collector_state):
    # cli.main pauses the cyclic collector for a command; that is sound only
    # while no command leaves garbage that only the collector can free,
    # with or without --json
    k222 = tmp_path / "k222.json"
    k222.write_text(json.dumps(network_to_json(build_kneser(2, 2, 2))))
    n232 = tmp_path / "n232.json"
    n232.write_text(json.dumps(network_to_json(build_combination(2, 3, 2))))
    n242 = _n24_file(tmp_path)
    commands = [
        (["gap", "--network", str(k222), "--cert-prefix", str(tmp_path / "gap")], EXIT_OK),
        (["qs", "--network", str(k222), "--cert", str(tmp_path / "qs.json")], EXIT_OK),
        (["qv", "--network", str(k222), "--cert", str(tmp_path / "qv.json")], EXIT_OK),
        (["solve", "--network", n242, "--q", "2", "--cert", str(tmp_path / "neg.json")],
         EXIT_NEGATIVE),
        (["solve", "--network", str(n232), "--q", "2", "--cert", str(tmp_path / "pos.json")],
         EXIT_OK),
        (["ic", "search", "--q", "2", "--t", "2", "--h", "3", "--alpha", "3",
          "--cert", str(tmp_path / "ic.json")], EXIT_OK),
        (["check-cert", *(str(tmp_path / name) for name in (
            "gap-qs-cert.json", "gap-qv-cert.json", "qs.json", "qv.json", "pos.json", "ic.json"
        ))], EXIT_OK),
        (["solve", "--network", n242, "--q", "2", "--budget", "2",
          "--cert", str(tmp_path / "stopped.json")], EXIT_BUDGET),
    ]
    commands += [
        ([*argv, "--json"], exit_code) for argv, exit_code in commands if argv[0] != "check-cert"
    ]
    commands.append((["psi", "7", "--json"], EXIT_OK))
    main(["psi", "6"])  # builds the parser, which leaves cycles once per process
    gc.disable()
    gc.collect()
    for argv, exit_code in commands:
        assert main(argv) == exit_code, argv
        assert gc.collect() == 0, argv
    capsys.readouterr()
