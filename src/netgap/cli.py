"""Command-line frontend.

Exit codes: 0 success, 1 verified-negative result (no solution, no
homomorphism, rejected code), 2 usage or input error, 3 budget or timeout
exhaustion.  Every search runs on an explicit stack, so the depth of an
input never limits it; a JSON file nested deeper than the decoder follows
is an input error, and a command that runs out of memory exits 2 with one
`error:` line.  Every search result is written beside a replayable
certificate which `check-cert` re-verifies from first principles.  Each
certificate is made by its kind's maker in `graphs`, `lincode` or `mdsic`
(for `qs`, `qv` and `gap`, by the route that settled the value); this
module only writes it.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from .certs import check_certificate, check_ic, network_code_verdict
from .errors import DEFAULT_BUDGET, BudgetExhausted, NetgapError, deadline
from .gaplab import (
    FORMULA_PARAMETERS,
    Extremal,
    gap_exact,
    gap_formulas,
    gap_table_rows,
    psi,
    qs_exact,
    qv_exact,
)
from .graphs import (
    coloring_certificate,
    homomorphism_certificate,
    ugraph_from_json,
    ugraph_to_dimacs,
    ugraph_to_dot,
)
from .lincode import code_certificate, search_solution
from .mdsic import (
    ic_certificate,
    ic_max_size,
    ic_size_bound,
    linear_code_to_json,
    min_distance,
    rs_code,
)
from .networks import (
    build_combination,
    build_kneser,
    extend_messages,
    network_from_json,
    network_to_dot,
    network_to_json,
    parallelize,
)
from .qkneser import (
    build_qkneser,
    canonical_coloring,
    chromatic_number,
    find_homomorphism,
)
from .skeleton import reverse_skeleton, skeleton, skeleton_to_json

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read_json(path: str) -> dict:
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load(path: str, parse):
    """`parse` of the JSON in `path`.  A file of the wrong shape makes the
    parser index, call, unpack or look up what is not there, or fails its
    checks; that is an input error naming the file, not a traceback."""
    obj = _read_json(path)
    try:
        return parse(obj)
    except (TypeError, AttributeError, IndexError, KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed input ({type(exc).__name__}: {exc})") from None


def _write_json(path: str, obj: dict) -> None:
    # compact and one line: json.dumps without indent runs the C encoder
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def _emit(args, obj: dict, human: str) -> None:
    print(json.dumps(obj, sort_keys=True) if getattr(args, "json", False) else human)


def _write_output(args, obj: dict, human: str) -> None:
    if getattr(args, "output", None):
        _write_json(args.output, obj)
        print(f"wrote {args.output}")
    else:
        _emit(args, obj, human)


def _undecided(args, exc: BudgetExhausted) -> int:
    """Report a search stopped by its node budget or the deadline, naming which."""
    _emit(
        args,
        {"status": "unknown", "reason": str(exc), "nodes_used": exc.nodes_used},
        f"undecided: {exc} after {exc.nodes_used} nodes",
    )
    return EXIT_BUDGET


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_build(args) -> int:
    if args.what in ("comb", "kneser") and len(args.params) != 3:
        raise ValueError(f"build {args.what} needs exactly three parameters")
    if args.what == "comb":
        net = build_combination(*args.params)
    elif args.what == "kneser":
        net = build_kneser(*args.params)
    elif args.what == "from-graph":
        if not args.graph:
            raise ValueError("build from-graph needs --graph")
        net = reverse_skeleton(_load(args.graph, ugraph_from_json))
    elif args.what == "extend":
        if not args.network or args.messages is None:
            raise ValueError("build extend needs --network and --messages")
        net = extend_messages(_load(args.network, network_from_json), args.messages)
    elif args.what == "parallelize":
        if not args.network or args.factor is None:
            raise ValueError("build parallelize needs --network and --factor")
        net = parallelize(_load(args.network, network_from_json), args.factor)
    elif args.what == "prune":
        if not args.network:
            raise ValueError("build prune needs --network")
        from .networks import prune, validate_network

        net = prune(_load(args.network, lambda obj: network_from_json(obj, validate=False)))
        validate_network(net)
    else:
        raise ValueError(f"unknown build target {args.what!r}")
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(network_to_dot(net))
    _write_output(
        args,
        network_to_json(net),
        f"network: {len(net.nodes)} nodes, {len(net.edge_ids)} edges, "
        f"{len(net.terminals)} terminals, h={net.h}",
    )
    return EXIT_OK


def cmd_skeleton(args) -> int:
    skel = skeleton(_load(args.network, network_from_json))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(ugraph_to_dot(skel.graph))
    if args.dimacs:
        with open(args.dimacs, "w") as fh:
            fh.write(ugraph_to_dimacs(skel.graph))
    obj = skeleton_to_json(skel)
    human = [f"skeleton: {len(obj['vertices'])} classes, {len(obj['edges'])} edges"]
    human += [f"  {cid}: {{{', '.join(members)}}}" for cid, members in obj["classes"].items()]
    _write_output(args, obj, "\n".join(human))
    return EXIT_OK


def cmd_chi(args) -> int:
    if args.qkneser:
        q, n, m = args.qkneser
        g, desc = build_qkneser(q, n, m), f"qK_{{{n}:{m}}} over F_{q}"
    elif args.graph:
        g, desc = _load(args.graph, ugraph_from_json), args.graph
    else:
        raise ValueError("chi needs --graph or --qkneser")
    if args.dimacs:
        with open(args.dimacs, "w") as fh:
            fh.write(ugraph_to_dimacs(g))
    res = chromatic_number(g, args.budget)
    _write_json(args.cert, coloring_certificate(g, res.coloring, desc))
    if res.exact:
        _emit(
            args,
            {"chi": res.chi, "exact": True, "certificate": args.cert},
            f"chi({desc}) = {res.chi}\ncoloring certificate: {args.cert}",
        )
        return EXIT_OK
    _emit(
        args,
        {"chi_lower": res.lo, "chi_upper": res.hi, "exact": False, "certificate": args.cert},
        f"chi({desc}) in [{res.lo}, {res.hi}] (budget exhausted)\nbest coloring: {args.cert}",
    )
    return EXIT_BUDGET


def cmd_hom(args) -> int:
    g1 = _load(args.source, ugraph_from_json)
    if args.to_qkneser:
        q, n, m = args.to_qkneser
        g2 = build_qkneser(q, n, m)
        desc2 = f"qK_{{{n}:{m}}} over F_{q}"
    elif args.to_complete is not None:
        from .graphs import complete_graph

        g2 = complete_graph(args.to_complete)
        desc2 = f"K_{args.to_complete}"
    elif args.target:
        g2 = _load(args.target, ugraph_from_json)
        desc2 = args.target
    else:
        raise ValueError("hom needs --to, --to-qkneser, or --to-complete")
    try:
        phi = find_homomorphism(g1, g2, args.budget)
    except BudgetExhausted as exc:
        return _undecided(args, exc)
    if phi is None:
        _emit(
            args,
            {"status": "nonexistent"},
            f"no homomorphism into {desc2} (complete search)",
        )
        return EXIT_NEGATIVE
    cert = homomorphism_certificate(g1, g2, phi, f"{args.source} -> {desc2}")
    _write_json(args.cert, cert)
    _emit(
        args,
        {"status": "found", "certificate": args.cert},
        f"homomorphism found; certificate: {args.cert}",
    )
    return EXIT_OK


def cmd_coloring(args) -> int:
    q, n, m = args.qkneser
    colors = canonical_coloring(q, n, m)
    g = build_qkneser(q, n, m)
    cert = coloring_certificate(g, colors, f"canonical coloring of qK_{{{n}:{m}}} over F_{q}")
    _write_json(args.cert, cert)
    used = len(set(colors.values()))
    _emit(
        args,
        {"num_colors": used, "certificate": args.cert},
        f"canonical coloring uses {used} colors; certificate: {args.cert}",
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    net = _load(args.network, network_from_json)
    try:
        code = search_solution(net, args.q, args.t, args.budget)
    except BudgetExhausted as exc:
        return _undecided(args, exc)
    if code is None:
        _emit(
            args,
            {"status": "nonexistent"},
            f"no ({args.q},{args.t})-linear solution (complete search)",
        )
        return EXIT_NEGATIVE
    cert = code_certificate(net, code, args.network)
    _write_json(args.cert, cert)
    _emit(
        args,
        {"status": "found", "certificate": args.cert},
        f"solution found; certificate: {args.cert}",
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    net = network_to_json(_load(args.network, network_from_json))

    def replay(code: dict):
        # the code file itself goes to the checker; a "shape" failure is malformed input
        verdict = network_code_verdict({"network": net, "code": code})
        if verdict.failure_kind == "shape":
            raise ValueError(verdict.failure)
        return verdict, net["h"] * code["t"]

    verdict, nt = _load(args.code, replay)
    lines = [f"{'terminal':<16} rank (need {nt})"]
    lines += [f"{term:<16} {r}" for term, r in verdict.terminal_ranks.items()]
    lines.append("ACCEPT" if verdict.ok else f"REJECT: {verdict.failure}")
    _emit(
        args,
        {"accept": verdict.ok, "terminal_ranks": verdict.terminal_ranks, "failure": verdict.failure},
        "\n".join(lines),
    )
    return EXIT_OK if verdict.ok else EXIT_NEGATIVE


def cmd_mds(args) -> int:
    code = rs_code(args.q, args.r, args.h)
    d = min_distance(code)
    obj = linear_code_to_json(code)
    obj["distance"] = d
    if args.output:
        _write_json(args.output, obj)
    _emit(
        args,
        obj,
        f"[{args.r},{args.h},{d}]_{args.q} generator:\n"
        + "\n".join(str(list(row)) for row in code.generator.row_list()),
    )
    return EXIT_OK


def cmd_ic(args) -> int:
    if args.action in ("bound", "search") and None in (args.q, args.t, args.h, args.alpha):
        raise ValueError(f"ic {args.action} needs --q --t --h --alpha")
    if args.action == "bound":
        value = ic_size_bound(args.q, args.t, args.h, args.alpha)
        _emit(args, {"bound": value}, f"size bound: {value}")
        return EXIT_OK
    if args.action == "check":
        if not args.witness or args.alpha is None:
            raise ValueError("ic check needs --witness and --alpha")

        def replay(obj: dict):
            # the witness file itself goes to the checker, which raises on a malformed
            # member; an alpha outside 1..h fails a certificate, but is an input error here
            ok, failure = check_ic({"alpha": args.alpha, "ic": obj})
            if not 1 <= args.alpha <= obj["h"]:
                raise ValueError(failure)
            return ok, len(obj["members"])

        ok, size = _load(args.witness, replay)
        verdict = "valid" if ok else "INVALID"
        _emit(args, {"valid": ok, "size": size}, f"{verdict} configuration of size {size}")
        return EXIT_OK if ok else EXIT_NEGATIVE
    result = ic_max_size(args.q, args.t, args.h, args.alpha, args.budget)
    cert = ic_certificate(
        result.witness,
        args.alpha,
        f"maximum ({args.t};{args.h},{args.alpha})_{args.q} configuration",
    )
    _write_json(args.cert, cert)
    obj = {
        "size": result.size,
        "bound": result.bound,
        "exact": result.exact,
        "certificate": args.cert,
    }
    human = (
        f"max size {'=' if result.exact else '>='} {result.size} "
        f"(proven bound {result.bound}); witness: {args.cert}"
    )
    _emit(args, obj, human)
    return EXIT_OK if result.exact else EXIT_BUDGET


def cmd_psi(args) -> int:
    value = psi(args.x)
    _emit(args, {"psi": value}, str(value))
    return EXIT_OK


def _load_gap_network(args):
    if not (args.kneser or args.comb or args.network):
        raise ValueError("need --network, --kneser, or --comb")
    if args.kneser:
        q, t, h = args.kneser
        return build_kneser(q, t, h), f"K_{{{q},{t};{h}}}"
    if args.comb:
        h, r, s = args.comb
        return build_combination(h, r, s), f"N_{{{h},{r},{s}}}"
    net = _load(args.network, network_from_json)
    return net, args.network


def _extremal_json(e: Extremal) -> dict:
    if e.exact:
        return {"value": e.value, "method": e.method}
    return {"lower": e.lo, "upper": e.hi, "method": e.method}


def cmd_extremal(args) -> int:
    """`qs` or `qv`, by the subcommand's name: the same report for either value."""
    net, desc = _load_gap_network(args)
    res = (qs_exact if args.command == "qs" else qv_exact)(net, args.budget)
    label = args.command.replace("q", "q_")
    if res.exact:
        _write_json(args.cert, res.certificate)
        _emit(
            args,
            {label: res.value, "method": res.method, "certificate": args.cert},
            f"{label}({desc}) = {res.value}  [{res.method}]",
        )
        return EXIT_OK
    _emit(
        args,
        {f"{label}_lower": res.lo, f"{label}_upper": res.hi, "method": res.method},
        f"{label}({desc}) in [{res.lo}, {res.hi}] (budget exhausted)",
    )
    return EXIT_BUDGET


def cmd_gap(args) -> int:
    net, desc = _load_gap_network(args)
    report = gap_exact(net, args.budget)
    for label, extremal in (("qs", report.qs), ("qv", report.qv)):
        if extremal.exact:
            _write_json(f"{args.cert_prefix}-{label}-cert.json", extremal.certificate)
    if report.exact:
        _emit(
            args,
            {
                "network": desc,
                "q_v": report.qv.value,
                "q_s": report.qs.value,
                "gap": report.gap,
                "methods": report.methods,
            },
            f"{desc}: q_v={report.qv.value} q_s={report.qs.value} gap={report.gap}  [{report.methods}]",
        )
        return EXIT_OK
    lo, hi = report.gap
    _emit(
        args,
        {
            "network": desc,
            "q_v": _extremal_json(report.qv),
            "q_s": _extremal_json(report.qs),
            "gap_bracket": [lo, hi],
            "methods": report.methods,
        },
        f"{desc}: gap in [{lo}, {hi}] (budget exhausted; {report.methods})",
    )
    return EXIT_BUDGET


def cmd_formula(args) -> int:
    params = {}
    for assign in args.params:
        key, _, value = assign.partition("=")
        try:
            number = int(value)
        except ValueError:
            raise ValueError(f"formula parameter {assign!r} is not key=integer") from None
        if key in params:
            raise ValueError(f"formula parameter {key} is given twice")
        params[key] = number
    res = gap_formulas(args.kind, **params)
    flag = "" if res.hypotheses_ok else "  [outside stated hypotheses]"
    _emit(
        args,
        {"kind": res.kind, "value": res.value, "hypotheses_ok": res.hypotheses_ok, "note": res.note},
        f"{res.kind}({', '.join(args.params)}) = {res.value}{flag}\n{res.note}",
    )
    return EXIT_OK


def cmd_gap_table(args) -> int:
    rows = gap_table_rows(
        qs=tuple(args.q), ts=tuple(args.t), exact_limit=args.exact_limit, budget=args.budget
    )
    header = "network,q_v,q_s,gap,methods,runtime"
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['network']},{row['q_v']},{row['q_s']},{row['gap']},{row['methods']},{row['runtime_s']}"
        )
    csv_text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(csv_text)
        print(f"wrote {args.output}")
    else:
        print(csv_text, end="")
    return EXIT_OK


def cmd_check_cert(args) -> int:
    """Check every file: exit 2 if any was unreadable, else 1 if any failed."""
    status = EXIT_OK
    for path in args.certs:
        try:
            obj = _read_json(path)
        except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            status = EXIT_USAGE
            continue
        ok, message = check_certificate(obj)
        print(f"{path}: {'OK' if ok else 'FAIL'} - {message}")
        if not ok and status == EXIT_OK:
            status = EXIT_NEGATIVE
    return status


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p, cert_default: str | None = None) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")
    if cert_default is not None:
        p.add_argument("--cert", default=cert_default, help="certificate output path")


def _seconds(text: str) -> float:
    """A wall-clock limit: a number >= 0.  NaN is refused, since no time
    ever reaches it."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"needs a number of seconds >= 0, got {text!r}")
    return value


def _nodes(text: str) -> int:
    """A search-node budget: an integer >= 0, since a negative one passes for a spent one."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"needs a node count >= 0, got {text!r}")
    return value


def _add_search_limits(p) -> None:
    p.add_argument("--budget", type=_nodes, default=DEFAULT_BUDGET, help="search-node budget")
    p.add_argument(
        "--timeout-secs", type=_seconds, default=None,
        help="wall-clock limit, checked cooperatively by every search; 0 sets none",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netgap",
        description="Scalar/vector network-coding solutions of combination networks: "
        "builders, exact searches, and gap certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a network")
    p.add_argument("what", choices=["comb", "kneser", "from-graph", "extend", "parallelize", "prune"])
    p.add_argument("params", type=int, nargs="*", help="comb: h r s | kneser: q t h")
    p.add_argument("--graph", help="undirected graph JSON (from-graph)")
    p.add_argument("--network", help="network JSON (extend/parallelize)")
    p.add_argument("--messages", type=int, help="new message count (extend)")
    p.add_argument("--factor", type=int, help="parallelization factor")
    p.add_argument("-o", "--output", help="write network JSON here")
    p.add_argument("--dot", help="also write DOT here")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("skeleton", help="edge-class skeleton of a network")
    p.add_argument("--network", required=True)
    p.add_argument("-o", "--output")
    p.add_argument("--dot")
    p.add_argument("--dimacs")
    _add_common(p)
    p.set_defaults(func=cmd_skeleton)

    p = sub.add_parser("chi", help="exact chromatic number")
    p.add_argument("--graph", help="graph JSON")
    p.add_argument("--qkneser", type=int, nargs=3, metavar=("Q", "N", "M"))
    p.add_argument("--dimacs", help="also export the graph as DIMACS")
    _add_common(p, cert_default="chi-cert.json")
    _add_search_limits(p)
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("hom", help="graph homomorphism search")
    p.add_argument("--from", required=True, help="source graph JSON", dest="source")
    p.add_argument("--to", help="target graph JSON", dest="target")
    p.add_argument("--to-qkneser", type=int, nargs=3, metavar=("Q", "N", "M"))
    p.add_argument("--to-complete", type=int, metavar="K")
    _add_common(p, cert_default="hom-cert.json")
    _add_search_limits(p)
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("coloring", help="canonical q-Kneser coloring")
    p.add_argument("--qkneser", type=int, nargs=3, metavar=("Q", "N", "M"), required=True)
    _add_common(p, cert_default="coloring-cert.json")
    p.set_defaults(func=cmd_coloring)

    p = sub.add_parser("solve", help="exhaustive (q,t)-solution search")
    p.add_argument("--network", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--t", type=int, default=1)
    _add_common(p, cert_default="solution-cert.json")
    _add_search_limits(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="verify a network code")
    p.add_argument("--network", required=True)
    p.add_argument("--code", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mds", help="Reed-Solomon generator and distance")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--h", type=int, required=True)
    p.add_argument("-o", "--output")
    _add_common(p)
    p.set_defaults(func=cmd_mds)

    p = sub.add_parser("ic", help="independent configurations")
    p.add_argument("action", choices=["search", "check", "bound"])
    p.add_argument("--q", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--h", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--witness", help="IC JSON (check)")
    _add_common(p, cert_default="ic-cert.json")
    _add_search_limits(p)
    p.set_defaults(func=cmd_ic)

    p = sub.add_parser("psi", help="smallest prime power >= x")
    p.add_argument("x", type=float)
    _add_common(p)
    p.set_defaults(func=cmd_psi)

    for name in ("qs", "qv"):
        p = sub.add_parser(name, help=f"exact {name.replace('q', 'q_')}")
        p.add_argument("--network")
        p.add_argument("--kneser", type=int, nargs=3, metavar=("Q", "T", "H"))
        p.add_argument("--comb", type=int, nargs=3, metavar=("H", "R", "S"))
        _add_common(p, cert_default=f"{name}-cert.json")
        _add_search_limits(p)
        p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("gap", help="exact gap with certificates")
    p.add_argument("--network")
    p.add_argument("--kneser", type=int, nargs=3, metavar=("Q", "T", "H"))
    p.add_argument("--comb", type=int, nargs=3, metavar=("H", "R", "S"))
    p.add_argument("--cert-prefix", default="gap", help="certificate path prefix")
    _add_common(p)
    _add_search_limits(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("formula", help="closed-form gap bounds")
    p.add_argument("kind", choices=list(FORMULA_PARAMETERS))
    p.add_argument("params", nargs="+", help="assignments like q=2 t=2 h=3 r=5")
    _add_common(p)
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("gap-table", help="CSV table of Kneser-network gaps")
    p.add_argument("--q", type=int, nargs="+", default=[2, 3])
    p.add_argument("--t", type=int, nargs="+", default=[1, 2])
    p.add_argument("--exact-limit", type=int, default=4, help="resolve q^t <= this exactly")
    p.add_argument("-o", "--output")
    _add_search_limits(p)
    p.set_defaults(func=cmd_gap_table)

    p = sub.add_parser("check-cert", help="re-verify certificates")
    p.add_argument("certs", nargs="+")
    p.set_defaults(func=cmd_check_cert)

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # one parser per process: parse_args leaves it unchanged, and building
    # it takes milliseconds that in-process callers would pay per call
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    start = time.time()
    # A command creates no reference cycles (test_cli's no-cycles test holds
    # every command to that), so the cyclic collector's scans of the many
    # network, graph and search objects a command allocates find nothing:
    # pause it for the command and hand the caller back the state it had.
    collecting = gc.isenabled()
    gc.disable()
    try:
        with deadline(getattr(args, "timeout_secs", None)):
            return args.func(args)
    except BudgetExhausted as exc:
        print(f"budget exhausted after {time.time() - start:.1f}s: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NetgapError, ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:  # what the command held is freed by now
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if collecting:
            gc.enable()


def run() -> None:
    sys.exit(main())
