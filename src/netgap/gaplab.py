"""Smallest prime power psi, exact q_s / q_v / gap, and the closed-form bounds.

q_s is the least field size with a scalar solution, q_v the least q^t with a
vector solution.  Both come from one scan over the (q,t) pairs, each decided
by the cheapest certified route available: skeleton chromatic number
(minimal, two messages), independent-configuration search (full minimal
combination networks), graph homomorphism, or exhaustive code search; every
answer carries a replayable certificate.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .errors import DEFAULT_BUDGET, BudgetExhausted, InternalError, UnsolvableNetwork
from .gf import prime_power
from .graphs import coloring_certificate, homomorphism_certificate
from .lincode import code_certificate, search_solution
from .mdsic import subcombination_solution
from .networks import (
    Network,
    build_kneser,
    combination_parameters,
    is_solvable,
)
from .qkneser import (
    build_qkneser,
    chromatic_number,
    find_homomorphism,
    greedy_clique,
    qkneser_clique_number,
)

# ---------------------------------------------------------------------------
# prime powers
# ---------------------------------------------------------------------------


def is_prime_power(n: int) -> bool:
    """True iff n = p^k for a prime p and k >= 1."""
    return prime_power(n) is not None


def psi(x) -> int:
    """Smallest prime power >= x (x a positive real; exact for int/Fraction)."""
    if x <= 0:
        raise ValueError(f"psi needs a positive argument, got {x}")
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"psi needs a finite argument, got {x}")
    n = x if isinstance(x, int) else math.ceil(x)
    n = max(n, 2)
    while not is_prime_power(n):
        n += 1
    return n


def candidate_qt_pairs(v: int) -> list[tuple[int, int]]:
    """(q, t) with q^t = v, smaller q first (the deterministic tie order)."""
    pp = prime_power(v)
    if pp is None:
        return []
    p, k = pp
    return [(p**d, k // d) for d in range(1, k + 1) if k % d == 0]  # ascending d = ascending q


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class Extremal:
    """An exact value (lo == hi) with its certificate, or an honest bracket
    from a stopped search (exact=False), whose ends may meet: a scan stopped
    at its sufficiency bound knows the value but has not certified it.  The
    certificate is the dict that `certs.check_certificate` replays."""

    lo: int
    hi: int
    method: str
    certificate: dict | None = None
    exact: bool = True

    def __post_init__(self):
        if self.exact and self.lo != self.hi:
            raise InternalError(f"exact {self.method} value with bracket [{self.lo}, {self.hi}]")
        if self.exact and self.certificate is None:
            raise InternalError(f"exact {self.method} value {self.lo} without a certificate")

    @property
    def value(self) -> int:
        if not self.exact:
            raise ValueError(f"value not resolved: [{self.lo}, {self.hi}]")
        return self.lo


@dataclass
class GapReport:
    qs: Extremal
    qv: Extremal

    @property
    def exact(self) -> bool:
        return self.qs.exact and self.qv.exact

    @property
    def gap(self):
        if self.exact:
            return self.qs.value - self.qv.value
        # q_v <= q_s always, so the bracket never dips below zero
        return (max(self.qs.lo - self.qv.hi, 0), self.qs.hi - self.qv.lo)

    @property
    def methods(self) -> str:
        return f"qs:{self.qs.method};qv:{self.qv.method}"


# ---------------------------------------------------------------------------
# exact q_s / q_v
# ---------------------------------------------------------------------------

def _by_middle_spaces(net: Network) -> bool:
    """True for the networks whose (q,t) pairs `subcombination_solution`
    decides: those with a middle layer and h >= 3, and full N_{2,r,2}.  q_s
    of a full N_{2,r,2} takes the skeleton's chromatic number before this
    is asked, since the network is minimal with two messages."""
    decided = net.h >= 3 or net.h == 2 and combination_parameters(net) is not None
    return decided and net.middle_layer() is not None


def _least(net: Network, budget: int, vector: bool) -> Extremal:
    """The least q^t with a (q,t)-linear solution, t = 1 unless `vector`:
    the one scan behind `qs_exact` and `qv_exact`.

    One route per call, the first that applies: for q_s of a minimal
    two-message network the skeleton's chromatic number, in one call whose
    greedy colouring gives the bracket's upper end; for `_by_middle_spaces`
    networks the assignment search over the middle nodes (labelled `ic` for
    q_v of a full N_{h,r,h}, where it is the IC search); for q_v of the other
    minimal two-message networks a homomorphism of the skeleton into
    qK_{2t:t}; else the exhaustive code search.  `decide(q, t)` gives
    (method, certificate) or None per pair, by ascending q^t and then q, and
    raises BudgetExhausted when undecided, which leaves [q^t, bound].
    """
    if not is_solvable(net):
        raise UnsolvableNetwork("network fails the cut criterion")
    minimal_two = net.h == 2 and net._routing_minimal
    if minimal_two and not vector:
        # a scalar solution over F_q is a homomorphism of the skeleton into
        # qK_{2:1} = K_{q+1}, so q_s = psi(chi - 1) and only the colour
        # counts q + 1 decide it; q_s is exact once the bracket's ends agree
        skel = net._skeleton
        res = chromatic_number(skel.graph, budget, needed=lambda k: is_prime_power(k - 1))
        lo, hi = psi(res.lo - 1), psi(res.hi - 1)
        if lo == hi:
            cert = coloring_certificate(skel.graph, res.coloring, "skeleton coloring")
            return Extremal(hi, hi, "skeleton-chi", certificate=cert)
        return Extremal(lo, hi, "skeleton-chi-bracket", exact=False)
    by_middles = _by_middle_spaces(net)
    if minimal_two and not by_middles:
        skel = net._skeleton
        # any clique, proven maximum or not, maps injectively
        clique_size = len(greedy_clique(skel.graph))

        def decide(q, t):
            if clique_size > qkneser_clique_number(q, t):
                return None  # the target's cliques are too small
            target = build_qkneser(q, 2 * t, t)
            phi = find_homomorphism(skel.graph, target, budget)
            if phi is None:
                return None
            return "homomorphism", homomorphism_certificate(
                skel.graph, target, phi, "skeleton into q-Kneser graph"
            )
    else:
        solve = subcombination_solution if by_middles else search_solution
        # on a full N_{h,r,h} the middle spaces form an IC
        method = "ic" if vector and by_middles and combination_parameters(net) else "exhaustive"

        def decide(q, t):
            code = solve(net, q, t, budget)
            return None if code is None else (method, code_certificate(net, code))

    # any field size >= the number of terminals admits a multicast solution
    bound = psi(max(2, len(net.terminals)))
    v = 2
    while v <= bound:
        for q, t in candidate_qt_pairs(v) if vector else [(v, 1)]:
            try:
                found = decide(q, t)
            except BudgetExhausted:
                return Extremal(v, bound, "bracket" if vector else "exhaustive-bracket", exact=False)
            if found is not None:
                return Extremal(v, v, found[0], certificate=found[1])
        v = psi(v + 1)
    raise InternalError(f"scan passed its sufficiency bound {bound} without a solution")


def qs_exact(net: Network, budget: int = DEFAULT_BUDGET) -> Extremal:
    """Smallest field size with a scalar linear solution, with certificate:
    `_least` over the pairs (q, 1)."""
    return _least(net, budget, vector=False)


def qv_exact(net: Network, budget: int = DEFAULT_BUDGET) -> Extremal:
    """Smallest q^t with a (q,t)-linear solution, with certificate: `_least`
    over every pair (q, t)."""
    return _least(net, budget, vector=True)


def gap_exact(net: Network, budget: int = DEFAULT_BUDGET) -> GapReport:
    qs = qs_exact(net, budget)
    qv = qv_exact(net, budget)
    if qs.exact and qv.exact and qv.value > qs.value:
        raise InternalError(f"vector optimum {qv.value} exceeded scalar optimum {qs.value}")
    return GapReport(qs=qs, qv=qv)


# ---------------------------------------------------------------------------
# closed-form bounds
# ---------------------------------------------------------------------------

@dataclass
class FormulaResult:
    kind: str
    value: int
    hypotheses_ok: bool
    note: str


# the parameters each closed form reads, keyed by its kind: the one list of kinds
FORMULA_PARAMETERS = {
    "kneser-h2": ("q", "t"),
    "minimal-h2-upper": ("q", "t"),
    "kneser-h2-t2-lower": ("q", "t"),
    "kneser-h3-lower": ("q", "t", "h"),
    "combination-upper": ("h", "r"),
}


def gap_formulas(kind: str, **params) -> FormulaResult:
    """Evaluate one of the closed-form gap bounds.

    Values are computed even outside the stated hypotheses, but then
    flagged; psi arguments are kept exact via Fraction.
    """
    if kind not in FORMULA_PARAMETERS:
        raise ValueError(f"unknown formula kind {kind!r}")
    for name in FORMULA_PARAMETERS[kind]:
        if name not in params:
            raise ValueError(f"formula {kind} needs the parameter {name}")
    for name in params:
        if name not in FORMULA_PARAMETERS[kind]:
            raise ValueError(f"formula {kind} takes no parameter {name}")
    if kind in ("kneser-h2", "minimal-h2-upper", "kneser-h2-t2-lower", "kneser-h3-lower"):
        q, t = params["q"], params["t"]
        if q < 2 or t < 1:
            raise ValueError(f"need q >= 2 and t >= 1, got q={q}, t={t}")
    if kind == "kneser-h2":
        value = psi(q**t + q ** (t - 1) - 1) - q**t
        ok = is_prime_power(q) and (q >= 5 or t <= 3)
        note = "gap(K_{q,t;2}) equals this when q >= 5 or t <= 3"
    elif kind == "minimal-h2-upper":
        value = psi(q**t + q ** (t - 1) - 1) - q**t
        ok = is_prime_power(q)
        note = "upper bound for minimal h=2 networks with a (q,t)-vector-optimal solution"
    elif kind == "kneser-h2-t2-lower":
        value = psi(q**t + 1) - q**t
        ok = is_prime_power(q) and t >= 2
        note = "gap(K_{q,t;2}) >= this >= 1 for t >= 2"
    elif kind == "kneser-h3-lower":
        h = params["h"]
        if h < 2:
            raise ValueError(f"need h >= 2, got h={h}")
        if t >= h:
            arg = Fraction(q**t) + Fraction(q ** (t - 1), h - 1)
        else:
            arg = Fraction(q**t) + Fraction(q ** (t - 1), (h - 1) ** 2)
        value = psi(arg) - q**t
        ok = is_prime_power(q) and t >= 2 and h >= 3
        note = "gap(K_{q,t;h}) >= this for h >= 3, t >= 2"
    else:  # combination-upper
        h, r = params["h"], params["r"]
        if h < 1 or r < h or r < 2:
            raise ValueError(f"need r >= max(h, 2) and h >= 1, got h={h}, r={r}")
        value = psi(r - 1) - psi(r - h + 1)
        ok = r >= h >= 2
        note = "gap(N_{h,r,h}) <= this"
    return FormulaResult(kind=kind, value=value, hypotheses_ok=ok, note=note)


# ---------------------------------------------------------------------------
# gap table
# ---------------------------------------------------------------------------

def gap_table_rows(qs=(2, 3), ts=(1, 2), exact_limit: int = 4, budget: int = DEFAULT_BUDGET):
    """Rows (network, q_v, q_s, gap, methods, runtime_s) for Kneser networks.

    Values come from the closed forms; instances with q^t <= exact_limit are
    additionally resolved exactly end to end and cross-checked.
    """
    rows = []
    for q in qs:
        if not is_prime_power(q):
            raise ValueError(f"q={q} is not a prime power")
        for t in ts:
            start = time.time()
            formula = gap_formulas("kneser-h2", q=q, t=t)
            qv_val = q**t
            qs_val = qv_val + formula.value
            methods = "formula" if formula.hypotheses_ok else "formula(outside-hypotheses)"
            if q**t <= exact_limit:
                net = build_kneser(q, t, 2)
                report = gap_exact(net, budget)
                if report.exact:
                    exact = (report.qv.value, report.qs.value)
                    if exact != (qv_val, qs_val):
                        raise InternalError(
                            f"K_{{{q},{t};2}}: exact (q_v, q_s) = {exact}, closed form {(qv_val, qs_val)}"
                        )
                    methods = report.methods
            rows.append(
                {
                    "network": f"K_{{{q},{t};2}}",
                    "q_v": qv_val,
                    "q_s": qs_val,
                    "gap": qs_val - qv_val,
                    "methods": methods,
                    "runtime_s": round(time.time() - start, 3),
                }
            )
    return rows
