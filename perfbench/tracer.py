"""Layer tracing for the benchmark, done entirely from outside the program.

Each boundary ``<module>.<function>`` is replaced by a timing wrapper in
every ``netgap`` module namespace that holds the original function object,
so calls made through ``from .gf import rref`` and calls made through the
defining module's own globals are both seen.  Nothing under ``src/`` is
edited.

Self time is a call's duration minus the duration of the wrapped calls
nested directly inside it.  Total time counts only the outermost call of a
boundary, so recursion is not counted twice.  Hot boundaries (10^5 to 10^6
calls per pass) keep aggregated counts and time only; the others also keep
one span per call: (name, start, end, parent span index).
"""

from __future__ import annotations

import sys
import time

# module -> public functions that form the module's boundary
BOUNDARIES = {
    "gf": ("rref",),
    "subspaces": ("sum_dim", "subspace_sum", "enumerate_subspaces"),
    "networks": (
        "combination_parameters",
        "is_solvable",
        "min_cut",
        "build_kneser",
        "network_from_json",
    ),
    "skeleton": ("skeleton",),
    "qkneser": ("max_clique", "chromatic_number", "find_homomorphism", "build_qkneser"),
    "lincode": ("search_solution", "verify_solution"),
    "mdsic": ("ic_max_size", "ic_exists_of_size"),
    "gaplab": ("qs_exact", "qv_exact", "gap_exact"),
    "certs": ("check_certificate",),
    "cli": ("main",),
}

# aggregated only: one span per call would cost more than the call itself
HOT = frozenset({"gf.rref", "subspaces.sum_dim", "subspaces.subspace_sum", "subspaces.enumerate_subspaces"})

# extra counts read from return values: boundary -> {count name: extractor}
EXTRA_COUNTS = {
    "qkneser.chromatic_number": {"nodes": lambda r: r.nodes_used},
    "lincode.search_solution": {"found": lambda r: int(r is not None)},
    "mdsic.ic_max_size": {"nodes": lambda r: r.nodes_used},
    "mdsic.ic_exists_of_size": {"found": lambda r: int(r is not None)},
    "certs.check_certificate": {"rejected": lambda r: int(not r[0])},
}


def boundary_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in BOUNDARIES.items() for fn in fns]


def count_names() -> list[str]:
    """Every deterministic count the tracer reports, in report order."""
    names = []
    for b in boundary_names():
        names.append(f"{b}.calls")
        names.extend(f"{b}.{extra}" for extra in EXTRA_COUNTS.get(b, {}))
    return names


# Boundaries that every workload calls.  Only their times go on the result
# line: a boundary a workload never calls would report exactly 0 s on every
# run.  The printed table and the run record carry every boundary's times.
TIMED = (
    "gf.rref",
    "subspaces.enumerate_subspaces",
    "networks.is_solvable",
    "networks.network_from_json",
    "certs.check_certificate",
    "cli.main",
)


def time_names() -> list[str]:
    """The per-boundary times the result line carries."""
    return [f"{b}.{kind}" for b in TIMED for kind in ("total_s", "self_s")]


class _Boundary:
    __slots__ = ("calls", "total_s", "self_s", "active", "extra")

    def __init__(self, extra_names):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.active = 0
        self.extra = {name: 0 for name in extra_names}


class Tracer:
    """Wraps every boundary of an imported ``netgap`` package.

    Use ``install()`` once, after ``netgap`` is imported and before the
    traced work; ``counts()`` and ``times()`` give the per-boundary numbers and
    ``spans`` the recorded coarse spans.
    """

    def __init__(self):
        self.stats = {
            name: _Boundary(EXTRA_COUNTS.get(name, {})) for name in boundary_names()
        }
        self.spans: list[tuple[str, float, float, int]] = []
        # child-time accumulators of the open calls; index 0 is the root
        self._frames: list[list[float]] = [[0.0]]
        # indices of the open coarse spans; -1 stands for "no parent"
        self._open_spans: list[int] = [-1]

    def install(self) -> None:
        packages = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "netgap" or name.startswith("netgap."))
        }
        for mod_name, fns in BOUNDARIES.items():
            home = packages.get(f"netgap.{mod_name}")
            if home is None:
                raise RuntimeError(f"netgap.{mod_name} is not imported")
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original)
                for mod in packages.values():
                    if getattr(mod, fn_name, None) is original:
                        setattr(mod, fn_name, wrapped)

    def _wrap(self, name, fn):
        rec = self.stats[name]
        frames = self._frames
        clock = time.perf_counter
        extractors = tuple(EXTRA_COUNTS.get(name, {}).items())

        if name in HOT:
            def hot_wrapper(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                rec.active += 1
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    frames.pop()
                    frames[-1][0] += dt
                    rec.active -= 1
                    rec.calls += 1
                    rec.self_s += dt - frame[0]
                    if not rec.active:
                        rec.total_s += dt

            return hot_wrapper

        spans = self.spans
        open_spans = self._open_spans

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            parent = open_spans[-1]
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            open_spans.append(index)
            rec.active += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                frames.pop()
                frames[-1][0] += dt
                open_spans.pop()
                spans[index] = (name, t0, t1, parent)
                rec.active -= 1
                rec.calls += 1
                rec.self_s += dt - frame[0]
                if not rec.active:
                    rec.total_s += dt
            for extra, extract in extractors:
                rec.extra[extra] += extract(result)
            return result

        return wrapper

    def counts(self) -> dict[str, int]:
        out = {}
        for name, rec in self.stats.items():
            out[f"{name}.calls"] = rec.calls
            for extra, value in rec.extra.items():
                out[f"{name}.{extra}"] = value
        return out

    def times(self) -> dict[str, float]:
        out = {}
        for name, rec in self.stats.items():
            out[f"{name}.total_s"] = rec.total_s
            out[f"{name}.self_s"] = rec.self_s
        return out
