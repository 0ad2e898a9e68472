"""netgap benchmark: certified CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass of a workload runs in a fresh
single-threaded interpreter (perfbench/passrun.py), one at a time, and
drives ``netgap.cli.main`` in-process.  Workloads, inputs and expected
answers are in perfbench/workloads.py; NOTES.md explains the metrics.

``--trace 0`` runs at least two untraced passes, more while the next one
is expected to end within S seconds, and reports the end-to-end metrics.
``--trace 1`` runs one untraced pass and two traced ones, checks that the
two traced passes agree on every count, and reports the per-layer metrics.
The last line of stdout is the result JSON; a record with the environment
and every pass is written under ``.perfbench_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import boundary_names, count_names, time_names  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
RESULTS_DIR = ROOT / ".perfbench_results"
PASS_TIMEOUT_S = 150
SETUP_SAMPLES = 5  # set-up is timed at least this often per run
MIN_PASSES = 2
TRACED_PASSES = 2


class BenchError(Exception):
    pass


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code, stored with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """Digest of the program's sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_child(workload: str, seed: int, mode: str, index: int) -> dict:
    """One pass (or set-up only) in a fresh interpreter; waits until it ends."""
    pass_dir = WORK_DIR / f"{workload}-{mode}-{index}"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    out_path = pass_dir / "pass.json"
    try:
        spawned_at = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "passrun.py"), workload, str(seed), mode,
             repr(spawned_at), str(out_path)],
            cwd=pass_dir,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=PASS_TIMEOUT_S,
        )
        if proc.returncode != 0 or not out_path.exists():
            raise BenchError(f"{mode} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(out_path) as fh:
            return json.load(fh)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass exceeded {PASS_TIMEOUT_S} s") from None
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    """MIN_PASSES untraced passes, more while the next should end within
    `seconds`; returns metrics, passes, tally."""
    start = time.monotonic()
    passes = []
    longest = 0.0
    while len(passes) < MIN_PASSES or time.monotonic() - start + longest <= seconds:
        began = time.monotonic()
        passes.append(run_child(workload, seed, "plain", len(passes)))
        longest = max(longest, time.monotonic() - began)
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(workload, seed, "setup", len(setups))["setup_s"])

    good = [p for p in passes if not p["failures"]]
    metrics = {}
    if good:
        metrics["wall_ref_s"] = {"value": _median([p["wall_ref_s"] for p in good]), "unit": "s"}
    metrics["setup_s"] = {"value": _median(setups), "unit": "s"}
    metrics["peak_rss_mb"] = {"value": _median([p["peak_rss_mb"] for p in passes]), "unit": "MB"}
    tally = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "passes": len(passes),
        "passes_failed": len(passes) - len(good),
        "wall_s_median": _median([p["wall_s"] for p in good]),
        "setup_samples": len(setups),
    }
    return metrics, passes, tally


def per_layer(workload: str, seed: int) -> tuple[dict, list[dict], dict, list[str]]:
    """One untraced and two traced passes; returns metrics, passes, tally, problems."""
    plain = run_child(workload, seed, "plain", 0)
    traced = [run_child(workload, seed, "traced", i) for i in range(TRACED_PASSES)]
    passes = [plain, *traced]
    problems = []
    for name in count_names():
        values = {t["counts"][name] for t in traced}
        if len(values) != 1:
            problems.append(f"count {name} differs between traced passes: {sorted(values)}")

    counts = traced[0]["counts"]
    times = {key: _median([t["times"][key] for t in traced]) for key in traced[0]["times"]}
    overhead = _median([t["wall_ref_s"] for t in traced]) - plain["wall_ref_s"]
    print_layers(counts, times, overhead)
    metrics = {name: {"value": counts[name], "unit": "count"} for name in count_names()}
    for key in time_names():
        metrics[key] = {"value": times[key], "unit": "s"}
    metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
    tally = {
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(len(p["failures"]) for p in passes),
        "passes": len(passes),
    }
    return metrics, passes, tally, problems


def print_layers(counts: dict, times: dict, overhead: float) -> None:
    print(f"{'boundary':34} {'calls':>9} {'total_s':>9} {'self_s':>9}  extra counts")
    for b in boundary_names():
        extra = " ".join(
            f"{k[len(b) + 1:]}={v}" for k, v in counts.items()
            if k.startswith(b + ".") and not k.endswith(".calls")
        )
        print(f"{b:34} {counts[b + '.calls']:9d} {times[b + '.total_s']:9.3f} "
              f"{times[b + '.self_s']:9.3f}  {extra}")
    print(f"trace overhead (traced minus untraced wall_ref_s): {overhead:.3f} s")


def write_record(args, env: dict, result: dict, passes: list[dict]) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    spans = [p.pop("spans", None) for p in passes]
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump({"environment": env, "result": result, "passes": passes}, fh, indent=1)
    if any(spans):
        with open(path.with_suffix(".spans.jsonl"), "w") as fh:
            for i, pass_spans in enumerate(spans):
                for name, t0, t1, parent in pass_spans or ():
                    fh.write(json.dumps({"pass": i, "name": name, "start": t0, "end": t1,
                                         "parent": parent}) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "netgap" / "cli.py").is_file():
        print(f"error: no netgap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    try:
        if args.trace:
            metrics, passes, tally, problems = per_layer(args.workload, args.seed)
        else:
            metrics, passes, tally = end_to_end(args.workload, args.seed, args.seconds)
            problems = []
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    for i, p in enumerate(passes):
        for step, problem in p["failures"].items():
            problems.append(f"pass {i}: {step}: {problem}")
    correct = not problems
    result = {"correct": correct, "attempted": tally["attempted"], "failed": tally["failed"],
              "metrics": metrics}
    record = write_record(args, env, dict(result, tally=tally, problems=problems), passes)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"tally: {json.dumps(tally)}; error_rate {tally['failed']}/{tally['attempted']}; "
          f"record: {record.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
