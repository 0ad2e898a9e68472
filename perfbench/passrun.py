"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/passrun.py WORKLOAD SEED MODE SPAWNED_AT OUT_JSON

Run with the pass's own scratch directory as the working directory.
SPAWNED_AT is ``time.monotonic()`` read by the parent just before it
started this interpreter (CLOCK_MONOTONIC is shared by all processes), so
set-up time includes interpreter start.  MODE is ``setup`` (set up and
stop), ``plain`` (untraced pass) or ``traced``.

The pass drives ``netgap.cli.main(argv)`` in-process with stdout
captured, checks every exit code and answer, replays every certificate
with ``check-cert``, and writes its timings, failures and (traced) layer
numbers to OUT_JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import speed  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402


def _run_cli(cli, argv) -> tuple[int, str, float]:
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue(), time.perf_counter() - t0


def _check_step(step, code: int, text: str) -> str | None:
    if code != step.exit_code:
        return f"exit {code}, expected {step.exit_code}"
    try:
        answer = json.loads(text)
    except json.JSONDecodeError:
        return f"output is not JSON: {text[:200]!r}"
    return step.check(answer)


def run_pass(workload_name: str, seed: int, mode: str, spawned_at: float) -> dict:
    workload = WORKLOADS[workload_name]
    probe = speed.SpeedProbe()
    with probe:
        return _run_probed(workload, seed, mode, spawned_at, probe)


def _run_probed(workload, seed: int, mode: str, spawned_at: float, probe) -> dict:
    # interpreter start up to here runs no Python the probe could sample
    started = time.monotonic()
    import netgap.cli as cli
    import netgap.networks as networks

    write_inputs(networks, workload.inputs, seed)
    _, in_process = speed.at_reference(time.monotonic() - started, probe.samples, probe.samples)
    result = {"setup_s": started - spawned_at + in_process}
    if mode == "setup":
        return result

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    steps = []  # (name, elapsed, first probe sample, end probe sample)
    failures = {}

    def timed(name, argv):
        first = len(probe.samples)
        code, text, elapsed = _run_cli(cli, argv)
        steps.append((name, elapsed, first, len(probe.samples)))
        return code, text

    for step in workload.steps:
        code, text = timed(step.name, step.argv)
        problem = _check_step(step, code, text)
        if problem is not None:
            failures[step.name] = problem

    # replay every certificate; a rejected one fails the command that wrote it
    cert_owner = {c: s.name for s in workload.steps for c in s.certs}
    code, text = timed("check-cert", ["check-cert", *cert_owner])
    verdicts = {}
    for line in text.splitlines():
        path, _, rest = line.partition(": ")
        verdicts[path] = rest
    for cert, owner in cert_owner.items():
        if not verdicts.get(cert, "").startswith("OK"):
            failures.setdefault(owner, f"certificate {cert}: {verdicts.get(cert, 'not checked')}")
    if code != 0:
        failures["check-cert"] = f"exit {code}, expected 0"

    step_records = []
    for name, elapsed, first, end in steps:
        seconds, ref_seconds = speed.at_reference(elapsed, probe.samples[first:end], probe.samples)
        step_records.append(
            {"name": name, "seconds": seconds, "ref_seconds": ref_seconds, "probes": end - first}
        )
    result.update(
        steps=step_records,
        wall_s=sum(s["seconds"] for s in step_records),
        wall_ref_s=sum(s["ref_seconds"] for s in step_records),
        probe_mean_s=sum(probe.samples) / max(len(probe.samples), 1),
        attempted=len(step_records),
        failures=failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if tracer is not None:
        result.update(counts=tracer.counts(), times=tracer.times(), spans=tracer.spans)
    return result


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned_at, out_path = argv
    result = run_pass(workload, int(seed), mode, float(spawned_at))
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
