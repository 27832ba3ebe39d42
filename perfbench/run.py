"""guidedppl benchmark: drives the CLI in a closed loop and checks every output.

    python3 perfbench/run.py --workload sample_short --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The loop calls
`guidedppl.cli.main` in this process, one call after another, repeating
the workload's cycle of calls (see workloads.py) with seeds drawn from
`--seed`.  The first cycle always runs whole; after it, a call starts
only if, judged by the last call of its kind, it will end less than half
its time after `--seconds` have passed.  `--trace 0` prints the
end-to-end metrics.  `--trace 1` runs each call of the first cycle to
warm up, then untraced and traced, runs the per-layer probes
(probes.py), goes on with the loop traced, with spans around calls into
each module (tracer.py), and prints the per-layer metrics.  The last
line of stdout is one JSON object: {"correct", "attempted", "failed",
"metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import workloads  # noqa: E402

SETUP_REPEATS = 5


@dataclass
class Record:
    call: workloads.Call
    seconds: float
    counts: dict | None  # Workload.counts of the output; None when the call failed


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(workloads.SCALES), default="full",
                   help="input sizes; 'tiny' is for the benchmark's own tests")
    return p.parse_args(argv)


def measure_setup(workload: str, scale: str, repeats: int) -> float:
    """Median wall time of a fresh interpreter that imports the CLI and
    builds the workload's models and guides.  One untimed spawn first
    leaves the bytecode cache as a user's installed copy would have it,
    and shows that the probe does not hang.  The timed spawns pass no
    timeout: with one, the wait polls in sleeps of up to 50 ms, which
    would round each time up to a multiple of 50 ms."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, scale]
    subprocess.run(argv, check=True, timeout=60)
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run(argv, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_call(w: workloads.Workload, call: workloads.Call, failures: list) -> tuple[Record, str]:
    """One CLI call, timed and checked; returns its record and stdout."""
    from guidedppl import cli

    gc.collect()
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(call.argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crashing call is counted as failed; the loop goes on
        traceback.print_exc()
        code = -1
    seconds = perf_counter() - t0
    out = buf.getvalue()
    errors = []
    if code != 0:
        errors.append(f"exit code {code}")
    else:
        try:
            results = json.loads(out)["results"]
            errors += w.check(call, results)
            counts = w.counts(call, results)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errors.append(f"unreadable output: {type(exc).__name__}: {exc}")
    if errors:
        failures.append((call, errors))
        print(f"FAIL {call.kind} {' '.join(call.argv)}: {'; '.join(errors)}", file=sys.stderr)
        return Record(call, seconds, None), out
    w.add(call, results)
    return Record(call, seconds, counts), out


def closed_loop(w, cycles, deadline: float, last: list[Record], failures: list,
                tracer=None) -> list[Record]:
    """Run the cycles' calls in order, each after the previous returns,
    while each is expected to end less than half its time after
    `deadline` (a perf_counter time): a call of a kind is expected to
    take as long as the last one of that kind in `last` or in this loop.
    So a run ends within half a call of the deadline, not a whole cycle
    after it."""
    expected = {r.call.kind: r.seconds for r in last}
    records: list[Record] = []
    for cycle in cycles:
        for call in cycle:
            if perf_counter() + expected.get(call.kind, 0.0) / 2 > deadline:
                return records
            if tracer is not None:
                tracer.call_id = len(last) + len(records)
            records.append(run_call(w, call, failures)[0])
            expected[call.kind] = records[-1].seconds
    return records


def by_kind(records: list[Record]) -> dict[str, list[Record]]:
    """The correct calls' records, by call kind in cycle order."""
    kinds: dict[str, list[Record]] = {}
    for r in records:
        if r.counts is not None:
            kinds.setdefault(r.call.kind, []).append(r)
    return kinds


def percentile_with_tail(times: list[float], q: float) -> float | None:
    """The q-quantile, or None when fewer than ten samples lie beyond it."""
    if len(times) * (1 - q) < 10:
        return None
    return statistics.quantiles(times, n=100, method="inclusive")[round(q * 100) - 1]


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def _line(name, value, unit, note=""):
    print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}".rstrip())


def end_to_end(w, records, setup_s, failures) -> dict:
    """The gated metrics.  Both timings rest on the median call time of
    each call kind, so neither depends on how many calls of each kind a
    run made, nor on the gap between two kinds' times."""
    ok = [r for r in records if r.counts is not None]
    times = [r.seconds for r in ok]
    kinds = by_kind(records)
    med_s = [statistics.median(r.seconds for r in rs) for rs in kinds.values()]
    med_work = [statistics.median(r.counts["work"] for r in rs) for rs in kinds.values()]
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "call_p50_ms": (statistics.fmean(med_s) * 1e3 if med_s else float("nan"), "ms"),
        "work_per_s": (sum(med_work) / sum(med_s) if med_s else float("nan"), "1/s"),
    }
    counts = ", ".join(f"{len(rs)} {k}" for k, rs in kinds.items())
    print(f"end-to-end ({len(times)} calls: {counts}; closed loop, 1 client, --workers 1;\n"
          f"  call_p50_ms is the mean over call kinds of each kind's median call time;\n"
          f"  work_per_s is the work of one call of each kind, in {w.unit}, over the sum\n"
          f"  of their median times):")
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)
    print("  by name:")
    _line("error_rate", len(failures) / len(records), "ratio", f"{len(failures)} of {len(records)} calls")
    for name, (value, unit, note) in w.named_metrics(ok).items():
        _line(name, value, unit, note)
    p90 = percentile_with_tail(times, 0.9)
    if p90 is None:
        print(f"  call_p90_ms not reported: {len(times)} calls leave fewer than 10 beyond p90")
    else:
        _line("call_p90_ms", p90 * 1e3, "ms", f"n={len(times)}")
    return metrics


def per_layer(w, first, cycles, deadline, failures, scale, seed):
    """Runs each call of the first cycle three times back to back: once
    to warm up, since the first call of a kind pays one-off costs, then
    untraced and traced, so that a drift in machine speed barely enters
    the tracing overhead.  Then the probes, then the loop traced until
    `deadline`.  Returns (metrics, records, first-cycle stdout, probes)."""
    from probes import Probes
    from tracer import LAYERS, Tracer

    tracer = Tracer()
    warmup, reference, traced, outputs = [], [], [], []
    for call in first:
        record, out = run_call(w, call, failures)
        warmup.append(record)
        outputs.append(out)
        reference.append(run_call(w, call, failures)[0])
        with tracer:
            tracer.call_id = len(traced)
            traced.append(run_call(w, call, failures)[0])

    probes = Probes(seed, scale)
    probes.run_all()
    with tracer:
        traced += closed_loop(w, cycles, deadline, traced, failures, tracer)
    n_calls = len(traced)
    overhead = statistics.fmean(t.seconds - r.seconds for t, r in zip(traced, reference)) * 1e3
    self_s = tracer.self_seconds()
    traced_busy = sum(r.seconds for r in traced)
    print(f"traced run: {n_calls} calls, {len(tracer)} spans")
    print("  self time per traced call by layer (spans at module functions; methods count to their caller):")
    for layer in LAYERS:
        _line(f"self_ms.{layer}", self_s[layer] / n_calls * 1e3, "ms",
              f"{self_s[layer] / traced_busy:.1%} of traced call time")

    for message in probes.errors:
        print(f"FAIL probe: {message}", file=sys.stderr)
    for note in probes.notes:
        print(f"  {note}")
    metrics = dict(probes.metrics)
    metrics["cli.overhead_ms"] = (self_s["cli"] / n_calls * 1e3, "ms")
    metrics["trace.overhead_ms"] = (overhead, "ms")
    print("per-layer:")
    for name, (value, unit) in metrics.items():
        _line(name, value, unit)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{w.name}.tsv"  # one file per workload bounds disk use
    tracer.write(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")
    return metrics, warmup + reference + traced, outputs, probes


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "guidedppl" / "cli.py").is_file():
        print(f"no guidedppl source at {SRC}; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    w = workloads.make(args.workload, args.scale)
    rng = random.Random(f"{args.workload}:{args.seed}")
    failures: list = []
    env = environment()
    print(f"workload {w.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace} "
          f"scale {args.scale}")

    # The first cycle's calls depend only on the seed, so the digest of
    # its output is comparable across commits.
    first = w.cycle(rng)
    cycles = iter(lambda: w.cycle(rng), None)
    attempted_extra = failed_extra = 0
    if args.trace:
        deadline = perf_counter() + args.seconds
        metrics, records, outputs, probes = per_layer(w, first, cycles, deadline, failures,
                                                      args.scale, args.seed)
        attempted_extra, failed_extra = probes.attempted, len(probes.errors)
    else:
        setup_s = measure_setup(w.name, args.scale, SETUP_REPEATS if args.scale == "full" else 1)
        deadline = perf_counter() + args.seconds
        records, outputs = map(list, zip(*(run_call(w, call, failures) for call in first)))
        records += closed_loop(w, cycles, deadline, records, failures)
        metrics = end_to_end(w, records, setup_s, failures)
    first_cycle_sha256 = hashlib.sha256("".join(outputs).encode()).hexdigest()

    pooled = w.pooled_errors()
    for message in pooled:
        print(f"FAIL pooled check: {message}", file=sys.stderr)
    attempted = len(records) + attempted_extra
    failed = len(failures) + failed_extra
    info = dict(env, workload=w.name, seed=args.seed, calls=len(records),
                median_ms_by_kind={k: round(statistics.median(r.seconds for r in rs) * 1e3, 3)
                                   for k, rs in by_kind(records).items()},
                error_rate=failed / attempted, pooled_check_errors=len(pooled),
                first_cycle_sha256=first_cycle_sha256, first_cycle_calls=len(first))
    print("info " + json.dumps(info))
    result = {
        "correct": failed == 0 and not pooled,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
