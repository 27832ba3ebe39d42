"""Run the benchmark on two checkouts in alternating pairs and record the result.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload sample_short --pairs 10 --seconds 28

Each pair runs ``python3 perfbench/run.py --workload W --seed SEED
--seconds S --trace 0`` once in each checkout, one after the other, with
the same seed; the side that runs first alternates from pair to pair.
Each checkout runs its own benchmark files on its own source.  After
each pair the script prints the change/parent ratio of every end-to-end
metric.  It writes ``BENCH_<workload>.json`` in the current directory:
every run's result and `info` line, and for each end-to-end metric of
CHANGE_DIR's ``BENCHMARK.json`` the median and quartiles of each side,
the ratio of the medians (change over parent), the number of pairs the
change won (ties count for neither side), whether that makes a gain
(the change wins at least nine pairs in ten and its median is better by
more than the distance between the parent's quartiles) and a verdict on
regression.  With the metric's `bound` (a fraction) times the parent's
median as the allowed amount, the verdict is `regression` when the
change's median is worse than the parent's by more than that amount,
`unresolved` when it is not but either side's quartile spread exceeds
that amount and some change run does not beat every parent run, and
`within_bound` otherwise.  It also records
each side's git commit and package size (`package_lines`, the newline
count over ``src/guidedppl/*.py``, as ``wc -l`` counts it), the Python
and numpy versions, whether the
first cycle's output digest is the same on both sides, and each side's
`failed` and `attempted` call counts summed over its runs, with their
ratio (the share of calls that failed).  It changes no
file in either checkout.

When a run exits non-zero, the script stops there, still writes the file
with the pairs completed before it (and their summary, if there are
any), adds a `failed_run` entry (side, pair number, exit code and the
last 20 lines of the run's stderr) and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def package_lines(checkout: Path) -> int:
    """The newline count over the checkout's ``src/guidedppl/*.py``, as ``wc -l`` counts it."""
    return sum(f.read_bytes().count(b"\n") for f in (checkout / "src" / "guidedppl").glob("*.py"))


def git_commit(checkout: Path) -> dict:
    """The checkout's HEAD commit, whether its tracked files differ from
    it, and its package size."""
    def git(*argv):
        out = subprocess.run(["git", "-C", str(checkout), *argv], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
            "package_lines": package_lines(checkout)}


class RunFailed(Exception):
    """A benchmark run exited non-zero; keeps its exit code and the last 20 lines of its stderr."""

    def __init__(self, exit_code: int, stderr: str):
        super().__init__(f"exited {exit_code}")
        self.exit_code = exit_code
        self.stderr_tail = stderr.splitlines()[-20:]


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `checkout`: its JSON result, with its `info` line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(proc.returncode, proc.stderr)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["info"] = next(json.loads(line[len("info "):]) for line in lines if line.startswith("info "))
    return result


def quartiles(values: list[float]) -> list[float]:
    """Lower quartile, median and upper quartile."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's quartiles, the median ratio,
    the pairs won by the change, whether that makes a gain and the
    regression verdict."""
    out = {}
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        won = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        better_by = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
        allowed = m["bound"] * pq[1]
        all_beat = min(change) > max(parent) if higher else max(change) < min(parent)
        if -better_by > allowed:
            verdict = "regression"
        elif max(pq[2] - pq[0], cq[2] - cq[0]) > allowed and not all_beat:
            verdict = "unresolved"
        else:
            verdict = "within_bound"
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent_quartiles": pq, "change_quartiles": cq,
            "median_ratio": cq[1] / pq[1],
            "pairs_won": won, "pairs": len(pairs),
            "gain": won >= 0.9 * len(pairs) and better_by > pq[2] - pq[0],
            "verdict": verdict,
        }
    return out


def failed_share(runs: list[dict]) -> dict:
    """The summed `failed` and `attempted` counts of `runs` and their ratio
    (None when no call was attempted)."""
    failed = sum(r.get("failed", 0) for r in runs)
    attempted = sum(r.get("attempted", 0) for r in runs)
    return {"failed": failed, "attempted": attempted, "share": failed / attempted if attempted else None}


def main(argv=None) -> int:
    args = _parse_args(argv)
    metrics = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    pairs, failed = [], None
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"first": order[0]}
        try:
            for side in order:
                pair[side] = run_once(sides[side], args.workload, args.seed, args.seconds)
        except RunFailed as exc:
            failed = {"side": side, "pair": i + 1, "exit_code": exc.exit_code, "stderr_tail": exc.stderr_tail}
            print(f"pair {i + 1}/{args.pairs}: the {side} run exited {exc.exit_code}:", *exc.stderr_tail,
                  sep="\n", file=sys.stderr)
            break
        pairs.append(pair)
        change, parent = pair["change"]["metrics"], pair["parent"]["metrics"]
        ratios = ", ".join(f"{name} {change[name]['value'] / parent[name]['value']:.3f}"
                           for name in (m["name"] for m in metrics))
        print(f"pair {i + 1}/{args.pairs} ({order[0]} first): change/parent {ratios}", flush=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "command": "python3 perfbench/run.py --trace 0",
        "parent": git_commit(args.parent), "change": git_commit(args.change),
    }
    if pairs:  # what the completed pairs measured, also when a later run failed
        info = pairs[0]["parent"]["info"]
        record |= {
            "python": info["python"], "numpy": info["numpy"], "nproc": info["nproc"],
            "all_correct": all(p[s]["correct"] for p in pairs for s in sides),
            "same_first_cycle_output": len({p[s]["info"]["first_cycle_sha256"] for p in pairs for s in sides}) == 1,
            "failed_share": {s: failed_share([p[s] for p in pairs]) for s in sides},
            "summary": summarize(pairs, metrics),
        }
    if failed:
        record["failed_run"] = failed
    record["runs"] = pairs
    out = Path(f"BENCH_{args.workload}.json")
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, s in record.get("summary", {}).items():
        print(f"{name:<12} parent {s['parent_quartiles'][1]:.6g} change {s['change_quartiles'][1]:.6g} "
              f"ratio {s['median_ratio']:.3f} won {s['pairs_won']}/{s['pairs']} gain {s['gain']} verdict {s['verdict']}")
    for side, f in record.get("failed_share", {}).items():
        print(f"{side} failed {f['failed']} of {f['attempted']} calls")
    for side in sides:
        print(f"{side} package lines {record[side]['package_lines']}")
    print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
