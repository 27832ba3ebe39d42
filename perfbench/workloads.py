"""The benchmark's four workloads.

Each workload is a cycle of CLI calls that the benchmark repeats, with
fresh `--seed` values, as a closed loop.  For every call a workload says
how much work it requested (in the workload's own unit) and checks its
output; across a run it also checks the pooled outputs against values
known exactly.  README.md in this directory says why each workload
exists.
"""

from __future__ import annotations

import math
import random
from statistics import median
from dataclasses import dataclass

DICE_EVIDENCE = 15 / 216  # P(three dice sum to 7)
# Pooled estimates must land within this many standard errors of the
# exact value; a correct program trips it with probability ~1e-15.
POOLED_Z = 8.0


@dataclass(frozen=True)
class Call:
    kind: str  # call type, e.g. "run.three_dice"
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Scale:
    """Input sizes.  `full` is what the benchmark measures; `tiny` keeps
    the same calls small enough for the benchmark's own tests."""

    dice_n: int
    expr_n: int
    expr_cap: int
    expr_evidence: float  # exact P(e) of the expr model at expr_cap
    expr_paths: int  # exact number of expr paths at expr_cap
    monkey_length: int
    monkey_n: int
    dice_budget: int
    expr_budget: int
    dice_eval_n: int
    expr_eval_n: int


SCALES = {
    "full": Scale(
        dice_n=24000, expr_n=10000, expr_cap=3, expr_evidence=0.02211, expr_paths=128029,
        monkey_length=4000, monkey_n=3, dice_budget=30, expr_budget=40,
        dice_eval_n=400, expr_eval_n=250,
    ),
    # expr_n stays large: with fewer runs the DKW denominator bound of the
    # expr evidence can be 0, which the CLI reports as an error.
    "tiny": Scale(
        dice_n=500, expr_n=4000, expr_cap=2, expr_evidence=0.05, expr_paths=253,
        monkey_length=100, monkey_n=3, dice_budget=3, expr_budget=3,
        dice_eval_n=50, expr_eval_n=100,
    ),
}


def _seed(rng: random.Random) -> str:
    return str(rng.randrange(2**31))


class Workload:
    name = ""
    unit = ""  # what `work` counts

    def __init__(self, scale: Scale):
        self.s = scale

    def cycle(self, rng: random.Random) -> list[Call]:
        """One round of calls, each with a fresh seed drawn from rng."""
        raise NotImplementedError

    def builds(self) -> list[tuple[str, str | None, dict]]:
        """(model, guide or None for the tabular family, config) for the
        set-up probe, which builds what the calls build."""
        raise NotImplementedError

    def counts(self, call: Call, results: dict) -> dict[str, int]:
        """What the call requested: "work" in the workload's unit, and
        "traces" or "events" where the output tells them."""
        raise NotImplementedError

    def check(self, call: Call, results: dict) -> list[str]:
        """Errors in one call's results (empty when correct)."""
        return []

    def add(self, call: Call, results: dict) -> None:
        """Pool one correct call's results for `pooled_errors`."""

    def pooled_errors(self) -> list[str]:
        return []

    def named_metrics(self, records) -> dict[str, tuple[float, str, str]]:
        """This workload's metrics under the names ROADMAP items use:
        name -> (value, unit, note), from the correct calls' records."""
        raise NotImplementedError


def _rate(count: float, records) -> float:
    busy = sum(r.seconds for r in records)
    return count / busy if busy else float("nan")


def _median_s(records) -> float:
    return median(r.seconds for r in records) if records else float("nan")


def _check_bound(name: str, b: dict, n: int) -> list[str]:
    errors = []
    if b["n"] != n:
        errors.append(f"{name}: n {b['n']} != {n}")
    if not 0.0 <= b["bound"] <= b["sample_mean"]:
        errors.append(f"{name}: bound {b['bound']} not in [0, sample_mean {b['sample_mean']}]")
    return errors


def _z_error(label: str, estimate: float, exact: float, se: float) -> list[str]:
    if abs(estimate - exact) > POOLED_Z * se + 1e-12:
        return [f"{label}: pooled {estimate:.6g} vs exact {exact:.6g} (se {se:.3g})"]
    return []


class SampleShort(Workload):
    """Many 3-10-event traces: per-trace fixed cost dominates."""

    name = "sample_short"
    unit = "traces"

    def __init__(self, scale):
        super().__init__(scale)
        self.dice_total = self.dice_accepted = 0
        self.expr_runs = 0
        self.expr_weight_sum = 0.0

    def cycle(self, rng):
        s = self.s
        return [
            Call("run.three_dice", ("run", "--model", "three_dice", "--guide", "prior_reject",
                                    "--n", str(s.dice_n), "--seed", _seed(rng), "--workers", "1")),
            Call("bound.expr", ("bound", "--model", "expr", "--depth-cap", str(s.expr_cap),
                                "--hypothesis", "--n", str(s.expr_n), "--seed", _seed(rng),
                                "--workers", "1")),
        ]

    def builds(self):
        return [("three_dice", "prior_reject", {"ceiling": None}),
                ("expr", "prior", {"ceiling": None, "depth_cap": self.s.expr_cap})]

    def counts(self, call, r):
        if call.kind == "run.three_dice":
            return {"work": r["n_total"], "events": r["total_events"]}
        h = r["hypothesis"]
        return {"work": h["numerator_bound"]["n"] + h["denominator_bound"]["n"]}

    def check(self, call, r):
        if call.kind == "run.three_dice":
            errors = []
            if r["n_total"] != self.s.dice_n:
                errors.append(f"n_total {r['n_total']} != {self.s.dice_n}")
            if not 0 < r["n_accepted"] <= r["n_total"]:
                errors.append(f"n_accepted {r['n_accepted']} out of range")
            return errors
        h = r["hypothesis"]
        return (_check_bound("evidence_bound", r["evidence_bound"], self.s.expr_n)
                + _check_bound("numerator_bound", h["numerator_bound"], self.s.expr_n)
                + _check_bound("denominator_bound", h["denominator_bound"], self.s.expr_n))

    def add(self, call, r):
        if call.kind == "run.three_dice":
            self.dice_total += r["n_total"]
            self.dice_accepted += r["n_accepted"]
        else:
            b = r["evidence_bound"]
            self.expr_runs += b["n"]
            self.expr_weight_sum += b["sample_mean"] * b["n"]

    def pooled_errors(self):
        errors = []
        if self.dice_total:
            # prior_reject accepts exactly the runs whose evidence holds,
            # each with one-run free energy 0, so adjusted FE = -ln A.
            p = DICE_EVIDENCE
            se = math.sqrt((1 - p) / (self.dice_total * p))
            acc = self.dice_accepted / self.dice_total
            fe = -math.log(acc) if acc > 0 else math.inf
            errors += _z_error("three_dice adjusted FE", fe, math.log(1 / p), se)
        if self.expr_runs:
            p = self.s.expr_evidence
            se = math.sqrt(p * (1 - p) / self.expr_runs)
            errors += _z_error("expr evidence", self.expr_weight_sum / self.expr_runs, p, se)
        return errors

    def named_metrics(self, records):
        runs = [r for r in records if r.call.kind == "run.three_dice"]
        return {
            "traces_per_s": (_rate(sum(r.counts["work"] for r in records), records), "1/s", "all calls"),
            # bound does not report its event count, so events use the run calls alone
            "events_per_s": (_rate(sum(r.counts["events"] for r in runs), runs), "1/s",
                             f"{len(runs)} run calls"),
        }


class SampleLong(Workload):
    """Few traces of thousands of events: per-event cost dominates."""

    name = "sample_long"
    unit = "events"
    pattern = "aba"
    alphabet = 2

    def __init__(self, scale):
        super().__init__(scale)
        self.runs = 0
        self.weight_sum = 0.0

    @property
    def events_per_trace(self) -> int:
        return self.s.monkey_length + 1  # every character choice, then one evidence call

    @property
    def planted_weight(self) -> float:
        """The only nonzero importance weight pattern_insert can produce:
        (length - m + 1) / alphabet**m, when the planted copy of the
        pattern is its first occurrence."""
        m = len(self.pattern)
        return (self.s.monkey_length - m + 1) / self.alphabet**m

    def _args(self, rng):
        return ("--model", "monkey", "--guide", "pattern_insert",
                "--length", str(self.s.monkey_length), "--seed", _seed(rng), "--workers", "1")

    def cycle(self, rng):
        return [
            Call("bound.monkey", ("bound", *self._args(rng), "--n", str(self.s.monkey_n))),
            Call("trace.monkey", ("trace", *self._args(rng))),
        ]

    def builds(self):
        return [("monkey", "pattern_insert", {"ceiling": None, "length": self.s.monkey_length})]

    def counts(self, call, r):
        if call.kind == "trace.monkey":
            return {"work": len(r["events"]), "traces": 1}
        n = r["evidence_bound"]["n"]
        return {"work": n * self.events_per_trace, "traces": n}

    def check(self, call, r):
        if call.kind == "trace.monkey":
            errors = []
            if r["status"] != "completed":
                errors.append(f"trace status {r['status']}")
                return errors
            if len(r["events"]) != self.events_per_trace:
                errors.append(f"{len(r['events'])} events != {self.events_per_trace}")
            fe = math.fsum(e["fe"] for e in r["events"])
            if not math.isfinite(r["one_run_fe"]) or abs(fe - r["one_run_fe"]) > 1e-6 * max(1.0, abs(fe)):
                errors.append(f"per-event fe sums to {fe}, one_run_fe is {r['one_run_fe']}")
            return errors
        b = r["evidence_bound"]
        errors = _check_bound("evidence_bound", b, self.s.monkey_n)
        k = b["sample_mean"] * b["n"] / self.planted_weight
        if abs(k - round(k)) > 1e-6:
            errors.append(f"weight sum {b['sample_mean'] * b['n']} is not a multiple of {self.planted_weight}")
        return errors

    def add(self, call, r):
        if call.kind == "bound.monkey":
            b = r["evidence_bound"]
            self.runs += b["n"]
            self.weight_sum += b["sample_mean"] * b["n"]

    def pooled_errors(self):
        if not self.runs:
            return []
        from guidedppl.models import monkey_evidence_dp

        p = monkey_evidence_dp(self.alphabet, self.s.monkey_length, self.pattern)
        # Weights are 0 or c with mean p, so their variance is c*p - p**2.
        se = math.sqrt(max(self.planted_weight * p - p * p, 0.0) / self.runs)
        return _z_error("monkey importance-weight mean", self.weight_sum / self.runs, p, se)

    def named_metrics(self, records):
        return {
            "traces_per_s": (_rate(sum(r.counts["traces"] for r in records), records), "1/s", "all calls"),
            "events_per_s": (_rate(sum(r.counts["work"] for r in records), records), "1/s", "all calls"),
        }


class Oracle(Workload):
    """Exact enumeration of expr with a guide: enumerate_paths and the
    guide replays do the work, run_trace does none."""

    name = "oracle"
    unit = "paths"
    ceiling = "10"  # any finite ceiling rejects every path whose evidence fails

    def _args(self, rng):
        return ("oracle", "--model", "expr", "--depth-cap", str(self.s.expr_cap),
                "--guide", "prior", "--seed", _seed(rng), "--workers", "1")

    def cycle(self, rng):
        return [
            Call("oracle.prior", self._args(rng)),
            Call("oracle.ceiling", (*self._args(rng), "--ceiling", self.ceiling)),
        ]

    def builds(self):
        cap = self.s.expr_cap
        return [("expr", "prior", {"ceiling": None, "depth_cap": cap}),
                ("expr", "prior", {"ceiling": float(self.ceiling), "depth_cap": cap})]

    def counts(self, call, r):
        return {"work": r["paths"]}

    def check(self, call, r):
        errors = []
        p = self.s.expr_evidence
        if r["paths"] != self.s.expr_paths:
            errors.append(f"paths {r['paths']} != {self.s.expr_paths}")
        if abs(r["evidence"] - p) > 1e-12:
            errors.append(f"evidence {r['evidence']} != {p}")
        g = r["guide"]
        if call.kind == "oracle.prior":
            if abs(g["acceptance_rate"] - 1.0) > 1e-9:
                errors.append(f"prior acceptance {g['acceptance_rate']} != 1")
        else:
            # The ceiling keeps exactly the paths whose evidence holds,
            # each with free energy 0.
            if abs(g["acceptance_rate"] - p) > 1e-12:
                errors.append(f"ceiling acceptance {g['acceptance_rate']} != {p}")
            if abs(g["adjusted_fe"] + math.log(p)) > 1e-9:
                errors.append(f"ceiling adjusted_fe {g['adjusted_fe']} != {-math.log(p)}")
        return errors

    def named_metrics(self, records):
        return {
            "oracle_s": (_median_s(records), "s", f"median of {len(records)} calls"),
            "paths_per_s": (_rate(sum(r.counts["work"] for r in records), records), "1/s", ""),
        }


class Search(Workload):
    """CRN hill climbing: the same seeds re-run under guides that differ
    in one table cell."""

    name = "search"
    unit = "evaluations"

    def cycle(self, rng):
        s = self.s
        return [
            Call("optimize.three_dice", ("optimize", "--model", "three_dice",
                                         "--budget", str(s.dice_budget), "--eval-n", str(s.dice_eval_n),
                                         "--margin", "0.05", "--seed", _seed(rng), "--workers", "1")),
            Call("optimize.expr", ("optimize", "--model", "expr", "--depth-cap", str(s.expr_cap),
                                   "--budget", str(s.expr_budget), "--k", "0.02",
                                   "--eval-n", str(s.expr_eval_n), "--margin", "0.05",
                                   "--seed", _seed(rng), "--workers", "1")),
        ]

    def builds(self):
        return [("three_dice", None, {"ceiling": None}),
                ("expr", None, {"ceiling": None, "depth_cap": self.s.expr_cap})]

    def counts(self, call, r):
        return {"work": r["evaluations"]}

    def check(self, call, r):
        budget = self.s.dice_budget if call.kind == "optimize.three_dice" else self.s.expr_budget
        errors = []
        if r["evaluations"] != budget:
            errors.append(f"evaluations {r['evaluations']} != budget {budget}")
        utilities = [u for _, u in r["utility_trace"]]
        if any(b > a for a, b in zip(utilities, utilities[1:])):
            errors.append("utility trace is not non-increasing")
        # +inf is a valid utility: no CRN run was accepted.
        if r["best_utility"] != utilities[-1]:
            errors.append(f"best_utility {r['best_utility']} != last trace entry {utilities[-1]}")
        return errors

    def named_metrics(self, records):
        return {
            "search_s": (_median_s(records), "s", f"median of {len(records)} calls"),
            "evals_per_s": (_rate(sum(r.counts["work"] for r in records), records), "1/s", ""),
        }


WORKLOADS = {w.name: w for w in (SampleShort, SampleLong, Oracle, Search)}


def make(name: str, scale: str = "full") -> Workload:
    return WORKLOADS[name](SCALES[scale])
