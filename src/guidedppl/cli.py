"""Command-line front end.

Subcommands: ``run`` (sample guided traces and report the free-energy
estimate), ``oracle`` (exact quantities by enumeration), ``bound``
(evidence / hypothesis lower bounds), ``optimize`` (guide-table search),
and ``trace`` (dump one trace with its per-event free-energy
contributions).

Every invocation emits a single JSON document on one line, written by
the standard ``json`` encoder: floats in their shortest round-trip form,
so they parse back exactly.  All randomness derives from ``--seed``, so
identical invocations produce byte-identical output (more ``--workers``
only split the seed range into chunks, at most one per CPU, which are
merged back in order).
``python -m json.tool`` indents a document for reading.

Results are the result types themselves, through ``dataclasses.asdict``:
``run`` emits a ``FreeEnergyEstimate``, ``bound`` a ``LowerBoundResult``
or, with ``--hypothesis``, a ``HypothesisEstimate``, and ``oracle
--guide`` a ``GuidedSamplingProfile``; each type's field order is the
CLI's JSON key order.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from functools import partial

import numpy as np

from .enumeration import (
    DEFAULT_MAX_PATHS,
    ConditioningOnNullError,
    EnumerationCapError,
    ExtraChoicesUnsupportedError,
    enumerate_paths,
    exact_conditional_expectation,
    exact_evidence,
    exact_guided_profile,
)
from .estimators import (
    BatchStats,
    NoAcceptedRunsError,
    UndefinedRatioError,
    batch_stats,
    check_delta,
    estimate_from_batch,
    hypothesis_estimate_from_stats,
    lower_confidence_bound,
    merge_batch_stats,
)
from .guideopt import UtilityConfig, optimize_guide
from .models import MODELS, monkey_evidence_dp
from .runtime import DEFAULT_MAX_EVENTS, RunStatus, derive_seeds, run_trace

_HANDLED_ERRORS = (
    NoAcceptedRunsError,
    UndefinedRatioError,
    ConditioningOnNullError,
    EnumerationCapError,
    ExtraChoicesUnsupportedError,
    ValueError,  # the package's other errors derive from it
)


# ---------------------------------------------------------------------------
# JSON output


def _plain(value):
    """A numpy scalar or array as the Python value `json` can write."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(doc) -> str:
    """`doc` as one line of JSON: floats in shortest round-trip form, NaN
    and the infinities as ``NaN``/``Infinity``/``-Infinity``, non-ASCII
    text unescaped."""
    return json.dumps(doc, ensure_ascii=False, default=_plain)


# ---------------------------------------------------------------------------
# model and guide resolution


class UsageError(Exception):
    """Unknown model or guide name, a file that cannot be read or written,
    or an option that the command does not take (exit code 2)."""


def _guide_config(args) -> dict:
    """The model and guide options; every command reads them, so the
    options that every command shares are checked here."""
    if args.ceiling is not None and math.isnan(args.ceiling):
        raise ValueError("ceiling must be a number, got NaN")
    if args.max_events < 1:  # a cap that every run exceeds would read as rejected runs
        raise ValueError(f"--max-events must be at least 1, got {args.max_events}")
    if args.workers < 1:
        raise ValueError(f"--workers must be at least 1, got {args.workers}")
    cfg = {"ceiling": args.ceiling, "alphabet": args.alphabet, "length": args.length,
           "pattern": args.pattern, "depth_cap": args.depth_cap}
    if args.params:
        cfg["params"] = _load_params(args.params)
    return cfg


def _load_params(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read guide parameter file {path}: {exc.strerror or exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"guide parameter file {path} must hold a JSON object")
    for k, v in raw.items():  # the bound rejects NaN, the infinities and ints past the float range
        if not isinstance(v, list) or not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in v):
            raise ValueError(f"guide parameter file {path}: {k!r} must map to a list of numbers")
    return {k: [float(x) for x in v] for k, v in raw.items()}


def _write_file(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {what} {path}: {exc.strerror or exc}") from None


def build_model(model_name: str, cfg: dict):
    entry = MODELS.get(model_name)
    if entry is None:
        raise UsageError(f"unknown model {model_name!r}; known: {', '.join(sorted(MODELS))}")
    return entry, entry.build(**cfg)


def build_guide(entry, guide_name: str, cfg: dict):
    if guide_name == "tabular":
        if entry.family is None:
            raise UsageError(f"model {entry.name!r} has no tabular guide family")
        family = entry.family(ceiling=cfg.get("ceiling"))
        return family.bind(cfg.get("params") or {})
    factory = entry.guides.get(guide_name)
    if factory is None:
        known = ", ".join(sorted([*entry.guides, *(["tabular"] if entry.family else [])]))
        raise UsageError(f"unknown guide {guide_name!r} for model {entry.name!r}; known: {known}")
    return factory(**cfg)


def _build(args, *guide_names):
    """The model and a guide per name (None for a name of None)."""
    cfg = _guide_config(args)
    entry, model = build_model(args.model, cfg)
    return model, *(None if name is None else build_guide(entry, name, cfg) for name in guide_names)


def _collect_stats(args, model, guide, stream: int) -> BatchStats:
    """The batch of `args.n` runs on seed stream `stream`, split into at
    most one chunk per CPU.  A single chunk runs in this process; else each
    worker process runs a pickled copy of `model` and `guide`."""
    chunk_stats = partial(batch_stats, model, guide, max_events=args.max_events)
    seeds = derive_seeds(args.seed, args.n, stream=stream)
    chunks = [c for c in np.array_split(seeds, min(args.workers, os.cpu_count() or 1)) if len(c)]
    if len(chunks) == 1:
        return chunk_stats(chunks[0])
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return merge_batch_stats(list(pool.map(chunk_stats, chunks)))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_run(args, notes: list) -> dict:
    model, guide = _build(args, args.guide)
    stats = _collect_stats(args, model, guide, stream=0)
    results = asdict(estimate_from_batch(stats))
    if args.report_hypothesis_histogram:
        results["hypothesis_histogram"] = _weighted_histogram(stats)
    return results


def _weighted_histogram(stats: BatchStats) -> dict:
    total = float(stats.weight_evidence.sum())
    if total <= 0.0:
        return {}
    hist: dict[str, float] = {}
    for h, w in zip(stats.hypothesis, stats.weight_evidence):
        if w > 0.0:
            key = repr(float(h))
            hist[key] = hist.get(key, 0.0) + float(w)
    return {k: hist[k] / total for k in sorted(hist, key=float)}


def _cmd_oracle(args, notes: list) -> dict:
    model, guide = _build(args, args.guide)
    pe = enumerate_paths(model, max_paths=args.max_paths, max_events=args.max_events)
    evidence = exact_evidence(pe)
    results = {"paths": len(pe.n_events) - len(pe.crash_reasons), "evidence": evidence, "crash_mass": pe.crash_mass(),
               "conditional_h": exact_conditional_expectation(pe) if evidence > 0.0 else None}
    if args.model == "monkey":
        results["dp_evidence"] = monkey_evidence_dp(args.alphabet, args.length, args.pattern)
    if guide is not None:
        results["guide"] = asdict(exact_guided_profile(pe, guide))
    return results


def _cmd_bound(args, notes: list) -> dict:
    if args.guide_num is not None and not args.hypothesis:
        raise UsageError("--guide-num applies only with --hypothesis")
    check_delta(args.delta)
    # With --hypothesis both guides are built, so both names resolved, before the first batch.
    model, guide, guide_num = _build(args, args.guide, (args.guide_num or args.guide) if args.hypothesis else None)
    den_stats = _collect_stats(args, model, guide, stream=2 if args.hypothesis else 0)
    if not args.hypothesis:
        return {"evidence_bound": asdict(lower_confidence_bound(den_stats.weight_evidence, args.delta))}
    num_stats = _collect_stats(args, model, guide_num, stream=1)
    est = asdict(hypothesis_estimate_from_stats(num_stats, den_stats, args.delta))
    notes.append("ratio_of_bounds is an estimate of the conditional expectation, not a bound")
    return {"evidence_bound": est["denominator_bound"], "hypothesis": est}


def _cmd_optimize(args, notes: list) -> dict:
    if args.params is not None:
        raise UsageError("optimize searches from the empty table; --params does not apply")
    model, table = _build(args, "tabular")
    report = optimize_guide(
        model,
        table.family,
        UtilityConfig(k=args.k),
        budget=args.budget,
        seed=args.seed,
        n=args.eval_n,
        accept_margin=args.margin,
        max_events=args.max_events,
    )
    best_params = {k: list(v) for k, v in sorted(report.best_params.items())}
    if args.save_params:
        _write_file(args.save_params, dumps(best_params) + "\n", "guide parameter file")
    return {
        "best_utility": report.best_utility,
        "evaluations": report.evaluations,
        "utility_trace": report.utility_trace,
        "best_params": best_params,
        "cell_mean_fe": report.cell_mean_fe,
    }


def _cmd_trace(args, notes: list) -> dict:
    model, guide = _build(args, args.guide)
    t = run_trace(model, guide, args.seed, max_events=args.max_events)
    # Each event's dict straight from the trace's columns; no `ChoiceRecord` or `EventFE` is built.
    chosen = [
        {"kind": "choose", "index": i, "label": label, "fe": log_guide - log_prior, "chosen": value,
         "prior_mass": prior_mass, "guide_mass": guide_mass}
        for i, (label, log_prior, log_guide, value, prior_mass, guide_mass) in enumerate(zip(
            t._labels, t._log_priors, t._log_guides, t.values, map(math.exp, t._log_priors),
            map(math.exp, t._log_guides)))
    ]
    events = t._in_event_order(chosen, [{"kind": "evidence", "index": j, "label": None, "fe": fe}
                                        for j, fe in enumerate(t._evidence_fe)])
    extras = [
        {
            "index": x.index,
            "chosen": x.chosen,
            "guide_mass": math.exp(x.log_guide),
            "conditional_log_mass": x.log_model_conditional,
        }
        for x in t.extras
    ]
    return {
        "status": t.status.value,
        "crash_reason": t.crash_reason,
        "hypothesis": t.hypothesis,
        "log_evidence": t.log_evidence,
        "log_prior": t.log_prior_total,
        "log_guide": t.log_guide_total,
        "one_run_fe": t.fe_total if t.status is RunStatus.COMPLETED else None,
        "events": events,
        "extras": extras,
    }


# ---------------------------------------------------------------------------
# argument parsing and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="guidedppl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_guide=True, with_n=True):
        p.add_argument("--model", required=True)
        if with_guide:
            p.add_argument("--guide", default="prior")
        if with_n:
            p.add_argument("--n", type=int, default=1000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--ceiling", type=float, default=None)
        p.add_argument("--workers", type=int, default=1,
                       help="processes to split the seeds across, at most one per CPU (run and "
                            "bound only; oracle, optimize and trace run in one process)")
        p.add_argument("--depth-cap", dest="depth_cap", type=int, default=3)
        p.add_argument("--alphabet", type=int, default=2)
        p.add_argument("--length", type=int, default=12)
        p.add_argument("--pattern", default="aba")
        p.add_argument("--params", default=None, help="guide parameter file (JSON)")
        p.add_argument("--max-events", dest="max_events", type=int, default=DEFAULT_MAX_EVENTS,
                       help="a run that makes more choose, evidence and extra-choice calls is a crash")
        p.add_argument("--output", default=None)

    p_run = sub.add_parser("run", help="sample guided traces; report the free-energy estimate")
    common(p_run)
    p_run.set_defaults(handler=_cmd_run)
    p_run.add_argument("--report-hypothesis-histogram", action="store_true",
                       dest="report_hypothesis_histogram")

    p_oracle = sub.add_parser("oracle", help="exact quantities by path enumeration")
    common(p_oracle, with_guide=False, with_n=False)
    p_oracle.set_defaults(handler=_cmd_oracle)
    p_oracle.add_argument("--guide", default=None)
    p_oracle.add_argument("--max-paths", dest="max_paths", type=int, default=DEFAULT_MAX_PATHS)

    p_bound = sub.add_parser("bound", help="lower confidence bounds on evidence / hypothesis sums")
    common(p_bound)
    p_bound.set_defaults(handler=_cmd_bound)
    p_bound.add_argument("--delta", type=float, default=0.05)
    p_bound.add_argument("--hypothesis", action="store_true")
    p_bound.add_argument("--guide-num", dest="guide_num", default=None)

    p_opt = sub.add_parser("optimize", help="search the model's tabular guide family")
    common(p_opt, with_guide=False, with_n=False)
    p_opt.set_defaults(handler=_cmd_optimize)
    p_opt.add_argument("--budget", type=int, default=500)
    p_opt.add_argument("--k", type=float, default=0.0)
    p_opt.add_argument("--eval-n", dest="eval_n", type=int, default=300)
    p_opt.add_argument("--margin", type=float, default=0.0,
                       help="required utility improvement for a step to be accepted")
    p_opt.add_argument("--save-params", dest="save_params", default=None)

    p_trace = sub.add_parser("trace", help="dump one trace with per-event fe contributions")
    common(p_trace, with_n=False)
    p_trace.set_defaults(handler=_cmd_trace)

    return parser


_CONFIG_KEYS = (
    "model", "guide", "guide_num", "n", "delta", "seed", "ceiling", "k", "workers",
    "budget", "eval_n", "margin", "depth_cap", "alphabet", "length",
    "pattern", "params", "max_events", "max_paths", "hypothesis",
    "report_hypothesis_histogram", "save_params", "output",
)


def _config_echo(args) -> dict:
    return {k: getattr(args, k) for k in _CONFIG_KEYS if hasattr(args, k)}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    notes: list[str] = []
    doc = {"command": args.command, "config": _config_echo(args)}
    code = 0
    try:
        try:
            doc["results"] = args.handler(args, notes)
        except _HANDLED_ERRORS as exc:
            doc["error"] = {"type": type(exc).__name__, "message": str(exc)}
            if isinstance(exc, UndefinedRatioError):
                doc["error"]["partial"] = asdict(exc.partial)
                del doc["error"]["partial"]["ratio_of_bounds"]  # always None here
            code = 1
        doc["stderr_notes"] = notes
        text = dumps(doc) + "\n"
        if args.output:  # before stdout, so that a write error leaves stdout empty
            _write_file(args.output, text, "output file")
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
