"""Command-line front end.

Subcommands: ``run`` (sample guided traces and report the free-energy
estimate), ``oracle`` (exact quantities by enumeration), ``bound``
(evidence / hypothesis lower bounds), ``optimize`` (guide-table search),
and ``trace`` (dump one trace with its per-event free-energy
contributions).

Every invocation emits a single JSON document; all randomness derives
from ``--seed``, and floats are serialized with 17 significant digits so
identical invocations produce byte-identical output (with ``--workers
1``; more workers only split the seed range into chunks, which are
merged back in order).

Results are the result types themselves, through ``dataclasses.asdict``:
``run`` emits a ``FreeEnergyEstimate``, ``bound`` a ``LowerBoundResult``
or, with ``--hypothesis``, a ``HypothesisEstimate``, and ``oracle
--guide`` a ``GuidedSamplingProfile``; each type's field order is the
CLI's JSON key order.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from functools import partial
from typing import Optional

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
# deterministic JSON


def _format_float(x: float) -> str:
    if math.isfinite(x):
        return format(x, ".17g")
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


class _Escapes(dict):
    """The `_escape` of each string, computed on its first lookup: one
    `dumps` call escapes a string that repeats (each event of a long
    trace has the same keys) once."""

    def __missing__(self, s: str) -> str:
        text = self[s] = _escape(s)
        return text


def _emit(value, indent: int, out: list, escaped: _Escapes) -> None:
    kind = type(value)  # the exact types first: they are nearly every value of a long trace
    if kind is float:
        out.append(_format_float(value))
    elif kind is int:
        out.append(str(value))
    elif value is None:
        out.append("null")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_format_float(float(value)))
    elif isinstance(value, str):  # a str subclass (np.str_) escapes as the equal str does
        out.append(escaped[value])
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = "  " * (indent + 1)
        sep = "{\n"
        for k, v in value.items():
            key = escaped[str(k)]
            kind = type(v)  # a float, str or int value inline, as `_emit` would write it
            if kind is float:
                out.append(f"{sep}{inner}{key}: {_format_float(v)}")
            elif kind is str:
                out.append(f"{sep}{inner}{key}: {escaped[v]}")
            elif kind is int:
                out.append(f"{sep}{inner}{key}: {v}")
            else:
                out.append(f"{sep}{inner}{key}: ")
                _emit(v, indent + 1, out, escaped)
            sep = ",\n"
        out.append("\n" + "  " * indent + "}")
    elif isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            out.append("[]")
            return
        inner = "  " * (indent + 1)
        sep = "[\n"
        for v in items:
            out.append(sep + inner)
            _emit(v, indent + 1, out, escaped)
            sep = ",\n"
        out.append("\n" + "  " * indent + "]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


# What `_escape` rewrites: a quote, a backslash or a control character below 0x20.
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _escape(s: str) -> str:
    if _NEEDS_ESCAPE.search(s) is None:
        return '"' + s + '"'
    parts = ['"']
    for ch in s:
        if ch == '"':
            parts.append('\\"')
        elif ch == "\\":
            parts.append("\\\\")
        elif ch == "\n":
            parts.append("\\n")
        elif ch == "\t":
            parts.append("\\t")
        elif ch == "\r":
            parts.append("\\r")
        elif ord(ch) < 0x20:
            parts.append(f"\\u{ord(ch):04x}")
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)


def dumps(doc) -> str:
    out: list[str] = []
    _emit(doc, 0, out, _Escapes())
    return "".join(out)


# ---------------------------------------------------------------------------
# model and guide resolution


class UsageError(Exception):
    """Unknown model or guide name, or a file that cannot be read or
    written (exit code 2)."""


def _guide_config(args) -> dict:
    if args.ceiling is not None and math.isnan(args.ceiling):
        raise ValueError("ceiling must be a number, got NaN")
    cfg = {"ceiling": args.ceiling, "alphabet": args.alphabet, "length": args.length,
           "pattern": args.pattern, "depth_cap": args.depth_cap}
    if args.params:
        cfg["params"] = _load_params(args.params)
    return cfg


def _load_params(path: str) -> dict:
    import json

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
    kwargs = {k: cfg[k] for k in entry.model_args if cfg.get(k) is not None}
    return entry, entry.build(**kwargs)


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


def _stats_chunk(model_name: str, guide_name: str, cfg: dict, seeds, max_events: int) -> BatchStats:
    entry, model = build_model(model_name, cfg)
    guide = build_guide(entry, guide_name, cfg)
    return batch_stats(model, guide, seeds, max_events=max_events)


def _collect_stats(args, stream: int, guide_name: Optional[str] = None) -> BatchStats:
    chunk_stats = partial(_stats_chunk, args.model, guide_name or args.guide, _guide_config(args),
                          max_events=args.max_events)
    seeds = derive_seeds(args.seed, args.n, stream=stream)
    workers = max(1, args.workers)
    if workers == 1:
        return chunk_stats(seeds)
    chunks = [c for c in np.array_split(seeds, workers) if len(c)]
    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        return merge_batch_stats(list(pool.map(chunk_stats, chunks)))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_run(args, notes: list) -> dict:
    stats = _collect_stats(args, stream=0)
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
            key = _format_float(float(h))
            hist[key] = hist.get(key, 0.0) + float(w)
    return {k: hist[k] / total for k in sorted(hist, key=float)}


def _cmd_oracle(args, notes: list) -> dict:
    cfg = _guide_config(args)
    entry, model = build_model(args.model, cfg)
    pe = enumerate_paths(model, max_paths=args.max_paths, max_events=args.max_events)
    evidence = exact_evidence(pe)
    results = {"paths": len(pe.entries), "evidence": evidence, "crash_mass": pe.crash_mass(),
               "conditional_h": exact_conditional_expectation(pe) if evidence > 0.0 else None}
    if args.model == "monkey":
        results["dp_evidence"] = monkey_evidence_dp(args.alphabet, args.length, args.pattern)
    if args.guide is not None:
        results["guide"] = asdict(exact_guided_profile(pe, build_guide(entry, args.guide, cfg)))
    return results


def _cmd_bound(args, notes: list) -> dict:
    check_delta(args.delta)
    den_stats = _collect_stats(args, stream=2 if args.hypothesis else 0)
    if not args.hypothesis:
        return {"evidence_bound": asdict(lower_confidence_bound(den_stats.weight_evidence, args.delta))}
    num_stats = _collect_stats(args, stream=1, guide_name=args.guide_num or args.guide)
    est = asdict(hypothesis_estimate_from_stats(num_stats, den_stats, args.delta))
    notes.append("ratio_of_bounds is an estimate of the conditional expectation, not a bound")
    return {"evidence_bound": est["denominator_bound"], "hypothesis": est}


def _cmd_optimize(args, notes: list) -> dict:
    cfg = _guide_config(args)
    entry, model = build_model(args.model, cfg)
    if entry.family is None:
        raise UsageError(f"model {entry.name!r} has no tabular guide family to optimize")
    family = entry.family(ceiling=args.ceiling)
    report = optimize_guide(
        model,
        family,
        UtilityConfig(k=args.k),
        budget=args.budget,
        seed=args.seed,
        n=args.eval_n,
        sigma=args.sigma,
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
    cfg = _guide_config(args)
    entry, model = build_model(args.model, cfg)
    guide = build_guide(entry, args.guide, cfg)
    t = run_trace(model, guide, args.seed, max_events=args.max_events)
    events = []
    for kind, index, label, fe in t.per_event_fe:
        item = {"kind": kind, "index": index, "label": label, "fe": fe}
        if kind == "choose":
            rec = t.choices[index]
            item["chosen"] = rec.chosen
            item["prior_mass"] = math.exp(rec.log_prior)
            item["guide_mass"] = math.exp(rec.log_guide)
        events.append(item)
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
                       help="processes to split the seeds across (run and bound only; "
                            "oracle, optimize and trace run in one process)")
        p.add_argument("--depth-cap", dest="depth_cap", type=int, default=3)
        p.add_argument("--alphabet", type=int, default=2)
        p.add_argument("--length", type=int, default=12)
        p.add_argument("--pattern", default="aba")
        p.add_argument("--params", default=None, help="guide parameter file (JSON)")
        p.add_argument("--max-events", dest="max_events", type=int, default=DEFAULT_MAX_EVENTS)
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
    p_opt.add_argument("--sigma", type=float, default=1.0)
    p_opt.add_argument("--margin", type=float, default=0.0,
                       help="required utility improvement for a step to be accepted")
    p_opt.add_argument("--save-params", dest="save_params", default=None)

    p_trace = sub.add_parser("trace", help="dump one trace with per-event fe contributions")
    common(p_trace, with_n=False)
    p_trace.set_defaults(handler=_cmd_trace)

    return parser


_CONFIG_KEYS = (
    "model", "guide", "guide_num", "n", "delta", "seed", "ceiling", "k", "workers",
    "budget", "eval_n", "sigma", "margin", "depth_cap", "alphabet", "length",
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
