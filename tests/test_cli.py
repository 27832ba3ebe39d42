import argparse
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guidedppl import PriorGuide, Trace, batch_stats, derive_seeds, lower_confidence_bound
from guidedppl import cli
from guidedppl.cli import main
from guidedppl.models import three_dice

from helpers import DICE_FE_TARGET


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace `ProcessPoolExecutor` with a stand-in that maps the chunks
    in this process, passing the function and each chunk through `pickle`
    as a process pool does; the list holds each pool's `max_workers`."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return [pickle.loads(pickle.dumps(fn))(pickle.loads(pickle.dumps(c))) for c in chunks]

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    return sizes


class TestOracleCommand:
    def test_three_dice_golden_values(self, capsys):
        code, doc = invoke_json(capsys, "oracle", "--model", "three_dice")
        assert code == 0
        assert doc["command"] == "oracle"
        assert doc["results"]["paths"] == 216
        assert doc["results"]["evidence"] == pytest.approx(15 / 216, abs=1e-12)
        assert doc["results"]["conditional_h"] == pytest.approx(1 / 15, abs=1e-12)

    def test_crash_mass_is_reported(self, capsys):
        code, doc = invoke_json(capsys, "oracle", "--model", "expr", "--depth-cap", "2")
        assert code == 0
        assert doc["results"]["crash_mass"] == 0

    def test_guide_report_included(self, capsys):
        code, doc = invoke_json(
            capsys, "oracle", "--model", "three_dice", "--guide", "posterior"
        )
        assert code == 0
        g = doc["results"]["guide"]
        assert g["free_energy"] == pytest.approx(DICE_FE_TARGET, abs=1e-9)
        assert g["kl"] == pytest.approx(0.0, abs=1e-9)
        assert g["acceptance_rate"] == pytest.approx(1.0, abs=1e-12)

    def test_monkey_reports_dp_evidence(self, capsys):
        code, doc = invoke_json(
            capsys, "oracle", "--model", "monkey", "--length", "8", "--pattern", "aba"
        )
        assert code == 0
        # The automaton value is exact; enumeration goes through logs.
        assert doc["results"]["evidence"] == pytest.approx(
            doc["results"]["dp_evidence"], abs=1e-12
        )

    def test_zero_evidence_reports_null_conditional(self, capsys):
        code, doc = invoke_json(
            capsys, "oracle", "--model", "monkey", "--length", "4", "--pattern", "aaaaa"
        )
        assert code == 0
        assert doc["results"]["evidence"] == 0.0
        assert doc["results"]["conditional_h"] is None


class TestRunCommand:
    def test_posterior_guide_run(self, capsys):
        code, doc = invoke_json(
            capsys, "run", "--model", "three_dice", "--guide", "posterior",
            "--n", "500", "--seed", "7",
        )
        assert code == 0
        r = doc["results"]
        assert r["adjusted_fe"] == pytest.approx(DICE_FE_TARGET, abs=1e-9)
        assert r["std_error"] <= 1e-12
        assert r["n_accepted"] == 500

    def test_hypothesis_histogram(self, capsys):
        code, doc = invoke_json(
            capsys, "run", "--model", "three_dice", "--guide", "posterior",
            "--n", "400", "--seed", "3", "--report-hypothesis-histogram",
        )
        hist = doc["results"]["hypothesis_histogram"]
        assert set(hist) == {"0.0", "1.0"}
        assert sum(hist.values()) == pytest.approx(1.0, abs=1e-9)
        assert hist["1.0"] == pytest.approx(1 / 15, abs=0.05)

    def test_hypothesis_histogram_without_evidence_weight_is_empty(self, capsys):
        # No run of 2 characters holds "aba", so every evidence weight is 0.
        code, doc = invoke_json(capsys, "run", "--model", "monkey", "--length", "2", "--pattern", "aba",
                                "--report-hypothesis-histogram", "--n", "20")
        assert code == 0
        assert doc["results"]["hypothesis_histogram"] == {}

    def test_workers_do_not_change_results(self, capsys):
        _, solo = invoke_json(
            capsys, "run", "--model", "three_dice", "--guide", "prior_reject",
            "--n", "600", "--seed", "9",
        )
        _, multi = invoke_json(
            capsys, "run", "--model", "three_dice", "--guide", "prior_reject",
            "--n", "600", "--seed", "9", "--workers", "3",
        )
        assert solo["results"] == multi["results"]
        bound = ("bound", "--model", "three_dice", "--guide", "prior_reject", "--guide-num",
                 "die1_is_5", "--n", "600", "--seed", "5", "--hypothesis")
        _, solo = invoke_json(capsys, *bound)
        _, multi = invoke_json(capsys, *bound, "--workers", "3")
        assert solo["results"] == multi["results"]

    @pytest.mark.parametrize("cpus, pools", [(None, []), (1, []), (2, [2]), (3, [3])])
    def test_workers_are_capped_at_the_cpu_count(self, capsys, monkeypatch, pool_sizes, cpus, pools):
        # `--workers 8` started 8 processes on 2 CPUs, slower than 2.
        argv = ("run", "--model", "three_dice", "--guide", "prior_reject", "--n", "600", "--seed", "9")
        _, solo = invoke_json(capsys, *argv)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        _, many = invoke_json(capsys, *argv, "--workers", "64")
        assert many["results"] == solo["results"]
        assert many["config"]["workers"] == 64
        assert pool_sizes == pools  # a single chunk runs in this process


    @pytest.mark.parametrize("argv", [
        ("bound", "--model", "expr", "--depth-cap", "2", "--hypothesis", "--n", "2000"),
        ("bound", "--model", "monkey", "--guide", "pattern_insert", "--length", "100", "--n", "200"),
        ("run", "--model", "three_dice", "--guide", "tabular", "--n", "400"),
    ], ids=["bound-expr", "bound-monkey", "run-tabular"])
    def test_worker_processes_match_one_process(self, capsys, monkeypatch, tmp_path, argv):
        # Real worker processes, each running a pickled copy of the built model and guide.
        path = tmp_path / "p.json"
        path.write_text('{"die1": [1.0, 0, 0, 0, 0, 0], "die2|1": [0, 2.0, 0, 0, 0]}')
        argv = (*argv, "--seed", "3", "--params", str(path))
        code, solo = invoke_json(capsys, *argv)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code2, pair = invoke_json(capsys, *argv, "--workers", "2")
        assert (code, code2) == (0, 0)
        assert pair["results"] == solo["results"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_model_and_guides_are_built_once_per_command(self, capsys, monkeypatch, tmp_path, pool_sizes, workers):
        # Each chunk of each batch built them again: `bound --hypothesis`
        # built the model 3 times and guides 4 times.
        path = tmp_path / "p.json"
        path.write_text('{"die1": [1.0, 0, 0, 0, 0, 0]}')
        builds = []
        build_model, build_guide = cli.build_model, cli.build_guide
        monkeypatch.setattr(cli, "build_model", lambda *a: builds.append("model") or build_model(*a))
        monkeypatch.setattr(cli, "build_guide", lambda *a: builds.append("guide") or build_guide(*a))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        options = ("--model", "three_dice", "--guide", "tabular", "--params", str(path), "--n", "50",
                   "--workers", workers)
        for argv, want in ((("bound", "--hypothesis"), ["model", "guide", "guide"]), (("run",), ["model", "guide"])):
            builds.clear()
            code, _ = invoke_json(capsys, *argv, *options)
            assert (code, builds) == (0, want)
        assert pool_sizes == ([2, 2, 2] if workers == "2" else [])


class TestBoundCommand:
    def test_evidence_bound_valid(self, capsys):
        code, doc = invoke_json(
            capsys, "bound", "--model", "three_dice", "--guide", "prior",
            "--n", "100", "--delta", "0.05", "--seed", "7",
        )
        assert code == 0
        b = doc["results"]["evidence_bound"]
        assert 0.0 <= b["bound"] <= 15 / 216
        assert b["confidence"] == 0.95
        assert b["n"] == 100

    def test_hypothesis_bounds_and_note(self, capsys):
        code, doc = invoke_json(
            capsys, "bound", "--model", "three_dice", "--guide", "posterior",
            "--guide-num", "die1_is_5", "--n", "400", "--delta", "0.05",
            "--seed", "7", "--hypothesis",
        )
        assert code == 0
        h = doc["results"]["hypothesis"]
        assert h["ratio_of_bounds"] == pytest.approx(1 / 15, abs=1e-9)
        assert abs(h["self_normalized"] - 1 / 15) < 0.05
        assert any("estimate" in note for note in doc["stderr_notes"])

    def test_hypothesis_evidence_bound_is_the_denominator_bound(self, capsys):
        # With --hypothesis the evidence bound comes from the denominator
        # runs (seed stream 2) and equals the hypothesis' denominator bound.
        code, doc = invoke_json(
            capsys, "bound", "--model", "three_dice", "--guide", "prior_reject",
            "--guide-num", "die1_is_5", "--n", "3000", "--delta", "0.1",
            "--seed", "4", "--hypothesis",
        )
        assert code == 0
        stats = batch_stats(three_dice, PriorGuide(ceiling=500.0), derive_seeds(4, 3000, stream=2))
        want = lower_confidence_bound(stats.weight_evidence, 0.1)
        got = doc["results"]["evidence_bound"]
        assert got == doc["results"]["hypothesis"]["denominator_bound"]
        assert (got["bound"], got["sample_mean"], got["sample_se"]) == (want.bound, want.sample_mean, want.sample_se)

    def test_bad_delta_with_hypothesis_is_structured_error(self, capsys):
        code, doc = invoke_json(
            capsys, "bound", "--model", "three_dice", "--guide", "prior",
            "--n", "50", "--delta", "1.5", "--seed", "1", "--hypothesis",
        )
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": "delta must be in (0,1), got 1.5"}
        assert "results" not in doc

    @pytest.mark.parametrize("hypothesis", [(), ("--hypothesis",)])
    def test_bad_delta_is_rejected_before_any_run(self, capsys, monkeypatch, hypothesis):
        def no_sampling(*args, **kwargs):
            raise AssertionError("runs were sampled before --delta was checked")

        monkeypatch.setattr(cli, "_collect_stats", no_sampling)
        code, doc = invoke_json(
            capsys, "bound", "--model", "three_dice", "--guide", "prior",
            "--n", "50", "--delta", "1.5", "--seed", "1", *hypothesis,
        )
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": "delta must be in (0,1), got 1.5"}

    def test_undefined_ratio_is_structured_error(self, capsys):
        code, doc = invoke_json(
            capsys, "bound", "--model", "monkey", "--pattern", "aaaaaaaaaaaaaaa",
            "--guide", "pattern_insert", "--hypothesis", "--n", "50", "--seed", "1",
        )
        assert code == 1
        assert doc["error"]["type"] == "UndefinedRatioError"
        assert doc["error"]["partial"]["denominator_bound"]["bound"] == 0.0


class TestTraceCommand:
    def test_events_decompose_the_free_energy(self, capsys):
        code, doc = invoke_json(
            capsys, "trace", "--model", "three_dice", "--guide", "posterior", "--seed", "3"
        )
        assert code == 0
        r = doc["results"]
        assert r["status"] == "completed"
        assert sum(e["fe"] for e in r["events"]) == pytest.approx(r["one_run_fe"], abs=1e-12)
        assert r["one_run_fe"] == pytest.approx(DICE_FE_TARGET, abs=1e-9)
        kinds = [e["kind"] for e in r["events"]]
        assert kinds == ["choose", "choose", "choose", "evidence"]

    def test_monkey_trace_reports_extras(self, capsys):
        code, doc = invoke_json(
            capsys, "trace", "--model", "monkey", "--guide", "pattern_insert", "--seed", "5"
        )
        assert code == 0
        (extra,) = doc["results"]["extras"]
        assert 0 <= extra["chosen"] <= 9
        assert extra["guide_mass"] == pytest.approx(0.1, abs=1e-12)


class TestOptimizeCommand:
    def test_smoke_and_param_roundtrip(self, capsys, tmp_path):
        params_file = tmp_path / "params.json"
        code, doc = invoke_json(
            capsys, "optimize", "--model", "three_dice", "--budget", "30",
            "--eval-n", "80", "--seed", "4", "--save-params", str(params_file),
        )
        assert code == 0
        assert doc["results"]["evaluations"] == 30
        saved = json.loads(params_file.read_text())
        assert saved == doc["results"]["best_params"]

        code2, doc2 = invoke_json(
            capsys, "run", "--model", "three_dice", "--guide", "tabular",
            "--params", str(params_file), "--ceiling", "30", "--n", "300", "--seed", "8",
        )
        assert code2 == 0
        assert doc2["results"]["n_accepted"] > 0

    def test_model_without_family_exits_2(self, capsys):
        code, out = invoke(capsys, "optimize", "--model", "monkey", "--budget", "5")
        assert code == 2


class TestErrorsAndDeterminism:
    def test_unknown_model_exits_2(self, capsys):
        code, out = invoke(capsys, "run", "--model", "wat", "--n", "5")
        assert code == 2

    def test_unknown_guide_exits_2(self, capsys):
        code, out = invoke(capsys, "run", "--model", "three_dice", "--guide", "wat", "--n", "5")
        assert code == 2

    def test_unknown_oracle_guide_exits_2_before_enumerating(self, capsys, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("the model was enumerated before --guide was resolved")

        monkeypatch.setattr(cli, "enumerate_paths", no_enumeration)
        code = main(["oracle", "--model", "expr", "--depth-cap", "3", "--guide", "nope"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("unknown guide 'nope' for model 'expr'; known: ")

    def test_unknown_numerator_guide_exits_2_before_sampling(self, capsys, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("a batch ran before --guide-num was resolved")

        monkeypatch.setattr(cli, "batch_stats", no_sampling)
        for guides in (["--guide-num", "nope"], ["--guide", "nope", "--guide-num", "prior"]):
            code = main(["bound", "--model", "expr", "--hypothesis", *guides, "--n", "200000"])
            captured = capsys.readouterr()
            assert (code, captured.out) == (2, "")
            assert captured.err.startswith("unknown guide 'nope' for model 'expr'; known: ")

    def test_numerator_guide_without_hypothesis_exits_2_before_sampling(self, capsys, monkeypatch):
        # `bound --guide-num nosuch` exited 0: without --hypothesis the name was never resolved.
        def no_sampling(*args, **kwargs):
            raise AssertionError("a batch ran although --guide-num does not apply")

        monkeypatch.setattr(cli, "batch_stats", no_sampling)
        for guide_num in ("nosuch", "die1_is_5"):
            code = main(["bound", "--model", "three_dice", "--guide-num", guide_num, "--n", "10"])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", "--guide-num applies only with --hypothesis\n")

    def test_optimize_params_is_a_usage_error(self, capsys, tmp_path):
        params = tmp_path / "params.json"
        params.write_text('{"die1": [1.0, 0, 0, 0, 0, 0]}')
        code = main(["optimize", "--model", "three_dice", "--budget", "5", "--params", str(params)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == "optimize searches from the empty table; --params does not apply\n"

    def test_missing_params_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nonexistent.json"
        code = main(["run", "--model", "three_dice", "--guide", "tabular", "--params", str(missing), "--n", "5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"cannot read guide parameter file {missing}: No such file or directory\n"

    def test_unwritable_save_params_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "p.json"
        code = main(["optimize", "--model", "three_dice", "--budget", "2", "--eval-n", "10",
                     "--save-params", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"cannot write guide parameter file {path}: No such file or directory\n"

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "o.json"
        code = main(["run", "--model", "three_dice", "--n", "5", "--output", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"cannot write output file {path}: No such file or directory\n"

    @pytest.mark.parametrize("value", [3, [None], [1.0, "2"], [True], [math.nan], "12", {"a": 1.0},
                                       [math.inf, 0.0], [0.0, -math.inf], [10**400]],
                             ids=["number", "null", "string-item", "bool-item", "nan-item", "string", "object",
                                  "inf-item", "minus-inf-item", "huge-int-item"])
    def test_malformed_params_values_are_structured(self, capsys, tmp_path, value):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"die1": value}))
        code, doc = invoke_json(capsys, "run", "--model", "three_dice", "--guide", "tabular",
                                "--params", str(path), "--n", "5")
        assert code == 1
        assert doc["error"] == {"type": "ValueError",
                                "message": f"guide parameter file {path}: 'die1' must map to a list of numbers"}

    @pytest.mark.parametrize("text", ["[1.0, 2.0]", "3", "null", '"die1"'])
    def test_params_file_that_is_not_an_object_is_structured(self, capsys, tmp_path, text):
        path = tmp_path / "p.json"
        path.write_text(text)
        code, doc = invoke_json(capsys, "run", "--model", "three_dice", "--guide", "tabular",
                                "--params", str(path), "--n", "5")
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": f"guide parameter file {path} must hold a JSON object"}

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_params_file_is_read_once_per_command(self, capsys, monkeypatch, tmp_path, pool_sizes, workers):
        # `bound --hypothesis` read the file three times: once to resolve the
        # guide names and once per batch.
        path = tmp_path / "p.json"
        path.write_text('{"die1": [1.0, 0, 0, 0, 0, 0]}')
        reads = []
        load = cli._load_params
        monkeypatch.setattr(cli, "_load_params", lambda p: reads.append(p) or load(p))
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        code, doc = invoke_json(capsys, "bound", "--model", "three_dice", "--guide", "tabular", "--hypothesis",
                                "--params", str(path), "--n", "50", "--seed", "1", "--workers", workers)
        assert code == 0
        assert reads == [str(path)]
        assert pool_sizes == ([2, 2] if workers == "2" else [])

    def test_tabular_guide_on_a_model_without_a_family_exits_2(self, capsys):
        code = main(["run", "--model", "monkey", "--guide", "tabular", "--n", "5"])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (2, "", "model 'monkey' has no tabular guide family\n")

    @pytest.mark.parametrize("command", [
        ("run", "--model", "three_dice", "--n", "20"),
        ("bound", "--model", "three_dice", "--n", "20"),
        ("oracle", "--model", "three_dice", "--guide", "prior"),
        ("optimize", "--model", "three_dice", "--budget", "2", "--eval-n", "20"),
        ("trace", "--model", "three_dice"),
    ], ids=lambda argv: argv[0])
    def test_nan_ceiling_is_structured(self, capsys, command):
        # NaN fails every comparison, so a NaN ceiling would reject no run.
        code, doc = invoke_json(capsys, *command, "--ceiling", "nan")
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": "ceiling must be a number, got NaN"}

    @pytest.mark.parametrize("command", [
        ("run", "--model", "three_dice", "--n", "10"),
        ("bound", "--model", "three_dice", "--n", "10"),
        ("bound", "--model", "three_dice", "--n", "10", "--hypothesis"),
        ("oracle", "--model", "three_dice"),
        ("optimize", "--model", "three_dice", "--budget", "2", "--eval-n", "10"),
        ("trace", "--model", "three_dice"),
    ], ids=["run", "bound", "bound-hypothesis", "oracle", "optimize", "trace"])
    @pytest.mark.parametrize("max_events", ["0", "-5"])
    def test_event_cap_below_one_is_structured(self, capsys, command, max_events):
        # Every run exceeded such a cap, so `run` reported "all 10 runs were rejected".
        code, doc = invoke_json(capsys, *command, "--max-events", max_events)
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": f"--max-events must be at least 1, got {max_events}"}

    @pytest.mark.parametrize("max_paths", ["0", "-5"])
    def test_path_cap_below_one_is_structured(self, capsys, max_paths):
        # It enumerated and then reported "more than 0 paths; model too large for exact treatment".
        code, doc = invoke_json(capsys, "oracle", "--model", "three_dice", "--max-paths", max_paths)
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": f"max_paths must be at least 1, got {max_paths}"}

    @pytest.mark.parametrize("command", [
        ("run", "--model", "three_dice", "--n", "5"),
        ("bound", "--model", "three_dice", "--n", "5"),
        ("bound", "--model", "three_dice", "--n", "5", "--hypothesis"),
        ("oracle", "--model", "three_dice"),
        ("optimize", "--model", "three_dice", "--budget", "2", "--eval-n", "10"),
        ("trace", "--model", "three_dice"),
    ], ids=["run", "bound", "bound-hypothesis", "oracle", "optimize", "trace"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_structured(self, capsys, monkeypatch, command, workers):
        # `run --workers -2` exited 0, echoed the -2 and ran in one process.
        def no_sampling(*args, **kwargs):
            raise AssertionError("runs were sampled before --workers was checked")

        monkeypatch.setattr(cli, "batch_stats", no_sampling)
        code, doc = invoke_json(capsys, *command, "--workers", workers)
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": f"--workers must be at least 1, got {workers}"}

    @pytest.mark.parametrize("option, message", [
        ("--k", "impatience constant k must be finite and nonnegative"),
        ("--margin", "accept margin must be finite and nonnegative"),
    ])
    def test_infinite_search_option_is_structured(self, capsys, option, message):
        # --margin inf used to exit 0 with nothing accepted, --k inf with best_utility Infinity.
        code, doc = invoke_json(capsys, "optimize", "--model", "three_dice", "--budget", "30", "--eval-n", "50",
                                option, "inf")
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": message}

    @pytest.mark.parametrize("command", [("run", "--n", "10"), ("bound", "--n", "10"), ("oracle",), ("optimize",),
                                         ("trace",)], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("length", ["0", "-5"])
    def test_monkey_length_below_one_is_structured(self, capsys, command, length):
        # --length -5 made no choice: `run` exited 0 with mean_fe Infinity, `oracle` with one path.
        code, doc = invoke_json(capsys, *command, "--model", "monkey", "--length", length)
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": "length must be at least 1"}

    @pytest.mark.parametrize("alphabet", ["0", "27"])
    def test_monkey_alphabet_outside_its_range_is_structured(self, capsys, alphabet):
        code, doc = invoke_json(capsys, "run", "--model", "monkey", "--alphabet", alphabet, "--n", "10")
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": "alphabet size must be 1..26"}

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_trace_seed_outside_the_domain_is_structured(self, capsys, seed):
        code, doc = invoke_json(capsys, "trace", "--model", "three_dice", "--seed", seed)
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": f"a seed must be an int in [0, 2**64), got {seed}"}

    def test_no_accepted_runs_is_structured(self, capsys):
        code, doc = invoke_json(
            capsys, "run", "--model", "monkey", "--pattern", "aaaaaaaaaaaaaaa",
            "--guide", "prior", "--ceiling", "10", "--n", "20", "--seed", "0",
        )
        assert code == 1
        assert doc["error"]["type"] == "NoAcceptedRunsError"

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--model", "three_dice", "--guide", "posterior", "--n", "200", "--seed", "1"),
            ("oracle", "--model", "three_dice", "--guide", "prior_reject"),
            ("bound", "--model", "three_dice", "--guide", "prior", "--n", "150", "--seed", "2"),
            ("trace", "--model", "monkey", "--guide", "pattern_insert", "--seed", "12"),
            ("optimize", "--model", "three_dice", "--budget", "10", "--eval-n", "60", "--seed", "3"),
        ],
    )
    def test_byte_identical_repeats(self, capsys, argv):
        _, first = invoke(capsys, *argv)
        _, second = invoke(capsys, *argv)
        assert first == second

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        _, out = invoke(
            capsys, "oracle", "--model", "three_dice", "--output", str(path)
        )
        assert path.read_text() == out

    def test_floats_serialized_in_shortest_round_trip_form(self, capsys):
        # One line; a float prints as its repr, so an integral float stays a float.
        _, out = invoke(capsys, "oracle", "--model", "three_dice", "--guide", "posterior")
        assert out.count("\n") == 1 and '"evidence": 0.06944444444444443,' in out
        results = json.loads(out)["results"]
        assert (results["crash_mass"], results["guide"]["kl"]) == (0.0, 0.0)
        assert type(results["crash_mass"]) is float and type(results["guide"]["kl"]) is float

    @pytest.mark.parametrize("command", ["run", "bound"])
    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_fewer_than_one_run_is_structured(self, capsys, command, n):
        code, doc = invoke_json(capsys, command, "--model", "three_dice", "--n", n)
        assert code == 1
        assert doc["error"] == {"type": "ValueError", "message": "need at least one run"}

    def test_infinity_serialization_round_trips(self, capsys):
        code, doc = invoke_json(
            capsys, "run", "--model", "three_dice", "--guide", "prior",
            "--n", "50", "--seed", "0",
        )
        assert code == 0
        assert doc["results"]["adjusted_fe"] == math.inf


# Exit code and SHA-256 of stdout per argv, on random-stream version 2:
# any change to a key, its order or a float's digits shows here.
GOLDEN_STDOUT = [
    ("run --model three_dice --guide posterior --n 1000 --seed 7", 0, "9e48e49071d5dddf0543dc4cfc65c35110c96389b6d4ee757df29c099fdf2b55"),
    ("run --model three_dice --guide prior_reject --n 1000 --seed 1", 0, "9863b0b9e300c46b699b85844479f194568ad9c0338174eba61601b065fad335"),
    ("run --model three_dice --guide posterior --n 400 --seed 3 --report-hypothesis-histogram", 0, "fb1c32219c7a7f906ae246f3af22e4b6e1dc68cce6f6ca5327288f578f12b1e2"),
    ("run --model three_dice --guide prior_reject --n 600 --seed 9 --workers 2", 0, "737ad396e8d426f0f3a3d142c241eec01a8852c5f0b86c8e78cd269c8baba0c0"),
    ("run --model three_dice --guide prior --n 200 --seed 0", 0, "6f2fa9be0e6632910b3aa43f9b3d347a6f20e00a2ab63abf1c520aa95a320332"),
    ("run --model monkey --pattern aaaaaaaaaaaaaaa --guide prior --ceiling 10 --n 20 --seed 0", 1, "d778a4f67acb2ea353792652411ce37b92d2fc15668fb2017fd2104b406d5009"),
    ("oracle --model three_dice --guide posterior", 0, "b390ccf8ccad05cbe2fcb4159cd2ff59cf06f1797d2d57517b34dc6bebe8658c"),
    ("oracle --model three_dice --guide prior_reject", 0, "221e5a8f15053d9c9a7796dcaa61b5ed01c3bdd9b851efc0e7e0533329ce5c50"),
    ("oracle --model expr --depth-cap 2", 0, "4bc9ff831b8955f00f6a0afeadd32b09204d33b6b486528fbea75bec8292d55f"),
    ("oracle --model expr --depth-cap 2 --guide prior --ceiling 10", 0, "4a7b0c7d468269fc566d511a9212630325701f95e3065f243935bd7156c6e0d9"),
    ("oracle --model monkey --length 6", 0, "f12add96684220b9c2619b6dd52811e6713763c068d1395af6584e4e94ea2778"),
    ("bound --model three_dice --guide prior --n 100 --delta 0.05 --seed 7", 0, "fddc6294943dbc5d88c913ff6949173e97e0ae903a6d2fbfedf3904030a62887"),
    ("bound --model three_dice --guide posterior --guide-num die1_is_5 --n 1000 --hypothesis --seed 17", 0, "931e3c314b8190863ec7465e6922ca74e78e688199938302b32fbe11727a44e3"),
    ("bound --model three_dice --guide prior_reject --guide-num die1_is_5 --n 600 --hypothesis --seed 5 --workers 2", 0, "32b8e72377f01ef69d20f3bc736ed8d6361d5a9cdbc618541ab796690bcebaaf"),
    ("bound --model monkey --pattern aaaaaaaaaaaaaaa --guide pattern_insert --hypothesis --n 50 --seed 1", 1, "36d62890d27a8086390742c284de2c4422fd5262520c4fc673ba76acd7aefaac"),
    ("bound --model three_dice --guide prior --n 50 --delta 1.5 --seed 1 --hypothesis", 1, "2e6f16b1094e5bed01a4b60742b9cabedeaff3f4e0edfbf5521251aa0aaa287b"),
    ("trace --model monkey --guide pattern_insert --seed 12", 0, "2d9b5e6d67bada90fe2e85c96e7fee409ea02d6f56309053842a80a7ff538b55"),
    ("trace --model monkey --guide pattern_insert --length 4000 --seed 8", 0, "a1b36947ccdb4474fa10ddfe193515e860891ecedbca76d24025f70049ddfe86"),
    ("trace --model three_dice --guide prior_reject --seed 3", 0, "6f1cacc128af5e7ae1d3e9eff1439f23de2ffaedc80c71826fda98836dd65160"),
    ("trace --model expr --guide prior --seed 4", 0, "a01aa2bc91d4a44c8b9f2d0aa26ed0c37a03e332d9695e6983f8b9a19a06c9ef"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("argv, code, digest", GOLDEN_STDOUT, ids=[a for a, _, _ in GOLDEN_STDOUT])
    def test_stdout_digest(self, capsys, argv, code, digest):
        got_code, out = invoke(capsys, *argv.split())
        assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

    def test_sampling_commands_build_no_records(self, capsys, monkeypatch):
        """`run`, `bound` and `trace` print their golden documents without
        building a `ChoiceRecord` or an `EventFE`."""
        def unbuilt(trace):
            raise AssertionError("a command built a trace's records")

        monkeypatch.setattr(Trace, "choices", property(unbuilt))
        monkeypatch.setattr(Trace, "per_event_fe", property(unbuilt))
        sampled = [case for case in GOLDEN_STDOUT if case[0].split()[0] in ("run", "bound", "trace")]
        assert any("pattern_insert" in argv for argv, _, _ in sampled)
        for argv, code, digest in sampled:
            got_code, out = invoke(capsys, *argv.split())
            assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), argv

    def test_optimize_then_tabular_run(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # --save-params is echoed in config
        for argv, digest in [
            ("optimize --model three_dice --budget 60 --eval-n 400 --margin 0.05 --seed 7 "
             "--save-params dice_params.json",
             "1ea7744ce147fdba53725c9ae65f348d987fdbbcdd6991eed2d0b418446eef54"),
            ("run --model three_dice --guide tabular --params dice_params.json --ceiling 30 "
             "--n 1000 --seed 2",
             "bb6b5cca412d687993a9b15b87b7c12a99fd036f02a9eee7720e3b933ff89b41"),
        ]:
            code, out = invoke(capsys, *argv.split())
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)
        saved = (tmp_path / "dice_params.json").read_bytes()
        assert hashlib.sha256(saved).hexdigest() == "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356"


def test_module_entry_point_prints_what_main_prints(capsys):
    argv = ["run", "--model", "three_dice", "--guide", "posterior", "--n", "200", "--seed", "7"]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "guidedppl", *argv], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == invoke(capsys, *argv)


def test_config_echoes_every_option_once():
    # An option missing from `_CONFIG_KEYS` would silently drop out of `config`.
    parser = cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for p in commands.choices.values() for a in p._actions if not isinstance(a, argparse._HelpAction)}
    assert len(set(cli._CONFIG_KEYS)) == len(cli._CONFIG_KEYS)
    assert set(cli._CONFIG_KEYS) == dests


# Documents for `cli.dumps`: every control character (\b, \f and \x7f
# included), quotes, backslashes and non-ASCII in strings; NaN, infinities,
# -0.0 and subnormals among the floats; numpy scalars and arrays; None,
# booleans, empty containers and int keys.
_CONTROL = [chr(i) for i in range(0x20)] + ["\x7f"]
_strings = st.text(st.one_of(st.sampled_from(_CONTROL + ['"', "\\", "\u00e9", "\u2028", "\U0001f600"]),
                             st.characters()), max_size=12)
_floats = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310]))
_int64s = st.integers(-2**63, 2**63 - 1)
_scalars = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_), st.integers(), _int64s.map(np.int64),
    _floats, _floats.map(np.float64), st.floats(width=32).map(np.float32), _strings,
)
_arrays = st.one_of(st.lists(_floats, max_size=4).map(lambda xs: np.array(xs, dtype=float)),
                    st.lists(_int64s, max_size=4).map(lambda xs: np.array(xs, dtype=np.int64)))
_documents = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.one_of(_strings, st.integers()), inner, max_size=4)),
    max_leaves=24,
)


def _as_parsed(value):
    """What JSON parsing gives back for `value`: numpy values as Python
    ones, tuples as lists, keys as strings (a later key that equals an
    earlier one once made a string replaces its value)."""
    if isinstance(value, (np.generic, np.ndarray)):
        value = value.tolist()
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            out[("true" if k else "false") if isinstance(k, bool) else str(k)] = _as_parsed(v)
        return out
    if isinstance(value, (list, tuple)):
        return [_as_parsed(v) for v in value]
    return str(value) if isinstance(value, str) else value


@settings(max_examples=200, deadline=None)
@given(doc=_documents)
@example(doc={"".join(_CONTROL) + '"\\\u00e9': [math.nan, -0.0, 5e-324, math.inf, -math.inf, np.float32(0.1)],
              "": {}, "empty": [], "t": (), "a": np.array([]), "flags": [True, np.bool_(False), None],
              "ints": [np.int64(-2**63), 2**70], "f": [np.float64(-0.0), 1.0, 0.1]})
@example(doc=[{1: "1"}, {"1": 1}, {True: "True"}, {"True": True}, {1: "a", "1": "b"}])  # keys made str
@example(doc={"s": np.str_('q"\t'), "t": [np.str_('q"\t'), 'q"\t', np.str_("")]})
def test_dumps_round_trips(doc):
    """`json.loads` of `cli.dumps` gives the document back from one line:
    each float exactly (-0.0 with its sign, NaN as NaN), each int as an
    int and the keys in order; `repr` tells all of these apart."""
    text = cli.dumps(doc)
    assert "\n" not in text
    assert repr(json.loads(text)) == repr(_as_parsed(doc))


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes"], ids=["object", "set", "bytes"])
def test_dumps_refuses_what_json_cannot_hold(value):
    with pytest.raises(TypeError, match=f"cannot serialize {type(value).__name__}"):
        cli.dumps({"x": [value]})
