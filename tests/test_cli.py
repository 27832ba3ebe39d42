import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from guidedppl import PriorGuide, batch_stats, derive_seeds, lower_confidence_bound
from guidedppl import cli
from guidedppl.cli import main
from guidedppl.models import three_dice

from helpers import DICE_FE_TARGET, reference_dumps


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, *argv):
    code, out = invoke(capsys, *argv)
    return code, json.loads(out)


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
        assert set(hist) == {"0", "1"}
        assert sum(hist.values()) == pytest.approx(1.0, abs=1e-9)
        assert hist["1"] == pytest.approx(1 / 15, abs=0.05)

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

    def test_floats_serialized_with_17_digits(self, capsys):
        _, out = invoke(capsys, "oracle", "--model", "three_dice")
        assert '"evidence": 0.069444444444444434' in out

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


# Exit code and SHA-256 of stdout per argv: any change to a key, its
# order or a float's digits shows here.
GOLDEN_STDOUT = [
    ("run --model three_dice --guide posterior --n 1000 --seed 7", 0, "56db4c6405ca2543738e7504a8bc67e1b9fccdc8fb12e03b7209220c9b110c15"),
    ("run --model three_dice --guide prior_reject --n 1000 --seed 1", 0, "99f2a055bb2f99bb2cbbd231584c6290ef25e6dd98bdc9021d6c27c4580a71de"),
    ("run --model three_dice --guide posterior --n 400 --seed 3 --report-hypothesis-histogram", 0, "68fe56864de4a4cff27b055297fd22ca79fea6daa77330ab757590cf8bdb39cf"),
    ("run --model three_dice --guide prior_reject --n 600 --seed 9 --workers 2", 0, "2368bade20a33f6e967d4e3a6fbe86a7212bcb935bfc53c765e5ff6006ebaca2"),
    ("run --model three_dice --guide prior --n 200 --seed 0", 0, "9d095d37f1792a478de50a0a846abb850f125433b2b3f6437b21d761d72af65d"),
    ("run --model monkey --pattern aaaaaaaaaaaaaaa --guide prior --ceiling 10 --n 20 --seed 0", 1, "d907b69bcbbb149d2b46e30da79f45c28f73b745a6b50903c849422ce7cf66f4"),
    ("oracle --model three_dice --guide posterior", 0, "1f72271954c24dff8d1adfa2970c4847f15cb2e5ac78a885c8c7e01c0d8f74fe"),
    ("oracle --model three_dice --guide prior_reject", 0, "e3d455c20de9003f0742df4f6dda067b5c8606cd3bf1dc415de32fd5f5b37443"),
    ("oracle --model expr --depth-cap 2", 0, "f17f889342c1a6f505d5903f76afcf67a43dc6bfac47ec36439beeb87ed4460b"),
    ("oracle --model expr --depth-cap 2 --guide prior --ceiling 10", 0, "019fa496f6a18abf648ee4a64f93299c8c014b8f1a5a90101251f0ec2358c496"),
    ("oracle --model monkey --length 6", 0, "acb186a6f30a9d0eed45896f48e2876ec72b67fbe070829bbad256dc89a54701"),
    ("bound --model three_dice --guide prior --n 100 --delta 0.05 --seed 7", 0, "91b2fa1dd858eeb38392da549a56996a2008434d72d48392108f91427bed7685"),
    ("bound --model three_dice --guide posterior --guide-num die1_is_5 --n 1000 --hypothesis --seed 17", 0, "1b380f03624852078153f0f6ed5f086acc000df92a4468c76b115672b6f14b76"),
    ("bound --model three_dice --guide prior_reject --guide-num die1_is_5 --n 600 --hypothesis --seed 5 --workers 2", 0, "990e91490d6724ac8749952e414293174b39d89a2e2b70bce1f1a3370140d1c1"),
    ("bound --model monkey --pattern aaaaaaaaaaaaaaa --guide pattern_insert --hypothesis --n 50 --seed 1", 1, "5490b5331f468573a56cf8c9b3042de92a5b1589cbd726a0d04185ec62bfdb7a"),
    ("bound --model three_dice --guide prior --n 50 --delta 1.5 --seed 1 --hypothesis", 1, "66487fd6406d81118bc9c09bd802fad6754ba5836df87f43ec90a332b81cc337"),
    ("trace --model monkey --guide pattern_insert --seed 12", 0, "edb46115f2fedc53bbbcf8cdca4f4b8a1078273ba6f369c635431fffc33457f5"),
    ("trace --model monkey --guide pattern_insert --length 4000 --seed 8", 0, "f6d3c71ec8b66fecb04c078a0d55249bfadca613431ad1ece1094e09a0053f16"),
    ("trace --model three_dice --guide prior_reject --seed 3", 0, "2a90969ac517c2c299af648504ec1730fc8697f1d65be005b5ffa01cb72d866f"),
    ("trace --model expr --guide prior --seed 4", 0, "20012cad7c16ea3a7e84eaa3f7d99e00f4e47e2044763ebd2b49521ad2b986c6"),
]


class TestGoldenOutput:
    @pytest.mark.parametrize("argv, code, digest", GOLDEN_STDOUT, ids=[a for a, _, _ in GOLDEN_STDOUT])
    def test_stdout_digest(self, capsys, argv, code, digest):
        got_code, out = invoke(capsys, *argv.split())
        assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)

    def test_optimize_then_tabular_run(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # --save-params is echoed in config
        for argv, digest in [
            ("optimize --model three_dice --budget 60 --eval-n 400 --margin 0.05 --seed 7 "
             "--save-params dice_params.json",
             "1a4f30d1317323d8e11c36d2fccf0b72e1c7970db32cd0e5f01fc566ebae8083"),
            ("run --model three_dice --guide tabular --params dice_params.json --ceiling 30 "
             "--n 1000 --seed 2",
             "160d64922d7869451577651e775c0468f1bef19470b63217d52ab0f8d3a93b16"),
        ]:
            code, out = invoke(capsys, *argv.split())
            assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)
        saved = (tmp_path / "dice_params.json").read_bytes()
        assert hashlib.sha256(saved).hexdigest() == "ca3d163bab055381827226140568f3bef7eaac187cebd76878e0b63e9e442356"


# Documents for the emitter: every control character (\b, \f and \x7f
# included), quotes, backslashes and non-ASCII in strings; NaN, infinities,
# -0.0 and subnormals among the floats; numpy scalars and arrays; None,
# booleans and empty containers.
_CONTROL = [chr(i) for i in range(0x20)] + ["\x7f"]
_strings = st.text(st.one_of(st.sampled_from(_CONTROL + ['"', "\\", "\u00e9", "\u2028", "\U0001f600"]),
                             st.characters()), max_size=12)
_floats = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.5e-310]))
_int64s = st.integers(-2**63, 2**63 - 1)
_scalars = st.one_of(
    st.none(), st.booleans(), st.booleans().map(np.bool_), st.integers(), _int64s.map(np.int64),
    _floats, st.floats(width=32).map(np.float32), _strings,
)
_arrays = st.one_of(st.lists(_floats, max_size=4).map(lambda xs: np.array(xs, dtype=float)),
                    st.lists(_int64s, max_size=4).map(lambda xs: np.array(xs, dtype=np.int64)))
_documents = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.one_of(_strings, st.integers()), inner, max_size=4)),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(doc=_documents)
@example(doc={"".join(_CONTROL) + '"\\\u00e9': [math.nan, -0.0, 5e-324, math.inf, -math.inf, np.float32(0.1)],
              "": {}, "empty": [], "t": (), "a": np.array([]), "flags": [True, np.bool_(False), None],
              "ints": [np.int64(-2**63), 2**70]})
@example(doc=[c + "x" for c in _CONTROL + ['"', "\\", "\u00e9"]])  # one character to escape per string
@example(doc=[{'k"\n': i, "v": [{'k"\n': -0.5}]} for i in range(6)])  # one key to escape in many dicts
@example(doc={'a\\b': 'a\\b', "x": {"x": ["x", 'a\\b']}})  # a string as both key and value
@example(doc=[{1: "1"}, {"1": 1}, {True: "True"}, {"True": True}])  # keys that are equal once made str
@example(doc={"s": np.str_('q"\t'), "t": [np.str_('q"\t'), 'q"\t', np.str_("")]})
def test_dumps_matches_the_reference_emitter(doc):
    assert cli.dumps(doc) == reference_dumps(doc)


def test_dumps_escapes_each_distinct_string_once(monkeypatch):
    seen = []
    escape = cli._escape
    monkeypatch.setattr(cli, "_escape", lambda s: seen.append(s) or escape(s))
    doc = {"events": [{"kind": "choose", "label": 'l"1', "n": i, 1: np.str_("kind")} for i in range(50)],
           "kind": ["kind", 'l"1']}
    assert cli.dumps(doc) == reference_dumps(doc)
    assert sorted(seen) == sorted({"events", "kind", "choose", "label", 'l"1', "n", "1"})
