import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

LOWER = {"name": "call_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def _pairs(metric, parent, change):
    return [{side: {"metrics": {metric["name"]: {"value": v}}} for side, v in (("parent", p), ("change", c))}
            for p, c in zip(parent, change)]


def _verdict(metric, parent, change):
    return bench_pairs.summarize(_pairs(metric, parent, change), [metric])[metric["name"]]["verdict"]


@pytest.mark.parametrize("metric, parent, change, verdict", [
    # parent median 100, so the bound allows 25 either way
    (LOWER, [99, 100, 101], [124, 124, 124], "within_bound"),
    (LOWER, [99, 100, 101], [126, 126, 126], "regression"),
    (LOWER, [99, 100, 101], [125, 125, 125], "within_bound"),  # worse by exactly the bound
    (HIGHER, [99, 100, 101], [74, 74, 74], "regression"),
    (HIGHER, [99, 100, 101], [76, 76, 76], "within_bound"),
    (HIGHER, [99, 100, 101], [120, 130, 140], "within_bound"),  # a gain
    # a spread wider than 25 on either side leaves a small change unresolved
    (LOWER, [60, 100, 140], [101, 101, 101], "unresolved"),
    (LOWER, [99, 100, 101], [70, 101, 140], "unresolved"),
    (HIGHER, [60, 100, 140], [99, 99, 99], "unresolved"),
    # unless every change run beats every parent run
    (LOWER, [60, 100, 140], [50, 55, 59], "within_bound"),
    (HIGHER, [60, 100, 140], [141, 200, 260], "within_bound"),
    # a regression beyond the bound is a regression whatever the spread
    (LOWER, [60, 100, 140], [130, 200, 270], "regression"),
])
def test_summarize_verdict(metric, parent, change, verdict):
    assert _verdict(metric, parent, change) == verdict


def test_summarize_keeps_the_gain_rule():
    parent = [100 + i % 3 for i in range(10)]  # quartiles 100 and 101.75, median 101
    s = bench_pairs.summarize(_pairs(HIGHER, parent, [p + 5 for p in parent]), [HIGHER])["work_per_s"]
    assert (s["pairs_won"], s["pairs"], s["gain"], s["verdict"]) == (10, 10, True, "within_bound")
    assert s["median_ratio"] == pytest.approx(106 / 101)
    s = bench_pairs.summarize(_pairs(HIGHER, parent, [p + 1 for p in parent]), [HIGHER])["work_per_s"]
    assert (s["pairs_won"], s["gain"]) == (10, False)  # better by less than the parent's quartile spread


_FAKE_RUN = """import json, sys
from pathlib import Path
calls = Path("calls")
n = int(calls.read_text()) + 1 if calls.exists() else 1
calls.write_text(str(n))
if n >= {fail_at}:
    print("\\n".join(f"line {{i}}" for i in range(30)), file=sys.stderr)
    sys.exit(1)
print("info " + json.dumps({{"python": "3", "numpy": "2", "nproc": 2, "first_cycle_sha256": "x"}}))
print(json.dumps({{"correct": True, "metrics": {{m: {{"value": {value}}} for m in
                  ("setup_s", "peak_rss_mb", "call_p50_ms", "work_per_s")}}}}))
"""


def _checkout(root, name, value, fail_at=1000):
    """A fake checkout whose benchmark prints a canned result until its
    `fail_at`-th run, which exits 1 after 30 lines of stderr."""
    (root / name / "perfbench").mkdir(parents=True)
    (root / name / "perfbench" / "run.py").write_text(_FAKE_RUN.format(fail_at=fail_at, value=value))
    (root / name / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [LOWER, HIGHER]}))
    return str(root / name)


@pytest.mark.parametrize("fail_at, completed", [(1000, 3), (3, 2), (1, 0)])
def test_a_failed_run_keeps_the_completed_pairs(tmp_path, monkeypatch, capsys, fail_at, completed):
    monkeypatch.chdir(tmp_path)
    parent, change = _checkout(tmp_path, "parent", 100), _checkout(tmp_path, "change", 90, fail_at)
    code = bench_pairs.main([parent, change, "--workload", "w", "--pairs", "3", "--seconds", "1"])
    record = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert len(record["runs"]) == completed
    # Each completed pair prints the ratio of every end-to-end metric.
    assert [line for line in capsys.readouterr().out.splitlines() if line.startswith("pair ")] == [
        f"pair {i + 1}/3 ({first} first): change/parent call_p50_ms 0.900, work_per_s 0.900"
        for i, first in zip(range(completed), ("parent", "change", "parent"))]
    if completed == 3:
        assert code == 0 and "failed_run" not in record
    else:
        assert code == 1
        assert record["failed_run"] == {"side": "change", "pair": completed + 1, "exit_code": 1,
                                        "stderr_tail": [f"line {i}" for i in range(10, 30)]}
    if completed:
        assert record["summary"]["work_per_s"]["pairs"] == completed
        assert record["summary"]["call_p50_ms"]["change_quartiles"] == [90, 90, 90]
    else:
        assert "summary" not in record


@pytest.mark.parametrize("runs, want", [
    ([{"failed": 0, "attempted": 14}, {"failed": 0, "attempted": 16}], {"failed": 0, "attempted": 30, "share": 0.0}),
    ([{"failed": 1, "attempted": 10}, {"failed": 2, "attempted": 30}], {"failed": 3, "attempted": 40, "share": 0.075}),
    ([{"correct": True}], {"failed": 0, "attempted": 0, "share": None}),  # a run that reports no counts
    ([], {"failed": 0, "attempted": 0, "share": None}),
])
def test_failed_share_sums_the_counts(runs, want):
    assert bench_pairs.failed_share(runs) == want


def test_record_keeps_each_sides_failed_share(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    sides = {}
    for name, (value, failed) in {"parent": (100, 0), "change": (90, 2)}.items():
        path = _checkout(tmp_path, name, value)
        run = Path(path) / "perfbench" / "run.py"
        run.write_text(run.read_text().replace('{"correct": True,', f'{{"correct": {failed == 0}, "attempted": 20, '
                                               f'"failed": {failed},'))
        sides[name] = path
    code = bench_pairs.main([sides["parent"], sides["change"], "--workload", "w", "--pairs", "3", "--seconds", "1"])
    record = json.loads((tmp_path / "BENCH_w.json").read_text())
    assert (code, record["all_correct"]) == (0, False)
    assert record["failed_share"] == {"parent": {"failed": 0, "attempted": 60, "share": 0.0},
                                      "change": {"failed": 6, "attempted": 60, "share": 0.1}}


def test_package_lines_counts_newlines_as_wc_does(tmp_path):
    pkg = tmp_path / "src" / "guidedppl"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline, so wc -l counts 0
    (pkg / "c.txt").write_text("not\npython\n")
    (pkg / "sub" / "d.py").write_text("nested\n")
    assert bench_pairs.package_lines(tmp_path) == 2
    assert bench_pairs.git_commit(tmp_path)["package_lines"] == 2
    assert bench_pairs.package_lines(tmp_path / "nowhere") == 0
