import importlib.util
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
