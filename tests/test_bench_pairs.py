"""The summary of ``tools/bench_pairs.py`` on fixed numbers; no benchmark runs."""
import pytest

from tools.bench_pairs import parse_seeds, quartiles, report_lines, summarize

PARENT = [2.10, 2.12, 2.14, 2.15, 2.16, 2.17, 2.18, 2.19, 2.20, 2.22]


def test_seeds_from_ranges_and_lists():
    assert parse_seeds("211-214") == [211, 212, 213, 214]
    assert parse_seeds("3,5-6,8") == [3, 5, 6, 8]


def test_quartiles_inclusive():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_ten_of_ten_won_beyond_the_parent_iqr_is_a_gain():
    s = summarize(PARENT, [p - 0.2 for p in PARENT], "lower")
    assert s["won"] == 10 and s["pairs"] == 10 and s["gain"]
    assert s["parent"] == pytest.approx((2.1425, 2.165, 2.1875))
    assert s["change_pct"] == pytest.approx(-0.2 / 2.165 * 100)


def test_eight_of_ten_won_is_no_gain():
    change = [p - 0.2 for p in PARENT[:8]] + [p + 0.2 for p in PARENT[8:]]
    s = summarize(PARENT, change, "lower")
    assert s["won"] == 8 and not s["gain"]


def test_ties_count_for_neither_side():
    change = [p - 0.2 for p in PARENT[:9]] + [PARENT[9]]
    assert summarize(PARENT, change, "lower")["won"] == 9
    assert summarize(PARENT, PARENT, "lower")["won"] == 0
    assert summarize(PARENT, PARENT, "higher")["won"] == 0


def test_every_pair_won_inside_the_parent_iqr_is_no_gain():
    s = summarize(PARENT, [p - 0.01 for p in PARENT], "lower")  # IQR 0.045 against a gap of 0.01
    assert s["won"] == 10 and not s["gain"]


def test_higher_is_better_direction():
    s = summarize([0.9] * 10, [1.0] * 10, "higher")
    assert s["won"] == 10 and s["gain"]
    assert not summarize([1.0] * 10, [0.9] * 10, "higher")["gain"]


def test_report_counts_correct_runs_and_failed_operations():
    def run(study_s, correct=True, failed=0):
        return {"correct": correct, "attempted": 50, "failed": failed,
                "metrics": {"study_s": {"value": study_s, "unit": "s"}}}

    results = [(run(p), run(p - 0.2, correct=i != 3, failed=i == 5)) for i, p in enumerate(PARENT)]
    lines = report_lines(results, [{"name": "study_s", "better": "lower"},
                                   {"name": "pass_rate", "better": "higher"}])
    assert len(lines) == 4  # header, study_s, the two sides; pass_rate was not reported
    assert lines[1].split()[0] == "study_s" and lines[1].endswith("10/10  yes")
    assert lines[2] == "parent: correct 10/10 runs, failed 0 of 500 operations"
    assert lines[3] == "change: correct 9/10 runs, failed 1 of 500 operations"
