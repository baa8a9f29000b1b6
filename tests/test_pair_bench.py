import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# A stub benchmark: each call returns the next canned summary of its own
# checkout and appends "<checkout> <argv>" to ../calls.log.
STUB_RUN = """\
import json, pathlib, sys
root = pathlib.Path.cwd()
state = root / "calls"
n = int(state.read_text()) if state.exists() else 0
state.write_text(str(n + 1))
with open(root.parent / "calls.log", "a") as fh:
    fh.write(root.name + " " + " ".join(sys.argv[1:]) + "\\n")
values = json.loads((root / "canned.json").read_text())[n]
print("progress line")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {k: {"value": v, "unit": "u"} for k, v in values.items()}}))
"""

BENCHMARK = {"end_to_end": [
    {"name": "image_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "records_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
]}

PARENT_IMAGE_S = [1.0 + 0.1 * k for k in range(10)]  # median 1.45, quartiles 1.225, 1.675
# 0.5 s faster in nine pairs, slower in the last
CHANGE_IMAGE_S = [v - 0.5 for v in PARENT_IMAGE_S[:9]] + [2.0]
CANNED = {
    "parent": [{"image_s": t, "records_per_s": 100.0, "peak_rss_mb": 300.0}
               for t in PARENT_IMAGE_S],
    # 30% fewer records/s (bound 25%), 3% more memory (bound 20%)
    "change": [{"image_s": t, "records_per_s": 70.0, "peak_rss_mb": 309.0}
               for t in CHANGE_IMAGE_S],
}


@pytest.fixture
def pair_bench():
    spec = importlib.util.spec_from_file_location("pair_bench",
                                                  ROOT / "scripts" / "pair_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkouts(tmp_path):
    for side, canned in CANNED.items():
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB_RUN)
        (tmp_path / side / "canned.json").write_text(json.dumps(canned))
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return tmp_path


def test_pairs_alternate_and_verdicts_follow_the_rules(pair_bench, checkouts, capsys):
    code = pair_bench.main([str(checkouts / "parent"), str(checkouts / "change"),
                            "--workload", "w", "--pairs", "10", "--seed", "4",
                            "--seconds", "2"])
    assert code == 1  # records_per_s regressed
    calls = (checkouts / "calls.log").read_text().splitlines()
    assert calls == [f"{side} --workload w --seed 4 --seconds 2.0 --trace 0"
                     for k in range(10)
                     for side in (("parent", "change") if k % 2 == 0 else ("change", "parent"))]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["parent: 0 of 30 operations failed",
                         "change: 0 of 30 operations failed"]
    rows = {line.split(" ", 1)[0]: line for line in lines if " median " in line}
    # image_s: the parent's IQR 0.45 exceeds 0.25 x 1.45, and the change's
    # last run is slower than every parent run
    assert rows["image_s"].endswith(
        "parent median 1.45 [q1 1.225, q3 1.675], change median 0.95 [q1 0.725, q3 1.175], "
        "won 9/10, claim met: yes, regression: no, unresolved: yes")
    assert rows["records_per_s"].endswith(
        "parent median 100 [q1 100, q3 100], change median 70 [q1 70, q3 70], won 0/10, "
        "claim met: no, regression: yes, unresolved: no")
    assert rows["peak_rss_mb"].endswith(
        "parent median 300 [q1 300, q3 300], change median 309 [q1 309, q3 309], won 0/10, "
        "claim met: no, regression: no, unresolved: no")
    assert "  change: 0.5 0.6 0.7 0.8 0.9 1 1.1 1.2 1.3 2" in lines


@pytest.mark.parametrize("change, claim_met", [
    ([v - 0.5 for v in PARENT_IMAGE_S[:8]] + [2.0, 2.0], False),  # 8 of 10 pairs
    ([v - 0.4 for v in PARENT_IMAGE_S[:9]] + [2.0], False),  # gap 0.4 < IQR 0.45
    (CHANGE_IMAGE_S, True),
], ids=["eight-pairs", "gap-within-iqr", "met"])
def test_claim_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_iqr(pair_bench, change,
                                                                   claim_met):
    c = pair_bench.compare(BENCHMARK["end_to_end"][0], PARENT_IMAGE_S, change)
    assert c["claim_met"] is claim_met
    assert c["regression"] is False


PARENT_RECORDS = [100.0 + 10.0 * k for k in range(10)]  # median 145, IQR 45 > 0.25 x 145


@pytest.mark.parametrize("metric, parent, change, unresolved", [
    (0, PARENT_IMAGE_S, [v + 0.01 for v in PARENT_IMAGE_S], True),
    (0, PARENT_IMAGE_S, [0.5 + 0.05 * k for k in range(10)], False),  # all faster
    (0, PARENT_IMAGE_S, [v - 0.5 for v in PARENT_IMAGE_S[:9]] + [1.0], True),  # one tie
    (0, [1.4 + 0.01 * k for k in range(10)], [2.0 - 0.1 * k for k in range(10)], False),
    (1, PARENT_RECORDS, [v + 1.0 for v in PARENT_RECORDS], True),
    (1, PARENT_RECORDS, [200.0 + k for k in range(10)], False),  # all more
], ids=["spread", "every-run-better", "tie-is-not-better", "parent-within-bound",
        "higher-spread", "higher-every-run-better"])
def test_unresolved_when_the_parent_spreads_wider_than_the_bound(pair_bench, metric, parent,
                                                                 change, unresolved):
    c = pair_bench.compare(BENCHMARK["end_to_end"][metric], parent, change)
    assert c["unresolved"] is unresolved
