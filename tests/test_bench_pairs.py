"""tools/bench_pairs.py against a stub benchmark in two throwaway checkouts."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# each run logs its checkout and seed, and reports metrics that depend on both
STUB = '''import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
here = Path(__file__).resolve().parent.parent
seed = int(args["--seed"])
with open(here.parent / "log", "a") as log:
    log.write(f"{here.name} {args['--workload']} {seed} {args['--seconds']} {args['--trace']}\\n")
speed = {"parent": 100, "change": 120}[here.name] + seed
print("progress line")
metrics = {"wall_s": 1000 / speed, "cases_per_s": speed - 2 * (seed == 3)}
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {name: {"value": value, "unit": "u"} for name, value in metrics.items()}}))
'''

SPEC = {"workloads": [{"name": "small"}, {"name": "wide"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.2},
                       {"name": "cases_per_s", "better": "higher", "bound": 0.2}]}


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_alternating_pairs_against_a_stub(tmp_path, capsys):
    for name in ("parent", "change"):
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").write_text(STUB)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    out = tmp_path / "pairs.json"
    tool = load_bench_pairs()
    assert tool.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--seeds", "1", "2", "3",
                      "--seconds", "5", "--python", sys.executable, "--out", str(out)]) == 0
    # every workload in the spec's order, the parent first on odd seeds
    assert (tmp_path / "log").read_text().split("\n")[:6] == [
        "parent small 1 5 0", "change small 1 5 0", "change small 2 5 0",
        "parent small 2 5 0", "parent small 3 5 0", "change small 3 5 0"]
    assert len((tmp_path / "log").read_text().splitlines()) == 12
    data = json.loads(out.read_text())["workloads"]
    assert list(data) == ["small", "wide"]
    small = data["small"]
    assert small["first"] == {"1": "parent", "2": "change", "3": "parent"}
    assert small["before"]["per_seed"]["cases_per_s"] == [101, 102, 101]
    assert small["after"]["per_seed"]["cases_per_s"] == [121, 122, 121]
    assert small["before"]["metrics"]["cases_per_s"]["median"] == 101
    assert small["after"]["attempted"] == 30 and small["after"]["correct"] is True
    assert small["pairs"]["cases_per_s"] == {"change_better_pairs": 3, "pairs": 3, "ratio": 1.198}
    assert small["pairs"]["wall_s"]["change_better_pairs"] == 3
    assert len(small["before"]["elapsed_s"]["per_seed"]) == 3
    assert small["before"]["elapsed_s"]["max"] == max(small["before"]["elapsed_s"]["per_seed"])
    rule = small["gain_rule"]["cases_per_s"]
    assert rule["median_diff"] == 20 and rule["bound"] == 0.2 and rule["verdict"] == "gain"
    assert rule["parent_iqr"] == pytest.approx(1)
    assert small["gain_rule"]["wall_s"]["verdict"] == "gain"
    text = capsys.readouterr().out
    assert "small (3 pairs)" in text and "1.1980  3/3" in text and "elapsed_s" in text
    assert "gain" in text and "elapsed_s max" in text


def test_a_run_without_a_result_line_stops_the_tool(tmp_path):
    for name in ("parent", "change"):
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").write_text("import sys; sys.exit(2)")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(SPEC))
    tool = load_bench_pairs()
    with pytest.raises(SystemExit, match=r"small seed 1 gave no result line \(exit 2\)"):
        tool.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--seeds", "1"])


def side(tool, values):
    runs = [{"elapsed_s": 1.0, "result": {"correct": True, "metrics": {"x": {"value": v}}}}
            for v in values]
    return tool.side_summary(runs, ["x"])


@pytest.mark.parametrize("parent, change, better, verdict", [
    # won every pair, by more than the parent's IQR
    (range(100, 110), range(120, 130), "higher", "gain"),
    (range(100, 110), range(80, 90), "lower", "gain"),
    # a worse median, but inside the 20% bound
    (range(100, 110), range(101, 111), "lower", "within bound"),
    # worse by more than the bound
    (range(100, 110), range(130, 140), "lower", "worse"),
    (range(100, 110), range(70, 80), "higher", "worse"),
    # the parent's own runs spread wider than the bound
    ([50, 100, 150, 200, 250], [60, 100, 150, 200, 240], "lower", "unresolved"),
    # a wide spread, yet every change run beats every parent run, by less than the IQR
    ([100, 150, 200], [90, 95, 99], "lower", "within bound"),
])
def test_gain_rule(parent, change, better, verdict):
    tool = load_bench_pairs()
    before, after = side(tool, list(parent)), side(tool, list(change))
    pairs = tool.compare(before, after, {"x": better})
    rule = tool.gain_rule(before, after, pairs, {"x": better}, {"x": 0.2})["x"]
    assert rule["verdict"] == verdict
    assert rule["median_diff"] == after["metrics"]["x"]["median"] - before["metrics"]["x"]["median"]
    assert rule["parent_iqr"] == before["metrics"]["x"]["q3"] - before["metrics"]["x"]["q1"]
