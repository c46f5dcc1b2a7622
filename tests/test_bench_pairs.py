"""``scripts/bench_pairs``: ``summarize`` on synthetic runs with known answers,
and the options that choose the workloads."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def summarize(bench_pairs):
    return bench_pairs.summarize


def runs_of(parent: dict, change: dict, rounds=(5, 6)) -> list[dict]:
    """One run per side and pair; ``parent[name][p]`` is pair p's reading."""
    runs = []
    pairs = len(next(iter(parent.values())))
    for p in range(pairs):
        for side, values, r in (("parent", parent, rounds[0]), ("change", change, rounds[1])):
            runs.append({"side": side, "pair": p, "rounds": r,
                         "metrics": {name: v[p] for name, v in values.items()}})
    return runs[::-1]  # the summary must not depend on the order of the runs


def test_quartiles_and_medians(summarize):
    out = summarize(runs_of({"a": [5, 1, 4, 2, 3]}, {"a": [10, 30, 20, 50, 40]}), {"a": "higher"})
    assert out["parent"]["a"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert out["change"]["a"] == {"median": 30.0, "q1": 20.0, "q3": 40.0, "n": 5}
    # numpy.percentile interpolates linearly between ranks
    out = summarize(runs_of({"a": [1, 2, 3, 4]}, {"a": [1, 2, 3, 4]}), {"a": "higher"})
    assert out["parent"]["a"] == {"median": 2.5, "q1": 1.75, "q3": 3.25, "n": 4}
    assert out["pairwise"]["a"]["parent_iqr"] == 1.5
    assert out["parent"]["rounds"] == [5] * 4 and out["change"]["rounds"] == [6] * 4


@pytest.mark.parametrize("better, wins", [("higher", 3), ("lower", 1)])
def test_wins_follow_the_direction_and_ties_count_apart(summarize, better, wins):
    parent = {"m": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]}
    change = {"m": [2.0, 2.0, 4.0, 5.0, 4.0, 6.0]}  # up, tie, up, up, down, tie
    pairwise = summarize(runs_of(parent, change), {"m": better})["pairwise"]["m"]
    assert pairwise["change_better_pairs"] == wins
    assert pairwise["ties"] == 2
    assert pairwise["pairs"] == 6
    assert pairwise["bit_identical_every_pair"] is False


def test_median_change_and_parent_iqr(summarize):
    parent = {"up": [10.0, 20.0, 30.0], "zero": [0.0, 0.0, 0.0]}
    change = {"up": [12.0, 24.0, 36.0], "zero": [1.0, 1.0, 1.0]}
    pairwise = summarize(runs_of(parent, change), {"up": "higher", "zero": "lower"})["pairwise"]
    assert pairwise["up"]["median_change_pct"] == pytest.approx(20.0)
    assert pairwise["up"]["parent_iqr"] == 10.0
    assert pairwise["up"]["change_better_pairs"] == 3
    # a zero parent median has no relative change
    assert pairwise["zero"]["median_change_pct"] is None
    assert pairwise["zero"]["change_better_pairs"] == 0


def test_bit_identical_only_when_every_pair_ties(summarize):
    parent = {"loss": [0.25, 0.5, 0.125], "rate": [1.0, 2.0, 3.0]}
    change = {"loss": [0.25, 0.5, 0.125], "rate": [1.0, 2.0, 3.5]}
    pairwise = summarize(runs_of(parent, change), {"loss": "lower", "rate": "higher"})["pairwise"]
    assert pairwise["loss"]["bit_identical_every_pair"] is True
    assert pairwise["loss"]["ties"] == 3 and pairwise["loss"]["change_better_pairs"] == 0
    assert pairwise["loss"]["median_change_pct"] == 0.0
    assert pairwise["rate"]["bit_identical_every_pair"] is False
    assert pairwise["rate"]["ties"] == 2 and pairwise["rate"]["change_better_pairs"] == 1


@pytest.mark.parametrize(
    "better, change, past",
    [
        ("higher", [74.0, 74.0, 74.0], True),  # 26 % lower
        ("higher", [80.0, 70.0, 76.0], False),  # the median, 76, is 24 % lower
        ("higher", [75.0, 75.0, 75.0], False),  # exactly at the bound is not past it
        ("higher", [300.0, 300.0, 300.0], False),
        ("lower", [126.0, 126.0, 126.0], True),
        ("lower", [124.0, 130.0, 110.0], False),
        ("lower", [10.0, 10.0, 10.0], False),
    ],
)
def test_past_bound_compares_the_medians_against_the_bound(summarize, better, change, past):
    runs = runs_of({"m": [100.0, 90.0, 110.0]}, {"m": change})
    pairwise = summarize(runs, {"m": better}, {"m": 0.25})["pairwise"]["m"]
    assert pairwise["past_bound"] is past


def test_past_bound_of_a_zero_parent_median(summarize):
    runs = runs_of({"a": [0.0, 0.0, 0.0], "b": [0.0, 0.0, 0.0]}, {"a": [1.0] * 3, "b": [0.0] * 3})
    pairwise = summarize(runs, {"a": "lower", "b": "lower"}, {"a": 0.05, "b": 0.05})["pairwise"]
    assert pairwise["a"]["past_bound"] is True
    assert pairwise["b"]["past_bound"] is False


def test_past_bound_is_none_without_a_bound(summarize):
    runs = runs_of({"m": [1.0, 2.0]}, {"m": [0.0, 0.0]})
    assert summarize(runs, {"m": "higher"})["pairwise"]["m"]["past_bound"] is None


REQUIRED = ["--parent", "p", "--change", "c", "--pairs", "2", "--first-seed", "7",
            "--out", "o.json"]
NAMES = ["desk-train", "paper-predict", "desk-sweep"]


def test_every_workload_by_default(bench_pairs):
    assert bench_pairs.parse_args(REQUIRED, NAMES).workload == NAMES


def test_workload_repeats_in_the_given_order(bench_pairs):
    args = bench_pairs.parse_args(
        REQUIRED + ["--workload", "desk-sweep", "--workload", "desk-train"], NAMES)
    assert args.workload == ["desk-sweep", "desk-train"]


@pytest.mark.parametrize("extra", [
    ["--workload", "desk"],
    ["--workload", "desk-train", "--workload", "desk-train"],
    ["--pairs", "0"],
], ids=["unknown", "twice", "no-pairs"])
def test_bad_options_are_usage_errors(bench_pairs, capsys, extra):
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(REQUIRED + extra, NAMES)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_one_call_records_every_workload(bench_pairs, monkeypatch, tmp_path):
    """Without ``--workload``, each workload of BENCHMARK.json runs on the same seeds."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in bench["end_to_end"]]
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((Path(checkout).name, workload, seed, seconds))
        return {"rounds": 3, "correct": True, "attempted": 1, "failed": 0,
                "metrics": {name: float(seed) for name in metrics}}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_pairs, "unpack", lambda commit, dest: Path(dest).mkdir(parents=True))
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    argv = REQUIRED[:-1] + [str(out), "--workdir", str(tmp_path / "work")]
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert list(record["workloads"]) == names
    assert [c[1] for c in calls] == [w for w in names for _ in range(4)]
    for name in names:
        workload = record["workloads"][name]
        assert workload["seeds"] == [7, 8] and workload["pairs"] == 2
        assert [(r["seed"], r["side"]) for r in workload["runs"]] == [
            (7, "parent"), (7, "change"), (8, "change"), (8, "parent")]
        assert workload["pairwise"]["train_loss"]["bit_identical_every_pair"] is True
    assert {c[3] for c in calls} == {bench["run_seconds"]}


def test_metrics_past_their_bound_are_printed(bench_pairs, monkeypatch, tmp_path, capsys):
    """Each metric past its bound in BENCHMARK.json is named on stderr and recorded."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}

    def fake_run(checkout, workload, seed, seconds):
        # the change reads every metric worse than the parent by twice its bound
        metrics = {}
        for name, m in specs.items():
            worse = 1 - 2 * m["bound"] if m["better"] == "higher" else 1 + 2 * m["bound"]
            metrics[name] = 100.0 * (worse if Path(checkout).name == "change" else 1.0)
        if workload != "desk-sweep":
            metrics = {name: 100.0 for name in specs}
        return {"rounds": 3, "correct": True, "attempted": 1, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_pairs, "unpack", lambda commit, dest: Path(dest).mkdir(parents=True))
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    argv = REQUIRED[:-1] + [str(out), "--workdir", str(tmp_path / "work")]
    assert bench_pairs.main(argv) == 0
    flagged = [line for line in capsys.readouterr().err.splitlines() if "past its bound" in line]
    assert [line.split(":")[:2] for line in flagged] == [
        ["desk-sweep", f" {name} past its bound of {specs[name]['bound']:.0%}"] for name in specs
    ]
    record = json.loads(out.read_text())["workloads"]
    for workload, summary in record.items():
        expected = workload == "desk-sweep"
        assert [p["past_bound"] for p in summary["pairwise"].values()] == [expected] * len(specs)


def test_show_prints_a_record_and_runs_nothing(bench_pairs, summarize, monkeypatch, tmp_path,
                                               capsys):
    """``--show`` turns an existing record into one table row per workload and metric."""
    better = {"speed": "higher", "ms": "lower", "loss": "lower"}
    bounds = {"speed": 0.25, "ms": 0.1}
    parent = {"speed": [10.0, 11.0, 12.0, 13.0], "ms": [2.0, 2.0, 2.0, 2.0],
              "loss": [0.5] * 4}
    change = {"speed": [12.0, 11.0, 14.0, 15.0], "ms": [3.0, 2.0, 2.5, 2.5],
              "loss": [0.5] * 4}
    record = {"workloads": {
        "w1": summarize(runs_of(parent, change), better, bounds),
        "w2": summarize(runs_of({**parent, "speed": [0.0] * 4}, parent), better, bounds),
    }}
    path = tmp_path / "record.json"
    path.write_text(json.dumps(record))

    def no_run(*args):
        raise AssertionError("--show ran something")

    for name in ("git", "unpack", "run_once"):
        monkeypatch.setattr(bench_pairs, name, no_run)
    assert bench_pairs.main(["--show", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "| workload | metric | parent median | change median | change | pairs better "
        "| parent IQR | past bound |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
        "| w1 | speed | 11.5 | 13 | +13.0 % | 3 of 4, 1 tied | 1.5 | False |",
        "| w1 | ms | 2 | 2.5 | +25.0 % | 0 of 4, 1 tied | 0 | True |",
        "| w1 | loss | 0.5 | 0.5 | +0.0 % | 0 of 4, 4 tied | 0 | None |",
        "| w2 | speed | 0 | 11.5 | n/a | 4 of 4 | 0 | False |",
        "| w2 | ms | 2 | 2 | +0.0 % | 0 of 4, 4 tied | 0 | False |",
        "| w2 | loss | 0.5 | 0.5 | +0.0 % | 0 of 4, 4 tied | 0 | None |",
    ]


def test_options_are_required_without_show(bench_pairs, capsys):
    assert bench_pairs.parse_args(["--show", "r.json"], NAMES).show == "r.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(REQUIRED[2:], NAMES)
    assert exc.value.code == 2
    assert "required: --parent" in capsys.readouterr().err
