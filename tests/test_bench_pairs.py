"""The paired-run verdict of scripts/bench_pairs.py, on synthetic runs,
and the environment it runs both checkouts in."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# ten runs with median 1.0 and quartiles 0.9775 and 1.0225 (IQR 4.5%)
TIGHT = [0.95, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.05]


def scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize("factor, expected", [
    (1.00, "within bound"),
    (1.20, "within bound"),
    (1.30, "regression"),
])
def test_tight_parent_lower_is_better(factor, expected):
    worse, word = bench_pairs.verdict(TIGHT, scaled(TIGHT, factor), "lower",
                                      0.25)
    assert word == expected
    assert worse == pytest.approx(factor - 1.0)


def test_higher_is_better_flips_the_sign():
    worse, word = bench_pairs.verdict(TIGHT, scaled(TIGHT, 0.7), "higher",
                                      0.25)
    assert worse == pytest.approx(0.3)
    assert word == "regression"
    worse, word = bench_pairs.verdict(TIGHT, scaled(TIGHT, 1.1), "higher",
                                      0.25)
    assert worse == pytest.approx(-0.1)
    assert word == "within bound"


def test_parent_spread_wider_than_bound_is_unresolved():
    # quartiles 0.7375 and 1.2625 around a median of 1.0: IQR 52.5% > 25%
    wide = [0.5, 0.7, 0.75, 0.8, 0.9, 1.1, 1.2, 1.25, 1.3, 1.5]
    assert bench_pairs.verdict(wide, wide, "lower", 0.25)[1] == "unresolved"
    # a change far worse than the bound is still unresolved, not a regression
    assert bench_pairs.verdict(wide, scaled(wide, 1.5), "lower",
                               0.25)[1] == "unresolved"
    # a bound wider than the spread resolves it
    assert bench_pairs.verdict(wide, wide, "lower", 0.6)[1] == "within bound"


def test_every_change_run_better_resolves_a_wide_spread():
    wide = [0.5, 0.7, 0.75, 0.8, 0.9, 1.1, 1.2, 1.25, 1.3, 1.5]
    change = [0.4, 0.45, 0.49]
    worse, word = bench_pairs.verdict(wide, change, "lower", 0.25)
    assert word == "better in every run"
    assert worse == pytest.approx(-0.55)
    # one change run tied with the parent's best is not better than it
    assert bench_pairs.verdict(wide, [*change, 0.5], "lower",
                               0.25)[1] == "unresolved"


def test_single_runs():
    assert bench_pairs.verdict([2.0], [2.4], "lower", 0.25) == (
        pytest.approx(0.2), "within bound")
    assert bench_pairs.verdict([2.0], [1.0], "lower", 0.25) == (
        pytest.approx(-0.5), "better in every run")


def test_both_sides_share_one_fresh_bytecode_cache(tmp_path, monkeypatch,
                                                   capsys):
    # each fake checkout's run.py appends the cache prefix it ran with,
    # and whether it may write bytecode there
    run_py = (
        "import sys\n"
        "with open('prefixes.txt', 'a') as fh:\n"
        "    print(sys.pycache_prefix, sys.dont_write_bytecode, file=fh)\n"
        "print('wall_s 1.0 s lower n=1')\n")
    checkouts = [tmp_path / "parent", tmp_path / "change"]
    for checkout in checkouts:
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text(run_py)
        (checkout / "BENCHMARK.json").write_text(json.dumps(
            {"end_to_end": [{"name": "wall_s", "bound": 0.25}]}))
    monkeypatch.delenv("PYTHONPYCACHEPREFIX", raising=False)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.main([*map(str, checkouts), "--workload", "w",
                             "--seed", "1", "--seconds", "0",
                             "--pairs", "2"]) == 0
    assert "within bound" in capsys.readouterr().out
    runs = [line.split() for checkout in checkouts for line in
            (checkout / "prefixes.txt").read_text().splitlines()]
    # one untimed run per side, then two pairs
    assert len(runs) == 6
    assert {write for _, write in runs} == {"False"}
    assert len({prefix for prefix, _ in runs}) == 1
    prefix = Path(runs[0][0])
    assert prefix.is_absolute()
    assert all(not prefix.is_relative_to(checkout) for checkout in checkouts)
    # and it is removed once the pairs are run
    assert not prefix.exists()
