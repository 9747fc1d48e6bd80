"""scripts/same_outputs.py on two fake checkouts, whose CLI writes one
number per output file."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import same_outputs  # noqa: E402

# writes {"command": ..., "strength": ...} to --out; the train workload's
# predict (the one without --mode) adds MOVE to its strength
FAKE_CLI = """
import json, sys
args = sys.argv[1:]
move = MOVE if args[0] == "predict" and "--mode" not in args else 0.0
with open(args[args.index("--out") + 1], "w") as fh:
    fh.write(json.dumps({"command": args[0], "strength": 0.25 + move}) + "\\n")
print("ran", args[0], file=sys.stderr)
"""


@pytest.fixture
def small_workloads(monkeypatch):
    for workload, sizes in {
            "Label": {"PER_EMOTION": 1, "MIN_S": 0.2, "MAX_S": 0.2},
            "Train": {"PER_EMOTION": 1, "HELDOUT_PER_EMOTION": 1},
            "Paragraphs": {"COUNT": 2, "SHORTEST": 2, "LONGEST": 3,
                           "SERVED_PER_EMOTION": 1}}.items():
        for name, value in sizes.items():
            monkeypatch.setattr(getattr(same_outputs.workloads, workload),
                                name, value)


def fake_checkout(root: Path, move: float) -> str:
    package = root / "src" / "emopred"
    package.mkdir(parents=True)
    (package / "__init__.py").touch()
    (package / "cli.py").write_text(FAKE_CLI.replace("MOVE", repr(move)))
    return str(root)


def test_identical_checkouts_exit_0(tmp_path, small_workloads, capsys):
    sides = [fake_checkout(tmp_path / side, 0.0) for side in ("a", "b")]
    assert same_outputs.main([*sides, "--seeds", "1"]) == 0
    out = capsys.readouterr().out
    # features, annotate; train, predict, eval; train, 2 predicts, the
    # merged predictions, encode, eval; and a log per CLI process
    assert "summary: 21 files at seeds 1: 21 identical, 0 numbers differ" in out
    assert "seed 1  paragraphs/05-encode.log  identical" in out


def test_a_moved_strength_is_named_by_file_and_number(tmp_path,
                                                      small_workloads,
                                                      capsys):
    sides = [fake_checkout(tmp_path / "parent", 0.0),
             fake_checkout(tmp_path / "change", 1e-12)]
    assert same_outputs.main([*sides, "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert ("seed 1  train/predictions.jsonl  largest |difference| 1e-12 at "
            "line 1, number 1: 0.25 vs 0.250000000001") in out
    assert "20 identical, 1 numbers differ" in out
    # a tolerance above the move lets it pass, one below does not
    assert same_outputs.main([*sides, "--seeds", "1", "--tolerance",
                              "1e-9"]) == 0
    assert same_outputs.main([*sides, "--seeds", "1", "--tolerance",
                              "1e-13"]) == 1


def test_failed_stage_and_non_checkout_are_refused(tmp_path, small_workloads,
                                                   capsys):
    good = fake_checkout(tmp_path / "parent", 0.0)
    broken = fake_checkout(tmp_path / "change", 0.0)
    (Path(broken) / "src" / "emopred" / "cli.py").write_text(
        "raise SystemExit(3)\n")
    assert same_outputs.main([good, broken, "--seeds", "1"]) == 1
    out = capsys.readouterr().out
    assert "FAILED seed 1 change: label stage 1 (features) exited 3" in out
    with pytest.raises(SystemExit) as exc:
        same_outputs.main([good, str(tmp_path), "--seeds", "1"])
    assert exc.value.code == 2
    assert "is not a source checkout" in capsys.readouterr().err
