"""Byte-identity contract: one small fixed chain of commands, run in process,
must reproduce the sha256 of every output file recorded in golden.json.

A change that moves an output on purpose rewrites golden.json in the same
commit (run this file as a script: `python tests/test_golden.py`) and names
each moved file and the reason. The GRU-dependent digests (bundle.json,
train_report.json and everything under eval_models/) rest on numpy's BLAS
build; they are pinned too, so a platform whose BLAS rounds differently
fails here on those files only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from crossrisk.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden.json"
GRID = Path(__file__).resolve().parent.parent / "configs" / "grid.json"

# 40 s at seed 7; eight pedestrians per category leave each category enough
# episodes for tune's five folds after the test split.
SPEC = {"seed": 7, "duration_s": 40.0, "n_adults": 8, "n_kids": 8, "n_cyclists": 8}
TRAIN = {"seed": 0, "hidden_size": 8, "epochs": 1, "patience": 0, "batch_size": 64}


def run_chain(work: Path) -> dict[str, str]:
    """Run gen, evaluate --truth, tune, evaluate --thresholds, build-dataset,
    train, evaluate --models and metrics in work; sha256 of every output file
    (and of metrics' printed report), keyed by its path under work."""
    (work / "spec.json").write_text(json.dumps(SPEC), encoding="utf-8")
    (work / "train.json").write_text(json.dumps(TRAIN), encoding="utf-8")
    stream, area_map, truth = (str(work / "gen" / n) for n in ("stream.csv", "area_map.json", "ground_truth.json"))
    trace = str(work / "eval" / "ppet_trace.csv")
    evaluate = ["evaluate", "--stream", stream, "--area-map", area_map, "--truth", truth]
    commands = [
        ["gen", "--spec", str(work / "spec.json"), "--out", str(work / "gen")],
        evaluate + ["--out", str(work / "eval")],
        ["tune", "--trace", trace, "--truth", truth, "--grid", str(GRID), "--k", "5",
         "--out", str(work / "calibration.json"), "--thresholds-out", str(work / "thresholds.json"),
         "--points-csv", str(work / "points.csv")],
        evaluate + ["--thresholds", str(work / "thresholds.json"), "--out", str(work / "eval_tuned")],
        ["build-dataset", "--stream", stream, "--area-map", area_map, "--truth", truth,
         "--out", str(work / "samples.jsonl")],
        ["train", "--dataset", str(work / "samples.jsonl"), "--config", str(work / "train.json"),
         "--out", str(work / "bundle.json"), "--report", str(work / "train_report.json")],
        evaluate + ["--models", str(work / "bundle.json"), "--out", str(work / "eval_models")],
    ]
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["metrics", "--trace", trace, "--truth", truth]) == EXIT_OK
    (work / "metrics.stdout").write_text(printed.getvalue(), encoding="utf-8")
    inputs = {"spec.json", "train.json"}
    return {
        path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.rglob("*"))
        if path.is_file() and path.name not in inputs
    }


def test_chain_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_chain(tmp_path) == golden


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_chain(Path(tmp))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
