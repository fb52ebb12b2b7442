"""Paths, workload table and small helpers shared by the benchmark scripts."""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG_DIR = BENCH_DIR / "config"
WORK_DIR = ROOT / ".perfbench_work"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"


@dataclass(frozen=True)
class Workload:
    name: str
    specs: tuple[str, ...]  # scenario spec under config/ per sub-scenario; sub-seed seed + 1000 i
    pixel: bool = False     # project the stream to pixels and transform per frame
    gru: bool = False       # random-weight GRU for every (category, q) pair
    offline: bool = False
    rep_s: float = 10.0     # nominal repetition time on a 2-core x86 machine; sets the repetition count
    min_reps: int = 1

    @property
    def subs(self) -> int:
        """Independent scenarios, each played through a fresh pipeline."""
        return len(self.specs)

    def sub_seeds(self, seed: int) -> list[int]:
        return [seed + 1000 * i for i in range(self.subs)]

    def repetitions(self, seconds: float) -> int:
        """A count fixed by the arguments alone, never by measured speed."""
        return max(self.min_reps, int(seconds // self.rep_s))


WORKLOADS = {
    w.name: w
    for w in (
        # one pedestrian per recording: every seed's frames then hold the same mix of frames
        # with no, one pedestrian or one pedestrian and its vehicle to evaluate
        Workload("stream-pixel-gru", ("pixel_adult.json", "pixel_kid.json", "pixel_cyclist.json") * 10,
                 pixel=True, gru=True, rep_s=46.0),
        # two repetitions: the chain's bundle, calibration and samples must repeat within a run.
        # The chain gens, trains and tunes on the first scenario; each repetition's frame loop
        # plays it and two world scenarios of its own (OFFLINE_FRAME_SUBS, offline_rep)
        Workload("offline-chain", ("offline.json",) + ("world.json",) * 4, offline=True, rep_s=23.0, min_reps=2),
    )
}

OFFLINE_FRAME_SUBS = 2  # world scenarios per offline repetition besides the first scenario
GEN_FILES = ("stream.csv", "ground_truth.json", "area_map.json")
GRU_HIDDEN = 32
TUNE_FOLDS = 2  # 5 episodes per category: 2 folds survive any 20% test draw (3 of 15 episodes)


def import_crossrisk() -> None:
    """Put the checkout's src/ first on sys.path; exit non-zero without it."""
    src = ROOT / "src"
    if not (src / "crossrisk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no crossrisk sources under {src}")
    sys.path.insert(0, str(src))


def file_digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])
