"""Generate one workload's input files from its seed.

Runs `crossrisk gen` in process once per sub-scenario (into sub<i>/) and
times it. The pixel workload also gets its streams projected through the
synthetic camera, the reference tile grid and a seeded random-weight GRU
bundle. Run as a child of run.py so that
generation does not count toward the measured process's peak memory:

    python3 perfbench/inputs.py --workload stream-pixel-gru --seed 7 --out DIR

The last line of standard output is a JSON object with the total gen time
and the digest of the generated files.
"""

from __future__ import annotations

import argparse
import csv
import json
import time
from pathlib import Path

from common import CONFIG_DIR, GEN_FILES, GRU_HIDDEN, WORKLOADS, file_digest, import_crossrisk


def write_pixel_stream(world_csv: Path, pixel_csv: Path) -> None:
    from crossrisk.stream import STREAM_HEADER_PIXEL, read_stream_csv
    from crossrisk.synthgen import camera_pixel_of

    frames = read_stream_csv(str(world_csv))
    with open(pixel_csv, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(STREAM_HEADER_PIXEL)
        for frame in sorted(frames):
            for o in frames[frame]:
                p = camera_pixel_of(o.position)
                writer.writerow([o.frame, repr(o.t), o.agent_id, int(o.category), repr(p.u), repr(p.v)])


def write_gru_bundle(path: Path, seed: int) -> None:
    import numpy as np

    from crossrisk.predictors import RecurrentRegressor, TrainedModelBundle
    from crossrisk.predictors.bundle import ALL_PAIRS

    rng = np.random.default_rng(seed)
    bundle = TrainedModelBundle({pair: RecurrentRegressor.initialize(GRU_HIDDEN, rng) for pair in ALL_PAIRS})
    bundle.save(str(path))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    import_crossrisk()
    from crossrisk.cli import main as crossrisk_main

    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    gen_s = 0.0
    generated = []
    for i, (spec, seed) in enumerate(zip(workload.specs, workload.sub_seeds(args.seed))):
        sub = out / f"sub{i}"
        argv = ["gen", "--spec", str(CONFIG_DIR / spec), "--seed", str(seed), "--out", str(sub)]
        start = time.perf_counter()
        rc = crossrisk_main(argv)
        gen_s += time.perf_counter() - start
        if rc != 0:
            raise SystemExit(f"gen exited with {rc}")
        generated += [sub / name for name in GEN_FILES]
        if workload.pixel:
            write_pixel_stream(sub / "stream.csv", sub / "stream_pixel.csv")

    if workload.pixel:
        from crossrisk.geometry import save_tile_grid
        from crossrisk.synthgen import reference_tile_grid

        save_tile_grid(str(out / "tile_grid.json"), reference_tile_grid())
    if workload.gru:
        write_gru_bundle(out / "bundle.json", args.seed)
    print(json.dumps({"gen_s": gen_s, "digest": file_digest(*generated)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
