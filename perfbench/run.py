"""crossrisk benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload stream-pixel-gru --seed 7 --seconds 45 --trace 0

Generates the workload's inputs from the seed (in a child process), sets up
three times, repeats the workload's fixed unit of work a fixed number of
times, and sets up three times more. The count is --seconds over the
workload's nominal repetition time (at least one; two on offline-chain),
never a number that depends on measured speed, so every commit is measured
on the same samples. A stream repetition plays each of the workload's
recordings once, every frame of each from frame 0 to the recording's end;
more distinct recordings damp the seed-to-seed spread of the frame
percentiles, where repeating the same ones would not. Frame latencies are
pooled over the repetitions and pass_s is the mean repetition time. The
output digest is printed; it must repeat across repetitions, and on the
streams the first recording is played again to check that its outputs
repeat.

With --trace 0 it prints every end-to-end metric of BENCHMARK.json; with
--trace 1 it also runs one traced repetition (on the streams, of the first
half of the recordings) and prints every per-layer metric. The last line of
standard output is the JSON result. See perfbench/workloads.json for the
workloads, their sizes and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One thread: keep the BLAS pool from adding a second one (the child that
# generates inputs inherits this too). Must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

from common import BENCH_DIR, BENCHMARK_FILE, WORK_DIR, WORKLOADS, import_crossrisk, last_json_line  # noqa: E402

SETUP_REPEATS = 3  # before and again after the repetitions, so the median spans the run
INPUT_TIMEOUT_S = 150


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def generate_inputs(workload: str, seed: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "inputs.py"), "--workload", workload, "--seed", str(seed), "--out", str(out)],
        capture_output=True, text=True, timeout=INPUT_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: input generation failed ({proc.returncode}):\n{proc.stderr}")
    return last_json_line(proc.stdout)


def end_to_end(reps, setup_s: list[float], peak_rss_mb: float) -> dict[str, float]:
    import numpy as np

    frame_ms = np.concatenate([np.frombuffer(rep.frame_ms) for rep in reps])
    if reps[0].command_s:
        pass_s = statistics.fmean(sum(rep.command_s.values()) for rep in reps)
    else:
        pass_s = float(frame_ms.sum()) / 1000.0 / len(reps)
    return {
        "throughput_fps": len(frame_ms) / (float(frame_ms.sum()) / 1000.0),
        "frame_p50_ms": float(np.percentile(frame_ms, 50)),
        "frame_p99_ms": float(np.percentile(frame_ms, 99)),
        "pass_s": pass_s,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(workload, reps, gc_monitor, traced_rep, tracers, gen: dict) -> dict[str, float]:
    from tracing import PREDICTION_ERRORS, all_targets, gen_targets

    values: dict[str, float] = {}
    for name, _, _ in gen_targets() + all_targets():
        values.update({f"{name}.{suffix}": 0 for suffix in ("calls", "ms", "s", "self_ms", "self_s")})
    counts: dict[str, int] = {}
    inclusive_s: dict[str, float] = {}
    for tracer in tracers:
        for name, (calls, self_s, incl_s) in tracer.summary().items():
            values.update({f"{name}.calls": calls, f"{name}.ms": self_s * 1000.0, f"{name}.s": self_s,
                           f"{name}.self_ms": self_s * 1000.0, f"{name}.self_s": self_s})
            inclusive_s[name] = incl_s
        for key, n in tracer.counts.items():
            counts[key] = counts.get(key, 0) + n
    for key in ("stream.agents_in_areas.scanned", "predictors.forward_batch.rows", "risk.flags",
                "calibration.grid_points", "predictors.samples"):
        values[key] = counts.get(key, 0)
    for cls in PREDICTION_ERRORS + ("PredictionError",):
        values[f"predictors.predict.failed.{cls}"] = counts.get(f"predictors.predict.failed.{cls}", 0)
    predict_calls = values["predictors.predict.calls"]
    values["predictors.predict.ok_ratio"] = counts.get("predictors.predict.ok", 0) / predict_calls if predict_calls else 0
    search_s = inclusive_s.get("calibration.grid_search", 0.0)
    values["calibration.grid_points_per_s"] = values["calibration.grid_points"] / search_s if search_s else 0

    values["stream.live_buffers"] = traced_rep.live_buffers
    values["stream.live_pedestrians"] = traced_rep.live_pedestrians
    values["pipeline.evaluations"] = traced_rep.evaluations
    if workload.offline:
        overhead = traced_rep.wall_s / statistics.fmean(rep.wall_s for rep in reps)
    else:  # the traced repetition plays the first scenarios only; compare their frame time
        n = len(traced_rep.sub_frame_s)
        overhead = sum(traced_rep.sub_frame_s) / statistics.fmean(sum(rep.sub_frame_s[:n]) for rep in reps)
    values["bench.tracing_overhead"] = overhead

    # Tail attribution and collector pauses from the first untraced repetition.
    first = reps[0]
    worst = max(range(len(first.frame_ms)), key=first.frame_ms.__getitem__)
    start = first.frame_start[worst]
    end = start + first.frame_ms[worst] / 1000.0
    overlap = sum(max(0.0, min(e, end) - max(s, start)) for _, s, e in gc_monitor.between(start, end))
    pauses = gc_monitor.between(first.begin, first.end)
    values["pipeline.frame_max_ms"] = first.frame_ms[worst]
    values["pipeline.frame_max_index"] = worst
    values["runtime.gc_pause_in_frame_max_ms"] = overlap * 1000.0
    values["runtime.gc_collections.gen2"] = sum(1 for g, _, _ in pauses if g == 2)
    values["runtime.gc_pause_max_ms"] = max(((e - s) * 1000.0 for _, s, e in pauses), default=0.0)
    values["runtime.gc_pause_total_ms"] = sum((e - s) * 1000.0 for _, s, e in pauses)
    for command in ("gen", "build-dataset", "train", "tune"):
        key = command.replace("-", "_") + "_s"
        values[key] = statistics.fmean(rep.command_s[command] for rep in reps) if workload.offline else 0
    if not workload.offline:
        values["gen_s"] = gen["gen_s"]
    return values


def run(args: argparse.Namespace, work: Path) -> tuple[dict, list[str]]:
    import workloads as wl
    from tracing import GcMonitor, Tracer, all_targets, gen_targets

    from crossrisk.cli import main as crossrisk_main

    workload = WORKLOADS[args.workload]
    inputs = work / "inputs"
    gen = generate_inputs(workload.name, args.seed, inputs)

    setup_s = []

    def set_up():
        start = time.perf_counter()
        s = wl.setup(workload, inputs)
        setup_s.append(time.perf_counter() - start)
        return s

    for _ in range(SETUP_REPEATS):
        s = set_up()

    def one_rep(part: int):
        gc.collect()
        if workload.offline:
            return wl.offline_rep(s, workload, args.seed, inputs, work / "chain", part)
        return wl.stream_rep(s)

    with GcMonitor() as gc_monitor:
        reps = [one_rep(i) for i in range(workload.repetitions(args.seconds))]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for _ in range(SETUP_REPEATS):
        set_up()

    problems = [p for rep in reps for p in rep.problems]
    digests = {rep.digest for rep in reps}
    if len(digests) != 1:
        problems.append(f"outputs differ between repetitions: {sorted(digests)}")
    if not workload.offline:
        # A stream repetition plays every scenario once; the first is played
        # again, untimed, and must give the same outputs.
        again = wl.stream_rep(s, 1)
        problems += again.problems
        if again.sub_digests[0] != reps[0].sub_digests[0]:
            problems.append("the first scenario's outputs differ when it is played again")
    if workload.offline and len({rep.samples for rep in reps}) != 1:
        problems.append("sample count differs between repetitions")

    sizes = {"scenarios": workload.subs, "frames": sum(len(rep.frame_ms) for rep in reps), "observations": 0, "agents": 0}
    for frames in s.streams:
        rows = [row for batch in frames.values() for row in batch]
        sizes["observations"] += len(rows)
        sizes["agents"] += len({row[1] if workload.pixel else row.agent_id for row in rows})
    sizes.update({
        "repetitions": len(reps),
        "risk_scenarios": reps[0].risk_scenarios,
    })
    if workload.offline:
        sizes.update(samples=reps[0].samples, grid_points=reps[0].grid_points)

    if args.trace:
        tracers = []
        if not workload.offline:  # the offline repetition runs gen itself
            with Tracer(gen_targets()) as gen_tracer:
                for spec, seed in zip(workload.specs, workload.sub_seeds(args.seed)):
                    rc = crossrisk_main(["gen", "--spec", str(BENCH_DIR / "config" / spec),
                                         "--seed", str(seed), "--out", str(work / "traced_gen")])
                    if rc != 0:
                        problems.append(f"traced gen exited with {rc}")
            tracers.append(gen_tracer)
        gc.collect()
        with Tracer(all_targets() + (gen_targets() if workload.offline else [])) as tracer:
            if workload.offline:
                traced_rep = one_rep(0)
            else:  # half the scenarios, so that a traced run stays well inside its time limit
                traced_rep = wl.stream_rep(s, (workload.subs + 1) // 2)
        tracers.append(tracer)
        tracer.save(WORK_DIR / f"spans-{workload.name}-{args.seed}.npz")
        problems += traced_rep.problems
        if workload.offline:
            changed = traced_rep.digest != reps[0].digest
        else:
            changed = traced_rep.sub_digests != reps[0].sub_digests[: len(traced_rep.sub_digests)]
        if changed:
            problems.append("the traced repetition changed the outputs")
        metrics = per_layer(workload, reps, gc_monitor, traced_rep, tracers, gen)
        spec_key = "per_layer"
    else:
        metrics = end_to_end(reps, setup_s, peak_rss_mb)
        spec_key = "end_to_end"

    digest = reps[0].digest
    spec = json.loads(BENCHMARK_FILE.read_text())[spec_key]
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    correct = not problems and failed == 0
    if problems:
        failed = attempted
    lines = [f"{workload.name} seed={args.seed} " + " ".join(f"{k}={v}" for k, v in sizes.items()),
             f"  input digest {gen['digest']}", f"  output digest {digest}"]
    lines += [f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}" for m in spec]
    if not args.trace:  # printed, not gated: see "frame_p50_ms" in workloads.json
        lines.append(f"  frame_p50_ms = {metrics['frame_p50_ms']:.6g} ms (not in BENCHMARK.json)")
    lines += [f"  problem: {p}" for p in problems]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    return result, lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not BENCHMARK_FILE.is_file():
        raise SystemExit(f"perfbench: {BENCHMARK_FILE} is missing")
    import_crossrisk()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_DIR))
    try:
        result, lines = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
