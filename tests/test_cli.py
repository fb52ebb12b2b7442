import json
from pathlib import Path

import numpy as np
import pytest

from crossrisk.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main
from crossrisk.pipeline import RiskPipeline, TraceRow, write_risk_scenarios, write_trace_csv
from crossrisk.risk import AreaRole, RiskLevel, RiskThresholdConfig
from crossrisk.stream import AgentCategory, read_stream_csv
from crossrisk.synthgen import AgentTruth, GroundTruth, reference_area_map

from helpers import planted_episodes, track_with_targets


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    spec = {
        "seed": 19, "duration_s": 70.0, "n_adults": 6, "n_kids": 2, "n_cyclists": 2,
    }
    spec_path = out / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    assert main(["gen", "--spec", str(spec_path), "--out", str(out)]) == EXIT_OK
    return out


class TestGen:
    def test_outputs_exist(self, gen_dir):
        assert (gen_dir / "stream.csv").is_file()
        assert (gen_dir / "ground_truth.json").is_file()
        assert (gen_dir / "area_map.json").is_file()

    def test_byte_identical_re_run(self, gen_dir, tmp_path):
        spec_path = gen_dir / "spec.json"
        assert main(["gen", "--spec", str(spec_path), "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "stream.csv").read_bytes() == (gen_dir / "stream.csv").read_bytes()
        assert (tmp_path / "ground_truth.json").read_bytes() == (gen_dir / "ground_truth.json").read_bytes()


class TestHomography:
    def test_identity_anchors(self, tmp_path):
        anchors = [{"pixel": [[0, 0], [1, 0], [1, 1], [0, 1]], "world": [[0, 0], [1, 0], [1, 1], [0, 1]]}]
        src = tmp_path / "anchors.json"
        src.write_text(json.dumps(anchors), encoding="utf-8")
        out = tmp_path / "grid.json"
        assert main(["homography", "--anchors", str(src), "--out", str(out)]) == EXIT_OK
        grid = json.loads(out.read_text())
        assert np.allclose(grid[0]["matrix"], np.eye(3), atol=1e-12)

    def test_camera_tiles_residual(self, tmp_path, tile_grid):
        anchors = [
            {
                "pixel": [[c.u, c.v] for c in tile.pixel_region],
                "world": [[c.x, c.y] for c in tile.world_region],
            }
            for tile in tile_grid.tiles
        ]
        src = tmp_path / "anchors.json"
        src.write_text(json.dumps(anchors), encoding="utf-8")
        out = tmp_path / "grid.json"
        assert main(["homography", "--anchors", str(src), "--out", str(out)]) == EXIT_OK
        from crossrisk.geometry import load_tile_grid

        grid = load_tile_grid(str(out))
        worst = 0.0
        for tile in grid.tiles:
            for pc, wc in zip(tile.pixel_region, tile.world_region):
                worst = max(worst, tile.transform(pc).distance_to(wc))
        assert worst < 1e-6

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        src = tmp_path / "anchors.json"
        src.write_text("{not json", encoding="utf-8")
        code = main(["homography", "--anchors", str(src), "--out", str(tmp_path / "g.json")])
        assert code == EXIT_INPUT
        assert "line" in capsys.readouterr().err

    def test_degenerate_tile_fails_fast(self, tmp_path, capsys):
        anchors = [{"pixel": [[0, 0], [1, 1], [2, 2], [0, 1]], "world": [[0, 0], [1, 0], [1, 1], [0, 1]]}]
        src = tmp_path / "anchors.json"
        src.write_text(json.dumps(anchors), encoding="utf-8")
        assert main(["homography", "--anchors", str(src), "--out", str(tmp_path / "g.json")]) == EXIT_INPUT
        assert f"tile 0 in {src}" in capsys.readouterr().err

    def test_matrix_entry_is_kept_once_it_maps_the_corners(self, tmp_path, capsys):
        """An anchors entry with a "matrix" keeps it (a scaled matrix is the
        same map); one that misses a corner exits 2 naming the tile."""
        square = [[0, 0], [1, 0], [1, 1], [0, 1]]
        src = tmp_path / "anchors.json"
        out = tmp_path / "grid.json"
        for matrix, code in ((2 * np.eye(3), EXIT_OK), (np.diag([2.0, 1.0, 1.0]), EXIT_INPUT)):
            src.write_text(json.dumps([{"pixel": square, "world": square, "matrix": matrix.tolist()}]))
            assert main(["homography", "--anchors", str(src), "--out", str(out)]) == code
        assert json.loads(out.read_text())[0]["matrix"] == (2 * np.eye(3)).tolist()
        assert f"tile 0 in {src}" in capsys.readouterr().err


class TestBuildDatasetAndTrain:
    def test_dataset_counts_match_window_oracle(self, gen_dir, tmp_path):
        out = tmp_path / "samples.jsonl"
        code = main([
            "build-dataset", "--stream", str(gen_dir / "stream.csv"),
            "--area-map", str(gen_dir / "area_map.json"),
            "--truth", str(gen_dir / "ground_truth.json"),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        header, *agents = [json.loads(line) for line in out.read_text().splitlines()]
        assert header == {"format": "crossrisk-samples", "version": 3}
        assert {tuple(sorted(agent)) for agent in agents} == {
            ("agent_id", "awareness", "category", "frames", "t", "targets", "x", "y")}
        samples = [f for agent in agents for target in agent["targets"] for f in target["first_frames"]]
        assert samples

        # oracle: per agent and target line, windows whose end precedes the
        # first line crossing of the raw trajectory
        from crossrisk.geometry import load_area_map
        from crossrisk.stream import WINDOW_SIZE, Track

        frames = read_stream_csv(str(gen_dir / "stream.csv"))
        area_map = load_area_map(str(gen_dir / "area_map.json"))
        by_agent = {}
        for f in sorted(frames):
            for o in frames[f]:
                by_agent.setdefault(o.agent_id, []).append(o)
        expected = 0
        for agent_id, traj in by_agent.items():
            if len(traj) < WINDOW_SIZE:
                continue
            for _, line in Track.from_observations(traj, area_map).targets:
                xs = [(o.position.x, o.position.y) for o in traj]
                ts = [o.t for o in traj]
                t_cross = None
                for i in range(1, len(traj)):
                    d_prev = (line.p0.x - xs[i - 1][0]) * line.normal[0] + (
                        line.p0.y - xs[i - 1][1]
                    ) * line.normal[1]
                    d_cur = (line.p0.x - xs[i][0]) * line.normal[0] + (
                        line.p0.y - xs[i][1]
                    ) * line.normal[1]
                    if d_prev > 0 >= d_cur:
                        t_cross = ts[i - 1] + (ts[i] - ts[i - 1]) * d_prev / (d_prev - d_cur)
                        break
                if t_cross is None:
                    continue
                expected += sum(
                    1
                    for j in range(len(traj) - WINDOW_SIZE + 1)
                    if traj[j + WINDOW_SIZE - 1].t <= t_cross
                    and traj[j + WINDOW_SIZE - 1].frame - traj[j].frame == WINDOW_SIZE - 1
                )
        assert len(samples) == expected

    def test_empty_stream_gives_empty_dataset(self, gen_dir, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("frame,t,id,category,x,y\n", encoding="utf-8")
        out = tmp_path / "samples.jsonl"
        code = main([
            "build-dataset", "--stream", str(empty),
            "--area-map", str(gen_dir / "area_map.json"), "--out", str(out),
        ])
        assert code == EXIT_OK
        assert out.read_text() == '{"format": "crossrisk-samples", "version": 3}\n'
        from crossrisk.predictors.dataset import read_samples_jsonl

        assert read_samples_jsonl(str(out)) == []

    def test_train_produces_loadable_bundle(self, gen_dir, tmp_path):
        samples = tmp_path / "samples.jsonl"
        assert main([
            "build-dataset", "--stream", str(gen_dir / "stream.csv"),
            "--area-map", str(gen_dir / "area_map.json"),
            "--truth", str(gen_dir / "ground_truth.json"), "--out", str(samples),
        ]) == EXIT_OK
        config = tmp_path / "train.json"
        config.write_text(
            json.dumps({"seed": 2, "hidden_size": 8, "epochs": 1, "patience": 0, "batch_size": 256}),
            encoding="utf-8",
        )
        bundle_path = tmp_path / "bundle.json"
        report_path = tmp_path / "report.json"
        assert main([
            "train", "--dataset", str(samples), "--config", str(config),
            "--out", str(bundle_path), "--report", str(report_path),
        ]) == EXIT_OK
        from crossrisk.predictors import TrainedModelBundle
        from crossrisk.predictors.bundle import ALL_PAIRS

        bundle = TrainedModelBundle.load(str(bundle_path))
        assert set(bundle.predictors) == set(ALL_PAIRS)
        report = json.loads(report_path.read_text())
        assert len(report) == len(ALL_PAIRS)


class TestEvaluate:
    def test_matches_library_composition(self, gen_dir, tmp_path):
        out = tmp_path / "eval"
        code = main([
            "evaluate", "--stream", str(gen_dir / "stream.csv"),
            "--area-map", str(gen_dir / "area_map.json"),
            "--truth", str(gen_dir / "ground_truth.json"),
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert (out / "risk_scenarios.jsonl").is_file()
        assert (out / "ppet_trace.csv").is_file()
        assert (out / "metrics.json").is_file()

        frames = read_stream_csv(str(gen_dir / "stream.csv"))
        pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default())
        result = pipeline.run(frames.items())
        direct = tmp_path / "direct.jsonl"
        write_risk_scenarios(str(direct), result.risk_scenarios)
        assert direct.read_bytes() == (out / "risk_scenarios.jsonl").read_bytes()

    def test_no_vehicle_scenario_emits_nothing(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({
                "seed": 23, "duration_s": 50.0, "n_adults": 4, "n_kids": 1, "n_cyclists": 1,
                "vehicle_rate_per_min": 0.0, "conflict_probability": 0.0,
            }),
            encoding="utf-8",
        )
        gen_out = tmp_path / "g"
        assert main(["gen", "--spec", str(spec), "--out", str(gen_out)]) == EXIT_OK
        eval_out = tmp_path / "e"
        assert main([
            "evaluate", "--stream", str(gen_out / "stream.csv"),
            "--area-map", str(gen_out / "area_map.json"), "--out", str(eval_out),
        ]) == EXIT_OK
        assert (eval_out / "risk_scenarios.jsonl").read_text() == ""


def _write_episode_files(tmp_path):
    """A planted-rule trace CSV and its ground truth, 40 episodes."""
    episodes = planted_episodes(40, seed=3)
    rows = []
    truth = GroundTruth()
    for e in episodes:
        truth.agents[e.ped_id] = AgentTruth(category=e.category)
        for role, level in e.labels.items():
            truth.risk[(e.ped_id, role.value)] = level
        for frame, vec in enumerate(e.trace):
            rows.append(TraceRow(frame, e.ped_id, "v0", AreaRole.CLOSER, vec.c_pf, vec.c_vf))
            rows.append(TraceRow(frame, e.ped_id, "", AreaRole.FURTHER, vec.f_pf, vec.f_vf))
    trace_path = tmp_path / "trace.csv"
    truth_path = tmp_path / "truth.json"
    write_trace_csv(str(trace_path), rows)
    truth.save(str(truth_path))
    return trace_path, truth_path


class TestTune:
    def test_recovers_planted_interval(self, tmp_path):
        trace_path, truth_path = _write_episode_files(tmp_path)
        grid = {
            "axes": {
                "closer": {
                    "pf": {"alpha": [-1.5, -0.5, 0.25], "beta": [-0.5, 0.5, 0.25]},
                    "vf": {"alpha": [9.0, 9.0, 1.0], "beta": [9.0, 9.0, 1.0]},
                },
                "further": {
                    "pf": {"alpha": [9.0, 9.0, 1.0], "beta": [9.0, 9.0, 1.0]},
                    "vf": {"alpha": [9.0, 9.0, 1.0], "beta": [9.0, 9.0, 1.0]},
                },
            },
            "theta": {"closer": [1, 2, 3], "further": [1]},
        }
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps(grid), encoding="utf-8")
        report_path = tmp_path / "report.json"
        points_path = tmp_path / "points.csv"
        code = main([
            "tune", "--trace", str(trace_path), "--truth", str(truth_path),
            "--grid", str(grid_path), "--k", "5", "--seed", "1",
            "--out", str(report_path), "--points-csv", str(points_path),
        ])
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["mode"] == "per_area"  # the default when the grid sets no mode
        best = report["best_config"]["categories"]["0"]
        alpha, beta = best["intervals"]["closer"]["pf"]
        assert abs(alpha - (-1.0)) <= 0.25 + 1e-9
        assert abs(beta - 0.0) <= 0.25 + 1e-9
        assert best["counters"]["closer"] == 2
        assert points_path.is_file()
        header = points_path.read_text().splitlines()[0]
        assert header.startswith("category,area,alpha_pf")


_EVAL_FILES = ("ppet_trace.csv", "risk_scenarios.jsonl", "summary.json", "metrics.json")
_LATENCY_KEYS = {
    "unit", "frames", "transform_ms", "ingest_ms", "prediction_ms", "ppet_risk_ms",
    "safety_evaluation_mean_ms", "safety_evaluation_p50_ms", "safety_evaluation_p99_ms",
    "safety_evaluation_max_ms", "risk_scenarios",
}


def _evaluate_gen(gen_dir, out, *extra):
    return main([
        "evaluate", "--stream", str(gen_dir / "stream.csv"),
        "--area-map", str(gen_dir / "area_map.json"), "--out", str(out), *extra,
    ])


class TestLatencyAndMetrics:
    def test_latency_out_reports_latency(self, gen_dir, tmp_path):
        out = tmp_path / "latency.json"
        code = _evaluate_gen(gen_dir, tmp_path / "eval", "--assert-budget", "33", "--latency-out", str(out))
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["unit"] == "frame"
        assert report["safety_evaluation_mean_ms"] < 33.0

    def test_latency_flags_leave_the_outputs_byte_identical(self, gen_dir, tmp_path, capsys):
        """evaluate with the latency report and both budgets writes the same
        four files as a plain evaluate, prints the same line, and its latency
        report has exactly the report's keys."""
        truth = ("--truth", str(gen_dir / "ground_truth.json"))
        assert _evaluate_gen(gen_dir, tmp_path / "plain", *truth) == EXIT_OK
        plain_line = capsys.readouterr().out.replace(str(tmp_path / "plain"), "<out>")
        latency = tmp_path / "latency.json"
        assert _evaluate_gen(gen_dir, tmp_path / "timed", *truth, "--latency-out", str(latency),
                             "--assert-budget", "1000", "--assert-p99", "1000") == EXIT_OK
        assert capsys.readouterr().out.replace(str(tmp_path / "timed"), "<out>") == plain_line
        for name in _EVAL_FILES:
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "timed" / name).read_bytes(), name
        report = json.loads(latency.read_text())
        assert set(report) == _LATENCY_KEYS
        summary = json.loads((tmp_path / "timed" / "summary.json").read_text())
        assert report["risk_scenarios"] == summary["risk_scenarios"]

    def test_over_budget_exits_3_after_writing_every_output(self, gen_dir, tmp_path, capsys):
        latency = tmp_path / "latency.json"
        code = _evaluate_gen(gen_dir, tmp_path / "eval", "--truth", str(gen_dir / "ground_truth.json"),
                             "--latency-out", str(latency), "--assert-p99", "0.0000001")
        assert code == EXIT_BUDGET
        assert "p99" in capsys.readouterr().err
        for path in (*(tmp_path / "eval" / name for name in _EVAL_FILES), latency):
            assert path.is_file() and path.stat().st_size > 0, path

    def test_pixel_stream_latency_times_transform(self, tmp_path):
        """Pixel-variant streams are transformed per frame through the tile
        grid, and the transform stage shows up in the latency report."""
        import csv as csv_mod

        from crossrisk.geometry import save_tile_grid
        from crossrisk.synthgen import (
            ScenarioSpec, camera_pixel_of, generate, reference_tile_grid,
        )
        from crossrisk.geometry import save_area_map
        from crossrisk.synthgen import reference_area_map as ref_map

        spec = ScenarioSpec(seed=51, duration_s=25, n_adults=2, n_kids=0, n_cyclists=1)
        frames, _ = generate(spec)
        pixel_path = tmp_path / "pixels.csv"
        with open(pixel_path, "w", encoding="utf-8", newline="\n") as fh:
            writer = csv_mod.writer(fh, lineterminator="\n")
            writer.writerow(["frame", "t", "id", "category", "u", "v"])
            for frame in sorted(frames):
                for o in frames[frame]:
                    p = camera_pixel_of(o.position)
                    writer.writerow([o.frame, repr(o.t), o.agent_id, int(o.category), repr(p.u), repr(p.v)])
        grid_path = tmp_path / "grid.json"
        save_tile_grid(str(grid_path), reference_tile_grid())
        map_path = tmp_path / "area_map.json"
        save_area_map(str(map_path), ref_map())
        out = tmp_path / "latency.json"
        code = main([
            "evaluate", "--stream", str(pixel_path), "--area-map", str(map_path),
            "--tile-grid", str(grid_path), "--out", str(tmp_path / "eval"), "--latency-out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["transform_ms"]["mean"] > 0.0
        assert report["ingest_ms"]["mean"] > 0.0
        assert report["frames"] > 0
        # the report and the summary count the same flags of the one run
        summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
        assert summary["risk_scenarios"] == report["risk_scenarios"] > 0

    def test_budget_violation_exits_3(self, gen_dir, tmp_path):
        code = _evaluate_gen(gen_dir, tmp_path / "eval", "--assert-budget", "0.0000001")
        assert code == EXIT_BUDGET

    def test_p99_over_budget_exits_3(self, gen_dir, tmp_path, capsys):
        code = _evaluate_gen(gen_dir, tmp_path / "eval", "--assert-p99", "0.0000001")
        assert code == EXIT_BUDGET
        assert "p99" in capsys.readouterr().err

    def test_p99_in_budget_exits_0_and_reports_the_tail(self, gen_dir, tmp_path):
        out = tmp_path / "latency.json"
        code = _evaluate_gen(gen_dir, tmp_path / "eval", "--assert-p99", "1000000", "--latency-out", str(out))
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        p50, p99 = report["safety_evaluation_p50_ms"], report["safety_evaluation_p99_ms"]
        assert 0.0 < p50 <= p99 <= report["safety_evaluation_max_ms"]

    def test_frame_loop_runs_with_gc_frozen(self, gen_dir, tmp_path, monkeypatch):
        """Every frame runs with the setup's objects frozen out of the
        collector, and the freeze is lifted once the command returns."""
        import gc

        counts = []
        process_frame = RiskPipeline.process_frame

        def spy(self, frame, observations):
            counts.append(gc.get_freeze_count())
            return process_frame(self, frame, observations)

        monkeypatch.setattr(RiskPipeline, "process_frame", spy)
        before = gc.get_freeze_count()
        assert _evaluate_gen(gen_dir, tmp_path / "eval") == EXIT_OK
        assert counts and min(counts) > 0
        assert gc.get_freeze_count() == before

    def test_realtime_pacing_leaves_outputs_unchanged(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({
                "seed": 41, "duration_s": 12.0, "n_adults": 0, "n_kids": 0, "n_cyclists": 2,
                "conflict_probability": 1.0, "risky_fraction": 1.0, "vehicle_rate_per_min": 0.0,
            }),
            encoding="utf-8",
        )
        gen_out = tmp_path / "g"
        assert main(["gen", "--spec", str(spec), "--out", str(gen_out)]) == EXIT_OK
        for name, extra in (("plain", []), ("paced", ["--realtime"])):
            assert _evaluate_gen(gen_out, tmp_path / name, "--truth", str(gen_out / "ground_truth.json"),
                                 *extra) == EXIT_OK
        for name in _EVAL_FILES:
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "paced" / name).read_bytes(), name

    @pytest.mark.parametrize("option", ["--assert-budget", "--assert-p99"])
    @pytest.mark.parametrize("budget", ["nan", "inf", "0"])
    def test_budget_not_finite_and_positive_is_exit_2(self, option, budget, gen_dir, tmp_path, capsys):
        """A NaN budget could never fail and an infinite one turns the gate
        off, so neither (nor a budget of 0) is taken: evaluate exits 2 before
        it runs a frame or writes an output."""
        with pytest.raises(SystemExit) as exc:
            _evaluate_gen(gen_dir, tmp_path / "eval", option, budget)
        assert exc.value.code == EXIT_INPUT
        assert f"argument {option}: must be a finite number of milliseconds above 0" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["replay", "--stream", "s.csv", "--area-map", "a.json"],
            ["metrics", "--trace", "t.csv", "--truth", "g.json", "--tp", "3", "--tn", "4", "--fp", "2", "--fn", "1"],
            ["metrics", "--truth", "g.json"],
            ["metrics", "--trace", "t.csv"],
        ],
        ids=["replay", "metrics-counts", "metrics-without-trace", "metrics-without-truth"],
    )
    def test_removed_command_or_options_are_usage_errors(self, argv):
        """evaluate writes the latency report, so there is no replay command;
        metrics reads a trace against the ground truth, never typed counts."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_missing_input_is_exit_2(self, tmp_path, capsys):
        code = main([
            "evaluate", "--stream", str(tmp_path / "nope.csv"),
            "--area-map", str(tmp_path / "nope.json"), "--out", str(tmp_path),
        ])
        assert code == EXIT_INPUT


@pytest.mark.parametrize(
    "argv",
    [
        ["build-dataset", "--stream", "s.csv", "--area-map", "a.json", "--out", "o.jsonl", "--fps", "25"],
        ["evaluate", "--stream", "s.csv", "--area-map", "a.json", "--seed", "1"],
        ["evaluate", "--stream", "s.csv", "--area-map", "a.json", "--fps", "30"],
    ],
    ids=["build-dataset-fps", "evaluate-seed", "evaluate-fps"],
)
def test_flag_the_command_does_not_read_is_rejected(argv, capsys):
    """Each command takes only the shared flags it reads: --seed for gen,
    train and tune. No command takes --fps: every stream is at stream.FPS."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "build-dataset"])
@pytest.mark.parametrize(
    "header, bad_row",
    [
        ("x,y", "2,0.0667,a0,0,nan,1.0"),
        ("x,y", "2,nan,a0,0,3.0,1.0"),
        ("x,y", "2,0.0667,a0,0,inf,1.0"),
        ("x,y", "2,0.0667,a0,0,3.0"),
        ("u,v", "2,0.0667,a0,0,nan,400.0"),
        ("u,v", "2,0.0667,a0,0,640.0"),
        ("x,y", "0,0.0667,b0,0,3.0,1.0"),
        ("u,v", "0,0.0667,b0,0,640.0,400.0"),
    ],
    ids=["world-nan", "world-nan-time", "world-inf", "world-short", "pixel-nan", "pixel-short",
         "world-earlier-frame", "pixel-earlier-frame"],
)
def test_malformed_stream_row_is_input_error(command, header, bad_row, tmp_path, capsys):
    from crossrisk.geometry import WorldPoint, save_area_map, save_tile_grid
    from crossrisk.synthgen import camera_pixel_of, reference_tile_grid

    good = WorldPoint(3.0, 1.0)
    if header == "u,v":
        pixel = camera_pixel_of(good)
        good_cells = f"{pixel.u!r},{pixel.v!r}"
    else:
        good_cells = f"{good.x!r},{good.y!r}"
    stream = tmp_path / "stream.csv"
    stream.write_text(
        f"frame,t,id,category,{header}\n"
        f"0,0.0,a0,0,{good_cells}\n"
        f"1,0.0333,a0,0,{good_cells}\n"
        f"{bad_row}\n",
        encoding="utf-8",
    )
    area_map = tmp_path / "area_map.json"
    save_area_map(str(area_map), reference_area_map())
    grid = tmp_path / "grid.json"
    save_tile_grid(str(grid), reference_tile_grid())
    out = tmp_path / ("samples.jsonl" if command == "build-dataset" else "out")
    code = main([
        command, "--stream", str(stream), "--area-map", str(area_map),
        "--tile-grid", str(grid), "--out", str(out),
    ])
    assert code == EXIT_INPUT
    assert f"{stream}:4" in capsys.readouterr().err


def test_frames_before_a_bad_row_are_processed_before_it_is_read(tmp_path, monkeypatch):
    """The stream is read one frame at a time: the frames before a malformed
    last row reach process_frame before the command exits 2 on that row."""
    rows = "".join(f"{frame},{frame / 30!r},a0,0,3.0,1.0\n" for frame in range(3))
    stream = tmp_path / "stream.csv"
    stream.write_text(f"frame,t,id,category,x,y\n{rows}3,0.1,a0,0,nan,1.0\n", encoding="utf-8")
    processed = []
    process_frame = RiskPipeline.process_frame

    def spy(self, frame, observations):
        processed.append(frame)
        return process_frame(self, frame, observations)

    monkeypatch.setattr(RiskPipeline, "process_frame", spy)
    assert _stream_command("evaluate", stream, tmp_path) == EXIT_INPUT
    # frame 2 is complete only once the next row is read
    assert processed == [0, 1]


def _stream_command(command, stream, tmp_path, *extra):
    from crossrisk.geometry import save_area_map

    area_map = tmp_path / "area_map.json"
    save_area_map(str(area_map), reference_area_map())
    out = tmp_path / ("samples.jsonl" if command == "build-dataset" else "out")
    return main([command, "--stream", str(stream), "--area-map", str(area_map), "--out", str(out), *extra])


@pytest.mark.parametrize("command", ["evaluate", "build-dataset"])
@pytest.mark.parametrize("rows", ["", "0,0.0,a0,0,640.0,400.0\n"], ids=["header-only", "one-row"])
def test_pixel_stream_without_tile_grid_is_exit_2(command, rows, tmp_path, capsys):
    stream = tmp_path / "pixels.csv"
    stream.write_text("frame,t,id,category,u,v\n" + rows, encoding="utf-8")
    assert _stream_command(command, stream, tmp_path) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == f"error: {stream} is a pixel stream; a tile grid is required\n"


@pytest.mark.parametrize("command", ["evaluate", "build-dataset"])
def test_world_stream_does_not_read_the_tile_grid(command, tmp_path):
    stream = tmp_path / "stream.csv"
    stream.write_text("frame,t,id,category,x,y\n0,0.0,a0,0,3.0,1.0\n", encoding="utf-8")
    assert _stream_command(command, stream, tmp_path, "--tile-grid", str(tmp_path / "nope.json")) == EXIT_OK


_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]


@pytest.mark.parametrize("command", ["evaluate", "build-dataset"])
@pytest.mark.parametrize(
    "second_tile, message",
    [
        ({"pixel": [[2, 0], [3, 1], [4, 2], [2, 1]], "world": _SQUARE}, "tile 1 in {grid} is malformed"),
        ({"pixel": _SQUARE, "world": _SQUARE}, "tile grid {grid}: tile 0 overlaps tile 1"),
    ],
    ids=["degenerate", "overlapping"],
)
def test_bad_tile_grid_names_the_file(command, second_tile, message, tmp_path, capsys):
    stream = tmp_path / "pixels.csv"
    stream.write_text("frame,t,id,category,u,v\n0,0.0,a0,0,640.0,400.0\n", encoding="utf-8")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"pixel": _SQUARE, "world": _SQUARE}, second_tile]))
    assert _stream_command(command, stream, tmp_path, "--tile-grid", str(grid)) == EXIT_INPUT
    assert message.format(grid=grid) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "build-dataset"])
def test_area_map_without_a_target_line_is_input_error(command, gen_dir, tmp_path, capsys):
    """An area map that lacks a line some agent can need exits 2 naming the
    file and the line, checked when the map is loaded."""
    doc = json.loads((gen_dir / "area_map.json").read_text(encoding="utf-8"))
    del doc["target_lines"]["veh_3.2_leave"]
    area_map = tmp_path / "area_map.json"
    area_map.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / ("samples.jsonl" if command == "build-dataset" else "out")
    argv = [command, "--stream", str(gen_dir / "stream.csv"), "--area-map", str(area_map), "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert f"{area_map}: area map has no target line 'veh_3.2_leave'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "metrics", "tune"])
def test_truth_risk_area_other_than_closer_or_further_is_input_error(command, tmp_path, capsys):
    trace_path, truth_path = _write_episode_files(tmp_path)
    doc = json.loads(truth_path.read_text(encoding="utf-8"))
    doc["risk"][0]["area"] = "middle"
    truth_path.write_text(json.dumps(doc), encoding="utf-8")
    if command == "evaluate":
        stream = tmp_path / "stream.csv"
        stream.write_text("frame,t,id,category,x,y\n0,0.0,a0,0,3.0,1.0\n", encoding="utf-8")
        code = _stream_command(command, stream, tmp_path, "--truth", str(truth_path))
    else:
        code = _tune_or_metrics(command, trace_path, truth_path, tmp_path)
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"cannot read ground truth {truth_path}" in err and "'middle'" in err


@pytest.mark.parametrize("command", ["evaluate", "metrics", "tune"])
@pytest.mark.parametrize(
    "case, message",
    [
        ("merged-area", "risk area of 'p000' must be one of ['closer', 'further'], got 'merged'"),
        ("one-area", "'p000' is labeled in one area only; label it in each of ['closer', 'further']"),
        ("unknown-agent", "risk entry for 'ghost', which is not an agent"),
    ],
    ids=["merged-area", "one-area", "unknown-agent"],
)
def test_truth_that_does_not_label_both_areas_of_an_agent_is_input_error(
    command, case, message, tmp_path, capsys
):
    """A ground truth labels each labeled pedestrian, which must be one of
    its agents, in the closer and the further area and nowhere else: every
    command that scores episodes exits 2 naming the file. evaluate checks
    the truth before the first frame, so its --out receives no trace."""
    trace_path, truth_path = _write_episode_files(tmp_path)
    doc = json.loads(truth_path.read_text(encoding="utf-8"))
    p000 = [entry for entry in doc["risk"] if entry["ped_id"] == "p000"]
    if case == "merged-area":
        doc["risk"].append({**p000[0], "area": "merged"})
    elif case == "one-area":
        doc["risk"].remove(p000[1])
    else:
        doc["risk"].append({**p000[0], "ped_id": "ghost"})
    truth_path.write_text(json.dumps(doc), encoding="utf-8")
    if command == "evaluate":
        stream = tmp_path / "stream.csv"
        stream.write_text("frame,t,id,category,x,y\n0,0.0,a0,0,3.0,1.0\n", encoding="utf-8")
        code = _stream_command(command, stream, tmp_path, "--truth", str(truth_path))
        assert not (tmp_path / "out" / "ppet_trace.csv").exists()
    else:
        code = _tune_or_metrics(command, trace_path, truth_path, tmp_path)
    assert code == EXIT_INPUT
    assert f"cannot read ground truth {truth_path}: {message}" in capsys.readouterr().err


def _role_doc(pf, vf):
    return {"pf": pf, "vf": vf}


def test_default_threshold_file_text_is_pinned(tmp_path):
    """The shipped defaults save as this exact text: categories in id order,
    each role's pf then vf interval, then the counter limits."""
    path = tmp_path / "thresholds.json"
    RiskThresholdConfig.default().save(str(path))
    expected = {"categories": {
        "0": {"mode": "per_area",
              "intervals": {"closer": _role_doc([-0.7, 0.1], [0.1, 1.1]),
                            "further": _role_doc([-2.5, -1.5], [0.9, 2.4])},
              "counters": {"closer": 3, "further": 3}},
        "1": {"mode": "merged_area",
              "intervals": {"merged": _role_doc([-3.3, -3.1], [1.0, 1.5])},
              "counters": {"merged": 3}},
        "2": {"mode": "per_area",
              "intervals": {"closer": _role_doc([-3.0, -2.6], [1.4, 2.0]),
                            "further": _role_doc([-0.6, 0.2], [0.6, 1.6])},
              "counters": {"closer": 5, "further": 3}},
    }}
    assert path.read_text(encoding="utf-8") == json.dumps(expected, indent=2) + "\n"


def test_tuned_threshold_file_text_is_pinned(tmp_path):
    """tune --thresholds-out on configs/grid.json over a 48-pedestrian
    scenario writes this exact text, which metrics --thresholds reads."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 5, "duration_s": 150.0, "n_adults": 16, "n_kids": 16, "n_cyclists": 16}),
                    encoding="utf-8")
    g, e = tmp_path / "g", tmp_path / "e"
    assert main(["gen", "--spec", str(spec), "--out", str(g)]) == EXIT_OK
    assert main(["evaluate", "--stream", str(g / "stream.csv"), "--area-map", str(g / "area_map.json"),
                 "--out", str(e)]) == EXIT_OK
    tuned = tmp_path / "tuned.json"
    assert main(["tune", "--trace", str(e / "ppet_trace.csv"), "--truth", str(g / "ground_truth.json"),
                 "--grid", str(Path(__file__).resolve().parent.parent / "configs" / "grid.json"),
                 "--out", str(tmp_path / "calibration.json"), "--thresholds-out", str(tuned)]) == EXIT_OK
    roles = {"closer": _role_doc([-2.5, 1.0], [-1.0, 1.0]), "further": _role_doc([-2.5, 1.0], [-1.0, 1.0])}
    counters = {"closer": 3, "further": 3}
    expected = {"categories": {
        "0": {"mode": "per_area", "intervals": roles, "counters": counters},
        "1": {"mode": "per_area",
              "intervals": {**roles, "further": _role_doc([-2.5, 1.5], [-1.0, 1.0])}, "counters": counters},
        "2": {"mode": "per_area", "intervals": roles, "counters": counters},
    }}
    assert tuned.read_text(encoding="utf-8") == json.dumps(expected, indent=2) + "\n"
    assert main(["metrics", "--trace", str(e / "ppet_trace.csv"), "--truth", str(g / "ground_truth.json"),
                 "--thresholds", str(tuned)]) == EXIT_OK


@pytest.mark.parametrize("command", ["evaluate", "metrics"])
@pytest.mark.parametrize("case", ["missing-role", "extra-role", "extra-counter"])
def test_threshold_file_whose_roles_do_not_match_its_mode_is_input_error(command, case, tmp_path, capsys):
    """A category must hold exactly the roles of its mode, each with its
    intervals and its counter limit: a threshold file that lacks one or
    names another exits 2 naming the file."""
    trace_path, truth_path = _write_episode_files(tmp_path)
    doc = RiskThresholdConfig.default().to_dict()
    adult = doc["categories"]["0"]
    if case == "missing-role":
        del adult["intervals"]["further"], adult["counters"]["further"]
    elif case == "extra-role":
        adult["intervals"]["merged"], adult["counters"]["merged"] = _role_doc([0.0, 1.0], [0.0, 1.0]), 3
    else:
        adult["counters"]["merged"] = 3
    thresholds = tmp_path / "thresholds.json"
    thresholds.write_text(json.dumps(doc), encoding="utf-8")
    if command == "evaluate":
        stream = tmp_path / "stream.csv"
        stream.write_text("frame,t,id,category,x,y\n0,0.0,a0,0,3.0,1.0\n", encoding="utf-8")
        code = _stream_command(command, stream, tmp_path, "--thresholds", str(thresholds))
    else:
        code = main(["metrics", "--trace", str(trace_path), "--truth", str(truth_path),
                     "--thresholds", str(thresholds)])
    assert code == EXIT_INPUT
    assert f"cannot read threshold config {thresholds}" in capsys.readouterr().err


def test_evaluate_metrics_and_tune_score_the_same_episodes(gen_dir, tmp_path, capsys):
    """A labeled pedestrian that the stream never shows is one episode with
    an empty trace for evaluate --truth, metrics --trace --truth and tune."""
    truth = GroundTruth.load(str(gen_dir / "ground_truth.json"))
    truth.agents["ghost"] = AgentTruth(category=AgentCategory.ADULT)
    for role in ("closer", "further"):
        truth.risk[("ghost", role)] = RiskLevel.RISK2
    truth_path = tmp_path / "truth.json"
    truth.save(str(truth_path))
    labeled = {ped_id for ped_id, _ in truth.risk}
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--stream", str(gen_dir / "stream.csv"), "--area-map", str(gen_dir / "area_map.json"),
        "--truth", str(truth_path), "--out", str(out),
    ]) == EXIT_OK
    assert ",ghost," not in (out / "ppet_trace.csv").read_text()
    capsys.readouterr()
    assert main(["metrics", "--trace", str(out / "ppet_trace.csv"), "--truth", str(truth_path)]) == EXIT_OK
    printed = json.loads(capsys.readouterr().out)
    assert sum(printed.pop("counts").values()) == 2 * len(labeled)
    assert printed == json.loads((out / "metrics.json").read_text())
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps(_SMALL_GRID), encoding="utf-8")
    assert main([
        "tune", "--trace", str(out / "ppet_trace.csv"), "--truth", str(truth_path), "--grid", str(grid_path),
        "--k", "1", "--out", str(tmp_path / "report.json"),
    ]) == EXIT_OK
    assert json.loads((tmp_path / "report.json").read_text())["episodes"] == len(labeled)


@pytest.mark.parametrize("command", ["evaluate", "build-dataset", "metrics", "tune"])
@pytest.mark.parametrize("fps", [25.9, 24, 30.0, True])
def test_truth_frame_rate_other_than_the_streams_is_input_error(command, fps, tmp_path, capsys):
    """A ground truth must state the stream's frame rate, 30, as an integer:
    every command that reads one exits 2 naming the file."""
    trace_path, truth_path = _write_episode_files(tmp_path)
    doc = json.loads(truth_path.read_text(encoding="utf-8"))
    doc["fps"] = fps
    truth_path.write_text(json.dumps(doc), encoding="utf-8")
    if command in ("evaluate", "build-dataset"):
        stream = tmp_path / "stream.csv"
        stream.write_text("frame,t,id,category,x,y\n0,0.0,a0,0,3.0,1.0\n", encoding="utf-8")
        code = _stream_command(command, stream, tmp_path, "--truth", str(truth_path))
    else:
        code = _tune_or_metrics(command, trace_path, truth_path, tmp_path)
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"cannot read ground truth {truth_path}: fps must be 30, got {fps!r}" in err


@pytest.mark.parametrize("command", ["evaluate", "build-dataset"])
def test_category_change_is_input_error(command, tmp_path, capsys):
    stream = tmp_path / "stream.csv"
    stream.write_text(
        "frame,t,id,category,x,y\n"
        "0,0.0,a0,0,3.0,1.0\n"
        "1,0.0333,a0,0,3.0,1.1\n"
        "2,0.0667,a0,2,3.0,1.2\n",
        encoding="utf-8",
    )
    assert _stream_command(command, stream, tmp_path) == EXIT_INPUT
    assert "agent a0 is category 2 in frame 2" in capsys.readouterr().err


# One grid point per area; the grid spec tests break it one way at a time.
_SMALL_GRID = {
    "axes": {
        role: {s: {"alpha": [-1.0, -1.0, 1.0], "beta": [0.0, 0.0, 1.0]} for s in ("pf", "vf")}
        for role in ("closer", "further")
    },
    "theta": {"closer": [2], "further": [2]},
}


def _tune_or_metrics(command, trace_path, truth_path, tmp_path, grid_text=None, k="5"):
    if command == "metrics":
        return main(["metrics", "--trace", str(trace_path), "--truth", str(truth_path)])
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(grid_text or json.dumps(_SMALL_GRID), encoding="utf-8")
    return main([
        "tune", "--trace", str(trace_path), "--truth", str(truth_path), "--grid", str(grid_path),
        "--k", k, "--out", str(tmp_path / "report.json"),
    ])


@pytest.mark.parametrize("command", ["tune", "metrics"])
def test_well_formed_trace_and_grid_are_accepted(command, tmp_path):
    trace_path, truth_path = _write_episode_files(tmp_path)
    assert _tune_or_metrics(command, trace_path, truth_path, tmp_path) == EXIT_OK


@pytest.mark.parametrize("command", ["tune", "metrics"])
@pytest.mark.parametrize(
    "header, row, line",
    [
        ("frame,ped_id,veh_id,area,c_pf,c_vf,f_pf", None, 1),
        (None, "x1,p000,v0,closer,-0.5,-3.0,,", 2),
        (None, "0,p000,v0,merged,-0.5,-3.0,,", 2),
        (None, "0,p000,v0,closer,abc,-3.0,,", 2),
        (None, "0,p000,v0,closer,-0.5,inf,,", 2),
        (None, "0,p000,v0,closer,-0.5,-3.0,0.5,", 2),
        (None, "0,p000,v0,further,,-1.0,0.5,-3.0", 2),
        (None, "0,p000,v0,closer,-0.5", 2),
    ],
    ids=["missing-column", "frame", "area", "component", "non-finite", "other-area", "other-area-further",
         "short-row"],
)
def test_malformed_trace_row_is_input_error(command, header, row, line, tmp_path, capsys):
    trace_path, truth_path = _write_episode_files(tmp_path)
    lines = trace_path.read_text(encoding="utf-8").splitlines()
    lines[0] = header or lines[0]
    lines[1] = row or lines[1]  # the first closer row
    trace_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _tune_or_metrics(command, trace_path, truth_path, tmp_path) == EXIT_INPUT
    assert f"{trace_path}:{line}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({"theta": _SMALL_GRID["theta"]}),
        json.dumps({**_SMALL_GRID, "mode": "bogus"}),
        json.dumps({**_SMALL_GRID, "theta": {"closer": [2], "further": [0, 2]}}),
        json.dumps(_SMALL_GRID).replace("-1.0", "NaN", 1),
        json.dumps(_SMALL_GRID).replace("-1.0", "-Infinity", 1),
        json.dumps(_SMALL_GRID).replace("[-1.0, -1.0, 1.0]", "[-1.0, 1e308, 0.5]", 1),
    ],
    ids=["invalid-json", "missing-axes", "bogus-mode", "theta-below-1", "nan-bound", "infinite-bound",
         "overflowing-count"],
)
def test_malformed_grid_spec_is_input_error(text, tmp_path, capsys):
    trace_path, truth_path = _write_episode_files(tmp_path)
    assert _tune_or_metrics("tune", trace_path, truth_path, tmp_path, text) == EXIT_INPUT
    assert str(tmp_path / "grid.json") in capsys.readouterr().err


@pytest.mark.parametrize("value", [3.9, True, "3"], ids=["float", "bool", "string"])
@pytest.mark.parametrize("command", ["metrics", "tune"])
def test_non_integer_counter_limit_is_input_error(command, value, tmp_path, capsys):
    """A counter limit in a threshold file (metrics) or a grid spec (tune)
    must be a JSON integer: a float, boolean or string is not read as some
    integer near it, but exits 2 naming the file."""
    trace_path, truth_path = _write_episode_files(tmp_path)
    if command == "metrics":
        doc = RiskThresholdConfig.default().to_dict()
        doc["categories"]["0"]["counters"]["closer"] = value
        path = tmp_path / "thresholds.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["metrics", "--trace", str(trace_path), "--truth", str(truth_path), "--thresholds", str(path)])
    else:
        path = tmp_path / "grid.json"
        grid_text = json.dumps({**_SMALL_GRID, "theta": {"closer": [2, value], "further": [2]}})
        code = _tune_or_metrics("tune", trace_path, truth_path, tmp_path, grid_text)
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(path) in err and "counter limits must be integers" in err


@pytest.mark.parametrize("k", ["0", "-2"])
def test_fewer_than_one_fold_is_input_error(k, tmp_path, capsys):
    trace_path, truth_path = _write_episode_files(tmp_path)
    assert _tune_or_metrics("tune", trace_path, truth_path, tmp_path, k=k) == EXIT_INPUT
    assert f"k = {k} folds" in capsys.readouterr().err


def test_too_few_search_episodes_names_the_category(tmp_path, capsys):
    """40 planted adult episodes leave 32 to search after the 20% test
    hold-out, fewer than 40 folds."""
    trace_path, truth_path = _write_episode_files(tmp_path)
    assert _tune_or_metrics("tune", trace_path, truth_path, tmp_path, k="40") == EXIT_INPUT
    assert (
        "error: category 0: 32 search episodes after the 20% test hold-out, fewer than k = 40 folds"
        in capsys.readouterr().err
    )


@pytest.mark.parametrize("command", ["evaluate", "build-dataset"])
@pytest.mark.parametrize("t", ["0.0333", "0.02"], ids=["repeated", "backward"])
def test_non_increasing_time_is_input_error(command, t, tmp_path, capsys):
    stream = tmp_path / "stream.csv"
    stream.write_text(
        "frame,t,id,category,x,y\n"
        "0,0.0,a0,0,3.0,1.0\n"
        "1,0.0333,a0,0,3.0,1.1\n"
        f"2,{t},a0,0,3.0,1.2\n",
        encoding="utf-8",
    )
    assert _stream_command(command, stream, tmp_path) == EXIT_INPUT
    assert f"agent a0 is at t={t} in frame 2, not after its previous t=0.0333" in capsys.readouterr().err


def _samples_file(tmp_path):
    """A labeled-samples file of one adult's windows before it crosses q0."""
    from crossrisk.geometry import WorldPoint
    from crossrisk.predictors import build_labeled_dataset
    from crossrisk.predictors.dataset import write_samples_jsonl
    from crossrisk.stream import AgentCategory, Observation

    area_map = reference_area_map()
    traj = [
        Observation(i, i / 30.0, "a0", AgentCategory.ADULT, WorldPoint(-2.0 + 0.05 * i, 1.0))
        for i in range(45)
    ]
    target = (0, area_map.line("ped_ltr_q0"))
    samples = build_labeled_dataset([track_with_targets(traj, [target])])
    path = tmp_path / "samples.jsonl"
    write_samples_jsonl(str(path), samples)
    return path, len(samples)


def test_well_formed_samples_are_accepted(tmp_path):
    from crossrisk.predictors.dataset import read_samples_jsonl

    path, count = _samples_file(tmp_path)
    assert count > 1
    assert len(read_samples_jsonl(str(path))) == count


def _break_sample(doc, case):
    """Break one agent line of a samples file; returns a fragment of the message."""
    target = doc["targets"][0]
    if case == "inf-time":
        doc["t"][3] = float("inf")
        return "must be finite"
    if case == "nan-arrival":
        target["arrival_time"][0] = float("nan")
        return "arrival time must be finite"
    if case == "short-x":
        doc["x"] = doc["x"][:-1]
        return f"frames, t, x and y hold {len(doc['t'])}, {len(doc['t'])}, {len(doc['x'])} and"
    if case == "29-points":
        for key in ("frames", "t", "x", "y"):
            doc[key] = doc[key][:29]
        return "fewer than one window's 30"
    if case == "nan-y":
        doc["y"][5] = float("nan")
        return "must be finite"
    if case == "repeated-time":
        doc["t"][4] = doc["t"][3]
        return "t must strictly increase"
    if case == "missing-t":
        del doc["t"]
        return "lacks key 't'"
    if case == "first-frame-not-in-frames":
        target["first_frames"][-1] = doc["frames"][-1] + 1
        return f"first frame {doc['frames'][-1] + 1} is not in frames"
    if case == "window-not-consecutive":
        # one window left, at the first frame; its rows now skip a frame
        target["first_frames"], target["arrival_time"] = target["first_frames"][:1], target["arrival_time"][:1]
        for key in ("frames", "t", "x", "y"):
            del doc[key][10]
        return f"window at first frame {target['first_frames'][0]} does not span 30 consecutive frames"
    if case == "unequal-window-lists":
        target["arrival_time"].pop()
        return "first_frames but"
    if case == "negative-arrival":
        target["arrival_time"][-1] = -0.5
        return "arrival time must be finite and >= 0"
    if case == "vehicle-kind":
        target["kind"] = "vehicle"
        return "target kind 'vehicle' contradicts category 0"
    if case == "vehicle-category":
        doc["category"] = 3
        return "target kind 'pedestrian' contradicts category 3"
    if case == "q-outside-category":
        doc["category"], target["kind"], target["q"] = 3, "vehicle", 2
        return "q=2 invalid for category 3"
    raise AssertionError(case)


@pytest.mark.parametrize(
    "case",
    [
        "inf-time", "nan-arrival", "short-x", "29-points", "nan-y", "repeated-time", "missing-t",
        "first-frame-not-in-frames", "window-not-consecutive", "unequal-window-lists", "negative-arrival",
        "vehicle-kind", "vehicle-category", "q-outside-category",
    ],
)
def test_malformed_sample_is_input_error(case, tmp_path, capsys):
    path, _ = _samples_file(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2  # the header and the one agent
    doc = json.loads(lines[1])
    message = _break_sample(doc, case)
    lines[1] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "bundle.json")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{path}:2" in err
    assert message in err


@pytest.mark.parametrize(
    "first_line",
    ["", "{}", '{"format": "crossrisk-samples", "version": 1}', '{"format": "crossrisk-samples", "version": 2}',
     "not json"],
)
def test_samples_file_without_version_3_header_is_input_error(first_line, tmp_path, capsys):
    path, _ = _samples_file(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([first_line, *lines[1:]]) + "\n", encoding="utf-8")
    assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "bundle.json")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{path}:1" in err
    assert "re-run build-dataset" in err


def test_one_window_per_line_samples_file_is_input_error(tmp_path, capsys):
    """A file in the format before version 2 (one window per line, no
    header, a reaction and a risk level on each window) is rejected at its
    first line."""
    path, _ = _samples_file(tmp_path)
    agent = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
    target = agent["targets"][0]
    window = {
        "agent_id": agent["agent_id"], "category": agent["category"], "kind": target["kind"],
        "q": target["q"], "arrival_time": target["arrival_time"][0], "awareness": agent["awareness"],
        "reaction": 0, "risk_level": 1,
        "first_frame": target["first_frames"][0], "t": agent["t"][:30], "x": agent["x"][:30],
        "y": agent["y"][:30], "line": target["line"],
    }
    path.write_text(json.dumps(window, sort_keys=True) + "\n", encoding="utf-8")
    assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "bundle.json")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{path}:1" in err
    assert "re-run build-dataset" in err


def _gru_bundle(path):
    """A bundle whose adult center-line predictor is a small random GRU."""
    from crossrisk.predictors import RecurrentRegressor, TrainedModelBundle
    from crossrisk.stream import AgentCategory

    bundle = TrainedModelBundle.historical_average()
    bundle.predictors[(AgentCategory.ADULT, 1)] = RecurrentRegressor.initialize(
        4, np.random.default_rng(0)
    )
    bundle.save(str(path))


def _break_bundle(doc, case):
    entry = next(e for e in doc["models"] if e["kind"] == "recurrent")
    field, value = {
        "zero-std": ("feat_std", 0.0),
        "negative-std": ("feat_std", -0.5),
        "nan-std": ("feat_std", float("nan")),
        "inf-std": ("feat_std", float("inf")),
        "nan-mean": ("feat_mean", float("nan")),
        "inf-mean": ("feat_mean", float("-inf")),
        "nan-weight": ("w_hz", float("nan")),
        "inf-weight": ("b_out", float("inf")),
    }[case]
    values = entry[field] if field.startswith("feat_") else entry["weights"][field]["data"]
    values[0] = value


def _evaluate_with_models(gen_dir, bundle, out):
    return main([
        "evaluate", "--stream", str(gen_dir / "stream.csv"),
        "--area-map", str(gen_dir / "area_map.json"),
        "--models", str(bundle), "--out", str(out),
    ])


def test_well_formed_bundle_is_accepted(gen_dir, tmp_path):
    bundle = tmp_path / "bundle.json"
    _gru_bundle(bundle)
    assert _evaluate_with_models(gen_dir, bundle, tmp_path / "eval") == EXIT_OK


@pytest.mark.parametrize(
    "case",
    ["zero-std", "negative-std", "nan-std", "inf-std", "nan-mean", "inf-mean", "nan-weight", "inf-weight"],
)
def test_malformed_bundle_is_input_error(case, gen_dir, tmp_path, capsys):
    bundle = tmp_path / "bundle.json"
    _gru_bundle(bundle)
    doc = json.loads(bundle.read_text(encoding="utf-8"))
    _break_bundle(doc, case)
    bundle.write_text(json.dumps(doc), encoding="utf-8")
    assert _evaluate_with_models(gen_dir, bundle, tmp_path / "eval") == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(bundle) in err and "model entry (i=0, q=1)" in err


@pytest.mark.parametrize("rows", ["all", "none"])
def test_bundle_missing_a_pair_is_input_error(rows, gen_dir, tmp_path, capsys):
    """A bundle file without a predictor for one pair exits 2 naming the
    pair, checked before the first frame: on a header-only stream too."""
    from crossrisk.predictors import TrainedModelBundle
    from crossrisk.stream import AgentCategory

    bundle = TrainedModelBundle.historical_average()
    del bundle.predictors[(AgentCategory.KID, 2)]
    bundle.save(str(tmp_path / "bundle.json"))
    stream = gen_dir / "stream.csv"
    if rows == "none":
        stream = tmp_path / "stream.csv"
        stream.write_text((gen_dir / "stream.csv").read_text().splitlines()[0] + "\n")
    code = _stream_command("evaluate", stream, tmp_path, "--models", str(tmp_path / "bundle.json"))
    assert code == EXIT_INPUT
    assert "no predictor for (i=1, q=2)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("batch_size", 1.5), ("epochs", 2.5), ("seed", "x"), ("patience", 1.5), ("hidden_size", True)],
)
def test_non_integer_training_config_field_is_input_error(field, value, tmp_path, capsys):
    """An integer field of a training config holding a float, a string or a
    boolean exits 2 naming the file and the field."""
    samples, _ = _samples_file(tmp_path)
    config = tmp_path / "train.json"
    config.write_text(json.dumps({"epochs": 1, field: value}), encoding="utf-8")
    code = main(["train", "--dataset", str(samples), "--config", str(config), "--out", str(tmp_path / "b.json")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(config) in err and f"{field} must be an integer, got {value!r}" in err
    assert not (tmp_path / "b.json").exists()


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_learning_rate_is_input_error_before_the_dataset_is_read(value, tmp_path, capsys):
    """A training config is read before the dataset: a learning rate JSON
    loads as NaN or infinity exits 2 naming the config file and the field,
    though the dataset does not exist."""
    config = tmp_path / "train.json"
    config.write_text(f'{{"epochs": 1, "learning_rate": {value}}}', encoding="utf-8")
    code = main(["train", "--dataset", str(tmp_path / "missing.jsonl"), "--config", str(config),
                 "--out", str(tmp_path / "b.json")])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"cannot read training config {config}" in err and "learning_rate must be a finite number above 0" in err


@pytest.mark.parametrize(
    "field, value",
    [("n_adults", 2.5), ("seed", 1.5), ("fps", 30.0), ("n_kids", "1"), ("n_cyclists", False)],
)
def test_non_integer_scenario_spec_field_is_input_error(field, value, tmp_path, capsys):
    """An integer field of a scenario spec holding a float, a string or a
    boolean exits 2 naming the file and the field, before writing anything."""
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"duration_s": 5.0, "n_adults": 1, "n_kids": 0, "n_cyclists": 0, field: value}),
        encoding="utf-8",
    )
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "out")]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(spec) in err and f"{field} must be an integer, got {value!r}" in err
    assert not (tmp_path / "out").exists()


# Generator settings that are module constants of synthgen (LATERAL_NOISE_M
# and the like) and no longer spec fields: a spec that still names one exits 2
# through the unknown-field check, whatever the value.
_REMOVED_SPEC_FIELDS = (
    "adult_crossing_s", "kid_crossing_s", "cyclist_crossing_s", "crossing_jitter", "speed_noise",
    "lateral_noise_m", "kid_lateral_sigma", "kid_lateral_sigma_further", "rtl_fraction",
    "vehicle_speed_mps", "vehicle_speed_sd", "notice_probability", "decelerate_probability",
    "reaction_delay_s",
)


def _gen_spec_error(field, value, tmp_path, capsys, **spec_fields):
    """Run gen on a spec setting field to value; assert it exits 2 before
    writing anything, and return its error text."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**spec_fields, field: value}), encoding="utf-8")
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "out")]) == EXIT_INPUT
    assert not (tmp_path / "out").exists()
    return capsys.readouterr().err


def _spec_error(field, message, tmp_path):
    """gen's error for a spec field breaking a rule, or naming a removed
    field, whose message is the unknown-field one."""
    if field in _REMOVED_SPEC_FIELDS:
        return f"cannot read scenario spec {tmp_path / 'spec.json'}: unknown scenario spec fields: {[field]!r}"
    return f"cannot read scenario spec {tmp_path / 'spec.json'}: {field} {message}"


@pytest.mark.parametrize(
    "field, value",
    [
        # removed fields: the message is the unknown-field one
        ("rtl_fraction", "x"),
        ("notice_probability", None),
        ("vehicle_speed_sd", True),
        ("lateral_noise_m", float("nan")),
        ("kid_lateral_sigma", float("inf")),
        ("reaction_delay_s", [0.4, "1.0"]),
        # spec fields
        ("duration_s", "x"),
        ("vehicle_rate_per_min", None),
        ("conflict_probability", True),
        ("risky_fraction", float("nan")),
    ],
)
def test_non_number_scenario_spec_field_is_input_error(field, value, tmp_path, capsys):
    """A float field of a scenario spec holding a string, null, a boolean
    or a non-finite value exits 2 naming the file and the field, before
    writing anything; so does a removed field, whatever its value."""
    err = _gen_spec_error(field, value, tmp_path, capsys, duration_s=5.0, n_adults=1, n_kids=0, n_cyclists=0)
    assert _spec_error(field, f"must be a finite number, got {value!r}", tmp_path) in err


_OUT_OF_RANGE_SPEC_FIELDS = [
    ("duration_s", 0.0, "must be positive, got 0.0"),
    ("n_adults", 10**30, f"must lie in [0, 100000], got {10**30}"),
    ("n_cyclists", -1, "must lie in [0, 100000], got -1"),
    ("vehicle_rate_per_min", -1.0, "must be non-negative, got -1.0"),
    ("conflict_probability", 1.01, "must lie in [0, 1], got 1.01"),
    ("risky_fraction", -1.0, "must lie in [0, 1], got -1.0"),
    # removed fields: the message is the unknown-field one
    ("vehicle_speed_sd", -1.0, None),
    ("crossing_jitter", -0.5, None),
    ("speed_noise", -0.01, None),
    ("lateral_noise_m", -0.01, None),
    ("kid_lateral_sigma", -1.0, None),
    ("kid_lateral_sigma_further", -1.0, None),
    ("notice_probability", 1.5, None),
    ("rtl_fraction", -0.1, None),
    ("decelerate_probability", 2, None),
    ("reaction_delay_s", [1.0, 0.4], None),
    ("reaction_delay_s", [-0.2, 0.4], None),
]


@pytest.mark.parametrize(
    "field, value, message", _OUT_OF_RANGE_SPEC_FIELDS, ids=[f"{f}={v}" for f, v, _ in _OUT_OF_RANGE_SPEC_FIELDS]
)
def test_out_of_range_scenario_spec_field_is_input_error(field, value, message, tmp_path, capsys):
    """A duration not above 0, an agent count outside [0, 100 000], a rate
    below 0 or a probability outside [0, 1] exits 2 naming the file and the
    field, before writing anything; so does a removed field, whatever its
    value."""
    err = _gen_spec_error(field, value, tmp_path, capsys, duration_s=10.0, n_adults=1, n_kids=1)
    assert _spec_error(field, message, tmp_path) in err


def test_reaction_delay_of_one_value_is_input_error(tmp_path, capsys):
    err = _gen_spec_error("reaction_delay_s", [0.4], tmp_path, capsys, duration_s=5.0, n_adults=1)
    assert _spec_error("reaction_delay_s", None, tmp_path) in err


# A negative seed given by flag or in a file; {bad} is a file holding it.
_NEGATIVE_SEEDS = {
    "gen-flag": (["gen", "--seed", "-1", "--out", "{tmp}/out"], None),
    "spec-seed": (["gen", "--spec", "{bad}", "--out", "{tmp}/out"],
                  {"seed": -1, "duration_s": 5.0, "n_adults": 1, "n_kids": 0, "n_cyclists": 0}),
    "train-flag": (["train", "--dataset", "{samples}", "--seed", "-1", "--out", "{tmp}/bundle.json"], None),
    "config-seed": (["train", "--dataset", "{samples}", "--config", "{bad}", "--out", "{tmp}/bundle.json"],
                    {"seed": -1, "epochs": 1}),
    "tune-flag": (["tune", "--trace", "{trace}", "--truth", "{truth}", "--grid", "{grid}", "--k", "5",
                   "--seed", "-1", "--out", "{tmp}/calibration.json"], None),
}


@pytest.mark.parametrize("argv, doc", _NEGATIVE_SEEDS.values(), ids=_NEGATIVE_SEEDS.keys())
def test_negative_seed_is_input_error_naming_its_flag_or_file(argv, doc, tmp_path, capsys):
    """A seed below 0 exits 2: a --seed flag is rejected when it is parsed,
    and a scenario spec or training config naming one is unreadable."""
    bad = tmp_path / "bad.json"
    if doc is not None:
        bad.write_text(json.dumps(doc), encoding="utf-8")
    inputs = _well_formed_inputs(tmp_path)
    try:
        code = main([arg.format(bad=bad, **inputs) for arg in argv])
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    if doc is None:
        assert "argument --seed: must be a whole number of 0 or more, got '-1'" in err
    else:
        assert str(bad) in err and "seed must be 0 or more, got -1" in err


def test_vehicle_rate_beyond_the_limit_is_rejected_before_generation(tmp_path):
    """A spec with 1e12 vehicles a minute per lane never finished scheduling
    them; it is rejected by the constructor and by ScenarioSpec.load, which
    names the file and the field. The test does not run gen, so it cannot
    hang where the limit is missing."""
    from crossrisk.errors import InfeasibleSpec, ManifestError
    from crossrisk.synthgen import MAX_VEHICLE_RATE_PER_MIN, ScenarioSpec

    with pytest.raises(InfeasibleSpec, match="vehicle_rate_per_min must be at most 120.0, got 1"):
        ScenarioSpec(vehicle_rate_per_min=1e12)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"vehicle_rate_per_min": MAX_VEHICLE_RATE_PER_MIN * 1.000001}), encoding="utf-8")
    with pytest.raises(ManifestError, match=f"cannot read scenario spec {spec}: vehicle_rate_per_min must be at most"):
        ScenarioSpec.load(str(spec))
    assert ScenarioSpec(vehicle_rate_per_min=MAX_VEHICLE_RATE_PER_MIN).vehicle_rate_per_min == 120.0


def test_grid_range_of_too_many_values_is_rejected_before_the_search(tmp_path):
    """A range of 10^12 + 1 values has a finite count, but the search would
    build a list of them; it is rejected by the constructor and by
    GridSpec.load, which names the file. The test does not run tune, so it
    cannot exhaust memory where the limit is missing."""
    from crossrisk.calibration import MAX_GRID_VALUES, GridSpec, IntervalGrid
    from crossrisk.errors import ManifestError

    with pytest.raises(ValueError, match=r"grid range \[0.0, 1000000000000.0\] in steps of 1.0 has 1000000000001 values"):
        IntervalGrid(0.0, 1e12, 1.0, 0.0, 0.0, 1.0)
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(_SMALL_GRID).replace("[-1.0, -1.0, 1.0]", "[0, 1e12, 1]", 1), encoding="utf-8")
    with pytest.raises(ManifestError, match=f"cannot read grid spec {grid}: grid range .* more than 1000"):
        GridSpec.load(str(grid))
    at_limit = IntervalGrid(0.0, MAX_GRID_VALUES - 1.0, 1.0, 0.0, 0.0, 1.0)
    assert len(at_limit.pairs()) == 1  # alpha <= beta = 0 keeps alpha = 0 only
    with pytest.raises(ValueError, match=f"has {MAX_GRID_VALUES + 1} values"):
        IntervalGrid(0.0, 0.0, 1.0, 0.0, float(MAX_GRID_VALUES), 1.0)


def test_duration_beyond_the_limit_is_rejected_before_generation(tmp_path):
    """A spec lasting 1e308 s never finished generating; it is rejected by the
    constructor and by ScenarioSpec.load, which names the file. The test does
    not run gen, so it cannot hang where the limit is missing."""
    from crossrisk.errors import InfeasibleSpec, ManifestError
    from crossrisk.synthgen import MAX_AGENTS_PER_CATEGORY, MAX_DURATION_S, ScenarioSpec

    with pytest.raises(InfeasibleSpec, match="duration_s must be at most 86400.0, got 1e"):
        ScenarioSpec(duration_s=1e308)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"duration_s": MAX_DURATION_S * 1.000001}), encoding="utf-8")
    with pytest.raises(ManifestError, match=f"cannot read scenario spec {spec}: duration_s must be at most"):
        ScenarioSpec.load(str(spec))
    at_limits = ScenarioSpec(duration_s=MAX_DURATION_S, n_adults=MAX_AGENTS_PER_CATEGORY)
    assert (at_limits.duration_s, at_limits.n_adults) == (86_400.0, 100_000)



# --- the file boundary ------------------------------------------------------------------


def _well_formed_inputs(tmp_path):
    """Paths of small well-formed inputs, by name, for the commands below."""
    from crossrisk.geometry import save_area_map, save_tile_grid
    from crossrisk.synthgen import reference_tile_grid

    trace, truth = _write_episode_files(tmp_path)
    files = {name: tmp_path / name for name in (
        "area_map.json", "stream.csv", "pixels.csv", "samples.jsonl", "grid.json", "tile_grid.json")}
    save_area_map(str(files["area_map.json"]), reference_area_map())
    save_tile_grid(str(files["tile_grid.json"]), reference_tile_grid())
    files["stream.csv"].write_text("frame,t,id,category,x,y\n0,0.0,a0,0,3.0,1.0\n", encoding="utf-8")
    files["pixels.csv"].write_text("frame,t,id,category,u,v\n0,0.0,a0,0,640.0,400.0\n", encoding="utf-8")
    files["samples.jsonl"].write_text('{"format": "crossrisk-samples", "version": 3}\n', encoding="utf-8")
    files["grid.json"].write_text(json.dumps(_SMALL_GRID), encoding="utf-8")
    paths = {name.split(".")[0]: str(path) for name, path in files.items()}
    return {**paths, "trace": str(trace), "truth": str(truth), "tmp": str(tmp_path)}


_EVALUATE = ["evaluate", "--stream", "{stream}", "--area-map", "{area_map}", "--out", "{tmp}/out"]

# One command line per input reader; {bad} is the file under test.
_READERS = {
    "scenario spec": ["gen", "--spec", "{bad}", "--out", "{tmp}/out"],
    "ground truth": [*_EVALUATE, "--truth", "{bad}"],
    "threshold config": [*_EVALUATE, "--thresholds", "{bad}"],
    "model bundle": [*_EVALUATE, "--models", "{bad}"],
    "area map": ["evaluate", "--stream", "{stream}", "--area-map", "{bad}", "--out", "{tmp}/out"],
    "stream": ["evaluate", "--stream", "{bad}", "--area-map", "{area_map}", "--out", "{tmp}/out"],
    "tile grid": [*_EVALUATE, "--stream", "{pixels}", "--tile-grid", "{bad}"],
    "trace file": ["metrics", "--trace", "{bad}", "--truth", "{truth}"],
    "grid spec": ["tune", "--trace", "{trace}", "--truth", "{truth}", "--grid", "{bad}", "--k", "5",
                  "--out", "{tmp}/calibration.json"],
    "labeled samples": ["train", "--dataset", "{bad}", "--out", "{tmp}/bundle.json"],
    "training config": ["train", "--dataset", "{samples}", "--config", "{bad}", "--out", "{tmp}/bundle.json"],
}

# Valid JSON of the wrong shape, and text files holding a byte that is not UTF-8.
_UNREADABLE = {
    "spec-array": ("scenario spec", b"[1, 2]"),
    "truth-agents-array": ("ground truth", b'{"fps": 30, "agents": [], "risk": []}'),
    "thresholds-categories-array": ("threshold config", b'{"categories": []}'),
    "bundle-category-null": (
        "model bundle", b'{"version": 1, "models": [{"category": null, "q": 0, "kind": "historical_average"}]}'),
    "bundle-entry-array": ("model bundle", b'{"version": 1, "models": [[0, 0]]}'),
    "area-map-areas-array": ("area map", b'{"areas": [], "target_lines": {}}'),
    "stream-0xff": ("stream", b"frame,t,id,category,x,y\n0,0.0,a\xff,0,3.0,1.0\n"),
    "trace-0xff": ("trace file", b"frame,ped_id,veh_id,area,c_pf,c_vf,f_pf,f_vf\n0,p\xff,v0,closer,1.0,,,\n"),
    "dataset-0xff": ("labeled samples", b'{"format": "crossrisk-samples", "version": 3}\n\xff\n'),
    **{f"missing-{reader.replace(' ', '-')}": (reader, None) for reader in _READERS},
}


@pytest.mark.parametrize("reader, content", _UNREADABLE.values(), ids=_UNREADABLE.keys())
def test_unreadable_input_file_is_input_error_naming_it(reader, content, tmp_path, capsys):
    """Every input file is read through one boundary: a file that is missing,
    not UTF-8 or not a document of the reader's shape exits 2 with
    "cannot read <what> <path>"."""
    bad = tmp_path / "bad"
    if content is not None:
        bad.write_bytes(content)
    inputs = _well_formed_inputs(tmp_path)
    assert main([arg.format(bad=bad, **inputs) for arg in _READERS[reader]]) == EXIT_INPUT
    assert f"error: cannot read {reader} {bad}: " in capsys.readouterr().err


_WRITERS = {
    "evaluate": ["evaluate", "--stream", "{stream}", "--area-map", "{area_map}", "--out", "{tmp}/out",
                 "--latency-out", "{new}/latency.json"],
    "tune": ["tune", "--trace", "{trace}", "--truth", "{truth}", "--grid", "{grid}", "--k", "5",
             "--out", "{new}/calibration.json", "--thresholds-out", "{new}/thresholds.json",
             "--points-csv", "{new}/points.csv"],
    "build-dataset": ["build-dataset", "--stream", "{stream}", "--area-map", "{area_map}",
                      "--out", "{new}/samples.jsonl"],
    "homography": ["homography", "--anchors", "{tile_grid}", "--out", "{new}/grid.json"],
}


@pytest.mark.parametrize("command", _WRITERS)
def test_output_into_a_missing_directory_creates_it(command, tmp_path):
    new = tmp_path / "new" / "dir"
    inputs = _well_formed_inputs(tmp_path)
    assert main([arg.format(new=new, **inputs) for arg in _WRITERS[command]]) == EXIT_OK
    assert {p.name for p in new.iterdir()} == {
        arg.rsplit("/", 1)[1] for arg in _WRITERS[command] if arg.startswith("{new}/")}


def test_output_path_that_cannot_be_written_is_input_error_naming_it(tmp_path, capsys, monkeypatch):
    """Each file output of _WRITERS that names an existing directory exits 2
    before the command's work: evaluate runs no frame, tune searches no grid.
    An output the process may not write is not tested: root writes any file."""
    from crossrisk import cli
    from crossrisk.pipeline import RiskPipeline

    work = []
    monkeypatch.setattr(RiskPipeline, "process_frame", lambda *args: work.append("frame"))
    monkeypatch.setattr(cli, "grid_search", lambda *args, **kwargs: work.append("grid"))
    inputs = _well_formed_inputs(tmp_path)
    for command, template in _WRITERS.items():
        argv = [arg.format(new=tmp_path / "new", **inputs) for arg in template]
        for i in [i for i, arg in enumerate(template) if arg.startswith("{new}/")]:
            capsys.readouterr()
            assert main([*argv[:i], str(tmp_path), *argv[i + 1:]]) == EXIT_INPUT, (command, template[i - 1])
            assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err
    assert work == []
    assert not (tmp_path / "new").exists()


_DIRECTORY_WRITERS = {
    "gen": ["gen", "--spec", "{spec}", "--out", "{taken}"],
    "evaluate": ["evaluate", "--stream", "{stream}", "--area-map", "{area_map}", "--out", "{taken}"],
}


@pytest.mark.parametrize("command", _DIRECTORY_WRITERS)
def test_directory_output_naming_a_file_is_input_error_before_the_work(command, tmp_path, capsys, monkeypatch):
    """gen --out and evaluate --out name a directory: an existing file there
    exits 2, naming it, before the command reads an input (a missing one is
    not reported) or works: gen generates nothing, evaluate runs no frame.
    The file is left as it was."""
    from crossrisk import cli

    work = []
    monkeypatch.setattr(RiskPipeline, "process_frame", lambda *args: work.append("frame"))
    monkeypatch.setattr(cli, "generate", lambda *args: work.append("generate"))
    (tmp_path / "spec.json").write_text("{}", encoding="utf-8")
    inputs = {**_well_formed_inputs(tmp_path), "spec": str(tmp_path / "spec.json")}
    taken = tmp_path / "taken.csv"
    taken.write_text("kept\n", encoding="utf-8")
    for names in (inputs, dict.fromkeys(inputs, str(tmp_path / "missing"))):
        argv = [arg.format(taken=taken, **names) for arg in _DIRECTORY_WRITERS[command]]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{taken}'\n"
    assert work == []
    assert taken.read_text(encoding="utf-8") == "kept\n"


_BELOW_A_FILE = {
    "gen": ["gen", "--spec", "{spec}", "--out", "{taken}/sub"],
    "build-dataset": ["build-dataset", "--stream", "{stream}", "--area-map", "{area_map}",
                      "--out", "{taken}/s.jsonl"],
}


@pytest.mark.parametrize("command", _BELOW_A_FILE)
def test_output_below_a_file_is_input_error_before_the_work(command, tmp_path, capsys, monkeypatch):
    """An output whose nearest existing ancestor is a file exits 2, naming
    the output, before the command reads an input (a missing one is not
    reported) or works: gen generates nothing, build-dataset builds no
    sample. The file is left as it was."""
    from crossrisk import cli

    work = []
    monkeypatch.setattr(cli, "generate", lambda *args: work.append("generate"))
    monkeypatch.setattr(cli, "build_labeled_dataset", lambda *args, **kwargs: work.append("build"))
    (tmp_path / "spec.json").write_text("{}", encoding="utf-8")
    inputs = {**_well_formed_inputs(tmp_path), "spec": str(tmp_path / "spec.json")}
    taken = tmp_path / "taken.csv"
    taken.write_text("kept\n", encoding="utf-8")
    for names in (inputs, dict.fromkeys(inputs, str(tmp_path / "missing"))):
        argv = [arg.format(taken=taken, **names) for arg in _BELOW_A_FILE[command]]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().err == f"error: [Errno 20] Not a directory: '{argv[-1]}'\n"
    assert work == []
    assert taken.read_text(encoding="utf-8") == "kept\n"
