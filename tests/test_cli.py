import json

import numpy as np
import pytest

from crossrisk.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main
from crossrisk.pipeline import RiskPipeline, TraceRow, write_risk_scenarios, write_trace_csv
from crossrisk.risk import AreaRole, RiskThresholdConfig
from crossrisk.stream import read_stream_csv
from crossrisk.synthgen import AgentTruth, GroundTruth, reference_area_map

from helpers import planted_episodes


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

    def test_degenerate_tile_fails_fast(self, tmp_path):
        anchors = [{"pixel": [[0, 0], [1, 1], [2, 2], [0, 1]], "world": [[0, 0], [1, 0], [1, 1], [0, 1]]}]
        src = tmp_path / "anchors.json"
        src.write_text(json.dumps(anchors), encoding="utf-8")
        assert main(["homography", "--anchors", str(src), "--out", str(tmp_path / "g.json")]) == EXIT_INPUT


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
        samples = [json.loads(line) for line in out.read_text().splitlines()]
        assert samples

        # oracle: per agent and target line, windows whose end precedes the
        # first line crossing of the raw trajectory
        from crossrisk.geometry import load_area_map
        from crossrisk.predictors.dataset import targets_for_agent
        from crossrisk.stream import WINDOW_SIZE

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
            for target in targets_for_agent(traj, area_map):
                xs = [(o.position.x, o.position.y) for o in traj]
                ts = [o.t for o in traj]
                t_cross = None
                for i in range(1, len(traj)):
                    d_prev = (target.line.p0.x - xs[i - 1][0]) * target.line.normal[0] + (
                        target.line.p0.y - xs[i - 1][1]
                    ) * target.line.normal[1]
                    d_cur = (target.line.p0.x - xs[i][0]) * target.line.normal[0] + (
                        target.line.p0.y - xs[i][1]
                    ) * target.line.normal[1]
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
        assert out.read_text() == ""

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
        result = pipeline.run(frames)
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
    truth = GroundTruth(fps=30)
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


class TestReplayAndMetrics:
    def test_replay_reports_latency(self, gen_dir, tmp_path, capsys):
        out = tmp_path / "latency.json"
        code = main([
            "replay", "--stream", str(gen_dir / "stream.csv"),
            "--area-map", str(gen_dir / "area_map.json"),
            "--assert-budget", "33", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["unit"] == "frame"
        assert report["safety_evaluation_mean_ms"] < 33.0

    def test_replay_pixel_stream_times_transform(self, tmp_path):
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
            "replay", "--stream", str(pixel_path), "--area-map", str(map_path),
            "--tile-grid", str(grid_path), "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert report["transform_ms"]["mean"] > 0.0
        assert report["frames"] > 0

    def test_replay_budget_violation_exits_3(self, gen_dir, tmp_path):
        code = main([
            "replay", "--stream", str(gen_dir / "stream.csv"),
            "--area-map", str(gen_dir / "area_map.json"),
            "--assert-budget", "0.0000001",
        ])
        assert code == EXIT_BUDGET

    def test_replay_p99_over_budget_exits_3(self, gen_dir, capsys):
        code = main([
            "replay", "--stream", str(gen_dir / "stream.csv"),
            "--area-map", str(gen_dir / "area_map.json"),
            "--assert-p99", "0.0000001",
        ])
        assert code == EXIT_BUDGET
        assert "p99" in capsys.readouterr().err

    def test_replay_p99_in_budget_exits_0_and_reports_the_tail(self, gen_dir, tmp_path):
        out = tmp_path / "latency.json"
        code = main([
            "replay", "--stream", str(gen_dir / "stream.csv"),
            "--area-map", str(gen_dir / "area_map.json"),
            "--assert-p99", "1000000", "--out", str(out),
        ])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        p50, p99 = report["safety_evaluation_p50_ms"], report["safety_evaluation_p99_ms"]
        assert 0.0 < p50 <= p99 <= report["safety_evaluation_max_ms"]

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
        reports = []
        for extra in ([], ["--realtime"]):
            out = tmp_path / f"latency{len(extra)}.json"
            assert main([
                "replay", "--stream", str(gen_out / "stream.csv"),
                "--area-map", str(gen_out / "area_map.json"), "--out", str(out), *extra,
            ]) == EXIT_OK
            reports.append(json.loads(out.read_text()))
        assert reports[0]["risk_scenarios"] == reports[1]["risk_scenarios"]
        assert reports[0]["frames"] == reports[1]["frames"]

    def test_metrics_counts_form(self, capsys):
        assert main(["metrics", "--tp", "3", "--tn", "4", "--fp", "2", "--fn", "1"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["accuracy"] == pytest.approx(0.7)
        assert doc["precision"] == pytest.approx(0.6)
        assert doc["recall"] == pytest.approx(0.75)
        assert doc["f1"] == pytest.approx(2 / 3)

    def test_missing_input_is_exit_2(self, tmp_path, capsys):
        code = main([
            "evaluate", "--stream", str(tmp_path / "nope.csv"),
            "--area-map", str(tmp_path / "nope.json"), "--out", str(tmp_path),
        ])
        assert code == EXIT_INPUT


@pytest.mark.parametrize("command", ["evaluate", "build-dataset", "replay"])
@pytest.mark.parametrize(
    "header, bad_row",
    [
        ("x,y", "2,0.0667,a0,0,nan,1.0"),
        ("x,y", "2,nan,a0,0,3.0,1.0"),
        ("x,y", "2,0.0667,a0,0,inf,1.0"),
        ("x,y", "2,0.0667,a0,0,3.0"),
        ("u,v", "2,0.0667,a0,0,nan,400.0"),
        ("u,v", "2,0.0667,a0,0,640.0"),
    ],
    ids=["world-nan", "world-nan-time", "world-inf", "world-short", "pixel-nan", "pixel-short"],
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


def _stream_command(command, stream, tmp_path, *extra):
    from crossrisk.geometry import save_area_map

    area_map = tmp_path / "area_map.json"
    save_area_map(str(area_map), reference_area_map())
    out = tmp_path / ("samples.jsonl" if command == "build-dataset" else "out")
    return main([command, "--stream", str(stream), "--area-map", str(area_map), "--out", str(out), *extra])


@pytest.mark.parametrize("command", ["evaluate", "build-dataset", "replay"])
@pytest.mark.parametrize("rows", ["", "0,0.0,a0,0,640.0,400.0\n"], ids=["header-only", "one-row"])
def test_pixel_stream_without_tile_grid_is_exit_2(command, rows, tmp_path, capsys):
    stream = tmp_path / "pixels.csv"
    stream.write_text("frame,t,id,category,u,v\n" + rows, encoding="utf-8")
    assert _stream_command(command, stream, tmp_path) == EXIT_INPUT
    assert "tile grid" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "build-dataset", "replay"])
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


def _tune_or_metrics(command, trace_path, truth_path, tmp_path, grid_text=None):
    if command == "metrics":
        return main(["metrics", "--trace", str(trace_path), "--truth", str(truth_path)])
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(grid_text or json.dumps(_SMALL_GRID), encoding="utf-8")
    return main([
        "tune", "--trace", str(trace_path), "--truth", str(truth_path), "--grid", str(grid_path),
        "--k", "5", "--out", str(tmp_path / "report.json"),
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
        (None, "0,p000,v0,closer,-0.5", 2),
    ],
    ids=["missing-column", "frame", "area", "component", "non-finite", "other-area", "short-row"],
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
    ],
    ids=["invalid-json", "missing-axes", "bogus-mode"],
)
def test_malformed_grid_spec_is_input_error(text, tmp_path, capsys):
    trace_path, truth_path = _write_episode_files(tmp_path)
    assert _tune_or_metrics("tune", trace_path, truth_path, tmp_path, text) == EXIT_INPUT
    assert str(tmp_path / "grid.json") in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "build-dataset", "replay"])
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
    from crossrisk.predictors import AgentKind, TargetLocation, build_labeled_dataset
    from crossrisk.predictors.dataset import write_samples_jsonl
    from crossrisk.stream import AgentCategory, Observation

    area_map = reference_area_map()
    traj = [
        Observation(i, i / 30.0, "a0", AgentCategory.ADULT, WorldPoint(-2.0 + 0.05 * i, 1.0))
        for i in range(45)
    ]
    target = TargetLocation(AgentKind.PEDESTRIAN, 0, area_map.line("ped_ltr_q0"))
    samples = build_labeled_dataset([traj], area_map, targets=[target])
    path = tmp_path / "samples.jsonl"
    write_samples_jsonl(str(path), samples)
    return path, len(samples)


def test_well_formed_samples_are_accepted(tmp_path):
    from crossrisk.predictors.dataset import read_samples_jsonl

    path, count = _samples_file(tmp_path)
    assert count > 1
    assert len(read_samples_jsonl(str(path))) == count


def _break_sample(doc, case):
    if case == "inf-time":
        doc["t"][3] = float("inf")
    elif case == "nan-arrival":
        doc["arrival_time"] = float("nan")
    elif case == "short-x":
        doc["x"] = doc["x"][:-1]
    elif case == "29-points":
        for key in ("t", "x", "y"):
            doc[key] = doc[key][1:]
    elif case == "nan-y":
        doc["y"][5] = float("nan")
    elif case == "repeated-time":
        doc["t"][4] = doc["t"][3]
    elif case == "missing-t":
        del doc["t"]


@pytest.mark.parametrize(
    "case", ["inf-time", "nan-arrival", "short-x", "29-points", "nan-y", "repeated-time", "missing-t"]
)
def test_malformed_sample_is_input_error(case, tmp_path, capsys):
    path, _ = _samples_file(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    doc = json.loads(lines[1])
    _break_sample(doc, case)
    lines[1] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["train", "--dataset", str(path), "--out", str(tmp_path / "bundle.json")]) == EXIT_INPUT
    assert f"{path}:2" in capsys.readouterr().err


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
