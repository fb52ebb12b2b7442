"""Acceptance suite: one test per release criterion, each printing a PASS
line with the measured figure. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import math
import time

import numpy as np

from crossrisk.calibration import (
    ConfusionCounts,
    Episode,
    GridSpec,
    IntervalGrid,
    RoleGrid,
    confusion_from_labels,
    grid_search,
    metrics,
)
from crossrisk.cli import EXIT_OK, main
from crossrisk.geometry import PixelPoint, WorldPoint, project_point, solve_homography
from crossrisk.pipeline import RiskPipeline, latency_report
from crossrisk.ppet import ppet
from crossrisk.predictors import TrainingConfig, build_labeled_dataset
from crossrisk.predictors.historical import HistoricalAveragePredictor, arrival_time
from crossrisk.predictors.recurrent import RecurrentRegressor
from crossrisk.predictors.training import evaluate_mae, split_samples
from crossrisk.risk import AreaRole, RiskThresholdConfig, classify_offline
from crossrisk.stream import AgentCategory, Observation
from crossrisk.synthgen import ScenarioSpec, generate, reference_area_map, reference_tile_grid

from conftest import FPS, constant_velocity_window, vertical_line
from helpers import PLANTED_ALPHA, PLANTED_BETA, fit, planted_episodes, planted_grid, track_with_targets
from test_ppet import eq10_oracle, random_estimate_set, shifted
from test_risk import random_trace, replay_streaming


def report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion:02d}] PASS: {message}")


def test_criterion_01_ha_exactness():
    """Constant-velocity windows against analytic crossing times, 1e-9."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    checked = 0
    while checked < 1000:
        origin = rng.uniform(-5, 5, 2)
        speed = rng.uniform(0.3, 3.0)
        heading = rng.uniform(-1.2, 1.2)
        velocity = (speed * math.cos(heading), speed * math.sin(heading))
        window = constant_velocity_window(tuple(origin), velocity)
        end_x = window.end_position.x
        line_x = rng.uniform(end_x + 1.0, end_x + 12.0)
        analytic = (line_x - end_x) / velocity[0]
        if analytic <= 0 or analytic > 55.0:
            continue
        got = arrival_time(window, vertical_line(line_x))
        worst = max(worst, abs(got - analytic) / analytic)
        checked += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    report(1, f"1000 windows, max relative error {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_gradient_check():
    """Every parameter against central finite differences."""
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    model = RecurrentRegressor.initialize(6, rng)
    model.set_normalization(np.array([0.0, 0.0, 1.0]), np.array([0.5, 0.5, 0.8]))
    features = rng.normal(0.0, 0.6, (3, 4, 3))
    targets = rng.uniform(0.5, 4.0, 3)
    _, grads = model.loss_and_gradients(features, targets)

    eps = 1e-5
    worst = 0.0
    n_params = 0
    for name in model.w:
        flat = model.w[name].reshape(-1)
        grad_flat = grads[name].reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            loss_plus, _ = model.loss_and_gradients(features, targets)
            flat[idx] = orig - eps
            loss_minus, _ = model.loss_and_gradients(features, targets)
            flat[idx] = orig
            numeric = (loss_plus - loss_minus) / (2 * eps)
            worst = max(worst, abs(grad_flat[idx] - numeric) / max(abs(grad_flat[idx]), abs(numeric), 1e-8))
            n_params += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-4
    assert elapsed < 30.0
    report(2, f"{n_params} parameters, max relative error {worst:.2e}, {elapsed:.1f} s")


def _decelerating_trajectory(agent_id: str, decel: float, v0: float = 2.0, x0: float = -6.0):
    xs, x, v = [], x0, v0
    while x < 11.8 and v > 0.2:
        xs.append(x)
        x += v / FPS
        v -= decel / FPS
    return [
        Observation(j, j / FPS, agent_id, AgentCategory.ADULT, WorldPoint(xs[j], 1.0))
        for j in range(len(xs))
    ]


def test_criterion_03_learned_beats_baseline_on_deceleration():
    """Trained regressor at the far target against the constant-velocity
    baseline on decelerating pedestrians."""
    start = time.perf_counter()
    area_map = reference_area_map()
    q2 = (2, area_map.line("ped_ltr_q2"))
    rng = np.random.default_rng(3003)
    trajectories = [
        _decelerating_trajectory(f"d{k}", float(rng.uniform(0.03, 0.10))) for k in range(24)
    ]
    samples = build_labeled_dataset([track_with_targets(t, [q2]) for t in trajectories])[::3]

    config = TrainingConfig(seed=2, hidden_size=32, learning_rate=0.01, epochs=120, patience=20, batch_size=64)
    model = RecurrentRegressor.initialize(32, np.random.default_rng(config.seed))
    model, _ = fit(model, samples, config)
    _, held_out = split_samples(samples, config.seed)
    gru_mae = evaluate_mae(model, held_out)
    ha_mae = evaluate_mae(HistoricalAveragePredictor(), held_out)
    elapsed = time.perf_counter() - start
    assert gru_mae <= 0.7 * ha_mae
    assert elapsed < 300.0
    report(3, f"trained MAE {gru_mae:.3f} s vs baseline {ha_mae:.3f} s "
              f"(ratio {gru_mae / ha_mae:.2f}), {elapsed:.0f} s")


def test_criterion_04_ppet_arithmetic():
    """Exact equality with an independent re-evaluation plus shift invariance."""
    rng = np.random.default_rng(4004)
    worst_shift = 0.0
    for _ in range(10_000):
        est = random_estimate_set(rng)
        vec = ppet(*est)
        assert (vec.c_pf, vec.c_vf, vec.f_pf, vec.f_vf) == eq10_oracle(est)
        shift = float(rng.uniform(0.0, 50.0))
        moved = ppet(*shifted(est, shift))
        for name in ("c_pf", "c_vf", "f_pf", "f_vf"):
            worst_shift = max(worst_shift, abs(getattr(moved, name) - getattr(vec, name)))
    assert worst_shift < 1e-12
    report(4, f"10000 estimate sets exact, shift deviation {worst_shift:.2e}")


def test_criterion_05_streaming_batch_equivalence():
    """Frame-ordered counter replay equals the batch classifier exactly."""
    rng = np.random.default_rng(5005)
    config = RiskThresholdConfig.default()
    mismatches = 0
    for episode in range(100):
        trace = random_trace(rng, int(rng.integers(0, 80)))
        for category in (AgentCategory.ADULT, AgentCategory.KID, AgentCategory.CYCLIST):
            batch = classify_offline(trace, category, config)
            streaming = replay_streaming(trace, category, config)
            if batch != streaming:
                mismatches += 1
    assert mismatches == 0
    report(5, "100 episodes x 3 categories, zero mismatches")


def _corpus_episodes(seed: int):
    spec = ScenarioSpec(
        seed=seed, duration_s=600, n_adults=56, n_kids=24, n_cyclists=24,
        conflict_probability=0.6, risky_fraction=0.45, vehicle_rate_per_min=2.0,
    )
    frames, truth = generate(spec)
    pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default())
    result = pipeline.run(frames.items())
    episodes = []
    for ped_id, vectors in result.vectors_by_ped.items():
        labels = {
            AreaRole(role): truth.risk[(ped_id, role)]
            for role in ("closer", "further")
            if (ped_id, role) in truth.risk
        }
        if len(labels) == 2:
            episodes.append(Episode(ped_id, truth.agents[ped_id].category, tuple(vectors), labels))
    return episodes


def test_criterion_06_threshold_recovery_and_corpus_performance():
    """Planted-rule recovery plus end-to-end classification quality."""
    start = time.perf_counter()

    # planted rule: recover the interval within one grid step
    episodes = planted_episodes(60, seed=3)
    result = grid_search(episodes, planted_grid(step=0.25), k=10, seed=1)
    adult = result.config.for_category(AgentCategory.ADULT)
    closer = adult.roles[AreaRole.CLOSER]
    assert abs(closer.pf.alpha - PLANTED_ALPHA) <= 0.25 + 1e-9
    assert abs(closer.pf.beta - PLANTED_BETA) <= 0.25 + 1e-9
    assert closer.limit == 2
    planted_acc = result.test_metrics.accuracy
    assert planted_acc is not None and planted_acc >= 0.95

    # mixed corpus: calibrate on one synthetic corpus, score a fresh one
    calibration_set = _corpus_episodes(seed=101)
    evaluation_set = _corpus_episodes(seed=404)
    pf_axis = IntervalGrid(-3.5, -2.5, 0.5, 1.0, 1.5, 0.5)
    vf_axis = IntervalGrid(-2.0, -1.0, 0.5, 1.0, 2.0, 0.5)
    grid = GridSpec({role: RoleGrid(pf_axis, vf_axis, (3, 5)) for role in (AreaRole.CLOSER, AreaRole.FURTHER)})
    calibrated = grid_search(calibration_set, grid, k=10, seed=5, test_fraction=0.1)
    pairs = []
    for e in evaluation_set:
        outcome = classify_offline(e.trace, e.category, calibrated.config)
        for role in (AreaRole.CLOSER, AreaRole.FURTHER):
            pairs.append((outcome[role], e.labels[role]))
    scores = metrics(confusion_from_labels(pairs))
    elapsed = time.perf_counter() - start
    assert scores.recall is not None and scores.recall >= 0.80
    assert scores.f1 is not None and scores.f1 >= 0.75
    assert elapsed < 600.0
    report(6, f"planted interval [{closer.pf.alpha}, {closer.pf.beta}] theta 2, "
              f"held-out accuracy {planted_acc:.3f}; corpus recall {scores.recall:.3f}, "
              f"F1 {scores.f1:.3f}, {elapsed:.0f} s")


def test_criterion_07_metrics_formulas():
    """Exact match with a hand-computed confusion oracle."""
    rng = np.random.default_rng(7007)
    for _ in range(1000):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 60, 4))
        got = metrics(ConfusionCounts(tp, tn, fp, fn))
        total = tp + tn + fp + fn
        accuracy = (tp + tn) / total if total > 0 else None
        precision = tp / (tp + fp) if tp + fp > 0 else None
        recall = tp / (tp + fn) if tp + fn > 0 else None
        if precision is None or recall is None or precision + recall == 0:
            f1 = None
        else:
            f1 = 2 * precision * recall / (precision + recall)
        assert got.accuracy == accuracy
        assert got.precision == precision
        assert got.recall == recall
        assert got.f1 == f1
    report(7, "1000 random confusion counts, exact equality")


def test_criterion_08_homography():
    """Anchor round trips on the reference grid and random-quad solves."""
    grid = reference_tile_grid()
    worst_tile = 0.0
    for tile in grid.tiles:
        for pc, wc in zip(tile.pixel_region, tile.world_region):
            worst_tile = max(worst_tile, tile.transform(pc).distance_to(wc))
    assert worst_tile < 1e-6

    rng = np.random.default_rng(8008)
    worst_solve = 0.0
    for _ in range(1000):
        pixel = [
            PixelPoint(float(rng.uniform(0, 150)), float(rng.uniform(0, 150))),
            PixelPoint(float(rng.uniform(350, 500)), float(rng.uniform(0, 150))),
            PixelPoint(float(rng.uniform(350, 500)), float(rng.uniform(350, 500))),
            PixelPoint(float(rng.uniform(0, 150)), float(rng.uniform(350, 500))),
        ]
        world = [
            WorldPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 1))),
            WorldPoint(float(rng.uniform(3, 4)), float(rng.uniform(0, 1))),
            WorldPoint(float(rng.uniform(3, 4)), float(rng.uniform(3, 4))),
            WorldPoint(float(rng.uniform(0, 1)), float(rng.uniform(3, 4))),
        ]
        matrix = solve_homography(pixel, world)
        for p, w in zip(pixel, world):
            x, y = project_point(matrix, p.u, p.v)
            worst_solve = max(worst_solve, math.hypot(x - w.x, y - w.y))
    assert worst_solve < 1e-9
    report(8, f"{len(grid.tiles)} reference tiles residual {worst_tile:.2e} m, "
              f"1000 random solves residual {worst_solve:.2e} m")


def test_criterion_09_real_time_budget(tmp_path):
    """Per-frame safety-evaluation latency with 20 concurrent agents."""
    start = time.perf_counter()
    spec = ScenarioSpec(
        seed=909, duration_s=45, n_adults=30, n_kids=10, n_cyclists=5,
        conflict_probability=1.0, risky_fraction=0.5, vehicle_rate_per_min=10.0,
    )
    frames, _ = generate(spec)
    concurrency = [len(v) for v in frames.values()]
    peak_concurrency = max(concurrency)
    mean_concurrency = float(np.mean(concurrency))
    assert mean_concurrency >= 20, f"stream averages {mean_concurrency:.1f} concurrent agents"

    pipeline = RiskPipeline(reference_area_map(), RiskThresholdConfig.default())
    result = pipeline.run(frames.items())
    rep = latency_report(result.prediction_ms, result.ppet_risk_ms)
    elapsed = time.perf_counter() - start
    assert rep["safety_evaluation_mean_ms"] < 33.0
    assert elapsed < 120.0
    report(9, f"mean {mean_concurrency:.0f} (peak {peak_concurrency}) concurrent agents, "
              f"safety evaluation mean {rep['safety_evaluation_mean_ms']:.3f} ms/frame "
              f"(budget 33 ms, published reference 6.857 ms), {elapsed:.0f} s")


def test_criterion_10_end_to_end_determinism(tmp_path):
    """gen -> build-dataset -> train -> evaluate twice, byte-identical output."""
    spec = {
        "seed": 77, "duration_s": 60.0, "n_adults": 5, "n_kids": 2, "n_cyclists": 2,
        "conflict_probability": 0.8, "risky_fraction": 0.6,
    }
    train_config = {"seed": 3, "hidden_size": 8, "epochs": 2, "patience": 1, "batch_size": 128}
    digests = []
    for run in ("a", "b"):
        base = tmp_path / run
        base.mkdir()
        (base / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        (base / "train.json").write_text(json.dumps(train_config), encoding="utf-8")
        assert main(["gen", "--spec", str(base / "spec.json"), "--out", str(base)]) == EXIT_OK
        assert main([
            "build-dataset", "--stream", str(base / "stream.csv"),
            "--area-map", str(base / "area_map.json"),
            "--truth", str(base / "ground_truth.json"),
            "--out", str(base / "samples.jsonl"),
        ]) == EXIT_OK
        assert main([
            "train", "--dataset", str(base / "samples.jsonl"),
            "--config", str(base / "train.json"), "--out", str(base / "bundle.json"),
        ]) == EXIT_OK
        assert main([
            "evaluate", "--stream", str(base / "stream.csv"),
            "--area-map", str(base / "area_map.json"),
            "--models", str(base / "bundle.json"), "--out", str(base / "eval"),
        ]) == EXIT_OK
        digests.append(
            (
                (base / "eval" / "risk_scenarios.jsonl").read_bytes(),
                (base / "eval" / "ppet_trace.csv").read_bytes(),
                (base / "bundle.json").read_bytes(),
            )
        )
    assert digests[0][0] == digests[1][0]
    assert digests[0][1] == digests[1][1]
    assert digests[0][2] == digests[1][2]
    n_scenarios = len(digests[0][0].splitlines())
    report(10, f"two full pipeline runs byte-identical ({n_scenarios} risk scenarios)")
