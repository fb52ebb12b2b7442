from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from crossrisk.calibration import (
    ConfusionCounts,
    Episode,
    GridSpec,
    IntervalGrid,
    RoleGrid,
    confusion_from_labels,
    grid_search,
    kfold_split,
    metrics,
    truth_episodes,
)
from crossrisk.errors import BadFoldCount, EmptyGrid, TooFewEpisodes
from crossrisk.ppet import PPetVector
from crossrisk.risk import (
    AreaRole,
    CategoryThresholds,
    RiskLevel,
    RiskThresholdConfig,
    RoleThresholds,
    ThresholdMode,
    classify_offline,
)
from crossrisk.stream import AgentCategory
from crossrisk.synthgen import AgentTruth, GroundTruth

from helpers import PLANTED_ALPHA, PLANTED_BETA, planted_episodes, planted_grid


class TestMetrics:
    def test_perfect_classifier(self):
        report = metrics(ConfusionCounts(5, 5, 0, 0))
        assert (report.accuracy, report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_undefined_precision(self):
        report = metrics(ConfusionCounts(0, 5, 0, 2))
        assert report.precision is None
        assert report.recall == 0.0
        assert report.f1 is None

    def test_hand_arithmetic(self):
        report = metrics(ConfusionCounts(3, 4, 2, 1))
        assert report.accuracy == pytest.approx(0.7)
        assert report.precision == pytest.approx(0.6)
        assert report.recall == pytest.approx(0.75)
        assert report.f1 == pytest.approx(2 / 3)

    def test_random_counts_against_hand_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 40, 4))
            report = metrics(ConfusionCounts(tp, tn, fp, fn))
            total = tp + tn + fp + fn
            assert report.accuracy == ((tp + tn) / total if total else None)
            assert report.precision == (tp / (tp + fp) if tp + fp else None)
            assert report.recall == (tp / (tp + fn) if tp + fn else None)
            if report.precision and report.recall:
                expect = 2 * report.precision * report.recall / (report.precision + report.recall)
                assert report.f1 == pytest.approx(expect, rel=1e-15)

    def test_accuracy_identity_in_integer_arithmetic(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            tp, tn, fp, fn = (int(v) for v in rng.integers(0, 50, 4))
            counts = ConfusionCounts(tp, tn, fp, fn)
            if counts.total == 0:
                continue
            report = metrics(counts)
            # the reported float is the correctly rounded value of the
            # exact integer ratio (tp + tn) / total
            assert report.accuracy == float(Fraction(tp + tn, counts.total))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            ConfusionCounts(-1, 0, 0, 0)


class TestKfold:
    def _episodes(self, n):
        return [
            Episode(f"p{k}", AgentCategory.ADULT, (), {AreaRole.CLOSER: RiskLevel.RISK1, AreaRole.FURTHER: RiskLevel.RISK1})
            for k in range(n)
        ]

    def test_even_split(self):
        folds = kfold_split(self._episodes(20), k=10, seed=1)
        assert [len(f) for f in folds] == [2] * 10

    def test_balanced_remainder(self):
        folds = kfold_split(self._episodes(23), k=10, seed=1)
        assert sorted((len(f) for f in folds), reverse=True) == [3, 3, 3, 2, 2, 2, 2, 2, 2, 2]

    def test_same_seed_identical(self):
        episodes = self._episodes(17)
        a = kfold_split(episodes, k=5, seed=9)
        b = kfold_split(episodes, k=5, seed=9)
        assert [[e.ped_id for e in f] for f in a] == [[e.ped_id for e in f] for f in b]

    def test_partition_is_exact(self):
        episodes = self._episodes(31)
        folds = kfold_split(episodes, k=10, seed=2)
        seen = [e.ped_id for f in folds for e in f]
        assert sorted(seen) == sorted(e.ped_id for e in episodes)

    def test_too_few_episodes(self):
        with pytest.raises(TooFewEpisodes):
            kfold_split(self._episodes(5), k=10, seed=0)

    @pytest.mark.parametrize("k", [0, -2])
    def test_fewer_than_one_fold(self, k):
        with pytest.raises(BadFoldCount, match=f"k = {k} folds"):
            kfold_split(self._episodes(5), k=k, seed=0)


def cv_accuracy_oracle(episodes, pf, vf, theta, k, seed, role=AreaRole.CLOSER):
    """Independent re-scoring of one grid point for one area role: the mean
    over the folds of each fold's accuracy, one classify_offline call per
    episode. The merged role is judged against both areas' labels."""
    folds = kfold_split(episodes, k, seed)
    point = RoleThresholds(pf, vf, theta)
    if role is AreaRole.MERGED:
        mode, judged = ThresholdMode.MERGED_AREA, (AreaRole.CLOSER, AreaRole.FURTHER)
        roles = {role: point}
    else:
        mode, judged = ThresholdMode.PER_AREA, (role,)
        roles = {AreaRole.CLOSER: point, AreaRole.FURTHER: point}
    config = RiskThresholdConfig({episodes[0].category: CategoryThresholds(mode, roles)})
    accs = []
    for fold in folds:
        correct = []
        for e in fold:
            out = classify_offline(e.trace, e.category, config)
            correct.extend(out[r] == e.labels[r] for r in judged)
        accs.append(float(np.mean(correct)))
    return float(np.mean(accs))


def search_set(episodes, seed, test_fraction=0.2):
    """The episodes grid_search searches on, re-derived as it draws them."""
    order = np.random.default_rng(seed).permutation(len(episodes))
    n_test = int(round(test_fraction * len(episodes)))
    return [episodes[i] for i in order[n_test:]]


def merged_episodes(n, seed):
    """Kid episodes with both components of both areas scattered around the
    merged grid below, some missing, and random labels."""
    rng = np.random.default_rng(seed)
    episodes = []
    for k in range(n):
        trace = tuple(
            PPetVector(**{c: (None if rng.uniform() < 0.3 else float(rng.uniform(-2.0, 2.0)))
                          for c in ("c_pf", "c_vf", "f_pf", "f_vf")})
            for _ in range(int(rng.integers(0, 25)))
        )
        labels = {role: RiskLevel.RISK2 if rng.uniform() < 0.5 else RiskLevel.RISK1
                  for role in (AreaRole.CLOSER, AreaRole.FURTHER)}
        episodes.append(Episode(f"k{k:03d}", AgentCategory.KID, trace, labels))
    return episodes


MERGED_GRID = GridSpec({
    AreaRole.MERGED: RoleGrid(
        IntervalGrid(-1.5, -0.5, 0.5, 0.0, 1.0, 0.5), IntervalGrid(-1.0, 0.0, 0.5, 0.5, 1.5, 0.5), (1, 3, 5, 8, 12)
    ),
})
# a grid axis that never matches a trace value
NEVER = IntervalGrid(9.0, 9.0, 1.0, 9.0, 9.0, 1.0)


class TestGridSearch:
    def test_planted_rule_recovered(self):
        episodes = planted_episodes(60, seed=3)
        grid = planted_grid(step=0.25)
        result = grid_search(episodes, grid, k=10, seed=1)
        adult = result.config.for_category(AgentCategory.ADULT)
        closer = adult.roles[AreaRole.CLOSER]
        assert abs(closer.pf.alpha - PLANTED_ALPHA) <= 0.25 + 1e-9
        assert abs(closer.pf.beta - PLANTED_BETA) <= 0.25 + 1e-9
        assert closer.limit == 2  # strict > semantics
        assert result.cv_accuracy[(AgentCategory.ADULT, AreaRole.CLOSER)] >= 0.95

    def test_single_point_grid(self):
        episodes = planted_episodes(30, seed=5)
        single = GridSpec({
            AreaRole.CLOSER: RoleGrid(IntervalGrid(-1.0, -1.0, 1.0, 0.0, 0.0, 1.0), NEVER, (2,)),
            AreaRole.FURTHER: RoleGrid(NEVER, NEVER, (1,)),
        })
        result = grid_search(episodes, single, k=5, seed=0)
        closer = result.config.for_category(AgentCategory.ADULT).roles[AreaRole.CLOSER]
        assert closer.pf.alpha == -1.0
        assert closer.pf.beta == 0.0
        assert closer.limit == 2

    def test_random_labels_give_prior_level_accuracy(self):
        rng = np.random.default_rng(11)
        episodes = []
        for k in range(80):
            base = planted_episodes(1, seed=100 + k)[0]
            label = RiskLevel.RISK2 if rng.uniform() < 0.5 else RiskLevel.RISK1
            episodes.append(
                Episode(f"r{k}", AgentCategory.ADULT, base.trace,
                        {AreaRole.CLOSER: label, AreaRole.FURTHER: RiskLevel.RISK1})
            )
        labels = [e.labels[AreaRole.CLOSER] for e in episodes]
        prior = max(labels.count(RiskLevel.RISK2), labels.count(RiskLevel.RISK1)) / len(labels)
        result = grid_search(episodes, planted_grid(0.5), k=10, seed=2)
        acc = result.cv_accuracy[(AgentCategory.ADULT, AreaRole.CLOSER)]
        assert abs(acc - prior) <= 0.1

    def test_exhaustive_against_reenumeration_oracle(self):
        episodes = planted_episodes(24, seed=7)
        grid = planted_grid(step=0.5)
        result = grid_search(episodes, grid, k=6, seed=4, test_fraction=0.25)
        searched = search_set(episodes, seed=4, test_fraction=0.25)
        best = result.cv_accuracy[(AgentCategory.ADULT, AreaRole.CLOSER)]
        for pf, vf, theta in grid.configs_for_role(AreaRole.CLOSER):
            acc = cv_accuracy_oracle(searched, pf, vf, theta, k=6, seed=4)
            assert acc <= best + 1e-12

    @pytest.mark.parametrize(
        "episodes, grid, mode, k, test_fraction",
        [
            (planted_episodes(24, seed=7), planted_grid(0.5), ThresholdMode.PER_AREA, 6, 0.25),
            (merged_episodes(40, seed=3), MERGED_GRID, ThresholdMode.MERGED_AREA, 7, 0.2),
            # 54 searched episodes in 10 folds of 6 and 5
            (planted_episodes(67, seed=3), planted_grid(0.5), ThresholdMode.PER_AREA, 10, 0.2),
        ],
        ids=["per-area", "merged", "k10-unequal-folds"],
    )
    def test_every_row_equals_the_oracle_bit_for_bit(self, episodes, grid, mode, k, test_fraction):
        result = grid_search(episodes, grid, k=k, seed=4, mode=mode, test_fraction=test_fraction)
        searched = search_set(episodes, seed=4, test_fraction=test_fraction)
        roles = {row.role for row in result.rows}
        assert roles == ({AreaRole.MERGED} if mode is ThresholdMode.MERGED_AREA
                         else {AreaRole.CLOSER, AreaRole.FURTHER})
        assert len(result.rows) == sum(len(list(grid.configs_for_role(r))) for r in roles)
        for row in result.rows:
            oracle = cv_accuracy_oracle(searched, row.pf, row.vf, row.theta, k, 4, role=row.role)
            assert row.cv_accuracy == oracle, row
        for role in roles:
            best = result.cv_accuracy[(episodes[0].category, role)]
            assert best == max(row.cv_accuracy for row in result.rows if row.role is role)

    def test_episodes_sharing_an_id_keep_their_own_folds(self):
        # folds are assigned by position; two episodes with one id in
        # different folds must each be scored in their own fold
        episodes = planted_episodes(24, seed=7)
        folds = kfold_split(search_set(episodes, seed=4, test_fraction=0.25), k=6, seed=4)
        first, second = folds[0][0], folds[1][0]
        episodes = [replace(e, ped_id=first.ped_id) if e is second else e for e in episodes]
        searched = search_set(episodes, seed=4, test_fraction=0.25)
        result = grid_search(episodes, planted_grid(0.5), k=6, seed=4, test_fraction=0.25)
        closer_rows = [row for row in result.rows if row.role is AreaRole.CLOSER]
        for row in closer_rows:
            assert row.cv_accuracy == cv_accuracy_oracle(searched, row.pf, row.vf, row.theta, k=6, seed=4)

    def test_deterministic_given_seed(self):
        episodes = planted_episodes(40, seed=9)
        grid = planted_grid(0.5)
        a = grid_search(episodes, grid, k=5, seed=3)
        b = grid_search(episodes, grid, k=5, seed=3)
        assert a.config.to_dict() == b.config.to_dict()
        assert a.cv_accuracy == b.cv_accuracy
        assert a.test_metrics == b.test_metrics

    def test_no_leakage_from_test_labels(self):
        episodes = planted_episodes(40, seed=13)
        grid = planted_grid(0.5)
        baseline = grid_search(episodes, grid, k=5, seed=6)
        # flip every test-set label; the chosen config must not move
        rng = np.random.default_rng(6)
        order = rng.permutation(len(episodes))
        n_test = int(round(0.2 * len(episodes)))
        test_ids = {episodes[i].ped_id for i in order[:n_test]}
        mutated = []
        for e in episodes:
            if e.ped_id in test_ids:
                flipped = {
                    role: (RiskLevel.RISK1 if lvl is RiskLevel.RISK2 else RiskLevel.RISK2)
                    for role, lvl in e.labels.items()
                }
                mutated.append(Episode(e.ped_id, e.category, e.trace, flipped))
            else:
                mutated.append(e)
        result = grid_search(mutated, grid, k=5, seed=6)
        assert result.config.to_dict() == baseline.config.to_dict()
        assert result.test_metrics != baseline.test_metrics

    def test_tie_breaks_toward_narrower_interval(self):
        # no trace value ever in range: every grid point scores the same,
        # so the narrowest interval (then enumeration order) must win
        episodes = [
            Episode(f"p{k}", AgentCategory.ADULT,
                    tuple(PPetVector(c_pf=5.0) for _ in range(10)),
                    {AreaRole.CLOSER: RiskLevel.RISK1, AreaRole.FURTHER: RiskLevel.RISK1})
            for k in range(12)
        ]
        grid = GridSpec({
            AreaRole.CLOSER: RoleGrid(IntervalGrid(-1.0, -0.5, 0.5, -0.5, 0.0, 0.5), NEVER, (1, 2)),
            AreaRole.FURTHER: RoleGrid(NEVER, NEVER, (1,)),
        })
        result = grid_search(episodes, grid, k=3, seed=1)
        closer = result.config.for_category(AgentCategory.ADULT).roles[AreaRole.CLOSER]
        assert closer.pf.beta - closer.pf.alpha == 0.0  # narrowest possible width
        assert closer.limit == 1  # first in order

    def test_empty_grid(self):
        episodes = planted_episodes(20, seed=1)
        grid = GridSpec({})
        with pytest.raises(EmptyGrid):
            grid_search(episodes, grid, k=5, seed=0)

    def test_merged_mode_search(self):
        # merged rule: flagged when combined closer+further hits exceed 2
        rng = np.random.default_rng(21)
        episodes = []
        for k in range(30):
            positive = k % 2 == 0
            # combined closer+further hits: 6 for positives, 4 for negatives,
            # so only theta = 4 separates them under strict >
            hits = 3 if positive else 2
            trace = []
            for i in range(20):
                c = float(rng.uniform(-0.9, -0.1)) if i < hits else 5.0
                f = float(rng.uniform(-0.9, -0.1)) if i < hits else 5.0
                trace.append(PPetVector(c_pf=c, f_pf=f))
            level = RiskLevel.RISK2 if positive else RiskLevel.RISK1
            episodes.append(
                Episode(f"m{k}", AgentCategory.KID, tuple(trace),
                        {AreaRole.CLOSER: level, AreaRole.FURTHER: level})
            )
        grid = GridSpec({AreaRole.MERGED: RoleGrid(IntervalGrid(-1.0, -1.0, 1.0, 0.0, 0.0, 1.0), NEVER, (2, 4, 8))})
        result = grid_search(episodes, grid, k=5, seed=2, mode=ThresholdMode.MERGED_AREA)
        kid = result.config.for_category(AgentCategory.KID)
        assert kid.mode is ThresholdMode.MERGED_AREA
        # positives have 6 combined hits, negatives 2: theta 4 separates
        assert kid.roles[AreaRole.MERGED].limit == 4
        assert result.cv_accuracy[(AgentCategory.KID, AreaRole.MERGED)] == 1.0


def test_confusion_from_labels():
    pairs = [
        (RiskLevel.RISK2, RiskLevel.RISK2),
        (RiskLevel.RISK2, RiskLevel.RISK1),
        (RiskLevel.RISK1, RiskLevel.RISK2),
        (RiskLevel.RISK1, RiskLevel.RISK0),
    ]
    counts = confusion_from_labels(pairs)
    assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)


def test_truth_episodes_give_every_labeled_pedestrian_an_episode():
    """Each labeled pedestrian, in id order, with its trace or an empty one
    when it was never evaluated; agents without labels have none."""
    truth = GroundTruth()
    for agent_id, category in (("p2", AgentCategory.KID), ("p1", AgentCategory.ADULT),
                               ("v0", AgentCategory.VEHICLE_AREA_41)):
        truth.agents[agent_id] = AgentTruth(category=category)
    for ped_id, level in (("p2", RiskLevel.RISK2), ("p1", RiskLevel.RISK1)):
        for role in (AreaRole.FURTHER, AreaRole.CLOSER):
            truth.risk[(ped_id, role.value)] = level
    traced = [PPetVector(c_pf=-0.5)]
    episodes = truth_episodes(truth, {"p1": traced, "v0": traced})
    assert [(e.ped_id, e.category, e.trace) for e in episodes] == [
        ("p1", AgentCategory.ADULT, tuple(traced)),
        ("p2", AgentCategory.KID, ()),
    ]
    assert [list(e.labels.items()) for e in episodes] == [
        [(AreaRole.CLOSER, RiskLevel.RISK1), (AreaRole.FURTHER, RiskLevel.RISK1)],
        [(AreaRole.CLOSER, RiskLevel.RISK2), (AreaRole.FURTHER, RiskLevel.RISK2)],
    ]
