"""Threshold tuning by exhaustive grid enumeration with k-fold
cross-validation, plus the four evaluation metrics."""

from __future__ import annotations

import itertools
import math
from dataclasses import astuple, dataclass
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from .errors import BadFoldCount, EmptyGrid, TooFewEpisodes
from .files import read_json
from .ppet import ConflictScenario, PPetVector
from .risk import (
    AREAS,
    MODE_ROLES,
    AreaRole,
    CategoryThresholds,
    RiskLevel,
    RiskThresholdConfig,
    RoleThresholds,
    ThresholdInterval,
    ThresholdMode,
    classify_offline,
    component_values,
    hit_count,
    interval_bounds,
)
from .stream import AgentCategory
from .synthgen import GroundTruth


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts; the positive class is Risk 2."""

    tp: int
    tn: int
    fp: int
    fn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.tn, self.fp, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy, precision, recall and F1; None marks an undefined metric
    (zero denominator), which is reported as undefined rather than 0."""

    accuracy: float | None
    precision: float | None
    recall: float | None
    f1: float | None

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def metrics(c: ConfusionCounts) -> MetricsReport:
    """Exact classification metrics from confusion counts."""
    accuracy = (c.tp + c.tn) / c.total if c.total > 0 else None
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    recall = c.tp / (c.tp + c.fn) if (c.tp + c.fn) > 0 else None
    if precision is None or recall is None or (precision + recall) == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return MetricsReport(accuracy, precision, recall, f1)


@dataclass(frozen=True)
class Episode:
    """One pedestrian crossing: its per-frame P-PET trace and true labels."""

    ped_id: str
    category: AgentCategory
    trace: tuple[PPetVector, ...]
    labels: Mapping[AreaRole, RiskLevel]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", dict(self.labels))


def truth_episodes(truth: GroundTruth, vectors: Mapping[str, Sequence[PPetVector]]) -> list[Episode]:
    """One episode per pedestrian the ground truth labels, in id order, with
    its P-PET vectors or an empty trace when it was never evaluated.

    GroundTruth labels every labeled pedestrian in both areas, so a stream's
    evaluation and a trace file read back score the same episodes.
    """
    return [
        Episode(
            ped_id,
            truth.agents[ped_id].category,
            tuple(vectors.get(ped_id, ())),
            {area: truth.risk[ped_id, area.value] for area in AREAS},
        )
        for ped_id in sorted({ped_id for ped_id, _ in truth.risk})
    ]


T = TypeVar("T")


def kfold_split(episodes: Sequence[T], k: int = 10, seed: int = 0) -> list[list[T]]:
    """Seeded episode-level partition into k folds of near-equal size, the
    larger folds first.

    Splitting is always per episode, never per frame, so one pedestrian's
    frames can never leak across folds.
    """
    if k < 1:
        raise BadFoldCount(f"k = {k} folds; cross-validation needs at least 1")
    if len(episodes) < k:
        raise TooFewEpisodes(f"{len(episodes)} episodes for {k} folds")
    order = np.random.default_rng(seed).permutation(len(episodes))
    return [[episodes[j] for j in fold] for fold in np.array_split(order, k)]


@dataclass(frozen=True)
class IntervalGrid:
    """Candidate [alpha, beta] pairs from two stepped ranges (alpha <= beta)."""

    alpha_lo: float
    alpha_hi: float
    alpha_step: float
    beta_lo: float
    beta_hi: float
    beta_step: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in astuple(self)):
            raise ValueError(f"grid bounds and steps must be finite: {astuple(self)}")
        if self.alpha_step <= 0 or self.beta_step <= 0:
            raise ValueError("grid steps must be positive")
        for lo, hi, step in astuple(self)[:3], astuple(self)[3:]:
            if not math.isfinite((hi - lo) / step):
                raise ValueError(f"grid range [{lo}, {hi}] in steps of {step} has no finite count of values")

    @staticmethod
    def _values(lo: float, hi: float, step: float) -> list[float]:
        n = int(math.floor((hi - lo) / step + 1e-9))
        return [round(lo + i * step, 9) for i in range(n + 1)]

    def pairs(self) -> list[ThresholdInterval]:
        alphas = self._values(self.alpha_lo, self.alpha_hi, self.alpha_step)
        betas = self._values(self.beta_lo, self.beta_hi, self.beta_step)
        return [ThresholdInterval(a, b) for a in alphas for b in betas if a <= b]


def _interval_grid(ranges: Mapping) -> IntervalGrid:
    """An IntervalGrid from a grid spec's {"alpha": [lo, hi, step], "beta": [lo, hi, step]}."""
    a_lo, a_hi, a_step = (float(v) for v in ranges["alpha"])
    b_lo, b_hi, b_step = (float(v) for v in ranges["beta"])
    return IntervalGrid(a_lo, a_hi, a_step, b_lo, b_hi, b_step)


@dataclass(frozen=True)
class RoleGrid:
    """One role's search axes: PF and VF interval grids and the counter
    limit candidates."""

    pf: IntervalGrid
    vf: IntervalGrid
    theta: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", tuple(self.theta))
        if any(isinstance(theta, bool) or not isinstance(theta, int) for theta in self.theta):
            raise TypeError(f"counter limits must be integers: {list(self.theta)}")
        if any(theta < 1 for theta in self.theta):
            raise ValueError(f"counter limits must be >= 1: {list(self.theta)}")


@dataclass(frozen=True)
class GridSpec:
    """Search space: one RoleGrid per role."""

    roles: Mapping[AreaRole, RoleGrid]

    def __post_init__(self) -> None:
        object.__setattr__(self, "roles", dict(self.roles))

    @classmethod
    def default(cls) -> "GridSpec":
        """Covers every shipped interval: alpha, beta in [-4, 3] step 0.1 and
        counter limits 1..6. Exhaustive search over this full joint grid is
        enormous; narrow it for practical runs."""
        grid = IntervalGrid(-4.0, 3.0, 0.1, -4.0, 3.0, 0.1)
        role_grid = RoleGrid(grid, grid, tuple(range(1, 7)))
        return cls({role: role_grid for mode_roles in MODE_ROLES.values() for role in mode_roles})

    @classmethod
    def from_dict(cls, doc: Mapping) -> "GridSpec":
        axes, theta = doc["axes"], doc["theta"]
        if set(theta) != set(axes):
            raise ValueError(f"theta names roles {sorted(theta)}, axes {sorted(axes)}")
        roles = {}
        for name, scenarios in axes.items():
            pf, vf = (_interval_grid(scenarios[s.value]) for s in ConflictScenario)
            roles[AreaRole(name)] = RoleGrid(pf, vf, theta[name])
        return cls(roles)

    @classmethod
    def load(cls, path: str) -> tuple[dict, "GridSpec", ThresholdMode]:
        """Read a grid spec file: its raw document, the grid and the threshold
        mode it sets ("mode", per_area when absent). A file that cannot be read
        or does not describe a grid raises ManifestError naming the file."""
        return read_json(path, "grid spec", lambda doc: (
            doc, cls.from_dict(doc), ThresholdMode(doc.get("mode", ThresholdMode.PER_AREA.value))
        ))

    def role_axes(
        self, role: AreaRole
    ) -> tuple[list[ThresholdInterval], list[ThresholdInterval], tuple[int, ...]]:
        """The role's PF intervals, VF intervals and counter candidates, each
        in enumeration order; EmptyGrid when any of them is empty."""
        role_grid = self.roles.get(role)
        if role_grid is None or not role_grid.theta:
            raise EmptyGrid(f"grid has no axes for area {role.value}")
        pf_pairs = role_grid.pf.pairs()
        vf_pairs = role_grid.vf.pairs()
        if not pf_pairs or not vf_pairs:
            raise EmptyGrid(f"grid enumerates no intervals for area {role.value}")
        return pf_pairs, vf_pairs, role_grid.theta

    def configs_for_role(
        self, role: AreaRole
    ) -> Iterator[tuple[ThresholdInterval, ThresholdInterval, int]]:
        """Lexicographic enumeration: PF interval, then VF interval, then theta."""
        return itertools.product(*self.role_axes(role))


@dataclass(frozen=True)
class GridPointRow:
    """One evaluated grid point, for the per-point accuracy CSV."""

    category: AgentCategory
    role: AreaRole
    pf: ThresholdInterval
    vf: ThresholdInterval
    theta: int
    cv_accuracy: float


@dataclass(frozen=True)
class CalibrationResult:
    config: RiskThresholdConfig
    cv_accuracy: Mapping[tuple[AgentCategory, AreaRole], float]
    test_metrics: MetricsReport
    seed: int
    rows: tuple[GridPointRow, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "cv_accuracy", dict(self.cv_accuracy))


def confusion_from_labels(
    pairs: Iterable[tuple[RiskLevel, RiskLevel]]
) -> ConfusionCounts:
    """Confusion counts from (predicted, truth) level pairs; Risk 2 positive."""
    tp = tn = fp = fn = 0
    for predicted, truth in pairs:
        pred_pos = predicted == RiskLevel.RISK2
        true_pos = truth == RiskLevel.RISK2
        if pred_pos and true_pos:
            tp += 1
        elif pred_pos:
            fp += 1
        elif true_pos:
            fn += 1
        else:
            tn += 1
    return ConfusionCounts(tp, tn, fp, fn)


def confusion(episodes: Iterable[Episode], config: RiskThresholdConfig) -> ConfusionCounts:
    """Confusion counts of the offline classification under config against
    the episodes' labels, one (predicted, truth) pair per labeled area."""
    pairs: list[tuple[RiskLevel, RiskLevel]] = []
    for e in episodes:
        outcome = classify_offline(e.trace, e.category, config)
        pairs.extend((outcome[role], truth) for role, truth in e.labels.items())
    return confusion_from_labels(pairs)


def _search_role(
    episodes: Sequence[Episode],
    grid: GridSpec,
    role: AreaRole,
    areas: tuple[AreaRole, ...],
    k: int,
    seed: int,
    rows: list[GridPointRow],
) -> GridPointRow:
    """Score every (PF, VF, theta) point for one role, which judges the
    given areas, at once, appending a row per point to rows.

    A point's accuracy is the unweighted mean over the k folds of its
    accuracy on each fold. Returns the row with the highest accuracy; ties
    (within 1e-12) prefer the narrower summed interval width, then the
    earlier enumeration order.
    """
    pf_pairs, vf_pairs, thetas = grid.role_axes(role)
    pf_bounds, vf_bounds = interval_bounds(pf_pairs), interval_bounds(vf_pairs)
    # (fold, episode) membership, by position: ids need not be unique.
    positions = np.arange(len(episodes))
    membership = np.array([np.isin(positions, f) for f in kfold_split(positions, k, seed)], dtype=float)

    # One count per episode over the role's areas, judged against each of
    # their labels.
    counts = np.empty((len(pf_pairs), len(vf_pairs), len(episodes)), dtype=np.int64)
    for i, e in enumerate(episodes):
        per_area = [component_values(e.trace, area) for area in areas]
        counts[:, :, i] = hit_count(
            np.concatenate([pf for pf, _ in per_area]),
            np.concatenate([vf for _, vf in per_area]),
            pf_bounds, vf_bounds,
        )
    positives = np.array([sum(e.labels[area] == RiskLevel.RISK2 for area in areas) for e in episodes])

    # One row per point in enumeration order: how many of each episode's
    # judged areas the point classifies correctly, then each fold's accuracy
    # with the fold axis last.
    predicted = counts[:, :, None, :] > np.array(thetas)[:, None]
    correct = np.where(predicted, positives, len(areas) - positives).reshape(-1, len(episodes))
    fold_acc = (correct @ membership.T) / (len(areas) * membership.sum(axis=1))
    acc = fold_acc.mean(axis=-1)
    pf_width, vf_width = (b[:, 1] - b[:, 0] for b in (pf_bounds, vf_bounds))
    width = np.repeat(np.add.outer(pf_width, vf_width).ravel(), len(thetas))

    top = acc >= acc.max() - 1e-12
    best = int(np.argmax(top & (width <= width[top].min() + 1e-12)))
    role_rows = [
        GridPointRow(episodes[0].category, role, pf, vf, theta, point_acc)
        for (pf, vf, theta), point_acc in zip(itertools.product(pf_pairs, vf_pairs, thetas), acc.tolist())
    ]
    rows.extend(role_rows)
    return role_rows[best]


def grid_search(
    episodes: Sequence[Episode],
    grid: GridSpec,
    k: int = 10,
    seed: int = 0,
    mode: ThresholdMode = ThresholdMode.PER_AREA,
    test_fraction: float = 0.2,
) -> CalibrationResult:
    """Exhaustive threshold search with episode-level cross-validation.

    A seeded, label-independent shuffle reserves test_fraction of the
    episodes for final metrics; the grid only ever sees the remaining search
    set. Every category found in the search set is calibrated independently
    and needs at least k search episodes.
    """
    if not episodes:
        raise TooFewEpisodes("no episodes to calibrate on")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(episodes))
    n_test = int(round(test_fraction * len(episodes)))
    test_set = [episodes[i] for i in order[:n_test]]
    search_set = [episodes[i] for i in order[n_test:]]
    if not search_set:
        raise TooFewEpisodes("test fraction leaves no episodes to search on")

    rows: list[GridPointRow] = []
    cv_accuracy: dict[tuple[AgentCategory, AreaRole], float] = {}
    categories: dict[AgentCategory, CategoryThresholds] = {}
    for category in sorted({e.category for e in search_set}, key=int):
        cat_episodes = [e for e in search_set if e.category == category]
        if len(cat_episodes) < k:
            raise TooFewEpisodes(
                f"category {int(category)}: {len(cat_episodes)} search episodes after the "
                f"{test_fraction:.0%} test hold-out, fewer than k = {k} folds"
            )
        roles: dict[AreaRole, RoleThresholds] = {}
        for role, areas in MODE_ROLES[mode].items():
            best = _search_role(cat_episodes, grid, role, areas, k, seed, rows)
            roles[role] = RoleThresholds(best.pf, best.vf, best.theta)
            cv_accuracy[(category, role)] = best.cv_accuracy
        categories[category] = CategoryThresholds(mode, roles)

    config = RiskThresholdConfig(categories)
    test_metrics = metrics(confusion((e for e in test_set if e.category in categories), config))
    return CalibrationResult(config, cv_accuracy, test_metrics, seed, tuple(rows))
