"""Real-time pedestrian crossing-risk evaluation from trajectory streams.

Predicts when pedestrians and vehicles will reach the conflict-area
boundaries of a non-signalized crossing, turns the predictions into
predicted post-encroachment times, and flags severe-risk pedestrians with
calibrated per-category thresholds.
"""

from . import calibration, geometry, pipeline, ppet, predictors, risk, stream, synthgen
from .calibration import ConfusionCounts, Episode, GridSpec, grid_search, kfold_split, metrics
from .geometry import (
    AreaMap,
    PixelPoint,
    TargetLine,
    TileGrid,
    WorldPoint,
    locate_area,
    signed_distance_to_line,
    solve_homography,
    transform_point,
)
from .pipeline import RiskPipeline
from .ppet import ArrivalEstimateSet, ConflictScenario, PPetVector, pet, ppet as ppet_vector
from .predictors import (
    HistoricalAveragePredictor,
    LabeledSample,
    RecurrentRegressor,
    TrainedModelBundle,
    TrainingConfig,
    build_labeled_dataset,
    train,
)
from .risk import (
    AreaRole,
    RiskLevel,
    RiskScenario,
    RiskThresholdConfig,
    ThresholdInterval,
    classify_offline,
    select_conflict_vehicle,
    step_evaluate,
)
from .stream import (
    AgentCategory,
    Direction,
    Observation,
    SlidingWindowTrajectory,
    StreamEngine,
    TrajectoryBuffer,
    closer_further_assignment,
    infer_direction,
    window,
)
from .synthgen import ScenarioSpec, generate, label_risk, reference_area_map, reference_tile_grid

__version__ = "0.1.0"
