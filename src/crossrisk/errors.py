"""Exception hierarchy shared by all crossrisk modules."""

from __future__ import annotations


class CrossRiskError(Exception):
    """Base class for all domain errors raised by this package."""


# --- geometry ---------------------------------------------------------------

class DegenerateAnchors(CrossRiskError):
    """Anchor points are collinear or duplicated; no projective map exists."""


class ProjectiveSingularity(CrossRiskError):
    """Homogeneous scale collapsed (|w| below tolerance) during projection."""


# --- stream -----------------------------------------------------------------

class OutOfOrderFrame(CrossRiskError):
    """Frame index does not advance by exactly one."""


class DuplicateAgentInFrame(CrossRiskError):
    """Same agent id observed twice within a single frame."""


class InsufficientHistory(CrossRiskError):
    """Buffer holds fewer points than one full sliding window."""


class UnknownDirection(CrossRiskError):
    """Crossing direction could not be inferred yet."""


class CategoryChanged(CrossRiskError):
    """An agent id reappears under another category."""


class NonIncreasingTime(CrossRiskError):
    """An agent's time does not strictly increase from one observation to the next."""


# --- predictors ---------------------------------------------------------------

class PredictionError(CrossRiskError):
    """Base for recoverable arrival-time prediction failures."""


class ZeroDisplacement(PredictionError):
    """Window start and end coincide; no direction vector."""


class NonPositiveVelocity(PredictionError):
    """Average velocity along the displacement direction is not positive."""


class NoApproach(PredictionError):
    """Agent is past the target line or not moving toward it."""


class NonFiniteParameters(CrossRiskError):
    """Model weights contain NaN or infinity."""


class NonFiniteGradient(CrossRiskError):
    """Backpropagation produced NaN or infinite gradients."""


class DivergedLoss(CrossRiskError):
    """Validation loss exploded during training."""


class MissingPredictor(CrossRiskError):
    """No predictor available for a (category, target location) pair."""


# --- risk -------------------------------------------------------------------

class MissingThreshold(CrossRiskError):
    """Threshold config lacks an entry for a category/area/scenario."""


# --- calibration --------------------------------------------------------------

class TooFewEpisodes(CrossRiskError):
    """Fewer episodes than cross-validation folds."""


class BadFoldCount(CrossRiskError):
    """Cross-validation was asked for fewer than one fold."""


class EmptyGrid(CrossRiskError):
    """Grid specification enumerates no candidate configurations."""


# --- synthgen -----------------------------------------------------------------

class InfeasibleSpec(CrossRiskError):
    """Scenario specification cannot produce valid trajectories."""


# --- cli --------------------------------------------------------------------

class BudgetExceeded(CrossRiskError):
    """Measured per-frame latency violated the asserted budget."""


class ManifestError(CrossRiskError):
    """A referenced input file is missing or failed to parse."""
