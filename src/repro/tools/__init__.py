"""User-facing tools built on the library: the per-region granularity
tuner (the paper's §5.6 future work, automated), the trace-calibrated
cost model (docs/AUTOTUNE.md), and the command-line driver."""

from repro.tools.calibrate import CalibratedModel, calibrate
from repro.tools.tuneplan import RegionDecision, TunePlan, tune_per_region

__all__ = [
    "CalibratedModel",
    "calibrate",
    "RegionDecision",
    "TunePlan",
    "tune_per_region",
]
