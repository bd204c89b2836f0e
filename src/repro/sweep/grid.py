"""Declarative sweep grids: schema, validation, deterministic expansion.

A grid is a JSON-able dict::

    {
      "name": "three-backend",
      "axes": {
        "workload": ["MM-64", "SWIM-32"],
        "nprocs": [4, 16],
        "backend": ["vbus", "ethernet100", "gige"]
      },
      "defaults": {"granularity": "fine", "execute": false}
    }

``axes`` values are lists crossed into a full product; ``defaults``
pins the non-swept fields.  Expansion order is **deterministic**: axes
are iterated in the fixed :data:`AXIS_KEYS` order (not author order),
and each axis preserves its listed value order — the job list, and
therefore the merged output, is a pure function of the grid contents.
Unknown keys are an error, not a warning: a silently-ignored typo would
change which configs a sweep covers.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, List

from repro.errors import ReproError
from repro.sweep.runner import BACKENDS, GRANULARITIES, parse_workload

__all__ = ["AXIS_KEYS", "SweepConfigError", "expand_grid", "load_grid"]


class SweepConfigError(ValueError, ReproError):
    """A malformed grid or job config."""


#: Recognized config fields, in canonical expansion (= product) order.
AXIS_KEYS = (
    "workload",
    "nprocs",
    "backend",
    "granularity",
    "partition",
    "tune_plan",
    "calibration",
    "fast_path",
    "execute",
    "faults",
    "seed",
)

#: Field defaults applied beneath the grid's own ``defaults``.
_DEFAULTS = {
    "nprocs": 4,
    "backend": "vbus",
    "granularity": "fine",
    "partition": None,
    "tune_plan": None,
    "calibration": None,
    "fast_path": True,
    "execute": False,
    "faults": None,
    "seed": None,
}


def _check_config(cfg: Dict) -> Dict:
    """Validate one expanded job config; returns it with sorted keys."""
    if not isinstance(cfg.get("workload"), str):
        raise SweepConfigError(f"job needs a workload string, got {cfg!r}")
    parse_workload(cfg["workload"])  # raises SweepConfigError on bad specs
    n = cfg["nprocs"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SweepConfigError(f"nprocs must be a positive int, got {n!r}")
    if cfg["backend"] not in BACKENDS:
        raise SweepConfigError(
            f"unknown backend {cfg['backend']!r}; use one of {sorted(BACKENDS)}"
        )
    if cfg["granularity"] not in GRANULARITIES:
        raise SweepConfigError(
            f"unknown granularity {cfg['granularity']!r}; "
            f"use one of {GRANULARITIES}"
        )
    for key in ("fast_path", "execute"):
        if not isinstance(cfg[key], bool):
            raise SweepConfigError(f"{key} must be a bool, got {cfg[key]!r}")
    faults = cfg["faults"]
    if faults is not None and not isinstance(faults, dict):
        raise SweepConfigError(
            f"faults must be null or a fault-plan object, got {faults!r}"
        )
    tune_plan = cfg["tune_plan"]
    if tune_plan is not None:
        if not isinstance(tune_plan, dict) or not tune_plan:
            raise SweepConfigError(
                "tune_plan must be null or a non-empty region->grain "
                f"object (a TunePlan grain_map), got {tune_plan!r}"
            )
        for rid, grain in tune_plan.items():
            if not str(rid).isdigit() or grain not in GRANULARITIES:
                raise SweepConfigError(
                    f"bad tune_plan entry {rid!r}: {grain!r} (want "
                    f"region-id -> one of {GRANULARITIES})"
                )
    partition = cfg["partition"]
    if partition is not None:
        from repro.compiler.postpass.partition import parse_strategy

        def check_spec(spec, where):
            try:
                parse_strategy(spec)
            except ValueError as exc:
                raise SweepConfigError(
                    f"bad partition {where}: {exc}"
                ) from None

        if isinstance(partition, str):
            if partition != "auto":
                check_spec(partition, f"value {partition!r}")
        elif isinstance(partition, dict) and partition:
            # Per-region overrides: the ``partition_map`` of a TunePlan
            # JSON artifact (docs/PARTITION.md).
            for rid, spec in partition.items():
                if not str(rid).isdigit():
                    raise SweepConfigError(
                        f"bad partition region id {rid!r} (want digits)"
                    )
                check_spec(spec, f"entry {rid!r}: {spec!r}")
        else:
            raise SweepConfigError(
                "partition must be null, a strategy spec string, or a "
                f"non-empty region->spec object, got {partition!r}"
            )
    calibration = cfg["calibration"]
    if calibration is not None:
        from repro.tools.calibrate import CalibratedModel

        try:
            CalibratedModel.from_jsonable(calibration)
        except (KeyError, TypeError, ValueError) as exc:
            raise SweepConfigError(
                "calibration must be null or a CalibratedModel artifact "
                f"object ('repro calibrate -o', docs/AUTOTUNE.md): {exc}"
            ) from None
    seed = cfg["seed"]
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise SweepConfigError(f"seed must be null or an int, got {seed!r}")
    # ``tune_plan`` entered the schema after PR 6, ``partition`` after
    # PR 8, and ``calibration`` after PR 9; omit them when unset so
    # pre-existing configs keep their exact cache keys and row bytes.
    return {
        key: cfg[key]
        for key in AXIS_KEYS
        if not (
            key in ("partition", "tune_plan", "calibration")
            and cfg[key] is None
        )
    }


def expand_grid(spec: Dict) -> List[Dict]:
    """Expand a grid spec into its deterministic job-config list."""
    if not isinstance(spec, dict):
        raise SweepConfigError(f"grid must be an object, got {type(spec).__name__}")
    known_top = {"name", "axes", "defaults"}
    unknown = set(spec) - known_top
    if unknown:
        raise SweepConfigError(f"unknown grid key(s): {sorted(unknown)}")
    axes = spec.get("axes", {})
    defaults = spec.get("defaults", {})
    for section, name in ((axes, "axes"), (defaults, "defaults")):
        if not isinstance(section, dict):
            raise SweepConfigError(f"{name} must be an object")
        bad = set(section) - set(AXIS_KEYS)
        if bad:
            raise SweepConfigError(f"unknown {name} key(s): {sorted(bad)}")
    clash = set(axes) & set(defaults)
    if clash:
        raise SweepConfigError(
            f"key(s) in both axes and defaults: {sorted(clash)}"
        )
    for key, values in axes.items():
        if not isinstance(values, list) or not values:
            raise SweepConfigError(f"axis {key!r} must be a non-empty list")
    base = dict(_DEFAULTS)
    base.update(defaults)
    if "workload" not in axes and "workload" not in base:
        raise SweepConfigError("grid needs a workload axis or default")

    swept = [key for key in AXIS_KEYS if key in axes]
    configs = []
    for combo in itertools.product(*(axes[key] for key in swept)):
        cfg = dict(base)
        cfg.update(zip(swept, combo))
        configs.append(_check_config(cfg))
    return configs


def load_grid(path: str) -> Dict:
    """Read a grid spec from a JSON file."""
    with open(path) as fh:
        try:
            spec = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SweepConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(spec, dict):
        raise SweepConfigError(f"{path}: grid must be a JSON object")
    return spec
