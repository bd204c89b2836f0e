"""Tests for the shadow-access sanitizer (docs/CHECK.md).

The sanitizer is the dynamic cross-check of the static verifier:
static-clean programs must run sanitizer-clean (the whole-corpus
version of this contract is ``tests/test_check.py::
test_healthy_workloads_are_clean``), every seeded bug must trip a
matching S-code, and installing the probes must never change a run's
results or its simulated timing.
"""

import json
from pathlib import Path

import pytest

from repro.compiler.pipeline import compile_source
from repro.runtime.executor import ExecutionError, run_program
from repro.workloads import source_for

BADPROG_DIR = Path(__file__).parent / "badprogs"
MANIFEST = json.loads((BADPROG_DIR / "manifest.json").read_text())

#: Which sanitizer codes may witness each static diagnostic at runtime.
#: (S-READ shows up alongside several, because reading a stale element
#: is how most planted plan defects first become observable.)
STATIC_TO_DYNAMIC = {
    "RV101": {"S-READ"},
    "RV102": {"S-READ"},
    "RV201": {"S-READ", "S-STALE", "S-RACE"},
    "RV202": {"S-STALE"},
    "RV301": {"S-FENCE"},
    "RV302": {"S-FENCE"},
    "RV401": {"S-RACE"},
}


def _sanitized(source, **options):
    prog = compile_source(source, **options)
    return run_program(prog, execute=True, sanitize=True)


@pytest.mark.parametrize("spec", ["MM-16", "JACOBI-12", "XOVER-24"])
def test_healthy_workloads_sanitize_clean(spec):
    report = _sanitized(source_for(spec), nprocs=4)
    assert report.sanitizer == {"clean": True, "violations": []}


def test_sanitizer_never_perturbs_results_or_timing():
    """Probes observe — a sanitized run's digest, stdout, and simulated
    clock are bit-identical to the plain run's."""
    prog = compile_source(source_for("MM-16"), nprocs=4)
    plain = run_program(prog, execute=True)
    shadowed = run_program(prog, execute=True, sanitize=True)
    assert shadowed.array_digest() == plain.array_digest()
    assert shadowed.stdout == plain.stdout
    assert shadowed.total_s == plain.total_s
    # The verdict rides the report; plain rows keep their exact bytes.
    assert "sanitizer" not in plain.to_jsonable()
    assert shadowed.to_jsonable()["sanitizer"]["clean"] is True


@pytest.mark.parametrize("fname", sorted(MANIFEST))
def test_every_badprog_trips_a_matching_s_code(fname):
    spec = MANIFEST[fname]
    report = _sanitized((BADPROG_DIR / fname).read_text(), **spec["options"])
    verdict = report.sanitizer
    assert verdict["clean"] is False
    got = {v["code"] for v in verdict["violations"]}
    for rv in spec["expected"]:
        assert got & STATIC_TO_DYNAMIC[rv], (
            f"{fname}: static {rv} expected a dynamic witness in "
            f"{STATIC_TO_DYNAMIC[rv]}, sanitizer saw {got}"
        )


def test_master_collect_overwrite_is_an_s_race():
    """race_master_collect.f: rank 1's coarse collect lands on elements
    the master wrote in place, so the run prints the pre-region values;
    the sanitizer names that overwrite as an S-RACE on rank 1."""
    spec = MANIFEST["race_master_collect.f"]
    report = _sanitized(
        (BADPROG_DIR / "race_master_collect.f").read_text(), **spec["options"]
    )
    assert report.stdout[0].split()[:3] == ["4", "6", "30"]  # not 12, 60
    races = [v for v in report.sanitizer["violations"]
             if v["code"] == "S-RACE"]
    assert [(v["rank"], v["array"]) for v in races] == [(1, "A")]
    assert "rank 0 wrote" in races[0]["detail"]


def test_violations_deduplicate_with_counts():
    """unfenced_collect.f skips one fence epoch per region visit: one
    deduplicated S-FENCE entry whose count tallies the repeats."""
    spec = MANIFEST["unfenced_collect.f"]
    report = _sanitized(
        (BADPROG_DIR / "unfenced_collect.f").read_text(), **spec["options"]
    )
    violations = report.sanitizer["violations"]
    keys = [(v["code"], v.get("region_id"), v.get("array"), v.get("rank"))
            for v in violations]
    assert len(keys) == len(set(keys))  # deduped...
    assert any(v["count"] > 1 for v in violations)  # ...but counted


def test_sanitize_requires_value_mode():
    prog = compile_source(source_for("MM-16"), nprocs=4)
    with pytest.raises(ExecutionError):
        run_program(prog, execute=False, sanitize=True)
