"""CI smoke for the static verifier + sanitizer stack (docs/CHECK.md).

Asserts the checking stack's corpus-wide guarantees, end to end:

* **no false positives**: every example workload kind, at every
  granularity x partition strategy that passes digest-invariance today,
  checks clean — and a warm ``check_source`` call returns the report
  from the content-addressed cache byte-identical to the cold one;
* **static-clean implies sanitizer-clean**: each of those clean
  variants also runs under the shadow-access sanitizer without a
  single violation;
* **no false negatives**: every seeded-bug program in tests/badprogs
  is flagged with its manifest's expected codes, and its sanitized run
  observes the defect dynamically.

Run: ``PYTHONPATH=src python tools/check_smoke.py``
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from repro.compiler.pipeline import compile_source
from repro.runtime.executor import run_program
from repro.sweep.cache import canonical_json
from repro.tools.check import check_source
from repro.workloads import source_for

REPO = Path(__file__).resolve().parents[1]
BADPROG_DIR = REPO / "tests" / "badprogs"

#: One small instance per workload kind: the healthy corpus.
HEALTHY = ("MM-16", "SWIM-16", "JACOBI-12", "CFFZINIT-5",
           "XOVER-24", "PXOVER-24")
GRAINS = ("fine", "middle", "coarse")
PARTITIONS = ("auto", "block", "cyclic")

def _healthy_corpus(cache: str) -> int:
    checks = sanitized = 0
    for spec in HEALTHY:
        source = source_for(spec)
        for grain in GRAINS:
            for partition in PARTITIONS:
                cold = check_source(
                    source, nprocs=4, granularity=grain,
                    partition=partition, cache_dir=cache,
                )
                if not cold.clean:
                    print(f"FAIL: {spec} {grain}/{partition} not clean:\n"
                          f"{cold.summary()}")
                    return 1
                warm = check_source(
                    source, nprocs=4, granularity=grain,
                    partition=partition, cache_dir=cache,
                )
                if not warm.cached:
                    print(f"FAIL: {spec} {grain}/{partition}: warm check "
                          "missed the cache")
                    return 1
                if canonical_json(warm.to_jsonable()) != canonical_json(
                    cold.to_jsonable()
                ):
                    print(f"FAIL: {spec} {grain}/{partition}: warm report "
                          "not byte-identical")
                    return 1
                checks += 1
                # Static-clean must imply sanitizer-clean.
                prog = compile_source(
                    source, nprocs=4, granularity=grain,
                    partition=partition,
                )
                report = run_program(prog, execute=True, sanitize=True)
                if not report.sanitizer["clean"]:
                    print(f"FAIL: {spec} {grain}/{partition} is static-"
                          f"clean but sanitizer-dirty: {report.sanitizer}")
                    return 1
                sanitized += 1
    print(f"healthy corpus OK: {checks} variant(s) static-clean, warm "
          f"cache byte-identical, {sanitized} sanitizer-clean run(s)")
    return 0


def _badprog_corpus() -> int:
    manifest = json.loads((BADPROG_DIR / "manifest.json").read_text())
    for fname, spec in sorted(manifest.items()):
        source = (BADPROG_DIR / fname).read_text()
        report = check_source(source, cache_dir=None, **spec["options"])
        missing = set(spec["expected"]) - report.codes()
        if missing:
            print(f"FAIL: {fname}: expected {sorted(missing)} missing "
                  f"(got {sorted(report.codes())})")
            return 1
        prog = compile_source(source, **spec["options"])
        run = run_program(prog, execute=True, sanitize=True)
        if run.sanitizer["clean"]:
            print(f"FAIL: {fname}: sanitizer missed the seeded defect")
            return 1
    print(f"seeded-bug corpus OK: {len(manifest)} program(s) flagged "
          "statically and dynamically")
    return 0


def main() -> int:
    cache = tempfile.mkdtemp(prefix="check-smoke-")
    try:
        for stage in (lambda: _healthy_corpus(cache), _badprog_corpus):
            rc = stage()
            if rc:
                return rc
    finally:
        shutil.rmtree(cache, ignore_errors=True)
    print("check smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
