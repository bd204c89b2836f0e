#!/usr/bin/env python
"""Repo-convention lints the generic toolchain can't express.

Four rules, each load-bearing for a reproducibility or docs contract:

1. **No wall clocks in the simulator** (``src/repro/sim``,
   ``src/repro/vbus``): every quantity those layers produce must be
   *simulated* time — a ``time.time()`` / ``datetime.now()`` sneaking in
   breaks byte-identical reruns and the sweep cache (docs/SWEEP.md).

2. **Omitted-when-unset JSON fields**: in any ``to_jsonable`` method,
   an assignment of a registered optional key (``out["grain_map"] =
   ...``) must sit under an ``if`` — unconditionally emitting the key
   changes the bytes of every previously-committed artifact and cache
   row (the byte-compat convention of docs/SWEEP.md and docs/CHECK.md).

3. **No dead intra-repo markdown links**: every ``[text](target)`` in a
   tracked markdown file whose target is neither an absolute URL nor a
   bare ``#anchor`` must name a path that exists, resolved relative to
   the linking file (``#fragment`` suffixes are stripped; fragments
   themselves are not validated).

4. **The analyzed unit stays read-only**: loop annotations
   (``.parallel``, ``.reductions``, ``.private``) are assigned only by
   the parser, parallelism detection and the driver's front pass.  Every
   compile variant of a source plans from one shared unit
   (docs/ARCHITECTURE.md), so a write anywhere else would leak one
   variant's decision into the others.

Usage::

    python tools/lint_repo.py          # lints the tree, exit 1 on findings

Run as part of tools/check_docs.sh and by tests/test_lint_repo.py.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: Directories whose code must never consult the host clock.
SIM_DIRS = ("src/repro/sim", "src/repro/vbus")

#: Host-clock call names, as ``module.attr`` attribute accesses.
WALL_CLOCK_ATTRS = {
    "time": {
        "time", "time_ns", "perf_counter", "perf_counter_ns",
        "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    },
    "datetime": {"now", "utcnow", "today"},
}

#: JSON keys that are optional-by-contract: their presence depends on
#: the run/plan configuration, so emitting them must be conditional.
#: Grow this set when a new omitted-when-unset field ships.
OPTIONAL_JSON_KEYS = {
    # RunReport (docs/SWEEP.md)
    "grain_map", "partition", "partition_map", "sanitizer",
    # TunePlan / RegionDecision (docs/AUTOTUNE.md)
    "tune_partition", "calibration_sha256", "measured",
    # CheckReport / Diagnostic / Violation (docs/CHECK.md)
    "diagnostics", "notes", "array", "rank", "loop_var", "region_id",
}


#: Loop annotations of the shared unit, and where they may be written:
#: path -> the one top-level function allowed to (None: the whole file).
ANNOTATION_ATTRS = {"parallel", "reductions", "private"}
ANNOTATION_WRITERS = {
    "src/repro/compiler/frontend/parser.py": None,
    "src/repro/compiler/analysis/parallel.py": None,
    "src/repro/compiler/postpass/driver.py": "run_front",
}

#: ``[text](target)`` in markdown.
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Retrieval artifacts (verbatim paper/code dumps), not authored docs —
#: they carry PDF-extraction debris like image refs that never existed.
MD_SKIP = {"PAPER.md", "PAPERS.md", "SNIPPETS.md"}


def _iter_py(rel_dirs):
    for rel in rel_dirs:
        yield from sorted((REPO / rel).rglob("*.py"))


def lint_wall_clock(findings):
    for path in _iter_py(SIM_DIRS):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            # time.perf_counter(), datetime.now(), datetime.datetime.now()
            if isinstance(node, ast.Attribute):
                base = node.value
                root = None
                if isinstance(base, ast.Name):
                    root = base.id
                elif isinstance(base, ast.Attribute):
                    root = base.attr
                if root in WALL_CLOCK_ATTRS and (
                    node.attr in WALL_CLOCK_ATTRS[root]
                ):
                    findings.append(
                        f"{path.relative_to(REPO)}:{node.lineno}: "
                        f"wall-clock call {root}.{node.attr} in simulator "
                        f"code (simulated time only)"
                    )
            # from time import perf_counter
            if isinstance(node, ast.ImportFrom) and node.module in (
                "time", "datetime"
            ):
                banned = WALL_CLOCK_ATTRS.get(node.module, set())
                for alias in node.names:
                    if alias.name in banned:
                        findings.append(
                            f"{path.relative_to(REPO)}:{node.lineno}: "
                            f"imports wall clock "
                            f"{node.module}.{alias.name} in simulator code"
                        )


def _optional_key_of(stmt):
    """The registered optional key a statement assigns, or None."""
    if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
        return None
    target = stmt.targets[0]
    if not isinstance(target, ast.Subscript):
        return None
    sl = target.slice
    if isinstance(sl, ast.Constant) and sl.value in OPTIONAL_JSON_KEYS:
        return sl.value
    return None


def _check_jsonable(func, path, findings):
    """Optional-key assignments must be nested under an If."""

    def visit(stmts, guarded):
        for stmt in stmts:
            key = _optional_key_of(stmt)
            if key is not None and not guarded:
                findings.append(
                    f"{path.relative_to(REPO)}:{stmt.lineno}: "
                    f"to_jsonable emits optional key {key!r} "
                    f"unconditionally (omitted-when-unset convention)"
                )
            for child_field, child_guarded in (
                ("body", guarded or isinstance(stmt, ast.If)),
                ("orelse", guarded or isinstance(stmt, ast.If)),
                ("finalbody", guarded),
            ):
                children = getattr(stmt, child_field, None)
                if children:
                    visit(children, child_guarded)

    visit(func.body, guarded=False)


def lint_jsonable(findings):
    for path in _iter_py(("src/repro",)):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (
                node.name == "to_jsonable"
            ):
                _check_jsonable(node, path, findings)


def _annotation_writes(tree):
    """(line, attribute, top-level function or None) of every assignment
    to a loop annotation, ``setattr`` calls with a literal name included."""

    def targets(node):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            stack = list(getattr(node, "targets", None) or [node.target])
            while stack:
                t = stack.pop()
                if isinstance(t, (ast.Tuple, ast.List)):
                    stack.extend(t.elts)
                elif isinstance(t, ast.Attribute):
                    yield t.attr
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            yield node.args[1].value

    for top in tree.body:
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ) else None
        for node in ast.walk(top):
            for attr in targets(node):
                if attr in ANNOTATION_ATTRS:
                    yield node.lineno, attr, owner


def lint_annotation_writes(findings):
    for path in _iter_py(("src/repro",)):
        rel = path.relative_to(REPO).as_posix()
        allowed = ANNOTATION_WRITERS.get(rel, False)  # False: nowhere
        if allowed is None:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, attr, owner in _annotation_writes(tree):
            if owner != allowed:
                findings.append(
                    f"{rel}:{lineno}: assigns loop annotation .{attr} "
                    f"outside the front pass (the analyzed unit is shared "
                    f"by every compile variant)"
                )


def _tracked_markdown():
    out = subprocess.run(
        ["git", "ls-files", "*.md"], cwd=REPO, capture_output=True,
        text=True, check=True,
    ).stdout.split()
    return [name for name in out if name not in MD_SKIP]


def lint_markdown_links(findings):
    for name in _tracked_markdown():
        path = REPO / name
        if not path.exists():
            continue  # tracked but deleted: links to it are still checked
        lines = path.read_text().splitlines()
        for lineno, line in enumerate(lines, start=1):
            for target in MD_LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                ref = target.split("#", 1)[0]
                if ref and not (path.parent / ref).exists():
                    findings.append(f"{name}:{lineno}: dead link -> {target}")


def main() -> int:
    findings = []
    lint_wall_clock(findings)
    lint_jsonable(findings)
    lint_markdown_links(findings)
    lint_annotation_writes(findings)
    if findings:
        print("\n".join(findings))
        return 1
    nfiles = len(list(_iter_py(SIM_DIRS))) + len(
        list(_iter_py(("src/repro",)))
    ) + len(_tracked_markdown())
    print(f"repo lints OK ({nfiles} file pass(es))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
