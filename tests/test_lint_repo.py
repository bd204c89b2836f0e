"""The repo-convention lints (tools/lint_repo.py) run in the tier-1 suite."""

import importlib.util
from pathlib import Path

import pytest

LINT_PATH = Path(__file__).resolve().parents[1] / "tools" / "lint_repo.py"


@pytest.fixture
def lint_repo():
    spec = importlib.util.spec_from_file_location("lint_repo", LINT_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_repo_lints_are_clean(lint_repo, capsys):
    assert lint_repo.main() == 0, capsys.readouterr().out


def test_dead_markdown_link_is_a_finding(lint_repo, tmp_path, monkeypatch):
    (tmp_path / "there.md").write_text("ok\n")
    (tmp_path / "doc.md").write_text(
        "[a](there.md) [b](there.md#x) [c](#top) [d](https://example.org)\n"
        "[e](gone.md#frag)\n"
    )
    monkeypatch.setattr(lint_repo, "REPO", tmp_path)
    monkeypatch.setattr(
        lint_repo, "_tracked_markdown", lambda: ["doc.md", "there.md"]
    )
    findings = []
    lint_repo.lint_markdown_links(findings)
    assert findings == ["doc.md:2: dead link -> gone.md#frag"]


def test_tracked_but_deleted_markdown_is_skipped(
    lint_repo, tmp_path, monkeypatch
):
    (tmp_path / "doc.md").write_text("[a](gone.md) [b](doc.md)\n")
    monkeypatch.setattr(lint_repo, "REPO", tmp_path)
    monkeypatch.setattr(
        lint_repo, "_tracked_markdown", lambda: ["doc.md", "gone.md"]
    )
    findings = []
    lint_repo.lint_markdown_links(findings)
    assert findings == ["doc.md:1: dead link -> gone.md"]


def test_loop_annotation_write_outside_front_pass_is_a_finding(
    lint_repo, tmp_path, monkeypatch
):
    def put(rel, text):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)

    put("src/repro/compiler/frontend/parser.py", "loop.parallel = True\n")
    put(
        "src/repro/compiler/postpass/driver.py",
        "def run_front(unit):\n"
        "    def visit(s):\n"
        "        s.parallel = False\n"
        "\n"
        "def run_postpass(front, options):\n"
        "    loop.parallel = False\n",
    )
    put(
        "src/repro/runtime/x.py",
        "class C:\n"
        "    def f(self, loop):\n"
        "        loop.reductions, self.n = [], 0\n"
        "        setattr(loop, 'private', [])\n"
        "        loop.parallel_ok = True\n",
    )
    monkeypatch.setattr(lint_repo, "REPO", tmp_path)
    findings = []
    lint_repo.lint_annotation_writes(findings)
    assert [f.split(": ", 1)[0] for f in findings] == [
        "src/repro/compiler/postpass/driver.py:6",
        "src/repro/runtime/x.py:3",
        "src/repro/runtime/x.py:4",
    ]
