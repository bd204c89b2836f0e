"""Tests for the command-line driver."""

import json
from pathlib import Path

import pytest

from repro.tools.cli import main
from repro.workloads import mm, synthetic

BADPROG_DIR = Path(__file__).parent / "badprogs"


@pytest.fixture
def mm_file(tmp_path):
    path = tmp_path / "mm.f"
    path.write_text(mm.source(12))
    return str(path)


def test_cli_compile_plan_and_log(mm_file, capsys):
    assert main(["compile", mm_file, "--nprocs", "4", "--show", "plan", "log"]) == 0
    out = capsys.readouterr().out
    assert "parallelization log" in out
    assert "communication plan" in out
    assert "PARALLEL" in out


def test_cli_compile_fortran_and_avpg(mm_file, capsys):
    assert main(["compile", mm_file, "--show", "fortran", "avpg"]) == 0
    out = capsys.readouterr().out
    assert "MPI_WIN_CREATE" in out
    assert "Valid" in out


def test_cli_run_with_arrays(tmp_path, capsys):
    path = tmp_path / "red.f"
    path.write_text(synthetic.reduction_kernel(32))
    assert main(["run", str(path), "--nprocs", "2", "--arrays", "A"]) == 0
    out = capsys.readouterr().out
    assert "SUM 528" in out
    assert "total time" in out
    assert "A = [" in out


def test_cli_run_timing_and_compare(mm_file, capsys):
    assert main([
        "run", mm_file, "--timing", "--compare-sequential",
        "--granularity", "coarse",
    ]) == 0
    out = capsys.readouterr().out
    assert "speedup" in out


def test_cli_run_unknown_array(mm_file, capsys):
    assert main(["run", mm_file, "--arrays", "NOPE"]) == 0
    assert "no array named NOPE" in capsys.readouterr().out


def test_cli_autotune(mm_file, capsys):
    assert main(
        ["autotune", mm_file, "--metric", "comm_cpu", "--no-cache"]
    ) == 0
    out = capsys.readouterr().out
    assert "per-region tune plan" in out


def test_cli_rejects_bad_granularity(mm_file):
    with pytest.raises(SystemExit):
        main(["compile", mm_file, "--granularity", "chunky"])
    # autotune picks grains itself: it takes no --granularity at all.
    with pytest.raises(SystemExit) as exc:
        main(["autotune", mm_file, "--granularity", "coarse"])
    assert exc.value.code == 2
    # A cluster needs at least one rank: a usage error, not a traceback.
    for sub in ("run", "autotune"):
        with pytest.raises(SystemExit) as exc:
            main([sub, mm_file, "--nprocs", "0"])
        assert exc.value.code == 2


def test_cli_check_clean_exits_0(mm_file, capsys):
    assert main(["check", mm_file, "--no-cache"]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_check_dirty_exits_2(capsys):
    bad = str(BADPROG_DIR / "uncovered_read.f")
    assert main(["check", bad, "--no-cache"]) == 2
    out = capsys.readouterr().out
    assert "RV101" in out


def test_cli_check_honors_partition_spec(capsys):
    bad = str(BADPROG_DIR / "illegal_split_block.f")
    # The bad split is diagnosed; the auto policy is clean.
    assert main(["check", bad, "--no-cache", "--partition", "block:1"]) == 2
    assert "RV401" in capsys.readouterr().out
    assert main(["check", bad, "--no-cache"]) == 0


def test_cli_run_sanitize_clean_and_dirty(mm_file, capsys):
    assert main(["run", mm_file, "--sanitize"]) == 0
    assert "sanitizer         : clean" in capsys.readouterr().out
    bad = str(BADPROG_DIR / "unfenced_collect.f")
    assert main(["run", bad, "--sanitize"]) == 2
    assert "S-FENCE" in capsys.readouterr().out


def test_cli_sanitize_rejects_timing_mode(mm_file, capsys):
    assert main(["run", mm_file, "--sanitize", "--timing"]) == 2
    assert "value mode" in capsys.readouterr().err


def test_cli_missing_artifacts_exit_2_without_traceback(
    mm_file, tmp_path, capsys
):
    """Unloadable plan/calibration/fault/grid artifacts, unparsable
    sources, workload sizes the generators reject, paths that are
    neither a file nor a spec, out-of-range subscripts, division by zero
    and inert C$BUG pragmas are CLI errors (exit 2, message on stderr),
    never tracebacks."""
    for argv in (
        ["run", mm_file, "--tune-plan", "/no/such/plan.json"],
        ["run", mm_file, "--faults", "/no/such/faults.json"],
        ["autotune", mm_file, "--calibration", "/no/such/cal.json"],
        ["sweep", "/no/such/grid.json"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "cannot load" in err
    bad = tmp_path / "bad.f"
    bad.write_text("      PROGRAM P\n      REAL*8 A(8\n      END\n")
    for argv in (
        ["run", str(bad)],
        ["check", str(bad)],
        ["autotune", str(bad), "--no-cache"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: line 2:")
    for argv in (
        ["run", "MM-0"],
        ["run", "XOVER-1"],
        ["autotune", "MM-0", "--no-cache"],
        ["check", "JACOBI-0x2"],
        ["run", "/no/such.f"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: ") and repr(argv[1]) in err
    # Out-of-range subscripts: past the end, below the lower bound
    # (A(I-1) at I=1), and past an inner dimension (A(I+1,J) at I=4,
    # which a flat check alone would alias to A(1,J+1)).
    oor = tmp_path / "oor.f"
    oor.write_text(
        "      PROGRAM P\n      REAL*8 A(8)\n      INTEGER I\n"
        "      DO I = 1, 9\n        A(I) = I\n      ENDDO\n      END\n"
    )
    neg = tmp_path / "neg.f"
    neg.write_text(
        "      PROGRAM P\n      REAL*8 A(8), B(8)\n      INTEGER I\n"
        "      DO I = 1, 8\n        A(I) = I\n      ENDDO\n"
        "      DO I = 1, 8\n        B(I) = A(I-1)\n      ENDDO\n"
        "      PRINT *, B(1)\n      END\n"
    )
    inner = tmp_path / "inner.f"
    inner.write_text(
        "      PROGRAM P\n      REAL*8 A(4,4), B(4)\n      INTEGER I, J\n"
        "      DO J = 1, 4\n        DO I = 1, 4\n"
        "          A(I,J) = I + 10*J\n        ENDDO\n      ENDDO\n"
        "      J = 1\n      DO I = 1, 4\n        B(I) = A(I+1,J)\n"
        "      ENDDO\n      PRINT *, B(4)\n      END\n"
    )
    for path, size, where in (
        (oor, "size 8", "subscript 9 out of range 1:8 in dimension 1"),
        (neg, "size 8", "subscript 0 out of range 1:8 in dimension 1"),
        (inner, "size 16", "subscript 5 out of range 1:4 in dimension 1"),
    ):
        for argv in (["run", str(path)], ["run", "--sanitize", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("repro: ") and "array A" in err
            assert size in err and where in err
            assert len(err.splitlines()) == 1
    # Division by zero: scalar integer and real, vectorized integer `/`
    # and MOD, and a constant the front end folds.
    head = "      PROGRAM P\n      INTEGER I, K\n      INTEGER B(8)\n"
    for body, what in (
        ("      K = 0\n      I = 5 / K\n", "(5 / K)"),
        ("      Y = 0.0\n      X = 1.0 / Y\n", "(1.0 / Y)"),
        ("      K = 0\n      DO I = 1, 8\n        B(I) = I / K\n"
         "      ENDDO\n", "(I / K)"),
        ("      K = 0\n      DO I = 1, 8\n        B(I) = MOD(I, K)\n"
         "      ENDDO\n", "MOD(I, K)"),
        ("      X = 1.0 / 0\n", "(1.0 / 0)"),
    ):
        div = tmp_path / "div.f"
        div.write_text(head + body + "      END\n")
        assert main(["run", str(div)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: division by zero in ")
        assert what in err and len(err.splitlines()) == 1
    # A C$BUG pragma with nothing to act on (one rank plans no collect).
    race = str(BADPROG_DIR / "race_coarse_collect.f")
    assert main(["check", "--nprocs", "1", race]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: C$BUG KEEP-GRAIN A")


def test_cli_sweep_cold_then_warm_is_byte_identical(tmp_path, capsys):
    """A cold ``--jobs 2`` sweep, then a serial rerun served wholly from
    the result cache: same JSONL bytes, all six jobs cache hits."""
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({
        "name": "ci-smoke",
        "axes": {
            "workload": ["MM-16", "JACOBI-8x2", "CFFZINIT-5"],
            "nprocs": [2, 4],
        },
        "defaults": {"granularity": "coarse"},
    }))
    cache = str(tmp_path / "cache")
    cold, warm = tmp_path / "cold.jsonl", tmp_path / "warm.jsonl"
    assert main(["sweep", str(grid), "--jobs", "2", "--quiet",
                 "--cache-dir", cache, "-o", str(cold)]) == 0
    capsys.readouterr()
    assert main(["sweep", str(grid), "--quiet",
                 "--cache-dir", cache, "-o", str(warm)]) == 0
    assert "6 cache hit(s)" in capsys.readouterr().out
    assert cold.read_bytes() == warm.read_bytes()


def test_cli_malformed_artifact_exits_2(mm_file, tmp_path, capsys):
    bad = tmp_path / "plan.json"
    bad.write_text("{not json")
    assert main(["run", mm_file, "--tune-plan", str(bad)]) == 2
    assert "cannot load" in capsys.readouterr().err
    # Valid JSON of the wrong kind is equally a clean CLI error.
    bad.write_text('{"kind": "calibration"}')
    assert main(["run", mm_file, "--tune-plan", str(bad)]) == 2
    assert "cannot load" in capsys.readouterr().err


def test_user_input_errors_share_one_root():
    from repro.compiler.analysis.access import AccessError
    from repro.compiler.analysis.intaffine import AffineError
    from repro.compiler.frontend.lexer import LexError
    from repro.compiler.frontend.lower import LowerError
    from repro.compiler.frontend.parser import ParseError
    from repro.compiler.frontend.symtab import SymtabError
    from repro.compiler.postpass.partition import PartitionError
    from repro.errors import ReproError
    from repro.compiler.postpass.bugseed import BugPragmaError
    from repro.runtime.interp import (
        DivideByZeroError,
        InterpError,
        SubscriptError,
    )
    from repro.sweep.grid import SweepConfigError
    from repro.workloads import WorkloadSpecError

    for cls in (AccessError, AffineError, BugPragmaError, LowerError,
                LexError, PartitionError, SweepConfigError, SymtabError,
                WorkloadSpecError):
        assert issubclass(cls, ReproError) and issubclass(cls, ValueError)
    assert issubclass(ParseError, ReproError)
    assert issubclass(ParseError, SyntaxError)
    assert issubclass(SubscriptError, ReproError)
    assert issubclass(SubscriptError, InterpError)
    assert issubclass(DivideByZeroError, ReproError)
    assert issubclass(DivideByZeroError, InterpError)
