"""Tokenizer for the Fortran 77 subset.

Accepts the fixed-form-flavoured sources our workloads use, liberally:

* comment lines start with ``C``/``c``/``*``/``!`` in column 1 (or ``!``
  anywhere starts a trailing comment) — except Polaris directive comments
  (``CSRD$``/``C$PAR``), which are surfaced as DIRECTIVE tokens;
* optional numeric statement labels;
* ``&`` at end of line continues the statement;
* keywords and identifiers are case-insensitive (uppercased);
* dotted operators ``.LT. .LE. .GT. .GE. .EQ. .NE. .AND. .OR. .NOT.
  .TRUE. .FALSE.`` plus the modern ``< <= > >= == /=`` spellings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ReproError

__all__ = ["Token", "LexError", "tokenize"]


class LexError(ValueError, ReproError):
    """Bad character or malformed literal, with line information."""


@dataclass
class Token:
    kind: str  # NAME KEYWORD NUM DOTOP OP NEWLINE LABEL DIRECTIVE EOF
    value: str
    line: int

    def __repr__(self):
        return f"Token({self.kind},{self.value!r},L{self.line})"


KEYWORDS = {
    "PROGRAM", "SUBROUTINE", "FUNCTION", "END", "ENDDO", "ENDIF",
    "DO", "IF", "THEN", "ELSE", "ELSEIF", "CONTINUE", "CALL", "RETURN",
    "INTEGER", "REAL", "DOUBLE", "PRECISION", "DIMENSION", "PARAMETER",
    "PRINT", "IMPLICIT", "NONE", "COMMON", "DATA", "STOP", "GOTO",
}

DOT_OPS = {
    ".LT.": "<", ".LE.": "<=", ".GT.": ">", ".GE.": ">=",
    ".EQ.": "==", ".NE.": "/=",
    ".AND.": ".AND.", ".OR.": ".OR.", ".NOT.": ".NOT.",
    ".TRUE.": ".TRUE.", ".FALSE.": ".FALSE.",
}

_NUM_RE = re.compile(
    r"""
    (?:\d+\.\d*|\.\d+|\d+)            # mantissa
    (?:[EDed][+-]?\d+)?               # exponent (D = double)
    """,
    re.VERBOSE,
)
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_DOTOP_RE = re.compile(
    r"\.(?:LT|LE|GT|GE|EQ|NE|AND|OR|NOT|TRUE|FALSE)\.", re.IGNORECASE
)
_MULTI_OPS = ("**", "<=", ">=", "==", "/=", "//")
_SINGLE_OPS = "+-*/(),=<>:"

_DIRECTIVE_RE = re.compile(r"^[Cc!\*]\s*(?:SRD\$|\$PAR)\s*(.*)$")


def _is_comment(line: str) -> bool:
    return bool(line) and line[0] in "Cc*!"


def _join_continuations(lines: List[str]) -> List[str]:
    """Merge fixed-form continuation lines (leading ``&`` after indent)
    into their predecessor, preserving line count via blank placeholders."""
    out: List[str] = []
    for line in lines:
        stripped = line.lstrip()
        if stripped.startswith("&") and out:
            j = len(out) - 1
            while j >= 0 and not out[j].strip():
                j -= 1
            if j >= 0:
                out[j] = out[j] + " " + stripped[1:]
                out.append("")
                continue
        out.append(line)
    return out


def tokenize(source: str) -> List[Token]:
    """Tokenize a full source file into a flat token list."""
    tokens: List[Token] = []
    pending_continuation = False

    for lineno, raw in enumerate(_join_continuations(source.splitlines()), start=1):
        line = raw.rstrip()
        if not line.strip():
            continue
        # Fixed-form comment/directive detection uses COLUMN 1 of the raw
        # line: 'C' in column 1 is a comment, but an indented statement may
        # legitimately start with a 'C' array name (e.g. "  C(I,J) = 0").
        m = _DIRECTIVE_RE.match(line)
        if m:
            tokens.append(Token("DIRECTIVE", m.group(1).strip().upper(), lineno))
            tokens.append(Token("NEWLINE", "\n", lineno))
            continue
        if _is_comment(line) or line.lstrip().startswith("!"):
            continue

        # Trailing comment.
        bang = _find_trailing_comment(line)
        if bang is not None:
            line = line[:bang].rstrip()
            if not line.strip():
                continue

        pos = 0
        n = len(line)
        first_on_line = not pending_continuation
        pending_continuation = False

        # Optional numeric statement label at start of line.
        if first_on_line:
            lm = re.match(r"\s*(\d+)\s+(?=\S)", line)
            if lm and not line.strip()[len(lm.group(1)):].strip().startswith("="):
                tokens.append(Token("LABEL", lm.group(1), lineno))
                pos = lm.end()

        while pos < n:
            ch = line[pos]
            if ch in " \t":
                pos += 1
                continue
            if ch == "&" and line[pos:].strip() == "&":
                pending_continuation = True
                pos = n
                break
            if ch == "'":
                close = line.find("'", pos + 1)
                if close < 0:
                    raise LexError(f"line {lineno}: unterminated string")
                tokens.append(Token("STR", line[pos + 1 : close], lineno))
                pos = close + 1
                continue
            dm = _DOTOP_RE.match(line, pos)
            if dm:
                canon = dm.group(0).upper()
                tokens.append(Token("DOTOP", DOT_OPS[canon], lineno))
                pos = dm.end()
                continue
            nm = _NUM_RE.match(line, pos)
            if nm and (ch.isdigit() or ch == "."):
                text = nm.group(0)
                tokens.append(Token("NUM", text, lineno))
                pos = nm.end()
                continue
            im = _NAME_RE.match(line, pos)
            if im:
                word = im.group(0).upper()
                kind = "KEYWORD" if word in KEYWORDS else "NAME"
                tokens.append(Token(kind, word, lineno))
                pos = im.end()
                continue
            two = line[pos : pos + 2]
            if two in _MULTI_OPS:
                tokens.append(Token("OP", two, lineno))
                pos += 2
                continue
            if ch in _SINGLE_OPS:
                tokens.append(Token("OP", ch, lineno))
                pos += 1
                continue
            raise LexError(f"line {lineno}: unexpected character {ch!r}")

        if not pending_continuation:
            tokens.append(Token("NEWLINE", "\n", lineno))

    tokens.append(Token("EOF", "", len(source.splitlines()) + 1))
    return tokens


def _find_trailing_comment(line: str) -> Optional[int]:
    """Index of a trailing ``!`` comment, ignoring ones inside strings."""
    in_str = False
    for i, ch in enumerate(line):
        if ch == "'":
            in_str = not in_str
        elif ch == "!" and not in_str:
            return i
    return None
