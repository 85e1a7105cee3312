"""Text serialization of codes and code chains.

Code file format (UTF-8):
    line 1: field header "p^e/modulus-packed", e.g. "2^2/7"
    line 2: "n k"
    next k lines: n packed element values separated by spaces
Codes are serialized in canonical rref form.  A chain file is a sequence
of such blocks over the same field and length; nesting is validated on
load, and the last block must be the full space.
"""

from __future__ import annotations

import numpy as np

from . import fields
from .codes import LinearCode
from .lattices import CodeChain


class ParseError(ValueError):
    def __init__(self, msg: str, filename: str, line: int, col: int = 1):
        super().__init__(f"{filename}:{line}:{col}: {msg}")
        self.filename = filename
        self.line = line
        self.col = col


def code_to_text(C: LinearCode) -> str:
    lines = [C.field.header(), f"{C.n} {C.k}"]
    for row in C.G:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def _token_col(line: str, index: int) -> int:
    pos = 0
    for i, tok in enumerate(line.split()):
        pos = line.index(tok, pos)
        if i == index:
            return pos + 1
        pos += len(tok)
    return len(line)


class _Block:
    """Line-oriented cursor over a text body."""

    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.lines = text.splitlines()
        self.pos = 0

    def next_content_line(self):
        while self.pos < len(self.lines):
            line = self.lines[self.pos]
            self.pos += 1
            if line.strip():
                return self.pos, line
        return None, None

    def eof(self) -> bool:
        return all(not l.strip() for l in self.lines[self.pos :])


def _parse_code_block(blk: _Block) -> LinearCode:
    lineno, header = blk.next_content_line()
    if header is None:
        raise ParseError("expected a field header", blk.filename, len(blk.lines) + 1)
    try:
        F = fields.from_header(header.strip())
    except Exception as exc:
        raise ParseError(f"bad field header: {exc}", blk.filename, lineno) from None
    lineno, dims = blk.next_content_line()
    if dims is None:
        raise ParseError("expected 'n k'", blk.filename, len(blk.lines) + 1)
    parts = dims.split()
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        raise ParseError("expected 'n k'", blk.filename, lineno)
    n, k = int(parts[0]), int(parts[1])
    # rows are collected as the lines are read, so the size line alone
    # never allocates anything
    rows = []
    for _ in range(k):
        lineno, line = blk.next_content_line()
        if line is None:
            raise ParseError(f"expected {k} generator rows", blk.filename, len(blk.lines) + 1)
        toks = line.split()
        if len(toks) != n:
            raise ParseError(f"expected {n} entries, got {len(toks)}", blk.filename, lineno)
        row = []
        for j, tok in enumerate(toks):
            try:
                v = int(tok)
            except ValueError:
                raise ParseError(f"bad entry {tok!r}", blk.filename, lineno, _token_col(line, j)) from None
            if not 0 <= v < F.q:
                raise ParseError(f"entry {v} out of range for GF({F.q})", blk.filename, lineno, _token_col(line, j))
            row.append(v)
        rows.append(row)
    return LinearCode(F, n, np.array(rows, dtype=np.int64).reshape(k, n))


def code_from_text(text: str, filename: str = "<string>") -> LinearCode:
    blk = _Block(text, filename)
    C = _parse_code_block(blk)
    if not blk.eof():
        lineno, _ = blk.next_content_line()
        raise ParseError("trailing content after the code block", filename, lineno)
    return C


def load_code(path: str) -> LinearCode:
    with open(path, "r", encoding="utf-8") as fh:
        return code_from_text(fh.read(), path)


def save_code(path: str, C: LinearCode):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(code_to_text(C))


def chain_to_text(chain: CodeChain) -> str:
    return "\n".join(code_to_text(C) for C in chain.codes)


def chain_from_text(text: str, filename: str = "<string>") -> CodeChain:
    blk = _Block(text, filename)
    codes = [_parse_code_block(blk)]
    while not blk.eof():
        codes.append(_parse_code_block(blk))
    try:
        return CodeChain(codes)
    except ValueError as exc:
        raise ParseError(str(exc), filename, 1) from None


def load_chain(path: str) -> CodeChain:
    with open(path, "r", encoding="utf-8") as fh:
        return chain_from_text(fh.read(), path)


def load_codes(path: str) -> list:
    """All code blocks of a file, without chain validation."""
    with open(path, "r", encoding="utf-8") as fh:
        blk = _Block(fh.read(), path)
    codes = [_parse_code_block(blk)]
    while not blk.eof():
        codes.append(_parse_code_block(blk))
    return codes


def save_chain(path: str, chain: CodeChain):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(chain_to_text(chain))
