"""SDPA sparse format (.dat-s) reader and writer.

Convention used by this package: a file with cost vector c, matrix 0 entries
b and matrix i entries a_i encodes

    sup  <c, x>  s.t.  b - sum_i x_i a_i  in  K,

equivalently sum_i x_i a_i - b in -K.  Negative block sizes declare diagonal
blocks, which map to orthant blocks.  Only the upper triangle of a symmetric
entry needs to be given; it is mirrored on read.  Duplicate entries are
rejected.
"""

from __future__ import annotations

import numpy as np

from .model import ConeBlock, ConicProgram, YElement


class SdpaFormatError(ValueError):
    """Malformed SDPA input."""


def _tokens(text):
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines, comments = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line[0] in "*\"":
            comments.append(line.lstrip("*\" ").strip())
            continue
        lines.append(line)
    return lines, comments


def _ints(line, what):
    try:
        return [int(tok) for tok in line.replace(",", " ").split()]
    except ValueError as exc:
        raise SdpaFormatError(f"could not parse {what}: {line!r}") from exc


def parse_sdpa(text) -> ConicProgram:
    """Parse SDPA sparse text (str or bytes) into a ConicProgram."""
    lines, comments = _tokens(text)
    if len(lines) < 3:
        raise SdpaFormatError("header requires at least three lines")
    mline = _ints(lines[0].split("=")[0], "variable count")
    if len(mline) != 1 or mline[0] < 0:
        raise SdpaFormatError(f"bad variable count line: {lines[0]!r}")
    m = mline[0]
    head = 4 if m else 3  # with no variables the objective line is empty
    if len(lines) < head:
        raise SdpaFormatError("header requires an objective line")
    nline = _ints(lines[1].split("=")[0], "block count")
    if len(nline) != 1 or nline[0] < 1:
        raise SdpaFormatError(f"bad block count line: {lines[1]!r}")
    nblocks = nline[0]
    dims = _ints(lines[2].replace("{", " ").replace("}", " ").replace("(", " ")
                 .replace(")", " "), "block sizes")
    if len(dims) != nblocks:
        raise SdpaFormatError(f"expected {nblocks} block sizes, found {len(dims)}")
    blocks = []
    for d in dims:
        if d == 0:
            raise SdpaFormatError("zero block size")
        blocks.append(ConeBlock("orthant", -d) if d < 0 else ConeBlock("psd", d))
    blocks = tuple(blocks)
    try:
        c = np.array([float(tok) for tok in lines[3].replace(",", " ").split()]
                     if m else [])
    except ValueError as exc:
        raise SdpaFormatError(f"could not parse objective line: {lines[3]!r}") from exc
    if len(c) != m:
        raise SdpaFormatError(f"objective has {len(c)} entries, expected {m}")

    mats = [[blk.zero().copy() for blk in blocks] for _ in range(m + 1)]
    seen = set()
    for line in lines[head:]:
        toks = line.replace(",", " ").split()
        if len(toks) != 5:
            raise SdpaFormatError(f"entry needs 5 fields: {line!r}")
        try:
            matno, blkno, i, j = (int(t) for t in toks[:4])
            value = float(toks[4])
        except ValueError as exc:
            raise SdpaFormatError(f"could not parse entry: {line!r}") from exc
        if not 0 <= matno <= m:
            raise SdpaFormatError(f"matrix index {matno} out of range")
        if not 1 <= blkno <= nblocks:
            raise SdpaFormatError(f"block index {blkno} out of range")
        blk = blocks[blkno - 1]
        if not (1 <= i <= blk.size and 1 <= j <= blk.size):
            raise SdpaFormatError(f"entry index ({i},{j}) out of range")
        key = (matno, blkno, min(i, j), max(i, j))
        if key in seen:
            raise SdpaFormatError(f"duplicate entry {key}")
        seen.add(key)
        target = mats[matno][blkno - 1]
        if blk.kind == "orthant":
            if i != j:
                raise SdpaFormatError("off-diagonal entry in a diagonal block")
            target[i - 1] = value
        else:
            target[i - 1, j - 1] = value
            target[j - 1, i - 1] = value

    b = YElement(blocks, mats[0])
    a = [YElement(blocks, mats[k + 1]) for k in range(m)]
    return ConicProgram(blocks, a, b, c, name=comments[0] if comments else "")


def _entry_lines(matno, blocks, y):
    lines = []
    for bi, (blk, part) in enumerate(zip(blocks, y.parts)):
        if blk.kind == "orthant":
            for i in range(blk.size):
                if part[i] != 0.0:
                    lines.append(f"{matno} {bi + 1} {i + 1} {i + 1} {part[i]:.17g}")
        else:
            for i in range(blk.size):
                for j in range(i, blk.size):
                    if part[i, j] != 0.0:
                        lines.append(
                            f"{matno} {bi + 1} {i + 1} {j + 1} {part[i, j]:.17g}")
    return lines


def emit_sdpa(p: ConicProgram) -> str:
    """Serialize a ConicProgram to SDPA sparse text; inverse of parse_sdpa."""
    out = []
    if p.name:
        out.append(f"* {p.name}")
    out.append(str(p.m))
    out.append(str(len(p.blocks)))
    out.append(" ".join(str(-blk.size if blk.kind == "orthant" else blk.size)
                        for blk in p.blocks))
    out.append(" ".join(f"{v:.17g}" for v in p.c))
    out.extend(_entry_lines(0, p.blocks, p.b))
    for k, ai in enumerate(p.a):
        out.extend(_entry_lines(k + 1, p.blocks, ai))
    return "\n".join(out) + "\n"
