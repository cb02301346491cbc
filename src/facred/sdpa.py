"""SDPA sparse format (.dat-s) reader and writer.

Convention used by this package: a file with cost vector c, matrix 0 entries
b and matrix i entries a_i encodes

    sup  <c, x>  s.t.  b - sum_i x_i a_i  in  K,

equivalently sum_i x_i a_i - b in -K.  Negative block sizes declare diagonal
blocks, which map to orthant blocks.  Only the upper triangle of a symmetric
entry needs to be given; it is mirrored on read.  Duplicate entries are
rejected.  As in the SDPA manual's examples, the three count lines may end
in an ``= annotation``, and braces or parentheses may enclose the block
sizes and the objective.
"""

from __future__ import annotations

import warnings
from itertools import chain

import numpy as np

from .model import ConeBlock, ConicProgram


class SdpaFormatError(ValueError):
    """Malformed SDPA input."""


# Braces and parentheses may enclose the block sizes and the objective.
_BRACES = str.maketrans("{}()", "    ")


def _title(line):
    """A comment line's text; a title in double quotes loses both quotes."""
    text = line.lstrip("*\" ")
    return (text.removesuffix("\"") if line[0] == "\"" else text).strip()


def _tokens(text):
    lines = [line for line in map(str.strip, text.splitlines()) if line]
    comments = [_title(line) for line in lines if line[0] in "*\""]
    return [line for line in lines if line[0] not in "*\""], comments


def _header(text):
    """(lines, comments, ends) of the text's first four non-blank lines that
    are not comments, read one line at a time up to each '\n': the lines
    stripped, the titles of the comment lines before the last of them, and
    the offset just past each line.  Fewer lines at the end of the text.
    None when a line holds another line break (a lone '\r', a form feed):
    str.splitlines would split it, so the whole text must be split."""
    lines, comments, ends, at = [], [], [], 0
    while len(lines) < 4 and at < len(text):
        end = text.find("\n", at) + 1 or len(text)
        pieces = text[at:end].splitlines()
        if len(pieces) > 1:
            return None
        line, at = pieces[0].strip() if pieces else "", end
        if line and line[0] in "*\"":
            comments.append(_title(line))
        elif line:
            lines.append(line)
            ends.append(at)
    return lines, comments, ends


def _ints(line, what):
    try:
        return [int(tok) for tok in line.replace(",", " ").split()]
    except ValueError as exc:
        raise SdpaFormatError(f"could not parse {what}: {line!r}") from exc


def _entry_array(rows):
    """Tokenised entry lines as one (n, 5) float array; None when a line
    lacks 5 fields, a token is no finite number, or an index token is not
    one that int() reads too (of decimal digits, signs and underscores)."""
    flat = list(chain.from_iterable(rows))
    index = "".join(flat[0::5] + flat[1::5] + flat[2::5] + flat[3::5])
    if set(map(len, rows)) - {5} or index and not index.translate(
            str.maketrans("", "", "+-_")).isdecimal():
        return None
    try:
        entries = np.array(flat, dtype=float).reshape(-1, 5)
    except ValueError:
        return None
    return entries if np.isfinite(entries).all() else None


def _entry_stacks(entries, rows, blocks, m):
    """Each block's m + 1 matrices (vectors if diagonal) from the entries of
    the tokenised lines ``rows``.  SdpaFormatError for the first offending
    line: matrix, block, entry index, duplicate (mirrored too), off-diagonal
    entry in a diagonal block, checked in that order."""
    # Block numbers 0 and nb + 1 stand for all bad ones: order 0.
    sizes = np.array([0] + [blk.size for blk in blocks] + [0])
    psd = np.array([False] + [len(blk.shape) == 2 for blk in blocks] + [False])
    mat, blk, i, j = entries[:, :4].T
    b = blk.clip(0, len(blocks) + 1).astype(np.intp)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    # Unique over in-range entries; a stable sort puts a repeat after the
    # line it repeats.
    key = ((mat * len(sizes) + b) * (sizes.max() + 1) + lo) * (sizes.max() + 1) + hi
    order = np.argsort(key, kind="stable")
    dup = np.zeros(len(key), dtype=bool)
    dup[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    flags = ((mat < 0) | (mat > m), sizes[b] == 0, (lo < 1) | (hi > sizes[b]),
             dup, ~psd[b] & (lo != hi))
    offending = flags[0] | flags[1] | flags[2] | flags[3] | flags[4]
    if offending.any():
        k = int(np.argmax(offending))
        matno, blkno, ii, jj = map(int, rows[k][:4])
        raise SdpaFormatError(next(msg for flag, msg in zip(flags, (
            f"matrix index {matno} out of range",
            f"block index {blkno} out of range",
            f"entry index ({ii},{jj}) out of range",
            f"duplicate entry {(matno, blkno, min(ii, jj), max(ii, jj))}",
            "off-diagonal entry in a diagonal block")) if flag[k]))
    # Matrix 0, b, goes to index -1: a_1, ..., a_m, b in stack order.
    ix = entries[:, :4].astype(np.intp) - 1
    stacks = [np.zeros((m + 1,) + blk.zero().shape) for blk in blocks]
    for bi, stack in enumerate(stacks):
        # One scatter per triangle; on a diagonal block both are (mat, i).
        sel = ix[:, 1] == bi
        mat, _, i, j = ix[sel].T
        stack[(mat, i, j)[:stack.ndim]] = entries[sel, 4]
        stack[(mat, j, i)[:stack.ndim]] = entries[sel, 4]
    return stacks


# One entry line: four indices, read as integers only, and the value.
_ENTRY = np.dtype([("matno", np.int64), ("blkno", np.int64), ("i", np.int64),
                   ("j", np.int64), ("value", np.float64)])


def _loadtxt_stacks(lines, blocks, m):
    """Each block's stacks from the entry lines read in one pass of numpy's
    C text reader; None when it refuses them: loadtxt raises or warns (numpy
    < 2 reads an index written 1.0 with a DeprecationWarning only, and no
    lines warn too), a value is not finite, or an entry fails a check."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rec = np.loadtxt(lines, dtype=_ENTRY, comments=None, ndmin=1)
        entries = np.column_stack([rec[name] for name in _ENTRY.names])
        if not np.isfinite(entries[:, 4]).all():
            return None
        # The entries stand in for the token rows: a refusal's message is
        # not shown, the token reader names the line.
        return _entry_stacks(entries, entries, blocks, m)
    except (ValueError, Warning):
        return None


def _token_stacks(lines, blocks, m):
    """Each block's stacks from the entry lines, each split into tokens;
    SdpaFormatError naming the first offending line."""
    rows = [line.replace(",", " ").split() for line in lines]
    entries, bad = _entry_array(rows), len(rows)
    if entries is None:
        bad = next(k for k, row in enumerate(rows) if _entry_array([row]) is None)
        entries = _entry_array(rows[:bad])
    # Below a bad line, the checks of the lines above it still come first.
    stacks = _entry_stacks(entries, rows, blocks, m)
    if bad < len(rows):
        what = "entry needs 5 fields" if len(rows[bad]) != 5 else "could not parse entry"
        raise SdpaFormatError(f"{what}: {lines[bad]!r}")
    return stacks


def parse_sdpa(text) -> ConicProgram:
    """Parse SDPA sparse text (str or bytes) into a ConicProgram.  Lines are
    stripped and sorted into comments and data only up to the end of the
    header; an entry body without a comment goes as written to one pass of
    numpy's C text reader, and the checks and the fill are array
    operations.  A body that pass refuses is read again token by token,
    which yields the same arrays or raises SdpaFormatError naming the first
    offending line.  Commas read as spaces."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    scan = _header(text)
    lines, comments = _tokens(text) if scan is None else scan[:2]
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
    dims = _ints(lines[2].split("=")[0].translate(_BRACES), "block sizes")
    if len(dims) != nblocks:
        raise SdpaFormatError(f"expected {nblocks} block sizes, found {len(dims)}")
    if 0 in dims:
        raise SdpaFormatError("zero block size")
    blocks = tuple(ConeBlock("orthant", -d) if d < 0 else ConeBlock("psd", d)
                   for d in dims)
    try:
        c = np.array(lines[3].translate(_BRACES).replace(",", " ").split()
                     if m else [], dtype=float)
        if not np.isfinite(c).all():
            raise ValueError("non-finite objective")
    except ValueError as exc:
        raise SdpaFormatError(f"could not parse objective line: {lines[3]!r}") from exc
    if len(c) != m:
        raise SdpaFormatError(f"objective has {len(c)} entries, expected {m}")

    body = None if scan is None else text[scan[2][head - 1]:]
    if body is None or "*" in body or "\"" in body:
        # The scan gave up or a comment follows the header: the entries
        # are the sorted lines past the header.
        if scan is not None:
            lines, comments = _tokens(text)
        body = "\n".join(lines[head:])
    stacks = _loadtxt_stacks(
        (body.replace(",", " ") if "," in body else body).splitlines(),
        blocks, m)
    if stacks is None:
        # The token reader quotes the lines stripped, commas kept.
        stacks = _token_stacks(_tokens(body)[0], blocks, m)
    # Every entry was written to both triangles, so the payloads are exactly
    # symmetric.
    return ConicProgram.from_stacks(blocks, stacks, c,
                                    name=comments[0] if comments else "")


def emit_sdpa(p: ConicProgram) -> str:
    """Serialize a ConicProgram to SDPA sparse text; inverse of parse_sdpa."""
    out = ([f"* {p.name}"] if p.name else []) + [
        str(p.m), str(len(p.blocks)),
        " ".join(str(-blk.size if blk.kind == "orthant" else blk.size)
                 for blk in p.blocks),
        " ".join(f"{v:.17g}" for v in p.c)]
    for matno, y in enumerate((p.b,) + p.a):
        for bi, part in enumerate(y.parts, start=1):
            full = np.triu(part) if part.ndim == 2 else np.diag(part)
            i, j = np.nonzero(full)
            out.extend(f"{matno} {bi} {r} {c} {v:.17g}" for r, c, v in zip(
                (i + 1).tolist(), (j + 1).tolist(), full[i, j].tolist()))
    return "\n".join(out) + "\n"
