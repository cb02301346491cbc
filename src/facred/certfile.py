"""Reduction certificate files, format "facred-cert v1".

Line-oriented, self-contained text:

    facred-cert v1
    blocks: orthant 5 | psd 3 ...
    steps: <t>
    step <i> reducing=<0|1>
    <one line per block: the certificate element's entries, row-major for
     PSD blocks, full precision>
    x_strict: <m floats>

Certificates serialize the chain of reducing elements y_1..y_t together with
a strictly feasible point for the reduced system; faces are recomputed from
the chain on verification, so they are not stored.
"""

from __future__ import annotations

import math

import numpy as np

from .model import ConeBlock, YElement

HEADER = "facred-cert v1"


class CertFormatError(ValueError):
    """Malformed certificate file."""


def _format_blocks(blocks) -> str:
    return " | ".join(f"{blk.kind} {blk.size}" for blk in blocks)


def _parse_blocks(line):
    blocks = []
    body = line.split(":", 1)[1]
    for piece in body.split("|"):
        toks = piece.split()
        try:
            if len(toks) != 2:
                raise ValueError("expected a kind and a size")
            blocks.append(ConeBlock(toks[0], int(toks[1])))
        except ValueError as exc:
            raise CertFormatError(
                f"bad block descriptor {piece.strip()!r}: {exc}") from exc
    return tuple(blocks)


def _element_lines(y: YElement):
    return [" ".join(f"{v:.17g}" for v in np.asarray(part).reshape(-1))
            for part in y.parts]


def _floats(text):
    """A line of finite numbers as one float array."""
    try:
        vals = np.array(text.split(), dtype=float)
    except ValueError as exc:
        raise CertFormatError(f"could not parse numbers: {text!r}") from exc
    if not np.isfinite(vals).all():
        raise CertFormatError(f"non-finite number: {text!r}")
    return vals


def _read_element(blocks, lines, at):
    parts = []
    for blk in blocks:
        if at >= len(lines):
            raise CertFormatError("unexpected end of file inside an element")
        vals = _floats(lines[at])
        at += 1
        if len(vals) != math.prod(blk.shape):
            raise CertFormatError(f"{blk.kind} payload length mismatch")
        parts.append(vals.reshape(blk.shape))
    return YElement(blocks, parts), at


def write_certificate(cert) -> str:
    """Serialize a ReductionCertificate (ys beyond the leading zero, flags,
    strict point)."""
    blocks = cert.ys[0].blocks
    out = [HEADER, f"blocks: {_format_blocks(blocks)}",
           f"steps: {len(cert.ys) - 1}"]
    for i, y in enumerate(cert.ys[1:], start=1):
        flag = 1 if cert.reducing_flags[i - 1] else 0
        out.append(f"step {i} reducing={flag}")
        out.extend(_element_lines(y))
    out.append("x_strict: " + " ".join(f"{v:.17g}" for v in cert.x_strict))
    return "\n".join(out) + "\n"


def read_certificate(text):
    """Parse certificate text; returns (blocks, ys, reducing_flags, x_strict)
    with ys including the leading zero element."""
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != HEADER:
        raise CertFormatError(f"missing header line {HEADER!r}")
    if len(lines) < 3 or not lines[1].startswith("blocks:"):
        raise CertFormatError("missing blocks line")
    blocks = _parse_blocks(lines[1])
    if not lines[2].startswith("steps:"):
        raise CertFormatError("missing steps line")
    try:
        nsteps = int(lines[2].split(":", 1)[1])
    except ValueError as exc:
        raise CertFormatError(f"bad steps line: {lines[2]!r}") from exc
    if nsteps < 0:
        raise CertFormatError(f"bad steps line: {lines[2]!r}")
    ys = [YElement.zeros(blocks)]
    flags = []
    at = 3
    for i in range(1, nsteps + 1):
        if at >= len(lines) or not lines[at].startswith(f"step {i} "):
            raise CertFormatError(f"missing step {i} marker")
        marker = lines[at].split("reducing=")
        if len(marker) != 2 or marker[1] not in ("0", "1"):
            raise CertFormatError(f"bad step marker: {lines[at]!r}")
        flags.append(marker[1] == "1")
        at += 1
        y, at = _read_element(blocks, lines, at)
        ys.append(y)
    if at >= len(lines) or not lines[at].startswith("x_strict:"):
        raise CertFormatError("missing x_strict line")
    x_strict = _floats(lines[at].split(":", 1)[1])
    if at + 1 < len(lines):
        raise CertFormatError(f"unexpected line after x_strict: "
                              f"{lines[at + 1]!r}")
    return blocks, ys, flags, x_strict
