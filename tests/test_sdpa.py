from pathlib import Path

import numpy as np
import pytest

from facred import sdpa
from facred.sdpa import SdpaFormatError, emit_sdpa, parse_sdpa

from conftest import sym
from facred.model import ConeBlock, ConicProgram, YElement

GOLDEN = Path(__file__).parent / "golden"


def test_example_round_trip_is_stable(example_sdp):
    text = emit_sdpa(example_sdp)
    again = emit_sdpa(parse_sdpa(text))
    assert text == again


def test_round_trip_values(example_sdp):
    p = parse_sdpa(emit_sdpa(example_sdp))
    assert p.blocks == example_sdp.blocks
    np.testing.assert_allclose(p.c, example_sdp.c)
    for left, right in zip(p.a, example_sdp.a):
        assert (left - right).norm() <= 1e-15
    assert (p.b - example_sdp.b).norm() <= 1e-15


def test_random_round_trip_exact():
    rng = np.random.default_rng(2)
    blocks = (ConeBlock("orthant", 3), ConeBlock("psd", 4))
    a = [YElement(blocks, [rng.normal(size=3), sym(rng.normal(size=(4, 4)))])
         for _ in range(4)]
    b = YElement(blocks, [rng.normal(size=3), sym(rng.normal(size=(4, 4)))])
    p = ConicProgram(blocks, a, b, rng.normal(size=4))
    q = parse_sdpa(emit_sdpa(p))
    for left, right in zip(q.a + (q.b,), p.a + (p.b,)):
        assert (left - right).norm() <= 1e-15


def test_empty_entry_list_gives_zero_data():
    p = parse_sdpa("2\n1\n3\n1.0 2.0\n")
    assert p.m == 2
    assert p.b.norm() == 0.0
    assert all(ai.norm() == 0.0 for ai in p.a)


def test_round_trip_without_variables():
    """With m = 0 the objective line is empty; the reader must not take
    the first entry for it."""
    blocks = (ConeBlock("psd", 2), ConeBlock("orthant", 2))
    p = ConicProgram(blocks, [], YElement(blocks, [np.eye(2), [0.0, 1.0]]),
                     [])
    text = emit_sdpa(p)
    q = parse_sdpa(text)
    assert q.m == 0 and q.blocks == blocks
    assert (q.b - p.b).norm() == 0.0
    assert emit_sdpa(q) == text
    assert parse_sdpa("0\n1\n2\n").b.norm() == 0.0


MIXED_SAMPLE = """\
* diagonal block then a psd block
2
2
-2 2
1.0 -1.0
0 1 1 1 4.0
0 2 1 2 0.5
1 1 2 2 1.0
1 2 1 1 2.0
2 2 1 2 -3.0
"""


def test_mixed_blocks_hand_parse():
    p = parse_sdpa(MIXED_SAMPLE)
    assert [blk.kind for blk in p.blocks] == ["orthant", "psd"]
    assert [blk.size for blk in p.blocks] == [2, 2]
    np.testing.assert_allclose(p.c, [1.0, -1.0])
    np.testing.assert_allclose(p.b.parts[0], [4.0, 0.0])
    np.testing.assert_allclose(p.b.parts[1], [[0.0, 0.5], [0.5, 0.0]])
    np.testing.assert_allclose(p.a[0].parts[0], [0.0, 1.0])
    np.testing.assert_allclose(p.a[0].parts[1], [[2.0, 0.0], [0.0, 0.0]])
    np.testing.assert_allclose(p.a[1].parts[1], [[0.0, -3.0], [-3.0, 0.0]])


def test_comment_lines_skipped():
    text = '"comment\n* another\n' + MIXED_SAMPLE
    assert parse_sdpa(text).m == 2


def test_braced_dimension_line():
    p = parse_sdpa("1\n2\n{-2, 2}\n0.5\n1 1 1 1 1.0\n")
    assert [blk.size for blk in p.blocks] == [2, 2]


# example1.dat-s of the SDPA manual, header annotations and braces included.
MANUAL_EXAMPLE1 = """\
"Example 1: mDim = 3, nBLOCK = 1, {2}"
   3 = mDIM
   1 = nBOLCK
   2 = bLOCKsTRUCT
{48, -8, 20}
0 1 1 1 -11
0 1 2 2 23
1 1 1 1 10
1 1 1 2 4
2 1 2 2 -8
3 1 1 2 -8
3 1 2 2 -2
"""


def test_sdpa_manual_example1_hand_parse():
    p = parse_sdpa(MANUAL_EXAMPLE1)
    assert p.blocks == (ConeBlock("psd", 2),)
    assert p.c.tolist() == [48.0, -8.0, 20.0]
    assert p.b.parts[0].tolist() == [[-11.0, 0.0], [0.0, 23.0]]
    assert [a.parts[0].tolist() for a in p.a] == [
        [[10.0, 4.0], [4.0, 0.0]],
        [[0.0, 0.0], [0.0, -8.0]],
        [[0.0, -8.0], [-8.0, -2.0]]]


def test_quoted_title_loses_both_quotes():
    p = parse_sdpa(MANUAL_EXAMPLE1)
    assert p.name == "Example 1: mDim = 3, nBLOCK = 1, {2}"
    assert emit_sdpa(p).splitlines()[0] == "* Example 1: mDim = 3, nBLOCK = 1, {2}"
    assert parse_sdpa('" open title\n' + MIXED_SAMPLE).name == "open title"


MALFORMED = [  # (text, label, the error it must raise)
    ("1\n1\n", "truncated header", "header requires at least three lines"),
    ("1\n1\n2\n", "objective line missing", "header requires an objective line"),
    ("x\n1\n2\n1.0\n", "bad m", "could not parse variable count: 'x'"),
    ("1 2\n1\n2\n1.0\n", "two variable counts",
     "bad variable count line: '1 2'"),
    ("1\n0\n2\n1.0\n", "no blocks", "bad block count line: '0'"),
    ("1\n2\n2\n1.0\n", "too few block sizes",
     "expected 2 block sizes, found 1"),
    ("1\n1\n0\n1.0\n", "zero block", "zero block size"),
    ("1\n1\n2\n1.0 2.0\n", "objective length", "objective has 2 entries, expected 1"),
    ("1\n1\n2\n1.0\n1 1 3 3 1.0\n", "index out of range",
     "entry index (3,3) out of range"),
    ("1\n1\n2\n1.0\n1 2 1 1 1.0\n", "block out of range",
     "block index 2 out of range"),
    ("1\n1\n2\n1.0\n2 1 1 1 1.0\n", "matrix index out of range",
     "matrix index 2 out of range"),
    ("1\n1\n-2\n1.0\n1 1 1 2 1.0\n", "off-diagonal in diagonal block",
     "off-diagonal entry in a diagonal block"),
    ("1\n1\n2\n1.0\n1 1 1 1 1.0\n1 1 1 1 2.0\n", "duplicate",
     "duplicate entry (1, 1, 1, 1)"),
    ("1\n1\n2\n1.0\n1 1 1 1\n", "four fields", "entry needs 5 fields: '1 1 1 1'"),
    ("1\n1\n2\n1.0\n1 1 1.0 1 1.0\n", "float index",
     "could not parse entry: '1 1 1.0 1 1.0'"),
    ("1\n1\n2\n1.0\n1 1 1 1 x\n", "bad value", "could not parse entry: '1 1 1 1 x'"),
    ("1\n1\n2\n1.0\n99999999999999999999 1 1 1 1.0\n", "huge index",
     "matrix index 99999999999999999999 out of range"),
    # The first offending line names the error, whatever the later ones are.
    ("1\n1\n2\n1.0\n1 1 1 1 1.0\n2 1 1 1 1.0\n1 1 1 1 x\n", "range before parse",
     "matrix index 2 out of range"),
    ("1\n1\n2\n1.0\n1 1 1 1 x\n2 1 1 1 1.0\n", "parse before range",
     "could not parse entry: '1 1 1 1 x'"),
    ("1\n1\n2\n1.0\n1 1 1 2 1.0\n1 1 2 1 1.0\n1 1 9 9 1.0\n",
     "duplicate before range", "duplicate entry (1, 1, 1, 2)"),
    ("1\n1\n2\n1.0\n1 1 9 9 1.0\n1 1 1 2 1.0\n1 1 2 1 1.0\n",
     "range before duplicate", "entry index (9,9) out of range"),
    ("1\n2\n-2 2\n1.0\n1 1 2 2 1.0\n1 1 1 2 1.0\n", "off-diagonal after diagonal",
     "off-diagonal entry in a diagonal block"),
    # One line with two faults reports the first check it fails.
    ("1\n1\n2\n1.0\n5 9 9 9 1.0\n", "matrix before block",
     "matrix index 5 out of range"),
    ("1\n1\n2\n1.0\n1 9 9 9 1.0\n", "block before entry index",
     "block index 9 out of range"),
]


@pytest.mark.parametrize("bad, what, message", MALFORMED,
                         ids=[f"{bad}-{what}" for bad, what, _ in MALFORMED])
def test_malformed_inputs_rejected(bad, what, message):
    with pytest.raises(SdpaFormatError) as info:
        parse_sdpa(bad)
    assert str(info.value) == message
    with pytest.raises(SdpaFormatError) as info:
        _parse_reference(bad)
    assert str(info.value) == message


def test_duplicate_mirrored_entry_rejected():
    with pytest.raises(SdpaFormatError):
        parse_sdpa("1\n1\n2\n1.0\n1 1 1 2 1.0\n1 1 2 1 1.0\n")


def test_bytes_input_accepted(example_sdp):
    text = emit_sdpa(example_sdp).encode()
    assert parse_sdpa(text).m == example_sdp.m


def _parse_reference(text):
    """The entry reader as first written, one line at a time; kept to pin
    the array reader to the same arrays and the same errors."""
    from facred.sdpa import _ints

    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines, comments = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if line and line[0] in "*\"":
            comments.append(line.lstrip("*\" ").strip())
        elif line:
            lines.append(line)
    if len(lines) < 3:
        raise SdpaFormatError("header requires at least three lines")
    mline = _ints(lines[0].split("=")[0], "variable count")
    if len(mline) != 1 or mline[0] < 0:
        raise SdpaFormatError(f"bad variable count line: {lines[0]!r}")
    m = mline[0]
    head = 4 if m else 3
    if len(lines) < head:
        raise SdpaFormatError("header requires an objective line")
    nline = _ints(lines[1].split("=")[0], "block count")
    if len(nline) != 1 or nline[0] < 1:
        raise SdpaFormatError(f"bad block count line: {lines[1]!r}")
    dims = _ints(lines[2].replace("{", " ").replace("}", " ").replace("(", " ")
                 .replace(")", " "), "block sizes")
    if len(dims) != nline[0]:
        raise SdpaFormatError(
            f"expected {nline[0]} block sizes, found {len(dims)}")
    if 0 in dims:
        raise SdpaFormatError("zero block size")
    blocks = tuple(ConeBlock("orthant", -d) if d < 0 else ConeBlock("psd", d)
                   for d in dims)
    c = np.array([float(tok) for tok in lines[3].replace(",", " ").split()]
                 if m else [])
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
        if not 1 <= blkno <= len(blocks):
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
    return ConicProgram(blocks, [YElement(blocks, mats[k]) for k in range(1, m + 1)],
                        YElement(blocks, mats[0]), c,
                        name=comments[0] if comments else "")


def _number(rng, value):
    """``value`` written one of the ways a .dat-s file may write it: 17
    significant digits, an exponent, a sign, a leading +."""
    form = ("{!r}", "{:.17g}", "{:.16e}", "{:+.17g}", "{:+.3E}")[rng.integers(5)]
    return form.format(float(value * 10.0 ** rng.integers(-30, 31)))


def _random_sdpa(rng, kinds, m):
    """SDPA text of a random program over blocks of the given kinds, with
    about half of the entries zero (but at least one written), in shuffled
    order, some written as the lower-triangle mirror, fields apart by
    spaces or tabs and indices with a leading + now and then."""
    blocks = tuple(ConeBlock(kind, int(rng.integers(1, 6))) for kind in kinds)
    out = ["* random", str(m), str(len(blocks)),
           " ".join(str(-b.size if b.kind == "orthant" else b.size)
                    for b in blocks),
           " ".join(repr(float(v)) for v in rng.normal(size=m))]
    entries = []
    for k in range(m + 1):
        for bi, blk in enumerate(blocks, start=1):
            for i in range(1, blk.size + 1):
                for j in range(i, blk.size + 1) if blk.kind == "psd" else [i]:
                    if rng.random() < 0.5:
                        a, b = (i, j) if rng.random() < 0.7 else (j, i)
                        fields = ["+" * (rng.random() < 0.2) + str(t)
                                  for t in (k, bi, a, b)]
                        fields.append(_number(rng, rng.normal()))
                        entries.append("".join(
                            f + rng.choice([" ", "\t", " \t ", "  "])
                            for f in fields).rstrip())
    rng.shuffle(entries)
    entries = entries or ["0 1 1 1 1.0"]
    return "\n".join(out[:4] + out[4:] * bool(m) + entries) + "\n"


def _laid_out(rng, text, comments):
    """``text`` (no comment but its title line) rewritten with blank and
    whitespace-only lines, spaces and tabs around lines and a CRLF ending
    now and then, and comment lines where ``comments`` says: "header" puts
    them before and inside the header, "body" also after the header and
    between entries.  Returns the text and whether a comment follows the
    header."""
    lines = text.splitlines()
    head = 5 if lines[1] != "0" else 4    # the title and the header
    out, late = [], False
    for k, line in enumerate(lines):
        if k < head and comments and rng.random() < 0.5:
            out.append(rng.choice(["* header note", '"quoted note', "*"]))
        if rng.random() < 0.2:
            out.append(rng.choice(["", " ", "\t", " \t  "]))
        out.append(rng.choice(["", " ", "\t"]) + line
                   + rng.choice(["", "  ", "\t"]))
        if k >= head - 1 and comments == "body" and rng.random() < 0.3:
            out.append(rng.choice(["* entry note", '"entry note"', " *"]))
            late = True
    ends = rng.choice(["\n", "\r\n"], size=len(out))
    return "".join(line + end for line, end in zip(out, ends)), late


class TokenReaderCalled(AssertionError):
    pass


_TOKEN_STACKS = sdpa._token_stacks


def _refuse(*args):
    raise TokenReaderCalled("the C pass handed the file to the token reader")


@pytest.fixture
def c_pass_only(monkeypatch):
    """For the length of a test, a file the C pass hands back fails."""
    monkeypatch.setattr(sdpa, "_token_stacks", _refuse)


def _assert_same(got, want):
    assert got.blocks == want.blocks and got.name == want.name
    assert np.array_equal(got.c, want.c)
    for left, right in zip((got.b,) + got.a, (want.b,) + want.a):
        for a, b in zip(left.parts, right.parts):
            assert a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("kinds", [("psd",), ("orthant",), ("orthant", "psd"),
                                   ("psd", "orthant", "psd")])
@pytest.mark.parametrize("m", [0, 1, 4])
def test_array_reader_matches_the_line_reader(kinds, m, c_pass_only):
    """The C pass reads every seeded program, to the line reader's arrays
    bit for bit."""
    rng = np.random.default_rng([m, len(kinds), kinds.count("psd")])
    for _ in range(5):
        text = _random_sdpa(rng, kinds, m)
        _assert_same(parse_sdpa(text), _parse_reference(text))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.dat-s")))
def test_the_c_pass_reads_every_golden_file(name, c_pass_only):
    """With the token reader failing, every golden file still parses: a C
    pass that hands files back (say, on an older numpy) fails here."""
    text = (GOLDEN / name).read_text()
    _assert_same(parse_sdpa(text), _parse_reference(text))


@pytest.fixture
def line_sort_counted(monkeypatch):
    """The calls of the whole-text line sort, counted: the header scan
    makes none on a text whose entry body holds no comment."""
    calls, real = [], sdpa._tokens

    def counted(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(sdpa, "_tokens", counted)
    return calls


@pytest.mark.parametrize("comments", [None, "header", "body"])
@pytest.mark.parametrize("kinds", [("psd",), ("orthant", "psd")])
@pytest.mark.parametrize("m", [0, 1, 4])
def test_the_header_scan_matches_the_line_reader(kinds, m, comments,
                                                 c_pass_only,
                                                 line_sort_counted):
    """Blank and whitespace-only lines, CRLF endings, tabs and comments
    anywhere leave the arrays and the title those of the line reader and
    of the token reader.  Lines are sorted one by one only when a comment
    follows the header, and the C pass reads every text."""
    rng = np.random.default_rng([m, len(kinds), len(comments or "")])
    for _ in range(5):
        text, late = _laid_out(rng, _random_sdpa(rng, kinds, m), comments)
        del line_sort_counted[:]
        got = parse_sdpa(text)
        _assert_same(got, _parse_reference(text))
        assert bool(line_sort_counted) == late
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sdpa, "_loadtxt_stacks", lambda *args: None)
            patch.setattr(sdpa, "_token_stacks", _TOKEN_STACKS)
            _assert_same(parse_sdpa(text), got)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.dat-s")))
def test_the_header_scan_reads_every_golden_file(name, c_pass_only,
                                                 line_sort_counted):
    """Every golden file has its comments above the entries: the header
    scan and the C pass read it, and no line past the header is sorted."""
    text = (GOLDEN / name).read_text()
    _assert_same(parse_sdpa(text), _parse_reference(text))
    assert line_sort_counted == []


def test_a_line_break_in_the_header_sorts_every_line(line_sort_counted):
    """A lone CR or a form feed in the header is a line break the
    one-line-at-a-time scan does not cut at: the whole text is sorted,
    and reads as before."""
    for text in ("1\r1\r2\r1.0\r1 1 1 1 2.0\r", "1\n1\x0c2\n1.0\n1 1 1 1 2.0\n"):
        del line_sort_counted[:]
        p = parse_sdpa(text)
        assert line_sort_counted == [text]
        assert p.a[0].parts[0][0, 0] == 2.0


def test_a_refused_raw_body_is_quoted_stripped():
    """Lines the C pass refuses reach the token reader stripped, as before
    the header scan: its message quotes them without their blanks and
    CR."""
    text = "1\r\n1\r\n10\r\n1.0\r\n\r\n  1 1 1 1 nan\t\r\n"
    with pytest.raises(SdpaFormatError) as info:
        parse_sdpa(text)
    assert str(info.value) == "could not parse entry: '1 1 1 1 nan'"


HANDED_BACK = [  # (entry lines, label, the message parse_sdpa raises, or
    # a_1's one entry (i, j, value) in its 10 x 10 block, None for none)
    ("1 1 1 1 nan", "nan value", "could not parse entry: '1 1 1 1 nan'"),
    ("1 1 1 1 inf", "inf value", "could not parse entry: '1 1 1 1 inf'"),
    ("1 1 1.0 1 1.0", "index 1.0", "could not parse entry: '1 1 1.0 1 1.0'"),
    ("1 1 1e0 1 1.0", "index 1e0", "could not parse entry: '1 1 1e0 1 1.0'"),
    ("1 1 1_0 1 1.0", "index 1_0", (9, 0, 1.0)),  # int() reads 10
    ("1 1 1 1 1_0", "value 1_0", (0, 0, 10.0)),  # float() reads 10.0
    ("1 1 1 1 1.0 #", "hash token", "entry needs 5 fields: '1 1 1 1 1.0 #'"),
    ("1 1 1 1 1.0 7\n1 1 2 2 1.0 7", "six fields",
     "entry needs 5 fields: '1 1 1 1 1.0 7'"),
    ("9007199254740993 1 1 1 1.0", "index above 2^53",
     "matrix index 9007199254740993 out of range"),
    ("", "no entries", None),
]


@pytest.mark.parametrize("lines, what, want", HANDED_BACK,
                         ids=[what for _, what, _ in HANDED_BACK])
def test_the_c_pass_hands_back(lines, what, want, monkeypatch):
    """What the C pass refuses, the token reader reads as before."""
    text = "1\n1\n10\n1.0\n" + lines + "\n"
    with monkeypatch.context() as patch:
        patch.setattr(sdpa, "_token_stacks", _refuse)
        with pytest.raises(TokenReaderCalled):
            parse_sdpa(text)
    if isinstance(want, str):
        with pytest.raises(SdpaFormatError) as info:
            parse_sdpa(text)
        assert str(info.value) == want
        return
    p = parse_sdpa(text)
    _assert_same(p, _parse_reference(text))
    expected = np.zeros((10, 10))
    if want:
        i, j, value = want
        expected[i, j] = expected[j, i] = value
    assert np.array_equal(p.a[0].parts[0], expected)


def test_index_tokens_read_as_strictly_as_int():
    """An index token the array conversion takes as a number is still
    refused unless int() reads it; signs and leading zeros read."""
    for token in ("1.0", "1e0", "inf", "0x1"):
        with pytest.raises(SdpaFormatError, match="could not parse entry"):
            parse_sdpa(f"1\n1\n2\n1.0\n1 1 {token} 1 1.0\n")
    p = parse_sdpa("1\n1\n2\n1.0\n+1 01 2 1 -0.5\n")
    assert p.a[0].parts[0][0, 1] == p.a[0].parts[0][1, 0] == -0.5


def test_non_finite_numbers_rejected():
    """nan and inf read as floats; the reader refuses them where they enter,
    naming the line, in place of a solver failing on them later."""
    for token in ("nan", "inf", "-inf"):
        with pytest.raises(SdpaFormatError,
                           match=f"could not parse entry: '1 1 1 1 {token}'"):
            parse_sdpa(f"1\n1\n2\n1.0\n1 1 1 1 {token}\n")
        with pytest.raises(SdpaFormatError,
                           match=f"could not parse objective line: '{token}'"):
            parse_sdpa(f"1\n1\n2\n{token}\n1 1 1 1 1.0\n")


COMMAS = "2\n1\n2\n1.0, 2.0\n* note\n0, 1, 1, 2, 3.0\n\n\"x\n2 1 2 2 4.0\n"


def test_commas_and_interleaved_comments():
    p = parse_sdpa(COMMAS)
    assert p.name == "note"
    assert p.b.parts[0][0, 1] == 3.0 and p.a[1].parts[0][1, 1] == 4.0


def test_the_c_pass_reads_commas(c_pass_only):
    """Comma-separated entry lines are read by the C pass too."""
    _assert_same(parse_sdpa(COMMAS), _parse_reference(COMMAS))


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.dat-s")))
def test_read_elements_equal_the_validated_ones(name):
    """The reader skips the constructor's symmetry check and copies; its
    elements are bit for bit what the validating constructor makes of the
    same payloads, and as read-only."""
    p = parse_sdpa((GOLDEN / name).read_text())
    for y in (p.b,) + p.a:
        checked = YElement(y.blocks, y.parts)
        for got, want in zip(y.parts, checked.parts):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable


def test_the_public_constructor_still_rejects_asymmetry(example_sdp):
    p = parse_sdpa(emit_sdpa(example_sdp))
    part = p.a[0].parts[0].copy()
    part[0, 1] += 1.0
    with pytest.raises(ValueError, match="asymmetry"):
        YElement(p.blocks, [part])
