import numpy as np
import pytest

from facred.sdpa import SdpaFormatError, emit_sdpa, parse_sdpa

from conftest import sym
from facred.model import ConeBlock, ConicProgram, YElement


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


@pytest.mark.parametrize("bad, what", [
    ("1\n1\n", "truncated header"),
    ("1\n1\n2\n", "objective line missing"),
    ("x\n1\n2\n1.0\n", "bad m"),
    ("1\n1\n0\n1.0\n", "zero block"),
    ("1\n1\n2\n1.0 2.0\n", "objective length"),
    ("1\n1\n2\n1.0\n1 1 3 3 1.0\n", "index out of range"),
    ("1\n1\n2\n1.0\n1 2 1 1 1.0\n", "block out of range"),
    ("1\n1\n2\n1.0\n2 1 1 1 1.0\n", "matrix index out of range"),
    ("1\n1\n-2\n1.0\n1 1 1 2 1.0\n", "off-diagonal in diagonal block"),
    ("1\n1\n2\n1.0\n1 1 1 1 1.0\n1 1 1 1 2.0\n", "duplicate"),
])
def test_malformed_inputs_rejected(bad, what):
    with pytest.raises(SdpaFormatError):
        parse_sdpa(bad)


def test_duplicate_mirrored_entry_rejected():
    with pytest.raises(SdpaFormatError):
        parse_sdpa("1\n1\n2\n1.0\n1 1 1 2 1.0\n1 1 2 1 1.0\n")


def test_bytes_input_accepted(example_sdp):
    text = emit_sdpa(example_sdp).encode()
    assert parse_sdpa(text).m == example_sdp.m
