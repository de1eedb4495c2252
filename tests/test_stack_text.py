"""The stack text writer, one template per block whose numbers are w
bytes wide (w the digits of the block's largest entry), with zero bytes
dropped only when w > 1, yielded a block at a time; every text must equal
json.dumps of the stack's nested lists, and `_canonical_doc` must read
back every width it accepts."""

import json
import random
from types import GeneratorType

import numpy as np
import pytest

from graphmub import mubs
from graphmub.mubs import (
    canonical_parts,
    from_document,
    mub_set,
    read_document,
    stack_document,
)


def _text(stack):
    return "".join(mubs._stack_json(stack))


def _dumps(stack):
    return json.dumps(np.asarray(stack).tolist(), separators=(",", ":"))


def _random_stack(rng, p, m, n, dtype):
    a = np.array([[[rng.randrange(p) for _ in range(n)] for _ in range(n)] for _ in range(m)])
    return a.astype(dtype)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_fixed_layout_equals_json_dumps(p):
    rng = random.Random(p)
    for n in (1, 2, 3, 5):
        for m in (1, 2, 7):
            for dtype in (mubs.stack_dtype(p), np.uint8, np.int64):
                stack = _random_stack(rng, p, m, n, dtype)
                assert _text(stack) == _dumps(stack)
    rect = np.array([[[rng.randrange(p) for _ in range(3)] for _ in range(2)] for _ in range(4)])
    assert _text(rect) == _dumps(rect) and _text(rect[:, :1]) == _dumps(rect[:, :1])
    fam = mub_set(p, 2)
    assert _text(fam.stack) == _dumps(fam.stack)


def _wide_stack(rng, w, m, r, c, dtype):
    """m members r x c on dtype, entries of 1 to w digits, the largest
    10^w - 1 (2^64 - 1 at w = 20), each member symmetric when r = c."""
    top = min(10**w - 1, 2**64 - 1)
    a = [[[rng.randrange(min(10 ** rng.randint(0, w), top + 1)) for _ in range(c)]
          for _ in range(r)]
         for _ in range(m)]
    if r == c:
        a = [[[mem[max(i, j)][min(i, j)] for j in range(c)] for i in range(r)]
             for mem in a]
    a[-1][0][0] = a[-1][-1][-1] = top
    return np.array(a, dtype=object).astype(dtype)


@pytest.mark.parametrize("w", range(1, 21))
def test_fixed_layout_equals_json_dumps_at_every_width(w):
    rng = random.Random(w)
    dtypes = [t for t in (np.int8, np.int16, np.int64, np.uint64)
              if np.iinfo(t).max >= min(10**w - 1, 2**64 - 1)]
    assert dtypes
    for dtype in dtypes:
        for m, r, c in ((1, 1, 1), (3, 2, 2), (2, 2, 3), (2, 3, 1), (4, 1, 4), (2, 5, 5)):
            stack = _wide_stack(rng, w, m, r, c, dtype)
            assert _text(stack) == _dumps(stack), (dtype, r, c)


def test_fixed_layout_across_blocks_of_different_widths(monkeypatch):
    monkeypatch.setattr(mubs, "STACK_BLOCK", 2 * 3 * 2)  # two members a block
    rng = random.Random(0)
    for dtype in (np.int16, np.int64):
        stack = np.concatenate([_wide_stack(rng, w, 2, 3, 2, dtype) for w in (1, 4, 2, 1)])
        pieces = list(mubs._stack_json(stack))
        assert len(pieces) == 5
        assert "".join(pieces) == _dumps(stack)


@pytest.mark.parametrize("w", range(1, 21))
def test_canonical_doc_reads_back_every_width_it_accepts(w):
    # at most 18 digits per number are decoded straight into an array;
    # wider numbers leave the document to json.loads
    p = 2**31 - 1
    stack = _wide_stack(random.Random(w), w, 3, 3, 3, np.uint64)
    raw = ('{"matrices":' + _text(stack) + f',"n":3,"p":{p}}}\n').encode()
    doc = mubs._canonical_doc(raw)
    if w <= 18:
        assert doc["matrices"].tolist() == stack.tolist()
    else:
        assert doc is None
    family, oracle = read_document(raw), from_document(json.loads(raw))
    assert family.stack.dtype == oracle.stack.dtype
    assert np.array_equal(family.stack, oracle.stack)
    assert np.array_equal(family.stack, np.array(stack.tolist(), dtype=object) % p)


def test_fixed_layout_one_member_and_one_qupit():
    for stack in (np.array([[[9]]]), np.array([[[0]]]), np.zeros((1, 4, 4), np.int8),
                  np.full((1, 3, 3), 9, np.int8), np.arange(10).reshape(10, 1, 1)):
        assert _text(stack) == _dumps(stack)
    assert _text(mub_set(7, 1).stack) == _dumps(mub_set(7, 1).stack)


@pytest.mark.parametrize("block", [1, 4, 9, 10, 27, 50])
def test_fixed_layout_across_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(mubs, "STACK_BLOCK", block)
    for p, n in ((2, 3), (3, 2), (5, 2), (7, 1)):
        stack = mub_set(p, n).stack
        pieces = list(mubs._stack_json(stack))
        step = max(1, block // (n * n))
        assert len(pieces) == -(-len(stack) // step) + 1  # the blocks, then "]"
        assert "".join(pieces) == _dumps(stack)


def test_digit_blocks_and_grid_blocks_in_one_stack(monkeypatch):
    # p = 11: the first block holds entries below 10 only, the second a 10
    monkeypatch.setattr(mubs, "STACK_BLOCK", 3 * 4)
    rng = random.Random(11)
    low = _random_stack(rng, 10, 3, 2, np.int8)
    high = _random_stack(rng, 11, 3, 2, np.int8)
    high[1, 0, 1] = high[1, 1, 0] = 10
    stack = np.concatenate([low, high])
    assert int(stack[:3].max()) < 10 <= int(stack[3:].max())
    pieces = list(mubs._stack_json(stack))
    assert len(pieces) == 3
    assert "".join(pieces) == _dumps(stack)
    raw = ('{"matrices":' + "".join(pieces) + ',"n":2,"p":11}\n').encode()
    assert mubs._canonical_doc(raw)["matrices"].tolist() == stack.tolist()


@pytest.mark.parametrize("n", [1, 2, 5])
def test_zero_member_template_reads_back(monkeypatch, n):
    member = "".join(mubs._stack_json(np.zeros((1, n, n), np.uint8)))[1:-1]
    assert member == _dumps(np.zeros((n, n), int))
    for block in (1, mubs.STACK_BLOCK):
        monkeypatch.setattr(mubs, "STACK_BLOCK", block)
        fam = mub_set(3, n)
        raw = "".join(canonical_parts(stack_document(fam))).encode()
        assert mubs._canonical_doc(raw) is not None
        assert np.array_equal(read_document(raw).stack, fam.stack)


def test_document_text_is_made_lazily(monkeypatch):
    # canonical_parts hands a writer one block of the stack at a time
    monkeypatch.setattr(mubs, "STACK_BLOCK", 8 * 8 * 4)  # four members a block
    built = []
    real = mubs._members_text
    monkeypatch.setattr(mubs, "_members_text",
                        lambda blk, top: built.append(len(blk)) or real(blk, top))
    parts = canonical_parts(stack_document(mub_set(2, 8)))
    assert isinstance(parts, GeneratorType) and not built
    assert next(piece for piece in parts if piece.startswith("[[[")) and built == [4]
    assert next(parts).startswith(",[[") and built == [4, 4]
