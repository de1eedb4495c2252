"""The stack text writer, one template per block whose numbers are w
bytes wide (w the digits of the block's largest entry), with zero bytes
dropped only when w > 1, yielded a block at a time; every text must equal
json.dumps of the stack's nested lists, and `_canonical_doc` must read
back every width it accepts.  The one stack reader (`_read_stack`) must
give what `json.loads` and `from_document` give on every document of
widths 1 to 4, canonical or mutated, and hold one stack."""

import json
import random
import tracemalloc
from types import GeneratorType
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphmub import mubs
from graphmub.linalg import MatZp
from graphmub.mubs import (
    canonical_parts,
    from_document,
    mub_set,
    read_document,
    shift_set,
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
                        lambda blk, *args: built.append(len(blk)) or real(blk, *args))
    parts = canonical_parts(stack_document(mub_set(2, 8)))
    assert isinstance(parts, GeneratorType) and not built
    assert next(piece for piece in parts if piece.startswith("[[[")) and built == [4]
    assert next(parts).startswith(",[[") and built == [4, 4]


def _canonical(s):
    return "".join(canonical_parts(stack_document(s))).encode()


def _peak_stacks(raw):
    """read_document's peak of traced memory, in stacks of its result."""
    tracemalloc.start()
    try:
        s = read_document(raw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / s.stack.nbytes


def test_read_document_holds_one_stack():
    # the caller holds the bytes; the reader adds the stack and one block
    assert _peak_stacks(_canonical(mub_set(2, 14))) < 1.25


def test_read_document_holds_one_stack_of_wide_numbers():
    # three-digit numbers go into the one stack as well, with no blocks
    # to join: about 1.1 stacks, where a join of blocks held 2
    assert _peak_stacks(_canonical(mub_set(101, 3))) < 1.25


def test_read_document_holds_few_stacks_of_wide_numbers():
    # spans of two-digit numbers (p >= 11) are read in blocks of about
    # STACK_BLOCK / 8 bytes, so a block's temporaries stay small beside
    # the one stack; here the stack is small (457 kB) and a block is not
    assert _peak_stacks(_canonical(mub_set(13, 4))) < 10


def _docs():
    """Canonical documents as (bytes, STACK_BLOCK) at widths 1 to 4:
    fields, shifted fields, a one-member family and n = 1 with one-digit
    numbers; (11,2), a shifted (13,2) and (101,2); numbers of 1 to 4
    digits read in blocks of two one-digit rows' bytes, so the block of
    members 0 and 7 is followed by one block per wider member; and n = 1
    members of 1 and 2 digits whose span is as long as eight one-digit
    members."""
    block = mubs.STACK_BLOCK
    fams = [mub_set(2, 3), mub_set(3, 2), mub_set(7, 2), mub_set(2, 1), mub_set(5, 1),
            shift_set(mub_set(3, 3), MatZp.identity(3, 3)),
            mubs.MubSet(p=5, n=2, stack=mub_set(5, 2).stack[7:8]),
            mub_set(11, 2), shift_set(mub_set(13, 2), MatZp(13, [[12, 1], [1, 0]])),
            mub_set(101, 2)]
    mixed = np.array([[[v, 1], [1, 0]] for v in (0, 7, 10, 99, 100, 1000, 9972, 5)])
    return [(_canonical(s), block) for s in fams] + [
        (_canonical(mubs.MubSet(p=9973, n=2, stack=mixed)), 8 * 2 * 14),
        (_canonical(mubs.MubSet(p=11, n=1, stack=[[[0]]] + [[[10]]] * 6)), block)]


DOCS = _docs()


def _outcome(raw):
    """read_document's array and dtype, or its refusal: type and message."""
    try:
        s = read_document(raw)
    except (ValueError, KeyError, RecursionError) as exc:
        return type(exc), str(exc)
    return s.stack.dtype, s.stack.shape, s.stack.tobytes()


def test_stack_reader_reads_canonical_spans_of_every_width():
    # one read-only stack on the family's dtype, no view of a larger one,
    # which MubSet keeps, equal to what json.loads and from_document give
    widths = set()
    for raw, block in DOCS:
        with mock.patch.object(mubs, "STACK_BLOCK", block):
            stack = mubs._canonical_doc(raw)["matrices"]
            oracle = from_document(json.loads(raw))
            assert not stack.flags.writeable and stack.base is None
            assert stack.dtype == mubs.stack_dtype(oracle.p)
            assert np.array_equal(stack, oracle.stack)
            assert _outcome(raw) == (oracle.stack.dtype, oracle.stack.shape,
                                     oracle.stack.tobytes())
        widths.add(len(str(stack.max())))
    assert widths == {1, 2, 3, 4}


def _span(raw):
    start = mubs._MATRICES_KEY.match(raw).end()
    return start, raw.find(b"]]]", start) + 3


SPAN_MUTATION = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 10**6),
              st.sampled_from(b"[]" + bytes(range(176, 256)) + b"0123456789")),
    st.tuples(st.just("byte"), st.integers(0, 10**6), st.integers(176, 255)),
    st.tuples(st.just("drop"), st.integers(0, 10**6)),
    st.tuples(st.just("comma"), st.integers(0, 10**6)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("append"), st.lists(st.integers(0, 9), min_size=1, max_size=25)),
    st.tuples(st.just("lengthen"), st.integers(0, 10**6), st.sampled_from(b"0123456789"),
              st.booleans()),
    st.tuples(st.just("bracket"), st.integers(0, 10**6), st.sampled_from(b"[]")),
)


def _mutate_span(raw, op):
    """One byte or one member of a canonical document's span changed;
    positions wrap around what the span holds."""
    start, end = _span(raw)
    kind, *args = op
    span = raw[start:end]
    digits = np.flatnonzero(np.frombuffer(span, np.uint8) - ord("0") < 10)
    if kind == "cell":  # a digit becomes a bracket, a high byte or any digit
        i = digits[args[0] % len(digits)]
        span = span[:i] + bytes([args[1]]) + span[i + 1:]
    elif kind == "byte":
        i = args[0] % len(span)
        span = span[:i] + bytes([args[1]]) + span[i + 1:]
    elif kind in ("drop", "comma"):
        commas = np.flatnonzero(np.frombuffer(span, np.uint8) == ord(","))
        i = commas[args[0] % len(commas)] if len(commas) else 1
        span = span[:i] + span[i + 1:] if kind == "drop" else span[:i] + b"," + span[i:]
    elif kind == "truncate":  # the span ends early, its text kept up to there
        span = span[:1 + args[0] % (len(span) - 1)] + b"]"
    elif kind == "lengthen":  # a digit before or after a digit: a longer number or a leading 0
        i = digits[args[0] % len(digits)] + args[2]
        span = span[:i] + bytes([args[1]]) + span[i:]
    elif kind == "bracket":  # a bracket turned either way: members joined or split
        brackets = np.flatnonzero(np.isin(np.frombuffer(span, np.uint8), list(b"[]")))
        i = brackets[args[0] % len(brackets)]
        span = span[:i] + bytes([args[1]]) + span[i + 1:]
    else:  # a member appended, its digits cycling through the list
        n = json.loads(raw)["n"]
        entries = [args[0][(i * n + j) % len(args[0])] for i in range(n) for j in range(n)]
        member = [entries[i * n:i * n + n] for i in range(n)]
        span = span[:-1] + b"," + json.dumps(member, separators=(",", ":")).encode() + b"]"
    return raw[:start] + span + raw[end:]


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(st.sampled_from(range(len(DOCS))), SPAN_MUTATION)
def test_stack_reader_matches_json_loads_on_mutations(which, op):
    # the same array, or the same refusal with the same message, as
    # json.loads with from_document, the path read_document takes
    # without the stack reader
    raw, block = DOCS[which]
    raw = _mutate_span(raw, op)
    with mock.patch.object(mubs, "STACK_BLOCK", block):
        got = _outcome(raw)
    with mock.patch.object(mubs, "_read_stack", lambda *args: None):
        assert _outcome(raw) == got
