"""Complete families of adjacency matrices for mutually unbiased graph bases.

A seed witness Q (symmetric, irreducible characteristic polynomial)
generates all p^n linear combinations of its first n powers.  The family
is closed under subtraction and every nonzero member is invertible, so
every pairwise difference has nonzero determinant: the algebraic
sufficient condition for mutual unbiasedness.  The computational basis
is implicit (always unbiased with respect to graph bases), making the
full family p^n + 1 bases.

A family is stored once, as its stack `MubSet.stack` on the narrowest
signed dtype that holds -2p (`stack_dtype`: int8 up to p = 61, int16 up
to 16381), so every sum of two residues and every difference of two
members fits without wrapping; every check reads it, and `linalg.mod`
reduces it.  `MubSet.matrices` is a view of it built on first use.  The
seed is proven where its witness is built (`SymmetricRep`), so a family
that `MubSet` builds from a witness is the field Z_p[Q] by construction
(`mub_set`, `adjacency_set`); a stack passed in (a document, a shift, a
hand-built family) is proven from the stack by `MubSet.affine`, a
shifted field s_0 + Z_p[Q] in index order with Q = stack[p] - stack[0];
`MubSet.field_rep` is that proof with member 0 zero.  A family other
than a field gets one rank per distinct difference A_t - A_r (over Z_p
a square matrix is invertible exactly when it has full rank): the
N - 1 differences from member 0 when the stack is affine, since member
0 then meets every difference; for any other stack (a field in another
order included), the pairs where a walk in
row-major order (`difference_rows`) first meets each difference, its
key (the bytes of its reduced upper triangle) not yet in the set of
those met.

A document's stack is written by one template writer, `_members_text`:
per block, each member is a fixed text row whose numbers are w bytes
wide (w the digits of the block's largest entry).  One reader,
`_read_stack`, checks every span by that template at w = 1, each number
cut to its first digit, and reads it a block at a time into one stack on
`stack_dtype(p)`, which `MubSet` keeps without a copy.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .fields import PolyZp, check_prime
from .linalg import MatZp, eliminate_stack, matmul_mod, mod
from .symrep import SymmetricRep, check_family_size, symmetric_representation


@dataclass(frozen=True, eq=False)
class MubSet:
    """p^n adjacency matrices indexed by coefficient vectors.

    `stack` is the family: a read-only array (N, n, n) of members reduced
    mod p, on `stack_dtype(p)`, from nested integers of any size or an
    integer array (ValueError for float, complex, bool or str entries,
    a bool among ints included, and for members or shifts that are not
    symmetric n x n).
    Entries already in [0, p) are only cast, and a read-only array of
    them already on that dtype (`read_document`'s, or another family's
    stack) is kept as it is.
    Without a stack, the family is built here from `witness` (same p and
    n, no shifts): its `_field`, Z_p[Q] by construction.  Index i
    corresponds to the coefficient vector (a_0, ..., a_{n-1}) with a_0
    varying fastest: stack[i] = sum_k a_k Q^k.  `field_rep` and `affine`
    are derived, never given.  `matrices` is a view of `stack`.  The
    implicit computational basis is always part of the family and never
    stored.
    """

    p: int
    n: int
    stack: np.ndarray | None = None
    witness: SymmetricRep | None = None
    shifts: tuple[MatZp, ...] = ()
    method: str = "unknown"
    polynomial: PolyZp | None = None
    d: tuple[int, ...] | None = None
    _from_witness: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        p, n, w = self.p, self.n, self.witness
        if any(m.p != p or m.n != n or not m.is_symmetric for m in self.shifts):
            raise ValueError("shift matrices must be symmetric n x n over Z_p")
        if self.stack is None:
            if w is None or (w.p, w.n) != (p, n) or self.shifts:
                raise ValueError("a family without a stack is built from a "
                                 "witness over the same p and n, unshifted")
            stack = _field(w.q)
        else:
            stack = self.stack
            # numpy reads a bool among ints as an int, and ints past int64
            # as float64 or object: any stack but an integer array is
            # checked entry by entry as it was given
            if not (isinstance(stack, np.ndarray) and stack.dtype.kind in "iu"):
                stack = np.array(stack, dtype=object)
                if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                           for v in stack.flat):
                    raise ValueError("adjacency matrices must hold integers")
                try:
                    stack = stack.astype(np.int64)
                except OverflowError:  # entries beyond int64 stay Python ints
                    pass
            if stack.size and not 0 <= int(stack.min()) <= int(stack.max()) < p:
                stack = np.remainder(stack, p, dtype=np.promote_types(
                    stack.dtype, np.min_scalar_type(p)))
            # an array of its own that is read-only is kept (the reader's
            # stack); a caller's writable array or view of one is copied
            stack = stack.astype(stack_dtype(p),
                                 copy=stack.flags.writeable or stack.base is not None)
            if stack.ndim != 3 or stack.shape[1:] != (n, n) or not _symmetric(stack):
                raise ValueError("adjacency matrices must be symmetric and n x n")
        stack.setflags(write=False)
        object.__setattr__(self, "_from_witness", self.stack is None)
        object.__setattr__(self, "stack", stack)

    @cached_property
    def matrices(self) -> tuple[MatZp, ...]:
        """The members as `MatZp` objects, built on first use."""
        return tuple(MatZp(self.p, rows) for rows in self.stack.tolist())

    @cached_property
    def field_rep(self) -> bool:
        """True when the stack is the field Z_p[Q] itself: `affine` with
        member 0 zero, tested first, so a shifted stack skips the proof
        (an empty stack has no member 0 and is not affine)."""
        return not self.stack[:1].any() and self.affine

    @cached_property
    def affine(self) -> bool:
        """True when the stack is a shifted field s_0 + Z_p[Q] in index
        order: s_0 = stack[0], Q = stack[p] - s_0 (I alone for n = 1) with
        an irreducible characteristic polynomial, and stack[i] = s_0 +
        sum_k a_k Q^k for the digits a of i.  Every difference A_t - A_r
        is then a nonzero member of the field Z_p[Q], and member 0 meets
        every one.  A stack built from the witness is one (s_0 = 0); a
        stack passed in must keep each step of `_levels(Q)` (a block plus
        one matrix is its image block, so s_0 changes no step), checked in
        blocks of about STACK_BLOCK / 8 entries, with no second stack."""
        if self._from_witness:
            return True
        p, n, stack = self.p, self.n, self.stack
        if len(stack) != p**n:
            return False
        q = MatZp(p, (stack[p] - stack[0]).tolist()) if n > 1 else MatZp.identity(p, 1)
        if not q.char_poly().is_irreducible():
            return False
        rows = max(1, STACK_BLOCK // (8 * n * n))
        buf = np.empty((min(rows, len(stack) // 2), n, n), dtype=stack.dtype)  # count <= p^n / 2
        for start, count, add in _levels(q):
            for lo in range(0, count, rows):
                hi = min(lo + rows, count)
                got = mod(np.add(stack[lo:hi], add, out=buf[:hi - lo]), p)
                if not np.array_equal(got, stack[start + lo:start + hi]):
                    return False
        return True

    @property
    def dim(self) -> int:
        return self.p**self.n

    @property
    def num_bases(self) -> int:
        """Graph bases plus the computational basis."""
        return len(self.stack) + 1

    def coeff_vector(self, index: int) -> tuple[int, ...]:
        return index_to_coeffs(index, self.p, self.n)


def index_to_coeffs(index: int, p: int, n: int) -> tuple[int, ...]:
    out = []
    for _ in range(n):
        out.append(index % p)
        index //= p
    return tuple(out)


def fundamental_graphs(witness: SymmetricRep) -> list[MatZp]:
    """The n powers Q^0, ..., Q^{n-1}; every family member is a
    Z_p-linear combination of these."""
    return [witness.q ** k for k in range(witness.n)]


def stack_dtype(p: int) -> np.dtype:
    """The dtype of a stack over Z_p: the narrowest signed one that holds
    -2p, so a sum of two residues or a difference of two members fits."""
    return np.min_scalar_type(-2 * p)


def _levels(q: MatZp):
    """The recurrence of Z_p[Q] in index order (a_0 varying fastest), as
    (start, count, add): rows start .. start + count - 1 are rows 0 ..
    count - 1 plus `add` mod p, and row 0 is zero.  At level k, Q^k
    extends the first p^k rows to p^(k+1), row j p^k + i being j Q^k +
    row i; the blocks of j = c .. 2c - 1 are those of j = 0 .. c - 1
    plus c Q^k, so c doubles and no table of the p - 1 multiples (a
    stack's size at n = 1) is built.  Each `add` is a new array on
    `stack_dtype(p)`, the last one doubled."""
    p, n = q.p, q.n
    dtype = stack_dtype(p)
    seed = np.array(q.rows, dtype=np.int64)
    power = np.eye(n, dtype=np.int64)
    for k in range(n):
        c, add = 1, power.astype(dtype)
        while c < p:
            yield c * p**k, min(c, p - c) * p**k, add
            c, add = 2 * c, mod(add + add, p)
        power = matmul_mod(power, seed, p)


def _field(q: MatZp) -> np.ndarray:
    """All p^n Z_p-combinations sum_k a_k Q^k as a stack on
    `stack_dtype(p)`, in index order, filled in place by `_levels`."""
    p, n = q.p, q.n
    stack = np.zeros((p**n, n, n), dtype=stack_dtype(p))
    for start, count, add in _levels(q):
        mod(np.add(stack[:count], add, out=stack[start:start + count]), p)
    return stack


def _symmetric(stack: np.ndarray) -> bool:
    """True when every member of an (N, n, n) stack equals its transpose,
    compared in blocks of about STACK_BLOCK / 8 entries."""
    rows = max(1, STACK_BLOCK // (8 * stack.shape[1] ** 2))
    return all(np.array_equal(blk, blk.transpose(0, 2, 1))
               for blk in (stack[lo:lo + rows] for lo in range(0, len(stack), rows)))


def adjacency_set(witness: SymmetricRep) -> MubSet:
    """All p^n linear combinations of the fundamental graphs: the field
    Z_p[Q], built from the witness."""
    return MubSet(
        p=witness.p, n=witness.n, witness=witness,
        method=witness.method, polynomial=witness.f, d=witness.d,
    )


def _upper(stack: np.ndarray) -> np.ndarray:
    """A_ij for i <= j of (..., n, n) matrices, in row-major order."""
    i, j = np.triu_indices(stack.shape[-1])
    return stack[..., i, j]


def _keys(rows: np.ndarray) -> np.ndarray:
    """One key per row of residues in [0, p) on `stack_dtype(p)`:
    the row's own bytes as one opaque (void) item, so keys are equal
    exactly when rows are."""
    rows = np.ascontiguousarray(rows)
    return rows.view(f"V{rows.itemsize * rows.shape[1]}").ravel()


def difference_rows(stack: np.ndarray, p: int):
    """(r, ts) for each row r of an (N, n, n) stack of residues, on a
    signed dtype that holds their differences (`stack_dtype`), that meets
    a new class:
    ts holds, ascending, the t > r whose D = A_t - A_r mod p is met first
    at (r, t), so each distinct D comes once, at its least pair in
    row-major order.  A class is its key, the bytes of D's upper triangle
    reduced mod p (`_keys`); the keys met so far are one set."""
    coefs = _upper(stack)
    seen = set()
    for r in range(len(coefs)):
        diff = mod(coefs[r + 1:] - coefs[r], p)
        ts = [t for t, key in enumerate(_keys(diff).tolist(), r + 1)
              if key not in seen and not seen.add(key)]
        if ts:
            yield r, np.array(ts)


def difference_classes(s: MubSet):
    """The (r, ts) of `difference_rows`: (0, [1, ..., N - 1]) alone when
    `s.affine` (a field, or a shifted one), since row 0 of such a stack
    meets every class (so a later row meets none); the walk otherwise,
    a field in another order included."""
    if s.affine:
        return [(0, np.arange(1, len(s.stack)))]
    return difference_rows(s.stack, s.p)


def verify_mu_condition(s: MubSet, pairwise: bool = False):
    """Check that A_r - A_s is invertible, rank n over Z_p, for all r != s.

    A field (`field_rep`: built from its witness, or proven from the
    stack) passes in closure mode with no rank.  Any other family, or any
    family when pairwise is set, gets one rank per distinct difference
    A_t - A_r, at its least pair in row-major order (`difference_classes`),
    one `eliminate_stack` call per row of pairs.  A failing pair whose class
    came earlier failed there already, so the report names the first
    failing pair of a scan over all pairs.  An affine stack (a field or a
    shifted one) fails none: it takes the N - 1 ranks from member 0.
    """
    if s.field_rep and not pairwise:
        return MuConditionReport(ok=True, mode="closure", failing_pair=None)
    stack = s.stack
    for r, ts in difference_classes(s):
        singular = np.flatnonzero(eliminate_stack(stack[ts] - stack[r], s.p) < s.n)
        if singular.size:
            return MuConditionReport(ok=False, mode="pairwise",
                                     failing_pair=(r, int(ts[singular[0]])))
    return MuConditionReport(ok=True, mode="pairwise", failing_pair=None)


@dataclass(frozen=True)
class MuConditionReport:
    ok: bool
    mode: str
    failing_pair: tuple[int, int] | None


def shift_set(s: MubSet, m: MatZp) -> MubSet:
    """Add a symmetric matrix to every member (a collective phase-gate
    action; MubSet checks m); differences and hence unbiasedness are
    unchanged, but the family is no field unless m = 0."""
    return replace(s, stack=s.stack + np.array(m.rows, dtype=s.stack.dtype),
                   shifts=s.shifts + (m,))


def mub_set(p: int, n: int, method: str = "auto", poly: PolyZp | None = None,
            d=None, primitive: bool = False) -> MubSet:
    """End-to-end construction: the proven witness, then its family, the
    field Z_p[Q] by construction (`adjacency_set`).  Families of more
    than SEARCH_LIMIT members are a ValueError before any route runs
    (`check_family_size`)."""
    check_prime(p)
    check_family_size(p, n)
    return adjacency_set(symmetric_representation(
        p, n, method=method, poly=poly, d=d, primitive=primitive))


# ---------------------------------------------------------------------------
# Interchange format
# ---------------------------------------------------------------------------


def to_document(s: MubSet) -> dict:
    """The family document as a JSON-able dict of lists: the public form,
    which callers may edit and `json.dumps`.  The CLI writers pass
    `stack_document(s)` to `canonical_json` instead, which encodes
    `matrices` from the stack to the same bytes."""
    return {**stack_document(s), "matrices": s.stack.tolist()}


def stack_document(s: MubSet) -> dict:
    """The family document with `matrices` the read-only stack itself."""
    doc = {
        "p": s.p,
        "n": s.n,
        "method": s.method,
        "polynomial": list(s.polynomial.coeffs) or None if s.polynomial else None,
        "matrices": s.stack,
        "field_rep": s.field_rep,
    }
    if s.d is not None:
        doc["d"] = list(s.d)
    if s.shifts:
        doc["shifts"] = [m.to_lists() for m in s.shifts]
    return doc


def _ints(v, what: str, depth: int = 0):
    """v as lists nested depth deep around ints, else ValueError."""
    if depth and not isinstance(v, list):
        raise ValueError(f"{what}: expected a list, got {v!r}")
    if depth > 1:
        return [_ints(x, what, depth - 1) for x in v]
    for x in v if depth else [v]:
        if type(x) is not int:
            raise ValueError(f"{what}: expected an integer, got {x!r}")
    return v


def from_document(doc: dict) -> MubSet:
    """Parse a family document (ValueError for non-int scalars, a non-str
    method, non-list containers, and members or shifts that are not
    symmetric n x n).  `matrices` may also be an integer array, as
    `read_document` decodes it.  The document's `field_rep` key is
    ignored: `MubSet.field_rep` proves it from the matrices."""
    if not isinstance(doc, dict):
        raise ValueError("document must be a JSON object")
    p = _ints(doc["p"], "p")
    n = _ints(doc["n"], "n")
    check_prime(p)
    if n < 1:
        raise ValueError("n must be >= 1")
    mats = doc["matrices"]
    if not (isinstance(mats, np.ndarray) and mats.dtype.kind in "iu"):
        mats = _ints(mats, "matrices", 3)
        try:  # checked here, so MubSet is handed an array it need not check
            mats = np.array(mats, dtype=np.int64)
        except OverflowError:  # ints past int64, which MubSet reduces as Python ints
            mats = np.array(mats, dtype=object)
    if not len(mats):
        raise ValueError("document contains no matrices")
    poly = doc.get("polynomial")
    if poly is not None:  # a zero polynomial, [] included, is no claim
        poly = PolyZp(p, _ints(poly, "polynomial", 1))
        poly = None if poly.is_zero else poly
    method = doc.get("method", "unknown")
    if not isinstance(method, str):
        raise ValueError(f"method: expected a string, got {method!r}")
    return MubSet(
        p=p, n=n, stack=mats,
        shifts=tuple(MatZp(p, r) for r in _ints(doc.get("shifts", []), "shifts", 3)),
        method=method,
        polynomial=poly,
        d=tuple(_ints(doc["d"], "d", 1)) if doc.get("d") is not None else None,
    )


def read_document(raw: bytes) -> MubSet:
    """The family of a document's bytes.  Canonical bytes (as `gen` and
    `export` write them) have their `matrices` decoded straight into an
    array (`_canonical_doc`); any other document is decoded as text the
    way `open(path).read()` decodes a file and parsed by `json.loads`.
    Either way `from_document` checks the rest, so the verdicts and
    messages are those of `json.loads` and `from_document`; the bytes are
    dropped before it runs, so a caller that holds no other reference
    (`cli`) frees them there."""
    doc = _canonical_doc(raw)
    if doc is None:
        doc = json.loads(_text(raw))
    del raw
    return from_document(doc)


def _text(raw: bytes) -> str:
    with io.TextIOWrapper(io.BytesIO(raw)) as fh:
        return fh.read()


# The canonical (sorted-key) prefix up to "matrices": no string in it can
# hold the key, so the match is the top-level key.
_MATRICES_KEY = re.compile(rb'\{(?:"d":\[[0-9,]*\],)?(?:"field_rep":(?:true|false),)?'
                           rb'"matrices":')


def _canonical_doc(raw: bytes) -> dict | None:
    """The document with `matrices` an (N, n, n) array of its entries, or
    None unless the bytes are canonical: the sorted-key prefix, a span up
    to the first "]]]" that `_read_stack` accepts, and the rest of the
    document, the span replaced by 0, valid JSON holding `matrices` once
    at the top level (under any spelling) and a positive int `n`.  The
    span is sought back from the quote of the key after it (`n` comes
    after `matrices`): no stack text holds a quote, and no accepted span
    an earlier "]]]"."""
    key = _MATRICES_KEY.match(raw)
    if key is None:
        return None
    start = key.end()
    end = raw.rfind(b"]]]", start, raw.find(b'"', start)) + 3
    if end < 3:
        return None
    tops = []
    try:
        doc = json.loads(_text(raw[:start] + b"0" + raw[end:]),
                         object_pairs_hook=lambda kv: tops.append(kv) or dict(kv))
    except (ValueError, RecursionError):
        return None
    n = doc.get("n")
    if [k for k, _ in tops[-1]].count("matrices") != 1 \
            or type(n) is not int or not 0 < n * n <= end - start:
        return None
    doc["matrices"] = _read_stack(raw, start, end, n, doc.get("p"))
    return None if doc["matrices"] is None else doc


def _read_stack(raw: bytes, start: int, end: int, n: int, p) -> np.ndarray | None:
    """The read-only (N, n, n) stack on `stack_dtype(p)` (int64 for an
    entry past it) of a span raw[start:end] that, less every digit that a
    digit follows, is N rows of `_member_template(n, n, 1)`, the first
    opened by "[" in place of its ",", then the closing "]"; each number
    has at most 18 digits and no leading zero.  It is read in blocks of
    about STACK_BLOCK / 8 bytes cut after whole members.  None for any
    other span, and unless p is an int > 1 with an integer stack dtype."""
    if type(p) is not int or p < 2 or stack_dtype(p).kind != "i":
        return None
    member = np.frombuffer(_member_template(n, n, 1), np.uint8)
    width = len(member)
    rows, spare = divmod(end - start - 1, width)
    counted = bool(spare)  # else sized for one-digit rows, until a wider number
    stack = np.empty((raw.count(b"]],[[", start, end) + 1 if counted else rows, n, n),
                     stack_dtype(p))
    buf = np.empty((min(len(stack), max(1, STACK_BLOCK // (8 * width))), width), np.uint8)
    cells = _cells(buf, n, n, 1)[..., 0]

    def check(text: np.ndarray, first: bool, out: np.ndarray) -> int | None:
        """The k members of text, k rows of the template, their digits
        copied into out[:k]; None unless its bytes less the template's are
        0 to 9 (as uint8 in buf: none wraps negative) and all nonzero ones
        sit in number cells."""
        k, spare = divmod(len(text), width)
        if spare or not 0 < k <= min(len(buf), len(out)):
            return None
        diff = np.subtract(text.reshape(k, width), member, out=buf[:k])
        if first:  # the stack's "[" in place of its first ",": 0 for "[" alone
            diff[0, :1] -= ord("[") - ord(",")
        if diff.max() > 9:
            return None
        digits = out[:k]  # written as unsigned: 0 to 9 either way, and no cast
        np.copyto(digits.view(f"u{digits.itemsize}"), cells[:k])
        return k if np.count_nonzero(digits) == np.count_nonzero(diff) else None

    def numbers(text: np.ndarray, first: bool, out: np.ndarray):
        """(k, at, values), or None: text's numbers, each cut to its first
        digit, pass `check` into out[:k], and `values` are those of 2 to 18
        digits (no leading zero), at the flat offsets `at` of out[:k]."""
        a = text - 48  # a digit's value; "[", "]" and "," wrap to 10 or more
        isd = a < 10
        more = np.zeros_like(isd)  # a digit after a digit
        np.logical_and(isd[1:], isd[:-1], out=more[1:])
        k = check(text[~more], first, out)
        if k is None:
            return None
        digit = np.flatnonzero(more)
        rank = np.flatnonzero(~more[digit - 1])  # second digits, by rank among the dropped
        digit = digit[rank]
        lead = digit - rank - 1  # the first digit's offset in the checked text
        cell = np.zeros(width, np.intp)  # the number of the cell at each offset of a row
        cell[_cells(np.arange(width)[None], n, n, 1)[0, ..., 0].ravel()] = np.arange(n * n)
        at = lead // width * (n * n) + cell[lead % width]
        values = out[:k].reshape(-1)[at].astype(np.int64)
        if not values.all():  # a leading zero
            return None
        live = np.arange(len(at))
        for _ in range(17):  # the second to the 18th digit
            values[live] = values[live] * 10 + a[digit]
            go = more[digit + 1]
            digit, live = digit[go] + 1, live[go]
            if not len(live):
                return k, at, values
        return None

    lo, pos = 0, start
    while pos < end:
        # each member takes width bytes or more, so a block takes len(buf) or fewer
        cut = raw.find(b"]],[[", pos + (len(buf) - 1) * width - 1, end)
        cut = end if cut < 0 else cut + 2
        text = np.frombuffer(raw, np.uint8, cut - pos - (cut == end), pos)  # less the last "]"
        k = check(text, pos == start, stack[lo:])
        if k is None:  # wider numbers, or no stack text
            wide = numbers(text, pos == start, stack[lo:])
            if wide is None:
                return None
            k, at, values = wide
            big = int(values.max()) > np.iinfo(stack.dtype).max
            if big or not counted:  # sized by the members' count, int64 past the dtype
                grown = np.empty((raw.count(b"]],[[", start, end) + 1, n, n),
                                 np.int64 if big else stack.dtype)
                grown[:lo + k] = stack[:lo + k]
                stack, counted = grown, True
            stack[lo:lo + k].reshape(-1)[at] = values
        lo, pos = lo + k, cut
    stack.setflags(write=False)  # lo == len(stack): a span of whole blocks fills it
    return stack


def canonical_json(doc: dict) -> str:
    """Byte-stable serialization: json.dumps(doc, sort_keys=True,
    separators=(",", ":")) plus a newline, for str keys, with an ndarray
    value written as its nested lists.  Such a value (non-negative
    integers, shape (N, r, c), e.g. `MubSet.stack`) is encoded by
    `_stack_json` without building those lists."""
    return "".join(canonical_parts(doc))


def canonical_parts(doc: dict):
    """The pieces of canonical_json(doc) in order, not joined, made one at
    a time as a writer takes them, so a stack's text is held one block
    at a time."""
    yield from _encode(doc)
    yield "\n"


def _encode(v):
    """Yield the pieces of v's canonical JSON.  A nonempty dict is joined
    key by key, so `json.dumps` only ever holds the small pieces of one
    leaf value at a time (an all-cuts report is a few hundred kB of
    text, but would be about 65,000 pieces in a single call)."""
    if isinstance(v, np.ndarray):
        yield from _stack_json(v)
    elif isinstance(v, dict) and v:
        sep = "{"
        for k in sorted(v):
            yield f"{sep}{json.dumps(k)}:"
            yield from _encode(v[k])
            sep = ","
        yield "}"
    else:
        yield _LEAF.encode(v)


_LEAF = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


STACK_BLOCK = 1 << 20  # entries per block of `_stack_json`; `_read_stack` reads an eighth


def _stack_json(stack: np.ndarray):
    """The compact JSON of a stack, yielded a block of about STACK_BLOCK
    entries at a time by `_members_text`, each member's text led by ","
    (the first one's by the stack's opening "["), then the closing "]"."""
    m, r, c = stack.shape
    if not stack.size:
        yield json.dumps(stack.tolist())
        return
    step = max(1, STACK_BLOCK // (r * c))
    for a in range(0, m, step):
        blk = stack[a:a + step]
        if blk.min() < 0:
            raise ValueError("stack entries to encode must be non-negative")
        yield _members_text(blk, int(blk.max()), not a).decode()
    yield "]"


def _member_template(r: int, c: int, w: int) -> bytes:
    """One r x c member's text led by ",", each number w zeros wide: at
    w = 1 the text `json.dumps` writes for a zero member."""
    row = "[" + ",".join(["0" * w] * c) + "]"
    return (",[" + ",".join([row] * r) + "]").encode()


def _members_text(blk: np.ndarray, top: int, first: bool) -> bytes:
    """The text of a block of members with largest entry top (w digits),
    each led by "," (the stack's first member by its opening "["): a row
    of `_member_template` per member, whose rows of c (w + 1) + 2 bytes
    after the leading ",[" hold the c numbers at fixed offsets, w bytes
    each.  At w = 1 a number is its one digit; wider numbers, on the
    smallest dtype that holds top, are right-aligned with a NUL for each
    leading zero, which `bytes.translate` drops."""
    k, r, c = blk.shape
    w = len(str(top))
    template = np.frombuffer(_member_template(r, c, w), np.uint8)
    text = np.empty((k, len(template)), dtype=np.uint8)
    text[:] = template
    text[0, 0] = ord("[" if first else ",")
    cells = _cells(text, r, c, w)
    if w == 1:
        np.add(blk, ord("0"), out=cells[..., 0], casting="unsafe")
        return text.tobytes()
    blk = blk.astype(np.min_scalar_type(top))[..., None]
    tens = 10 ** np.arange(w - 1, -1, -1, dtype=blk.dtype)
    digits = blk // tens % 10 + ord("0")
    digits[..., :-1] *= blk >= tens[:-1]
    cells[..., :w] = digits
    return text.tobytes().translate(None, b"\0")


def _cells(text: np.ndarray, r: int, c: int, w: int) -> np.ndarray:
    """The (k, r, c, w + 1) view of the number cells in k member rows of
    `_member_template(r, c, w)` text, (k, L) bytes: each row's r rows of
    c (w + 1) + 2 bytes after its leading ",[", less their brackets, so
    cell [..., :w] is a number's w bytes and [..., w] the "," or "]" after
    it."""
    k = len(text)
    return text[:, 2:].reshape(k, r, c * (w + 1) + 2)[:, :, 1:-1].reshape(k, r, c, w + 1)
