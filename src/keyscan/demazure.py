"""Key polynomials (Demazure characters) and their cross-checking oracles.

Three routes to the same polynomial:

* build the tableaux of the shape right to left, scanning each column
  suffix whose entries are large enough to exceed the key of the
  composition w . mu, and dropping every suffix whose right-key column
  does; by the run rule of ``scanning.scanning_tableau``, no column is
  scanned that is followed by one of its length, nor the last column;
* filter all semistandard tableaux of the shape by their jeu de taquin
  right key, the unpruned reference;
* the isobaric divided-difference recursion along a reduced word of w.

All arithmetic is exact integer arithmetic on sparse exponent maps.  The
first route counts each weight as one packed int, one digit per variable,
and unpacks each distinct weight once, when the count is done.
"""

from __future__ import annotations

import functools
import struct
import sys
from collections import Counter
from operator import gt

from . import scanning
from .tableau import (
    Tableau,
    TableauError,
    _Frozen,
    _check_bound,
    _columns_of_length,
    conjugate,
    entrywise_leq,
    enumerate_tableaux,
    is_shape,
)


class EmptyComposition(TableauError):
    pass


class BadDimensions(TableauError):
    pass


class SparsePolynomial(_Frozen):
    """Integer-coefficient polynomial keyed by exponent vectors.

    ``terms`` maps length-``nvars`` exponent tuples to nonzero integer
    coefficients; it defaults to a new empty dict.  The dict makes the
    polynomial unhashable.
    """

    _fields = ("nvars", "terms")
    __hash__ = None

    def __init__(self, nvars: int, terms: dict | None = None):
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", {} if terms is None else terms)
        self.__post_init__()

    def __post_init__(self):
        for mono, coeff in self.terms.items():
            if len(mono) != self.nvars:
                raise BadDimensions(f"monomial {mono} is not of length {self.nvars}")
            if coeff == 0:
                raise ValueError("zero coefficient stored")

    @classmethod
    def monomial(cls, exponents, coeff=1):
        exponents = tuple(exponents)
        return cls(len(exponents), {exponents: coeff} if coeff else {})

    def __add__(self, other):
        if self.nvars != other.nvars:
            raise BadDimensions("adding polynomials in different variable counts")
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = terms.get(mono, 0) + coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return SparsePolynomial(self.nvars, terms)

    def coefficient(self, exponents) -> int:
        return self.terms.get(tuple(exponents), 0)

    def __str__(self):
        return format_polynomial(self)


def format_polynomial(p: SparsePolynomial) -> str:
    """One monomial per line: 'coefficient e_1 ... e_n', exponent vectors
    in descending lexicographic order."""
    line = "%d" + " %d" * p.nvars + "\n"
    terms = p.terms
    return "".join([line % ((terms[mono],) + mono) for mono in sorted(terms, reverse=True)])


def pi_operator(p: SparsePolynomial, i: int) -> SparsePolynomial:
    """Isobaric divided difference: (x_i p - x_{i+1} s_i p) / (x_i - x_{i+1}).

    Applied monomial by monomial via the closed geometric-sum form;
    idempotent, and the identity on polynomials symmetric in x_i, x_{i+1}.
    """
    if type(i) is not int:
        raise BadDimensions(f"operator index {i!r} is not an integer")
    if not 1 <= i < p.nvars:
        raise BadDimensions(f"operator index {i} outside 1..{p.nvars - 1}")
    terms: dict = {}

    def bump(mono, coeff):
        cur = terms.get(mono, 0) + coeff
        if cur:
            terms[mono] = cur
        else:
            terms.pop(mono, None)

    for mono, coeff in p.terms.items():
        a, b = mono[i - 1], mono[i]
        if a >= b:
            for m in range(b, a + 1):
                bump(mono[: i - 1] + (m, a + b - m) + mono[i + 1 :], coeff)
        else:
            for m in range(a + 1, b):
                bump(mono[: i - 1] + (m, a + b - m) + mono[i + 1 :], -coeff)
    return SparsePolynomial(p.nvars, terms)


# -- compositions and their keys ------------------------------------------


def key_of_composition(parts) -> Tableau:
    """The key tableau whose weight is the given composition: column j
    holds the indices i with parts_i >= j, sorted increasingly."""
    parts = tuple(parts)
    for p in parts:
        if type(p) is not int:
            raise BadDimensions(f"part {p!r} of {parts} is not an integer")
    if not parts or all(p == 0 for p in parts):
        raise EmptyComposition("composition needs at least one positive part")
    if any(p < 0 for p in parts):
        raise EmptyComposition(f"negative part in {parts}")
    return Tableau(_key_columns(parts), len(parts))


def _key_columns(parts):
    """The columns of the key of the composition ``parts`` (nonnegative
    ints, not all 0), unchecked."""
    return tuple(
        tuple(i for i, p in enumerate(parts, 1) if p >= j) for j in range(1, max(parts) + 1)
    )


def _check_nvars(n):
    """A polynomial in ``n`` variables keeps n-tuples of exponents, so
    ``n`` is an int from 1 to the longest tuple Python can hold."""
    _check_bound(n, BadDimensions)
    if n > sys.maxsize:
        raise BadDimensions(f"n={n} is more variables than a tuple can hold ({sys.maxsize})")


def _check_permutation(w, n):
    _check_nvars(n)
    w = tuple(w)
    if any(type(x) is not int for x in w) or sorted(w) != list(range(1, len(w) + 1)):
        raise BadDimensions(f"{w} is not a permutation of 1..{len(w)}")
    if len(w) > n:
        raise BadDimensions(f"permutation of {len(w)} letters needs n >= {len(w)}")
    return w + tuple(range(len(w) + 1, n + 1))


def _check_partition(mu, n):
    _check_nvars(n)
    mu = tuple(p for p in mu if p)
    if not is_shape(mu):
        raise BadDimensions(f"{mu} is not a partition")
    if len(mu) > n:
        raise BadDimensions(f"partition {mu} has more than n={n} rows")
    return mu


def compose(w, mu, n) -> tuple[int, ...]:
    """The composition w . mu: part w(i) equals mu_i."""
    w = _check_permutation(w, n)
    mu = _check_partition(mu, n)
    c = [0] * n
    for i, p in enumerate(mu):
        c[w[i] - 1] = p
    return tuple(c)


def reduced_word(w, pick_last: bool = False) -> tuple[int, ...]:
    """A reduced word (i_1,...,i_l) with w = s_{i_1} ... s_{i_l}, peeled
    greedily from the first descent (or the last, for a second word)."""
    v = list(w)
    word = []
    while True:
        descents = [i for i in range(1, len(v)) if v[i - 1] > v[i]]
        if not descents:
            break
        i = descents[-1] if pick_last else descents[0]
        v[i - 1], v[i] = v[i], v[i - 1]
        word.append(i)
    return tuple(word)


# -- the three engines -----------------------------------------------------


def schur_polynomial(mu, n: int) -> SparsePolynomial:
    """Sum of the weights of all semistandard tableaux of shape mu
    (mu a partition in row lengths, entries bounded by n)."""
    mu = _check_partition(mu, n)
    weights = Counter(t.weight() for t in enumerate_tableaux(conjugate(mu), n))
    return SparsePolynomial(n, dict(weights))


def demazure_character(mu, w, n: int, engine: str = "scan") -> SparsePolynomial:
    """Sum of the weights of the semistandard tableaux of shape mu whose
    right key is entrywise <= the key of the composition w . mu.

    ``engine`` picks how right keys are computed: 'scan' (the direct
    scanning method, pruned column by column, scanning a suffix only
    when its entries are large enough to exceed the key) or 'oracle'
    (jeu de taquin length swaps on every tableau of the shape).  The
    empty partition has one tableau, the empty one, so its character is
    the constant 1 for every w.
    """
    if engine not in ("scan", "oracle"):
        raise ValueError(f"unknown engine {engine!r}")
    parts = compose(w, mu, n)
    if not any(parts):
        return SparsePolynomial.monomial(parts)
    if engine == "scan":
        # compose has checked the parts, so the key needs no checks.
        bound = _key_columns(parts)
        k = len(bound)
        shift, unpack, size = _packing(n, k)
        codes: Counter = Counter()
        _extend(k - 1, [()] * k, bound, 0, codes, 0, scanning._kernel.scan_columns, n, shift)
        # Descending codes are descending exponent tuples, so the terms
        # reach format_polynomial already sorted.
        return SparsePolynomial(n, {unpack(c.to_bytes(size, "big")): codes[c]
                                    for c in sorted(codes, reverse=True)})
    # Imported here: only the oracle engine runs jeu de taquin.
    from . import jdt

    key = key_of_composition(parts)
    weights = Counter(
        t.weight()
        for t in enumerate_tableaux(key.shape, n)
        if entrywise_leq(jdt.right_key_oracle(t), key)
    )
    return SparsePolynomial(n, dict(weights))


@functools.lru_cache(maxsize=64)
def _packing(n, k):
    """How the weight of a tableau with k columns and entries <= n packs
    into one int, its code: variable x_e is the digit ``shift`` * (n - e)
    bits up, and ``unpack`` reads the code's ``size`` big-endian bytes
    back as the n exponents.

    An exponent counts the columns that hold its entry, so it is at most
    k, and each digit is the fewest bytes (1, 2, 4 or 8) that hold k; k
    is a length, so it is below 256**8.  With x_1 the most significant
    digit, codes sort as their exponent tuples do.
    """
    width = next(d for d in (1, 2, 4, 8) if k < 256**d)
    digit = {1: "B", 2: "H", 4: "I", 8: "Q"}[width]
    return 8 * width, struct.Struct(f">{n}{digit}").unpack, width * n


# Enough for every upper bound of n = 6 (one per nonempty subset of 1..6).
_CANDIDATE_TABLES = 64


@functools.lru_cache(maxsize=_CANDIDATE_TABLES)
def _candidates(upper, n, shift):
    """The columns entrywise <= ``upper`` with entries <= n, and the
    code of each (1 << ``shift`` * (n - e) per entry e; see ``_packing``),
    as two tuples: shared by every call, so no call can change them."""
    column_list = tuple(_columns_of_length(len(upper), n, (), upper))
    return column_list, tuple([sum(1 << shift * (n - e) for e in col) for col in column_list])


# Module level rather than a closure: a closure that calls itself is a
# reference cycle, which would keep ``codes`` alive until the next
# garbage collection and raise the peak memory of repeated calls.
def _extend(i, cols, bound, code, codes, top, scan_columns, n, shift):
    """Count in ``codes`` the code (see ``_packing``) of the weight of
    every tableau T of the shape of the key ``bound``, entries <= n, with
    K+(T) <= bound whose columns after i are ``cols[i + 1:]``; ``code``
    is the code of the weight of those columns and ``top`` their largest
    entry (0 when there are none).  The weight of a column adds
    1 << ``shift`` * (n - e) to the code for each entry e.

    Column i of the scanning tableau reads only columns i.. of T, so
    K+(T)[i:] = K+(T[i:]) and the condition splits into one test per
    suffix.  Column i is bounded by the column to its right (rows weakly
    increase) and by key column i (T <= K+(T) <= key), and a suffix whose
    scanned first column exceeds key column i is dropped with every
    filling that extends it.

    That scan is made only when it can drop the suffix.  The scanned
    column is a strictly increasing column of l = len(b) entries of the
    suffix, so with M the suffix's largest entry its row r (from 0 at the
    top) is at most M - (l - 1 - r); key column b is strictly increasing,
    so b[r] >= b[0] + r.  When b[0] + l - 1 >= M, every row is within b
    and the suffix is kept unscanned.  For the longest permutation of
    1..n every key column is n - l + 1..n, so b[0] + l - 1 = n and its
    character makes no scan at all.

    The run rule, which ``scanning_tableau`` follows too, spares two
    more scans; the cut-off is then n, which no entry exceeds.  When
    column i + 1 has the length of b, key columns i and i + 1 are equal,
    and so are columns 0 and 1 of the key K+(T[i:]).  Its column 1 is
    K+(T[i + 1:])[0], and the suffix T[i + 1:] was kept only if that
    column is within key column i + 1, that is within b.  When i is the
    last column, the one-column suffix scans to column i itself, which
    its candidate bound keeps within b.

    The candidates for column i depend only on ``upper``, n and
    ``shift``, so ``_candidates`` builds them once per process for each
    such triple.  ``shift`` is part of the key because the digit width
    grows with k.  Their largest bottom entry is upper[-1] (any candidate
    can end there), so when max(top, upper[-1]) is within the cut-off
    none of them would be scanned; at column 0 the whole list is then
    counted by one C-level ``Counter.update``.
    """
    b = bound[i]
    right = cols[i + 1] if i + 1 < len(cols) else ()
    upper = tuple(map(min, right, b)) + b[len(right):]
    column_list, column_codes = _candidates(upper, n, shift)
    unscanned = b[0] + len(b) - 1 if 0 < len(right) < len(b) else n
    if not i and top <= unscanned and upper[-1] <= unscanned:
        codes.update(map(code.__add__, column_codes))
        return
    for col, col_code in zip(column_list, column_codes):
        cols[i] = col
        m = col[-1] if col[-1] > top else top
        if m > unscanned and any(map(gt, scan_columns(cols[i:], (0,))[0], b)):
            continue
        if i:
            _extend(i - 1, cols, bound, code + col_code, codes, m, scan_columns, n, shift)
        else:
            codes[code + col_code] += 1


def demazure_by_operators(mu, w, n: int, pick_last: bool = False) -> SparsePolynomial:
    """Divided-difference route: apply pi operators along a reduced word
    of w to the monomial x^mu.  Independent of the chosen reduced word."""
    w = _check_permutation(w, n)
    mu = _check_partition(mu, n)
    p = SparsePolynomial.monomial(mu + (0,) * (n - len(mu)))
    for i in reduced_word(w, pick_last):
        p = pi_operator(p, i)
    return p
