"""Key polynomials (Demazure characters) and their cross-checking oracles.

Three routes to the same polynomial:

* build the tableaux of the shape right to left, scanning each column
  suffix whose entries are large enough to exceed the key of the
  composition w . mu, and dropping every suffix whose right-key column
  does;
* filter all semistandard tableaux of the shape by their jeu de taquin
  right key, the unpruned reference;
* the isobaric divided-difference recursion along a reduced word of w.

All arithmetic is exact integer arithmetic on sparse exponent maps.
"""

from __future__ import annotations

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
    n = len(parts)
    cols = tuple(
        tuple(i for i in range(1, n + 1) if parts[i - 1] >= j)
        for j in range(1, max(parts) + 1)
    )
    return Tableau(cols, n)


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
    key = key_of_composition(parts)
    weights: Counter = Counter()
    if engine == "scan":
        k = len(key.columns)
        _extend(k - 1, [()] * k, key.columns, [0] * n, weights, 0,
                scanning._kernel.scan_columns, {})
    else:
        # Imported here: only the oracle engine runs jeu de taquin.
        from . import jdt

        weights.update(
            t.weight()
            for t in enumerate_tableaux(key.shape, n)
            if entrywise_leq(jdt.right_key_oracle(t), key)
        )
    return SparsePolynomial(n, dict(weights))


# Module level rather than a closure: a closure that calls itself is a
# reference cycle, which would keep ``weights`` alive until the next
# garbage collection and raise the peak memory of repeated calls.
def _extend(i, cols, bound, weight, weights, top, scan_columns, candidates):
    """Count in ``weights`` the weight of every tableau T of the shape of
    the key ``bound`` with K+(T) <= bound whose columns after i are
    ``cols[i + 1:]``; ``weight`` holds the weight of those columns and
    ``top`` their largest entry (0 when there are none).

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

    The candidates for column i depend only on ``upper``, so they are
    built once per ``upper`` and kept in ``candidates`` for the call.
    """
    b = bound[i]
    right = cols[i + 1] if i + 1 < len(cols) else ()
    upper = tuple(map(min, right, b)) + b[len(right):]
    column_list = candidates.get(upper)
    if column_list is None:
        column_list = candidates[upper] = _columns_of_length(len(b), len(weight), (), upper)
    unscanned = b[0] + len(b) - 1
    for col in column_list:
        cols[i] = col
        m = max(top, col[-1])
        if m > unscanned and any(map(gt, scan_columns(cols[i:], (0,))[0], b)):
            continue
        for e in col:
            weight[e - 1] += 1
        if i:
            _extend(i - 1, cols, bound, weight, weights, m, scan_columns, candidates)
        else:
            weights[tuple(weight)] += 1
        for e in col:
            weight[e - 1] -= 1


def demazure_by_operators(mu, w, n: int, pick_last: bool = False) -> SparsePolynomial:
    """Divided-difference route: apply pi operators along a reduced word
    of w to the monomial x^mu.  Independent of the chosen reduced word."""
    w = _check_permutation(w, n)
    mu = _check_partition(mu, n)
    p = SparsePolynomial.monomial(mu + (0,) * (n - len(mu)))
    for i in reduced_word(w, pick_last):
        p = pi_operator(p, i)
    return p
