"""Sparse multivariate polynomials over the rationals, with Buchberger completion.

Variables are arbitrary mutually comparable hashable objects (the ideal module
uses (row, column) named tuples).  The monomial order is the pure
lexicographic extension of the variable order, larger variables dominating.
Pure lex doubles as an elimination order: a sentinel variable that compares
above everything else is eliminated by keeping the sentinel-free part of a
Groebner basis, which is how ideal intersections are computed here.

This is a desk-scale oracle: correctness over speed, hard caps instead of
clever strategies.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, ResourceLimitError

# Sentinel elimination variable; compares above every (row, column) unknown.
ELIM_VARIABLE = (float("inf"),)

# Most terms a nonzero S-pair remainder may have before buchberger gives up.
MAX_TERMS = 10_000

# Most S-pairs one buchberger run may process.
MAX_PAIRS = 50_000


class Monomial:
    """Product of variables with positive exponents.

    Stored as (variable, exponent) pairs with the largest variable first, so
    the pure-lex order is the tuple order of ``items``: the first differing
    pair decides, by variable and then by exponent, and a proper prefix is
    smaller.
    """

    __slots__ = ("items",)

    def __init__(self, items=()):
        merged = {}
        for var, exp in items:
            exp = int(exp)
            if exp < 0:
                raise InputError(f"negative exponent on {var!r}")
            if exp:
                merged[var] = merged.get(var, 0) + exp
        self.items = tuple(sorted(merged.items(), key=lambda p: p[0], reverse=True))

    @staticmethod
    def of(var, exp: int = 1) -> "Monomial":
        return Monomial(((var, exp),))

    def __hash__(self):
        return hash(self.items)

    def __eq__(self, other):
        return self.items == other.items

    def __lt__(self, other):
        return self.items < other.items

    def __gt__(self, other):
        return self.items > other.items

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.items)

    def variables(self) -> tuple:
        return tuple(v for v, _ in self.items)

    def exponent(self, var) -> int:
        for v, e in self.items:
            if v == var:
                return e
        return 0

    def __mul__(self, other):
        return Monomial(self.items + other.items)

    def divides(self, other) -> bool:
        exps = dict(other.items)
        return all(e <= exps.get(v, 0) for v, e in self.items)

    def __truediv__(self, other):
        exps = dict(self.items)
        for v, e in other.items:
            have = exps.get(v, 0)
            if have < e:
                raise InputError(f"{other!r} does not divide {self!r}")
            exps[v] = have - e
        return Monomial(exps.items())

    def lcm(self, other):
        exps = dict(self.items)
        for v, e in other.items:
            exps[v] = max(exps.get(v, 0), e)
        return Monomial(exps.items())

    def shares_variable(self, other) -> bool:
        mine = {v for v, _ in self.items}
        return any(v in mine for v, _ in other.items)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.items)

    def __repr__(self):
        if not self.items:
            return "1"
        return "*".join(f"{v}^{e}" if e > 1 else f"{v}" for v, e in self.items)


MONOMIAL_ONE = Monomial(())


def _add_scaled(out: dict, coeff, mono: Monomial, terms: dict) -> dict:
    """Add coeff * mono * terms into the term dict ``out`` in place, dropping cancelled terms."""
    for m, c in terms.items():
        if mono.items:
            m = m * mono
        s = out.get(m)
        s = c * coeff if s is None else s + c * coeff
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


class Polynomial:
    """Map from monomials to nonzero rational coefficients."""

    __slots__ = ("terms", "_lead")

    def __init__(self, terms=None):
        clean = {}
        for m, c in (terms or {}).items():
            c = Fraction(c)
            if c:
                clean[m] = c
        self.terms = clean
        self._lead = None

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def variable(var) -> "Polynomial":
        return Polynomial({Monomial.of(var): Fraction(1)})

    @staticmethod
    def constant(c) -> "Polynomial":
        return Polynomial({MONOMIAL_ONE: Fraction(c)})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        return self._wrap(_add_scaled(dict(self.terms), 1, MONOMIAL_ONE, other.terms))

    def __sub__(self, other):
        return self._wrap(_add_scaled(dict(self.terms), -1, MONOMIAL_ONE, other.terms))

    def __neg__(self):
        return self._wrap({m: -c for m, c in self.terms.items()})

    def term_mul(self, coeff, mono: Monomial) -> "Polynomial":
        coeff = Fraction(coeff)
        if not coeff:
            return Polynomial()
        return self._wrap(_add_scaled({}, coeff, mono, self.terms))

    def __mul__(self, other):
        out = {}
        for m, c in self.terms.items():
            _add_scaled(out, c, m, other.terms)
        return self._wrap(out)

    @staticmethod
    def _wrap(clean_terms) -> "Polynomial":
        poly = Polynomial.__new__(Polynomial)
        poly.terms = clean_terms
        poly._lead = None
        return poly

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise InputError("zero polynomial has no leading monomial")
        if self._lead is None:
            self._lead = max(self.terms)
        return self._lead

    def leading_coeff(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coeff()
        if lc == 1:
            return self
        return self._wrap({m: c / lc for m, c in self.terms.items()})

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda t: t[0], reverse=True)

    def uses_variable(self, var) -> bool:
        return any(m.exponent(var) for m in self.terms)

    def num_terms(self) -> int:
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            parts.append(f"{c}*{m!r}" if m.items else f"{c}")
        return " + ".join(parts)


def reduce(f: Polynomial, basis) -> Polynomial:
    """Full normal form of f modulo the basis (multivariate division remainder).

    No term of the result is divisible by any basis leading monomial, and
    f minus the result lies in the ideal generated by the basis.  The division
    scans basis elements in the given order, so the result is deterministic.
    """
    divisors = [(g.leading_monomial(), g.leading_coeff(), g.terms) for g in basis if g]
    p = dict(f.terms)
    remainder = {}
    while p:
        lm = max(p)
        lc = p[lm]
        for glm, glc, gterms in divisors:
            if glm.divides(lm):
                _add_scaled(p, -lc / glc, lm / glm, gterms)
                break
        else:
            remainder[lm] = p.pop(lm)
    return Polynomial._wrap(remainder)


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """Cancel the leading terms of f and g against their lcm."""
    if not f or not g:
        raise InputError("S-polynomial of a zero polynomial")
    lcm_m = f.leading_monomial().lcm(g.leading_monomial())
    tf = f.term_mul(Fraction(1) / f.leading_coeff(), lcm_m / f.leading_monomial())
    tg = g.term_mul(Fraction(1) / g.leading_coeff(), lcm_m / g.leading_monomial())
    return tf - tg


def _s_remainder(f: Polynomial, g: Polynomial, basis):
    """The S-polynomial of f and g reduced modulo ``basis``, or None when their
    leading monomials are coprime (Buchberger's first criterion: that
    S-polynomial always reduces to zero)."""
    if not f.leading_monomial().shares_variable(g.leading_monomial()):
        return None
    return reduce(s_polynomial(f, g), basis)


def interreduce(polys) -> list:
    """Turn a Groebner basis into the reduced Groebner basis for the order.

    Sorted by leading monomial, an element is dropped when the leading monomial
    of a kept element divides its own; divisors sort first, so this leaves a
    minimal basis.  Reducing each kept element by the others moves no leading
    monomial, so one pass gives the reduced basis.
    """
    basis = sorted({g.monic() for g in polys if g}, key=lambda p: p.leading_monomial())
    minimal = []
    for g in basis:
        lm = g.leading_monomial()
        if not any(h.leading_monomial().divides(lm) for h in minimal):
            minimal.append(g)
    return [reduce(g, minimal[:i] + minimal[i + 1:]) for i, g in enumerate(minimal)]


def buchberger(gens) -> list:
    """The reduced Groebner basis of the ideal generated by ``gens``.

    S-pairs are processed lowest lcm degree first with ties broken by the
    monomial order, so runs are reproducible.  Pairs with coprime leading
    monomials are skipped (their S-polynomials always reduce to zero).
    Raises ResourceLimitError after MAX_PAIRS S-pairs, or when a nonzero
    S-pair remainder has more than MAX_TERMS terms.
    """
    basis = list(dict.fromkeys(g.monic() for g in gens if g))
    heap = []

    def push_pairs(k):
        lk = basis[k].leading_monomial()
        for i in range(k):
            lcm_m = basis[i].leading_monomial().lcm(lk)
            heapq.heappush(heap, (lcm_m.degree, lcm_m, i, k))

    for k in range(len(basis)):
        push_pairs(k)
    processed = 0
    while heap:
        _, _, i, j = heapq.heappop(heap)
        processed += 1
        if processed > MAX_PAIRS:
            raise ResourceLimitError(
                f"S-pair cap {MAX_PAIRS} exceeded with basis size {len(basis)}"
            )
        r = _s_remainder(basis[i], basis[j], basis)
        if r:
            if r.num_terms() > MAX_TERMS:
                raise ResourceLimitError(
                    f"polynomial support cap {MAX_TERMS} exceeded ({r.num_terms()} terms)"
                )
            basis.append(r.monic())
            push_pairs(len(basis) - 1)
    return interreduce(basis)


def buchberger_criterion(basis) -> bool:
    """Whether the basis is a Groebner basis: every S-pair whose leading
    monomials share a variable reduces to zero modulo the basis.

    This is the verdict of testing every pair.  A coprime pair always has a
    standard representation, so the other pairs decide (Cox-Little-O'Shea,
    Ideals, Varieties, and Algorithms, section 2.9); and modulo a Groebner
    basis every S-polynomial reduces to zero.
    """
    basis = [g for g in basis if g]
    return not any(_s_remainder(f, g, basis) for f, g in itertools.combinations(basis, 2))


def ideal_membership(f: Polynomial, gb, verify: bool = False) -> bool:
    """Whether f reduces to zero modulo a Groebner basis.

    The caller is responsible for ``gb`` being a Groebner basis; pass
    ``verify=True`` to have that contract checked (and violated contracts
    raise InputError).
    """
    if verify and not buchberger_criterion(gb):
        raise InputError("basis does not satisfy the Buchberger criterion")
    return not reduce(f, gb)


class Bidegree(NamedTuple):
    """Row- and column-degree vectors of a monomial, as sorted item tuples."""

    rows: tuple
    cols: tuple


def bidegree(m: Monomial) -> Bidegree:
    """Degrees of a monomial in the row and column gradings.

    Every variable must be a (row, column) pair; each occurrence contributes
    its exponent to both its row and its column count.
    """
    rows = Counter()
    cols = Counter()
    for var, e in m.items:
        if not (isinstance(var, tuple) and len(var) == 2):
            raise InputError(f"variable {var!r} carries no (row, column) bidegree")
        rows[var[0]] += e
        cols[var[1]] += e
    return Bidegree(tuple(sorted(rows.items())), tuple(sorted(cols.items())))


def is_bihomogeneous(poly: Polynomial) -> bool:
    """Whether all terms of the polynomial share one bidegree."""
    degrees = {bidegree(m) for m in poly.terms}
    return len(degrees) <= 1


def elimination_intersection(gens_a, gens_b) -> list:
    """Generators of the intersection of two ideals, via a fresh sentinel variable.

    Computes a Groebner basis of t*A + (1-t)*B and keeps the t-free part,
    which is the reduced Groebner basis of the intersection.
    """
    t = Polynomial.variable(ELIM_VARIABLE)
    one_minus_t = Polynomial.constant(1) - t
    mixed = [t * f for f in gens_a if f] + [one_minus_t * g for g in gens_b if g]
    gb = buchberger(mixed)
    return [g for g in gb if not g.uses_variable(ELIM_VARIABLE)]


def intersect_ideals(gens_list) -> list:
    """Reduced Groebner basis of the intersection of finitely many ideals."""
    gens_list = list(gens_list)
    if not gens_list:
        raise InputError("need at least one ideal to intersect")
    acc = buchberger(gens_list[0])
    for gens in gens_list[1:]:
        acc = elimination_intersection(acc, gens)
    return acc
