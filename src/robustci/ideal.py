"""Generalized binomial edge ideals and their combinatorial Groebner basis.

For a graph on totally ordered vertices and an output alphabet of size d0, the
ideal is generated by the 2x2 minors

    f[i,j; x,y] = p[i,x]*p[j,y] - p[i,y]*p[j,x]

taken over edges (x, y) and row pairs i < j.  The reduced Groebner basis for
the pure-lex order (rows dominate, then columns) is indexed by admissible
paths together with strictly antitone row labelings; this module enumerates
those objects and builds the basis, while :mod:`robustci.polyengine` provides
the generic Buchberger machinery used to cross-check it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InputError, ResourceLimitError
from .graph import InputGraph
from .model import format_fraction
from .polyengine import ELIM_VARIABLE, Monomial, Polynomial

# Most vertices groebner_set accepts.
BASIS_CAP = 12


class Unknown(NamedTuple):
    """The unknown p[row, column]; tuple comparison gives the variable order.

    p[i,x] > p[j,y] iff i > j, or i = j and x > y.
    """

    row: int
    col: tuple


class EdgeBinomial(NamedTuple):
    """The minor p[i,x]p[j,y] - p[i,y]p[j,x], canonically with i < j and x < y."""

    i: int
    j: int
    x: tuple
    y: tuple

    @staticmethod
    def make(i, j, x, y) -> "EdgeBinomial":
        if i == j or x == y:
            raise InputError("degenerate minor")
        if i > j:
            i, j = j, i
        if x > y:
            x, y = y, x
        return EdgeBinomial(i, j, x, y)

    def polynomial(self) -> Polynomial:
        lead = Monomial(((Unknown(self.i, self.x), 1), (Unknown(self.j, self.y), 1)))
        trail = Monomial(((Unknown(self.i, self.y), 1), (Unknown(self.j, self.x), 1)))
        return Polynomial({lead: Fraction(1), trail: Fraction(-1)})


def edge_generators(graph: InputGraph, d0: int) -> list:
    """One canonical minor per (edge, row pair); count is |edges| * C(d0, 2)."""
    check_output_letters(d0)
    out = []
    for x, y in graph.edge_list():
        for i in range(1, d0 + 1):
            for j in range(i + 1, d0 + 1):
                out.append(EdgeBinomial.make(i, j, x, y))
    out.sort(key=lambda b: (b.x, b.y, b.i, b.j))
    return out


def _first_chord(graph: InputGraph, path):
    """Positions a < b - 1 of the first chord of ``path``; None if it has none."""
    for a in range(len(path) - 2):
        for b in range(a + 2, len(path)):
            if graph.has_edge(path[a], path[b]):
                return a, b
    return None


def enumerate_admissible_paths(graph: InputGraph, x, y) -> list:
    """All admissible paths from x to y (requires x < y in the vertex order).

    Admissible means: injective, every interior vertex below x or above y, and
    no ordered proper subsequence of the interior is itself an x-y path.  Such
    a subsequence exists exactly when the path has a chord, an edge between
    two non-consecutive vertices, so the search never steps to a vertex
    adjacent to a path vertex other than the last one.
    """
    if not x < y:
        raise InputError("admissible paths require x < y in the canonical order")
    found = []

    def walk(path, blocked):
        nbrs = graph.neighbors(path[-1])
        ahead = blocked.union(nbrs)
        for w in nbrs:
            if w in blocked:
                continue
            if w == y:
                found.append(path + (y,))
            elif w < x or w > y:
                walk(path + (w,), ahead)

    # blocked: the path and the neighbours of every path vertex but the last
    walk((x,), {x})
    found.sort(key=lambda p: (len(p), p))
    return found


def _antitone_violations(path, labels, include_endpoints: bool):
    first = 0 if include_endpoints else 1
    last = len(path) - 1
    for s in range(first, last + 1):
        for t in range(s + 1, last + 1):
            if path[s] < path[t] and labels[s] < labels[t]:
                yield (s, t)
            elif path[t] < path[s] and labels[t] < labels[s]:
                yield (s, t)


def enumerate_strict_antitone(path, d0: int, include_endpoints: bool = True) -> list:
    """All row labelings that weakly reverse the vertex order along the path and
    strictly drop from the first to the last position.

    ``include_endpoints=False`` restricts the order constraints to positions
    1..r as in the literal reading; the endpoint-inclusive default is the
    variant that produces a reduced basis.
    """
    r = len(path) - 1
    out = []
    for labels in itertools.product(range(1, d0 + 1), repeat=r + 1):
        if labels[0] <= labels[r]:
            continue
        if next(_antitone_violations(path, labels, include_endpoints), None) is None:
            out.append(labels)
    return out


def path_monomial(path, labels, include_endpoints: bool = False) -> Monomial:
    """Product of the labelled unknowns along a walk (interior only by default)."""
    first, last = (0, len(path)) if include_endpoints else (1, len(path) - 1)
    return Monomial(
        ((Unknown(labels[k], path[k]), 1) for k in range(first, last))
    )


def element_polynomial(path, labels) -> Polynomial:
    """The basis element: interior monomial times the endpoint minor."""
    factor = path_monomial(path, labels)
    minor = EdgeBinomial.make(labels[-1], labels[0], path[0], path[-1]).polynomial()
    return minor.term_mul(Fraction(1), factor)


@dataclass(frozen=True)
class GroebnerElement:
    """An admissible path, a strictly antitone labeling, and their polynomial."""

    path: tuple
    labels: tuple
    polynomial: Polynomial


def check_output_letters(d0: int) -> None:
    """Raise InputError unless there are at least two output letters."""
    if d0 < 2:
        raise InputError(f"need at least two output letters, got {d0}")


def check_basis_size(num_vertices: int, d0: int) -> None:
    """Raise the first fault of a basis request: d0 < 2, then too many vertices."""
    check_output_letters(d0)
    if num_vertices > BASIS_CAP:
        raise ResourceLimitError(f"{num_vertices} vertices exceed the basis enumeration cap of {BASIS_CAP}")


def groebner_set(graph: InputGraph, d0: int, include_endpoints: bool = True) -> list:
    """The combinatorial Groebner basis of the edge ideal, canonically ordered.

    Elements are indexed by vertex pairs x < y, admissible x-y paths, and
    strictly antitone labelings; duplicates (distinct indexings of one
    polynomial) are removed.
    """
    check_basis_size(len(graph.vertices), d0)
    elements = []
    for x, y in itertools.combinations(graph.vertices, 2):
        for path in enumerate_admissible_paths(graph, x, y):
            for labels in enumerate_strict_antitone(path, d0, include_endpoints):
                elements.append(GroebnerElement(path, labels, element_polynomial(path, labels)))
    elements.sort(key=lambda e: (e.path[0], e.path[-1], len(e.path), e.path, e.labels))
    out = []
    seen = set()
    for e in elements:
        if e.polynomial not in seen:
            seen.add(e.polynomial)
            out.append(e)
    return out


def _polynomials(basis) -> list:
    return [e.polynomial if isinstance(e, GroebnerElement) else e for e in basis]


def is_reduced(basis) -> bool:
    """Whether the basis is reduced: monic elements, and no initial term divides
    any term of any other element."""
    polys = _polynomials(basis)
    for p in polys:
        if p and p.leading_coeff() != 1:
            return False
    for a, p in enumerate(polys):
        if not p:
            continue
        lead = p.leading_monomial()
        for b, q in enumerate(polys):
            if a == b:
                continue
            if any(lead.divides(m) for m in q.terms):
                return False
    return True


def find_reduction_witness(graph: InputGraph, path, labels):
    """A basis element whose initial term divides the labelled walk monomial.

    ``path`` may be any walk; ``labels`` any row labeling.  Returns None iff
    the labeling is antitone along the walk (endpoints included).  Otherwise
    the returned element's initial monomial divides the endpoint-inclusive
    monomial ``path_monomial(path, labels, include_endpoints=True)``; it is
    found by splicing a minimal order-violating window at chords until it is an
    admissible path, and swapping the endpoint labels.  The minimal window has
    no other violating pair, so its interior stays outside [x, y] and its
    labels stay antitone.
    """
    path = tuple(tuple(v) for v in path)
    labels = tuple(labels)
    if len(labels) != len(path):
        raise InputError("one label per walk position required")
    bad = list(_antitone_violations(path, labels, include_endpoints=True))
    if not bad:
        return None
    s, t = min(bad, key=lambda pair: (pair[1] - pair[0], pair[0]))
    window = list(path[s:t + 1])
    wlabels = list(labels[s:t + 1])

    # Splice out revisits so the window is injective.  The labelled-walk
    # monomial contains every occurrence, so any occurrence's label keeps the
    # divisibility; the endpoint positions must keep the endpoint labels,
    # because those carry the order violation.
    changed = True
    while changed:
        changed = False
        seen = {}
        for k, v in enumerate(window):
            if v in seen:
                k0 = seen[v]
                if k == len(window) - 1:
                    wlabels[k0] = wlabels[k]
                del window[k0 + 1:k + 1]
                del wlabels[k0 + 1:k + 1]
                changed = True
                break
            seen[v] = k

    if window[0] > window[-1]:
        window.reverse()
        wlabels.reverse()

    # splice at chords until the path is chordless, i.e. admissible
    while (chord := _first_chord(graph, window)) is not None:
        a, b = chord
        del window[a + 1:b], wlabels[a + 1:b]

    swapped = [wlabels[-1], *wlabels[1:-1], wlabels[0]]
    return GroebnerElement(
        tuple(window), tuple(swapped), element_polynomial(window, swapped)
    )


# ---------------------------------------------------------------------------
# Export formats.

def format_unknown(var) -> str:
    if var == ELIM_VARIABLE:
        return "t"
    row, col = var
    return f"p[{row};{','.join(str(c) for c in col)}]"


def format_monomial(m: Monomial) -> str:
    if not m.items:
        return "1"
    parts = []
    for var, e in m.items:
        text = format_unknown(var)
        parts.append(f"{text}^{e}" if e > 1 else text)
    return "*".join(parts)


def format_polynomial(poly: Polynomial) -> str:
    if not poly:
        return "0"
    pieces = []
    for idx, (m, c) in enumerate(poly.sorted_terms()):
        mag = abs(c)
        if not m.items:
            body = format_fraction(mag)
        elif mag == 1:
            body = format_monomial(m)
        else:
            body = f"{format_fraction(mag)}*{format_monomial(m)}"
        if idx == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)


def polynomial_to_json(poly: Polynomial) -> dict:
    terms = []
    for m, c in poly.sorted_terms():
        monomial = [
            {"row": var[0], "col": list(var[1]), "exp": e}
            for var, e in m.items
        ]
        terms.append({"coeff": format_fraction(c), "monomial": monomial})
    return {"terms": terms}


def basis_to_json(basis) -> dict:
    return {"elements": [polynomial_to_json(p) for p in _polynomials(basis)]}


def basis_to_text(basis) -> str:
    return "\n".join(format_polynomial(p) for p in _polynomials(basis))
