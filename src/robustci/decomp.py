"""Components of the primary decomposition of the edge ideal, and its verification.

Each admissible support set Y contributes a prime component: the unknowns of
the columns outside Y vanish, and within each connected component of the
induced subgraph on Y all 2x2 minors vanish.  Admissibility is the same
predicate as maximality of the robustness structure on Y.  Both verifiers take
the maximal structures from one enumeration and check the decomposition at
three levels: pairwise non-containment of the components, ideal membership of
the edge generators in every component (read off the blocks, so only the
last level builds polynomials), and (on tiny instances) exact equality of the
elimination-computed intersection with the reduced Groebner basis of the edge
ideal.  The variety-cover check samples integer matrices.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .errors import InputError, ResourceLimitError
from .graph import InputGraph, RobustnessStructure, components_of, enumerate_maximal_structures
from .ideal import EdgeBinomial, Unknown, check_output_letters, edge_generators
from .model import blocks_proportional, format_fraction, vectors_proportional
from .polyengine import Polynomial, buchberger, intersect_ideals

# Vertex caps of the union check and leg (c); trial and d0 caps of the union check.
UNION_CAP = 12
INTERSECTION_MAX_VERTICES = 3
TRIALS_CAP = 10_000
D0_CAP = 20


def component_ideal(structure: RobustnessStructure, d0: int) -> list:
    """Generators of the prime component attached to the support Y.

    The vanishing unknowns of the columns off Y come first, then all 2x2
    minors within each block.
    """
    support = structure.support
    configs = structure.space.configs()
    if not support <= set(configs):
        raise InputError("support is not a subset of the configuration set")
    rows = range(1, d0 + 1)
    unknowns = [Polynomial.variable(Unknown(i, x)) for x in configs if x not in support for i in rows]
    return unknowns + [
        EdgeBinomial.make(i, j, x, y).polynomial()
        for block in structure.blocks
        for x, y in itertools.combinations(block, 2)
        for i, j in itertools.combinations(rows, 2)
    ]


def admissible_sets(graph: InputGraph) -> list:
    """The maximal structures, canonically ordered by sorted support.

    Admissibility of a support is maximality of the structure on it, so the
    supports of these structures are the admissible sets.
    """
    return sorted(enumerate_maximal_structures(graph), key=lambda s: sorted(s.support))


def containment(outer: RobustnessStructure, inner: RobustnessStructure) -> bool:
    """Whether the component variety of ``outer`` contains that of ``inner``.

    True iff the inner support lies in the outer one and no two inner blocks
    lie in the same outer block.  Both structures must come from one graph:
    then each inner block is connected inside the outer support, so it lies
    in exactly one outer block.
    """
    if not inner.support <= outer.support:
        return False
    index = outer.block_index()
    return len({index[block[0]] for block in inner.blocks}) == len(inner.blocks)


@dataclass(frozen=True)
class MatrixPoint:
    """A d0 x |configs| matrix of ints or Fractions, stored column-wise."""

    d0: int
    columns: dict

    def column(self, x) -> tuple:
        return self.columns.get(x, (0,) * self.d0)

    def support(self) -> frozenset:
        return frozenset(x for x, col in self.columns.items() if any(col))


def point_in_VGY(point: MatrixPoint, structure: RobustnessStructure) -> bool:
    """Columns vanish off the support and are proportional within each block."""
    support = structure.support
    for x in structure.space.configs():
        if x not in support and any(point.column(x)):
            return False
    return blocks_proportional(point.column, structure.blocks)


def point_in_VG(point: MatrixPoint, graph: InputGraph) -> bool:
    """Columns are proportional across every edge (all edge minors vanish)."""
    for u, v in graph.edge_list():
        if not vectors_proportional(point.column(u), point.column(v)):
            return False
    return True


def sample_point_in_VGY(structure: RobustnessStructure, d0: int, rng: random.Random) -> MatrixPoint:
    """A random point of the component variety with support exactly Y.

    Per block one random nonzero direction, per column a random nonzero
    scalar; zero columns fill the complement.
    """
    columns = {}
    for block in structure.blocks:
        direction = None
        while direction is None or not any(direction):
            direction = tuple(rng.randint(-3, 3) for _ in range(d0))
        for x in block:
            scalar = rng.choice([-1, 1]) * rng.randint(1, 5)
            columns[x] = tuple(scalar * v for v in direction)
    return MatrixPoint(d0, columns)


def random_matrix_point(graph: InputGraph, d0: int, rng: random.Random) -> MatrixPoint:
    columns = {
        x: tuple(rng.randint(-3, 3) for _ in range(d0))
        for x in graph.vertices
    }
    return MatrixPoint(d0, columns)


def check_union_size(num_vertices: int, d0: int, trials: int) -> None:
    """Raise the first fault of a union check: d0 < 2, then d0, vertices or trials over their caps."""
    check_output_letters(d0)
    if d0 > D0_CAP:
        raise ResourceLimitError(f"{d0} output letters exceed the output-letter cap of {D0_CAP}")
    if num_vertices > UNION_CAP:
        raise ResourceLimitError(f"{num_vertices} vertices exceed the verification cap of {UNION_CAP}")
    if trials > TRIALS_CAP:
        raise ResourceLimitError(f"{trials} trials exceed the trial cap of {TRIALS_CAP}")


def verify_union_decomposition(graph: InputGraph, admissible, d0: int, trials: int, seed) -> dict:
    """Seeded check that the variety is covered by the components of ``admissible``.

    Each trial samples either a structured point (on a random support, built
    proportional per component) or a fully random matrix, then asserts that
    membership in the variety is equivalent to membership in some admissible
    component, and that variety points lie in the component of their own
    support.  The report lists counterexamples; an empty list means pass.
    """
    check_union_size(len(graph.vertices), d0, trials)
    counterexamples = []
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        structured = rng.random() < 0.7
        if structured:
            support = frozenset(v for v in graph.vertices if rng.random() < 0.6)
            point = sample_point_in_VGY(components_of(graph, support), d0, rng)
        else:
            point = random_matrix_point(graph, d0, rng)
        in_variety = point_in_VG(point, graph)
        covered = any(point_in_VGY(point, y) for y in admissible)
        if in_variety != covered:
            counterexamples.append({
                "trial": t,
                "kind": "cover",
                "in_variety": in_variety,
                "covered": covered,
                "columns": _point_json(point, graph),
            })
        if in_variety and not point_in_VGY(point, components_of(graph, point.support())):
            counterexamples.append({
                "trial": t,
                "kind": "own-support",
                "columns": _point_json(point, graph),
            })
    return {
        "trials": trials,
        "admissible_count": len(admissible),
        "counterexamples": counterexamples,
        "ok": not counterexamples,
    }


def _point_json(point: MatrixPoint, graph: InputGraph) -> list:
    return [
        {"x": list(x), "column": [format_fraction(v) for v in point.column(x)]}
        for x in graph.vertices
    ]


def verify_primary_decomposition(graph: InputGraph, admissible, d0: int) -> dict:
    """Three-legged verification of the decomposition indexed by ``admissible``.

    (a) admissible components are pairwise non-containing;
    (b) every edge generator lies in every admissible component;
    (c) on instances with at most INTERSECTION_MAX_VERTICES vertices and
        d0 = 2, the elimination-computed intersection of the component ideals
        equals the reduced Groebner basis of the edge ideal ("skipped"
        otherwise).

    Leg (b) builds no polynomial.  An edge minor on columns u, v lies in P_Y
    iff (1) u or v is off Y: each term holds an off-support unknown, a
    generator; or (2) u and v share a block: the minor is a generator.  (3) In
    different blocks, no term is divisible by a leading monomial of P_Y's
    generators, its reduced Groebner basis (Sturmfels, Math. Z. 205, 1990; the
    primes P_S of Herzog-Hibi-Hreinsdottir-Kahle-Rauh, Adv. Appl. Math. 45,
    2010), so the minor is its own nonzero normal form.  Structures from
    ``admissible_sets`` are the components of the graph on their support, so
    no edge joins two of their blocks: the leg guards lists that library
    callers pass in.  polyengine.MAX_PAIRS and MAX_TERMS bound only leg (c).
    """
    check_output_letters(d0)
    counterexamples = []

    non_containment = True
    for a in admissible:
        for b in admissible:
            if a != b and containment(a, b):
                non_containment = False
                counterexamples.append({
                    "leg": "non_containment",
                    "outer": [list(x) for x in sorted(a.support)],
                    "inner": [list(x) for x in sorted(b.support)],
                })

    membership = True
    for y in admissible:
        if not y.support <= set(y.space.configs()):
            raise InputError("support is not a subset of the configuration set")
        index = y.block_index()
        if any(u in index and v in index and index[u] != index[v] for u, v in graph.edge_list()):
            membership = False
            counterexamples.append({
                "leg": "membership",
                "support": [list(x) for x in sorted(y.support)],
            })

    if len(graph.vertices) <= INTERSECTION_MAX_VERTICES and d0 == 2:
        edge_gens = [g.polynomial() for g in edge_generators(graph, d0)]
        intersection = intersect_ideals([component_ideal(y, d0) for y in admissible])
        target = buchberger(edge_gens)
        intersection_equality = set(intersection) == set(target)
        if intersection_equality is False:
            counterexamples.append({"leg": "intersection_equality"})
    else:
        intersection_equality = "skipped"

    return {
        "admissible_Y": [[list(x) for x in sorted(y.support)] for y in admissible],
        "legs": {
            "non_containment": non_containment,
            "membership": membership,
            "intersection_equality": intersection_equality,
        },
        "counterexamples": counterexamples,
    }
