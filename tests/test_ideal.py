import itertools
import random

import pytest

from robustci import InputError, ResourceLimitError, StateSpace
from robustci.graph import InputGraph, build_graph
from robustci.model import make_uniform_spec
from robustci.ideal import (
    EdgeBinomial,
    Unknown,
    basis_to_json,
    basis_to_text,
    edge_generators,
    element_polynomial,
    enumerate_admissible_paths,
    enumerate_strict_antitone,
    find_reduction_witness,
    format_polynomial,
    groebner_set,
    is_reduced,
    path_monomial,
)
from robustci.polyengine import buchberger, buchberger_criterion


def line_graph(m, edges):
    """Graph on vertices (1,),...,(m,) with the given integer edge pairs."""
    space = StateSpace(2, (m,))
    return InputGraph(space, [((a,), (b,)) for a, b in edges])


def v(*ints):
    return tuple((i,) for i in ints)


THREE_VERTEX = line_graph(3, [(1, 3), (2, 3)])
TRIANGLE = line_graph(3, [(1, 2), (1, 3), (2, 3)])


class TestEdgeGenerators:
    def test_counts(self):
        single = line_graph(2, [(1, 2)])
        assert len(edge_generators(single, 2)) == 1
        assert len(edge_generators(single, 3)) == 3
        cube_space = StateSpace(2, (2, 2, 2))
        cube = build_graph(make_uniform_spec(2, cube_space), cube_space)
        assert len(edge_generators(cube, 2)) == 12

    def test_canonical_form(self):
        b = EdgeBinomial.make(2, 1, (3,), (1,))
        assert (b.i, b.j, b.x, b.y) == (1, 2, (1,), (3,))
        poly = b.polynomial()
        assert poly.leading_monomial().variables() == (Unknown(2, (3,)), Unknown(1, (1,)))

    def test_d0_lower_bound(self):
        with pytest.raises(InputError):
            edge_generators(TRIANGLE, 1)


class TestAdmissiblePaths:
    def test_triangle_only_direct_edges(self):
        for x, y in itertools.combinations(TRIANGLE.vertices, 2):
            assert enumerate_admissible_paths(TRIANGLE, x, y) == [(x, y)]

    def test_detour_over_large_vertex(self):
        paths = enumerate_admissible_paths(THREE_VERTEX, (1,), (2,))
        assert paths == [v(1, 3, 2)]

    def test_single_edge(self):
        g = line_graph(2, [(1, 2)])
        assert enumerate_admissible_paths(g, (1,), (2,)) == [v(1, 2)]

    def test_requires_x_below_y(self):
        with pytest.raises(InputError):
            enumerate_admissible_paths(THREE_VERTEX, (3,), (1,))

    def test_interior_between_endpoints_excluded(self):
        g = line_graph(3, [(1, 2), (2, 3)])
        # the only 1-3 walk passes through 2, which is between the endpoints
        assert enumerate_admissible_paths(g, (1,), (3,)) == []

    def test_matches_exhaustive_filter(self):
        # independent oracle: enumerate all injective paths, then apply the
        # definition's three conditions literally
        rng = random.Random(4)
        shapes = [(m, density) for m in (5, 6, 7) for density in (0.0, 1.0)]
        shapes += [(rng.randint(2, 7), rng.random()) for _ in range(80)]
        for m, density in shapes:
            pairs = list(itertools.combinations(range(1, m + 1), 2))
            edges = [p for p in pairs if rng.random() < density]
            g = line_graph(m, edges)

            def all_paths(x, y):
                found = []

                def extend(path):
                    last = path[-1]
                    for w in g.vertices:
                        if w in path or not g.has_edge(last, w):
                            continue
                        if w == y:
                            found.append(path + (w,))
                        else:
                            extend(path + (w,))

                extend((x,))
                return found

            for x, y in itertools.combinations(g.vertices, 2):
                expected = []
                for path in all_paths(x, y):
                    interior = path[1:-1]
                    if any(not (u < x or u > y) for u in interior):
                        continue
                    shortcut = False
                    for size in range(len(interior)):
                        for keep in itertools.combinations(interior, size):
                            seq = (x, *keep, y)
                            if all(
                                g.has_edge(seq[a], seq[a + 1])
                                for a in range(len(seq) - 1)
                            ):
                                shortcut = True
                    if not shortcut:
                        expected.append(path)
                expected.sort(key=lambda p: (len(p), p))
                assert enumerate_admissible_paths(g, x, y) == expected


class TestAntitoneLabelings:
    def test_single_edge_d2(self):
        assert enumerate_strict_antitone(v(1, 2), 2) == [(2, 1)]

    def test_single_edge_d3(self):
        assert enumerate_strict_antitone(v(1, 2), 3) == [(2, 1), (3, 1), (3, 2)]

    def test_detour_path_inclusive(self):
        assert enumerate_strict_antitone(v(1, 3, 2), 2) == [(2, 1, 1)]

    def test_endpoint_range_difference(self):
        # interior vertex below both endpoints: the literal range leaves its
        # label unconstrained, the inclusive range pins it
        path = v(2, 1, 3)
        inclusive = enumerate_strict_antitone(path, 2, include_endpoints=True)
        literal = enumerate_strict_antitone(path, 2, include_endpoints=False)
        assert inclusive == [(2, 2, 1)]
        assert literal == [(2, 1, 1), (2, 2, 1)]


class TestGroebnerSet:
    def test_single_edge(self):
        g = line_graph(2, [(1, 2)])
        basis = groebner_set(g, 2)
        assert len(basis) == 1
        assert basis[0].polynomial == EdgeBinomial.make(1, 2, (1,), (2,)).polynomial()

    def test_three_vertex_example(self):
        basis = groebner_set(THREE_VERTEX, 2)
        assert len(basis) == 3
        degree_three = [e for e in basis if e.polynomial.leading_monomial().degree == 3]
        assert len(degree_three) == 1
        element = degree_three[0]
        assert element.path == v(1, 3, 2)
        assert element.labels == (2, 1, 1)

    def test_triangle_only_edge_binomials(self):
        basis = groebner_set(TRIANGLE, 2)
        assert {e.polynomial for e in basis} == {
            b.polynomial() for b in edge_generators(TRIANGLE, 2)
        }

    def test_literal_variant_fails_reducedness(self):
        g = line_graph(3, [(1, 2), (1, 3)])
        inclusive = groebner_set(g, 2, include_endpoints=True)
        literal = groebner_set(g, 2, include_endpoints=False)
        assert is_reduced(inclusive)
        assert not is_reduced(literal)
        assert buchberger_criterion([e.polynomial for e in literal])

    def test_vertex_cap(self):
        space = StateSpace(2, (2, 2, 2, 2))
        g = build_graph(make_uniform_spec(1, space), space)
        with pytest.raises(ResourceLimitError, match="16 vertices exceed the basis enumeration cap of 12$"):
            groebner_set(g, 2)

    def test_edge_generators_reduce_to_zero(self):
        from robustci.polyengine import reduce as poly_reduce

        for g, d0 in [(THREE_VERTEX, 2), (TRIANGLE, 3), (line_graph(4, [(1, 2), (2, 4), (1, 3), (3, 4)]), 2)]:
            basis = [e.polynomial for e in groebner_set(g, d0)]
            for gen in edge_generators(g, d0):
                assert not poly_reduce(gen.polynomial(), basis)

    def test_classical_counts_on_paths_and_complete_graphs(self):
        # with vertices in path order, detours always pass between the
        # endpoints, so the basis is exactly the edge binomials; complete
        # graphs kill every detour through the shortcut condition
        for m in (3, 4, 5):
            path = line_graph(m, [(a, a + 1) for a in range(1, m)])
            assert len(groebner_set(path, 2)) == m - 1
            complete = line_graph(m, list(itertools.combinations(range(1, m + 1), 2)))
            assert len(groebner_set(complete, 2)) == m * (m - 1) // 2

    def test_matches_generic_buchberger_on_random_graphs(self):
        rng = random.Random(99)
        for _ in range(12):
            m = rng.randint(2, 4)
            pairs = list(itertools.combinations(range(1, m + 1), 2))
            g = line_graph(m, [p for p in pairs if rng.random() < 0.6])
            d0 = rng.choice([2, 3])
            combinatorial = {e.polynomial for e in groebner_set(g, d0)}
            generic = set(buchberger([b.polynomial() for b in edge_generators(g, d0)]))
            assert combinatorial == generic


class TestIsReduced:
    def test_duplicate_fails(self):
        g = line_graph(2, [(1, 2)])
        basis = groebner_set(g, 2)
        assert is_reduced(basis)
        assert not is_reduced(basis + basis)

    def test_scaled_element_fails(self):
        f = EdgeBinomial.make(1, 2, (1,), (2,)).polynomial()
        from fractions import Fraction
        from robustci.polyengine import Monomial
        assert not is_reduced([f.term_mul(Fraction(2), Monomial(()))])


class TestReductionWitness:
    def test_antitone_labelings_have_no_witness(self):
        assert find_reduction_witness(THREE_VERTEX, v(1, 3, 2), (2, 1, 1)) is None

    def test_constant_labelings_have_no_witness(self):
        assert find_reduction_witness(THREE_VERTEX, v(1, 3, 2), (1, 1, 1)) is None
        assert find_reduction_witness(THREE_VERTEX, v(1, 3, 2), (2, 2, 2)) is None

    def test_example_violation(self):
        witness = find_reduction_witness(THREE_VERTEX, v(1, 3, 2), (1, 1, 2))
        assert witness is not None
        full = path_monomial(v(1, 3, 2), (1, 1, 2), include_endpoints=True)
        assert witness.polynomial.leading_monomial().divides(full)
        basis_polys = {e.polynomial for e in groebner_set(THREE_VERTEX, 2)}
        assert witness.polynomial in basis_polys

    def test_randomized_walks(self):
        rng = random.Random(17)
        graphs = [THREE_VERTEX, TRIANGLE, line_graph(4, [(1, 2), (2, 4), (1, 3), (3, 4)])]
        for _ in range(300):
            g = rng.choice(graphs)
            d0 = rng.choice([2, 3])
            start = rng.choice(g.vertices)
            walk = [start]
            for _ in range(rng.randint(1, 4)):
                nbrs = g.neighbors(walk[-1])
                if not nbrs:
                    break
                walk.append(rng.choice(nbrs))
            if len(walk) < 2:
                continue
            labels = tuple(rng.randint(1, d0) for _ in walk)
            witness = find_reduction_witness(g, walk, labels)
            violated = any(
                (walk[s] < walk[t] and labels[s] < labels[t])
                or (walk[t] < walk[s] and labels[t] < labels[s])
                for s in range(len(walk))
                for t in range(s + 1, len(walk))
            )
            if not violated:
                assert witness is None
                continue
            assert witness is not None
            full = path_monomial(walk, labels, include_endpoints=True)
            assert witness.polynomial.leading_monomial().divides(full)
            assert witness.polynomial in {
                e.polynomial for e in groebner_set(g, max(labels))
            }


def _oracle_shortcut(graph, path):
    """Positions of the shortest ordered proper interior subsequence of ``path``
    that, with the endpoints, is itself a path; None if there is none."""
    last = len(path) - 1
    for size in range(last - 1):
        for keep in itertools.combinations(range(1, last), size):
            seq = (0, *keep, last)
            if all(graph.has_edge(path[seq[a]], path[seq[a + 1]]) for a in range(len(seq) - 1)):
                return seq
    return None


def _oracle_reduction_witness(graph, path, labels):
    """The witness found by shrinking the minimal violating window through its
    shortest path subsequences instead of splicing at chords."""
    path = tuple(tuple(x) for x in path)
    bad = [
        (s, t)
        for s in range(len(path))
        for t in range(s + 1, len(path))
        if (path[s] < path[t] and labels[s] < labels[t])
        or (path[t] < path[s] and labels[t] < labels[s])
    ]
    if not bad:
        return None
    s, t = min(bad, key=lambda pair: (pair[1] - pair[0], pair[0]))
    window, wlabels = list(path[s:t + 1]), list(labels[s:t + 1])
    changed = True
    while changed:
        changed = False
        seen = {}
        for k, x in enumerate(window):
            if x in seen:
                k0 = seen[x]
                if k == len(window) - 1:
                    wlabels[k0] = wlabels[k]
                del window[k0 + 1:k + 1], wlabels[k0 + 1:k + 1]
                changed = True
                break
            seen[x] = k
    if window[0] > window[-1]:
        window.reverse()
        wlabels.reverse()
    while (shortcut := _oracle_shortcut(graph, window)) is not None:
        window = [window[k] for k in shortcut]
        wlabels = [wlabels[k] for k in shortcut]
    swapped = [wlabels[-1], *wlabels[1:-1], wlabels[0]]
    return element_polynomial(window, swapped)


class TestReductionWitnessOracle:
    def test_chord_splice_and_shortest_shrink_both_reduce(self):
        rng = random.Random(4099)
        checked = 0
        for _ in range(50):
            m = rng.randint(2, 7)
            density = rng.random()
            g = line_graph(m, [e for e in itertools.combinations(range(1, m + 1), 2) if rng.random() < density])
            d0 = rng.randint(2, 4)
            basis = {e.polynomial for e in groebner_set(g, d0)}
            for _ in range(80):
                walk = [rng.choice(g.vertices)]
                for _ in range(rng.randint(1, 6)):
                    nbrs = g.neighbors(walk[-1])
                    if not nbrs:
                        break
                    walk.append(rng.choice(nbrs))
                labels = tuple(rng.randint(1, d0) for _ in walk)
                witness = find_reduction_witness(g, walk, labels)
                oracle = _oracle_reduction_witness(g, walk, labels)
                assert (witness is None) == (oracle is None)
                if oracle is None:
                    continue
                full = path_monomial(walk, labels, include_endpoints=True)
                for poly in (witness.polynomial, oracle):
                    assert poly.leading_monomial().divides(full)
                    assert poly in basis
                checked += 1
        assert checked > 1500


class TestFormatting:
    def test_text_format_stable(self):
        basis = groebner_set(THREE_VERTEX, 2)
        text = basis_to_text(basis)
        assert text == basis_to_text(groebner_set(THREE_VERTEX, 2))
        assert "p[1;3]" in text

    def test_single_minor_text(self):
        # variables print largest-first inside each term
        f = EdgeBinomial.make(1, 2, (1,), (2,)).polynomial()
        assert format_polynomial(f) == "p[2;2]*p[1;1] - p[2;1]*p[1;2]"

    def test_json_shape(self):
        basis = groebner_set(THREE_VERTEX, 2)
        obj = basis_to_json(basis)
        assert len(obj["elements"]) == 3
        first_term = obj["elements"][0]["terms"][0]
        assert set(first_term) == {"coeff", "monomial"}


def test_element_polynomial_monic_squarefree():
    for element in groebner_set(THREE_VERTEX, 3):
        assert element.polynomial.leading_coeff() == 1
        assert element.polynomial.leading_monomial().is_squarefree()


def test_element_builder_initial_term_swaps_endpoint_labels():
    # initial term = interior monomial times p[labels[-1]; x] * p[labels[0]; y]
    path, labels = v(1, 3, 2), (2, 1, 1)
    poly = element_polynomial(path, labels)
    swapped = (labels[-1], *labels[1:-1], labels[0])
    assert poly.leading_monomial() == path_monomial(path, swapped, include_endpoints=True)
