import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from robustci import (
    JointDistribution,
    InputError,
    MatrixPoint,
    ResourceLimitError,
    RobustnessStructure,
    StateSpace,
    build_graph,
    component_ideal,
    components_of,
    containment,
    edge_generators,
    is_maximal,
    is_robust,
    make_uniform_spec,
    point_in_VG,
    point_in_VGY,
    verify_primary_decomposition,
    verify_union_decomposition,
)
from robustci import decomp, graph as graphmod
from robustci.decomp import admissible_sets, random_matrix_point, sample_point_in_VGY
from robustci.graph import InputGraph
from robustci.polyengine import buchberger, buchberger_criterion, reduce


def line_graph(m, edges):
    space = StateSpace(2, (m,))
    return InputGraph(space, [((a,), (b,)) for a, b in edges])


THREE_VERTEX = line_graph(3, [(1, 3), (2, 3)])
SINGLE_EDGE = line_graph(2, [(1, 2)])


def cube_graph():
    space = StateSpace(2, (2, 2, 2))
    return build_graph(make_uniform_spec(2, space), space)


def subsets(vertices):
    m = len(vertices)
    for mask in range(1 << m):
        yield frozenset(vertices[i] for i in range(m) if mask >> i & 1)


def all_graphs(m):
    """Every graph on the vertices (1,), ..., (m,)."""
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    for mask in range(1 << len(pairs)):
        yield line_graph(m, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def frac_matrix(d0, cols):
    return MatrixPoint(d0, {x: tuple(Fraction(v) for v in col) for x, col in cols.items()})


def degree_counts(gens):
    """Generator count per degree: unknowns have degree 1, minors degree 2."""
    return Counter(g.leading_monomial().degree for g in gens)


class TestComponentIdeal:
    def test_full_support_connected(self):
        gens = component_ideal(components_of(THREE_VERTEX, THREE_VERTEX.vertices), 2)
        # one connected component of three vertices: all three pairwise minors
        assert degree_counts(gens) == {2: 3}

    def test_empty_support_all_monomials(self):
        gens = component_ideal(components_of(THREE_VERTEX, ()), 2)
        assert degree_counts(gens) == {1: 6}

    def test_cube_minus_parity_class(self):
        g = cube_graph()
        even = [x for x in g.vertices if sum(x) % 2 == 0]
        support = [x for x in g.vertices if x not in even]
        gens = component_ideal(components_of(g, support), 2)
        # four removed vertices, two unknowns each; remaining parity class is
        # edgeless, so its components are singletons and there are no minors
        assert degree_counts(gens) == {1: 8}

    def test_unknowns_come_before_minors(self):
        # vertex 2 off the support, the edge 1-3 one block: at d0 = 3, three
        # unknowns and the three minors of a two-column block
        gens = component_ideal(components_of(THREE_VERTEX, [(1,), (3,)]), 3)
        assert [g.leading_monomial().degree for g in gens] == [1, 1, 1, 2, 2, 2]

    def test_configuration_outside_the_space(self):
        stray = RobustnessStructure.from_blocks(THREE_VERTEX.space, [[(1,)], [(4,)]])
        with pytest.raises(InputError):
            component_ideal(stray, 2)
        # d0 = 3 skips leg (c), so the membership leg itself rejects it
        with pytest.raises(InputError, match="support is not a subset"):
            verify_primary_decomposition(THREE_VERTEX, [stray], 3)


# The shapes the benchmark's algebra workload deals to decompose jobs, by d0.
WORKLOAD_DECOMPOSE_SHAPES = {
    2: ((3,), (1, 3), (3, 1), (1, 1, 3), (1, 3, 1),
        (2, 2), (4,), (5,), (2, 3), (3, 2), (6,), (2, 2, 2), (2, 4), (7,), (8,),
        (3, 3), (2, 5), (10,), (3, 4), (2, 6), (2, 2, 3), (11,), (12,)),
    3: ((2, 2), (4,), (2, 3), (3, 2), (5,), (6,)),
}


def random_graph(rng, max_vertices):
    m = rng.randint(2, max_vertices)
    pairs = itertools.combinations(range(1, m + 1), 2)
    return line_graph(m, [p for p in pairs if rng.random() < 0.4])


def component_shape(structure, d0):
    """d0, the number of columns off the support, and the sorted block sizes.

    Components of one shape differ by a renaming of the columns that keeps
    the column order within each block.  Under the pure-lex order that
    renaming maps Groebner bases to Groebner bases, because distinct blocks
    and the off-support unknowns use disjoint variables.
    """
    off = len(structure.space.configs()) - len(structure.support)
    return d0, off, tuple(sorted(len(block) for block in structure.blocks))


class TestComponentGeneratorsAreReducedBases:
    """Generic Buchberger is the oracle of the claim that leg (b) relies on."""

    def test_buchberger_returns_the_generators(self):
        cases = [
            (build_graph(make_uniform_spec(k, space), space), d0)
            for d0, shapes in WORKLOAD_DECOMPOSE_SHAPES.items()
            for space in (StateSpace(d0, d) for d in shapes)
            for k in range(space.n + 1)
        ]
        # Beyond these sizes one Buchberger run takes seconds: a 6-column
        # block has 90 minors at d0 = 4.
        for d0, max_vertices in ((2, 8), (3, 6), (4, 5)):
            rng = random.Random(d0)
            cases += [(random_graph(rng, max_vertices), d0) for _ in range(20)]
        checked = set()
        structures = 0
        for g, d0 in cases:
            for y in admissible_sets(g):
                structures += 1
                shape = component_shape(y, d0)
                if shape in checked:
                    continue
                checked.add(shape)
                gens = component_ideal(y, d0)
                assert set(buchberger(gens)) == {f.monic() for f in gens}, shape
                assert buchberger_criterion(gens), shape
        assert (structures, len(checked)) == (604, 126)

    @pytest.mark.parametrize("graph, d0", [
        (cube_graph(), 2),
        (THREE_VERTEX, 3),
    ], ids=["cube-d2", "three-vertex-d3"])
    def test_membership_leg_runs_no_buchberger(self, monkeypatch, graph, d0):
        def no_polynomials(*args):
            raise AssertionError("polynomials built with leg (c) skipped")

        for name in ("buchberger", "component_ideal", "edge_generators"):
            monkeypatch.setattr(decomp, name, no_polynomials)
        report = verify_primary_decomposition(graph, admissible_sets(graph), d0)
        assert report["legs"] == {
            "non_containment": True,
            "membership": True,
            "intersection_equality": "skipped",
        }


def membership_by_reduction(graph, structure, d0):
    """Leg (b) as a reduction: every edge generator reduces to zero modulo the
    component generators.  Reducing to zero modulo any generating set proves
    membership, and the generators are the reduced basis, so a nonzero
    remainder refutes it."""
    gens = component_ideal(structure, d0)
    return all(not reduce(g.polynomial(), gens) for g in edge_generators(graph, d0))


def random_partition(rng, graph):
    """A random partition of a random support, blind to the edges."""
    support = [v for v in graph.vertices if rng.random() < 0.7]
    rng.shuffle(support)
    blocks = {}
    for x in support:
        blocks.setdefault(rng.randrange(3), []).append(x)
    return RobustnessStructure.from_blocks(graph.space, list(blocks.values()))


class TestMembershipByBlocks:
    """The block lemma of leg (b) against reduction by the component generators."""

    def test_matches_reduction(self):
        verdicts = Counter()
        for d0, max_vertices in ((2, 7), (3, 6), (4, 5)):
            rng = random.Random(100 + d0)
            for _ in range(30):
                g = random_graph(rng, max_vertices)
                structures = admissible_sets(g) + [random_partition(rng, g) for _ in range(4)]
                expected = [
                    {"leg": "membership", "support": [list(x) for x in sorted(y.support)]}
                    for y in structures
                    if not membership_by_reduction(g, y, d0)
                ]
                report = verify_primary_decomposition(g, structures, d0)
                got = [c for c in report["counterexamples"] if c["leg"] == "membership"]
                assert got == expected
                assert report["legs"]["membership"] is (not expected)
                verdicts["fail"] += len(expected)
                verdicts["pass"] += len(structures) - len(expected)
        assert verdicts["fail"] and verdicts["pass"]

    def test_d0_below_two_on_an_edgeless_graph(self):
        edgeless = line_graph(2, [])
        with pytest.raises(InputError, match="need at least two output letters, got 1"):
            verify_primary_decomposition(edgeless, admissible_sets(edgeless), 1)


class TestAdmissibility:
    def test_full_support(self):
        g = cube_graph()
        assert is_maximal(components_of(g, g.vertices), g)

    def test_cube_parity_complement(self):
        g = cube_graph()
        support = [x for x in g.vertices if sum(x) % 2 == 0]
        assert is_maximal(components_of(g, support), g)

    def test_cube_minus_one_vertex(self):
        g = cube_graph()
        support = [x for x in g.vertices if x != (1, 1, 1)]
        assert not is_maximal(components_of(g, support), g)

    def test_matches_structure_maximality(self):
        for g in (SINGLE_EDGE, THREE_VERTEX, cube_graph()):
            verts = g.vertices
            admissible = {s.support for s in admissible_sets(g)}
            for mask in range(1 << len(verts)):
                support = frozenset(verts[i] for i in range(len(verts)) if mask >> i & 1)
                assert (support in admissible) == is_maximal(components_of(g, support), g)

    def test_admissible_sets_enumeration(self, monkeypatch):
        assert admissible_sets(SINGLE_EDGE) == [components_of(SINGLE_EDGE, [(1,), (2,)])]
        assert [s.blocks for s in admissible_sets(THREE_VERTEX)] == [
            (((1,),), ((2,),)),
            (((1,), (2,), (3,)),),
        ]
        monkeypatch.setattr(graphmod, "ENUMERATION_CAP", 4)
        with pytest.raises(ResourceLimitError):
            admissible_sets(cube_graph())

    def test_complete_graph_single_admissible(self):
        triangle = line_graph(3, [(1, 2), (1, 3), (2, 3)])
        assert admissible_sets(triangle) == [components_of(triangle, triangle.vertices)]


class TestContainment:
    def test_reflexive(self):
        g = cube_graph()
        full = components_of(g, g.vertices)
        assert containment(full, full)

    def test_non_subset(self):
        g = cube_graph()
        assert not containment(components_of(g, [(1, 1, 1)]), components_of(g, [(2, 2, 2)]))

    def test_connectivity_condition(self):
        g = cube_graph()
        everything = g.vertices
        parity = [x for x in g.vertices if sum(x) % 2 == 0]
        # connected through the full cube but isolated inside the parity class
        assert not containment(components_of(g, everything), components_of(g, parity))

    def test_deterministic_variety_witness(self):
        """containment false => an explicit component-variety point escapes."""
        g = THREE_VERTEX
        verts = g.vertices
        for mask_y in range(1 << len(verts)):
            outer = frozenset(verts[i] for i in range(len(verts)) if mask_y >> i & 1)
            for mask_z in range(1 << len(verts)):
                inner = frozenset(verts[i] for i in range(len(verts)) if mask_z >> i & 1)
                outer_s, inner_s = components_of(g, outer), components_of(g, inner)
                holds = containment(outer_s, inner_s)
                if holds:
                    # every sampled point of the inner variety lies in the outer one
                    for s in range(20):
                        point = sample_point_in_VGY(inner_s, 2, random.Random(s))
                        assert point_in_VGY(point, outer_s)
                else:
                    point = _escaping_point(g, outer, inner)
                    assert point_in_VGY(point, inner_s)
                    assert not point_in_VGY(point, outer_s)

    def test_admissible_pairwise_non_containment(self):
        for g in (SINGLE_EDGE, THREE_VERTEX, cube_graph()):
            for a, b in itertools.permutations(admissible_sets(g), 2):
                assert not containment(a, b)

    def test_block_test_matches_pairwise_oracle(self):
        compared = 0
        for m in range(1, 5):
            for g in all_graphs(m):
                for outer in subsets(g.vertices):
                    for inner in subsets(g.vertices):
                        expected = _pairwise_containment(g, outer, inner)
                        assert containment(components_of(g, outer), components_of(g, inner)) == expected
                        compared += 1
        assert compared == 1 * 4 + 2 * 16 + 8 * 64 + 64 * 256


def _pairwise_containment(graph, outer, inner):
    """Containment by scanning every inner pair, the test the block test replaced."""
    if not inner <= outer:
        return False
    comp_outer = components_of(graph, outer).block_index()
    comp_inner = components_of(graph, inner).block_index()
    for u, v in itertools.combinations(sorted(inner), 2):
        if comp_outer[u] == comp_outer[v] and comp_inner[u] != comp_inner[v]:
            return False
    return True


def _escaping_point(graph, outer, inner):
    """A point of the inner component variety outside the outer one."""
    d0 = 2
    if not inner <= outer:
        # constant column on the inner support: inside the inner variety, but
        # the stray column does not vanish off the outer support
        return MatrixPoint(d0, {x: (Fraction(1), Fraction(1)) for x in inner})
    index = {}
    for k, comp in enumerate(graph.components(inner)):
        for x in comp:
            index[x] = k
    outer_index = {}
    for k, comp in enumerate(graph.components(outer)):
        for x in comp:
            outer_index[x] = k
    for u, w in itertools.combinations(sorted(inner), 2):
        if outer_index[u] == outer_index[w] and index[u] != index[w]:
            cols = {}
            for x in inner:
                cols[x] = (Fraction(1), Fraction(0)) if index[x] == index[u] else (Fraction(0), Fraction(1))
            return MatrixPoint(d0, cols)
    raise AssertionError("containment held after all")


class TestVarietyMembership:
    def test_zero_matrix_everywhere(self):
        g = THREE_VERTEX
        zero = frac_matrix(2, {x: (0, 0) for x in g.vertices})
        for mask in range(1 << 3):
            support = frozenset(g.vertices[i] for i in range(3) if mask >> i & 1)
            assert point_in_VGY(zero, components_of(g, support))

    def test_rank_one_matrix_in_variety(self):
        g = cube_graph()
        point = frac_matrix(2, {x: (2, 3) for x in g.vertices})
        assert point_in_VG(point, g)

    def test_component_point_lies_in_variety(self):
        g = THREE_VERTEX
        rng = random.Random(3)
        for mask in range(1 << 3):
            support = frozenset(g.vertices[i] for i in range(3) if mask >> i & 1)
            structure = components_of(g, support)
            point = sample_point_in_VGY(structure, 2, rng)
            assert point_in_VGY(point, structure)
            assert point_in_VG(point, g)
            assert point.support() == support

    def test_independent_columns_on_edge_fail(self):
        g = SINGLE_EDGE
        point = frac_matrix(2, {(1,): (1, 0), (2,): (0, 1)})
        assert not point_in_VG(point, g)
        assert not point_in_VGY(point, components_of(g, g.vertices))


class TestUnionDecomposition:
    def test_edgeless_graph(self):
        space = StateSpace(2, (2, 2))
        g = build_graph(make_uniform_spec(2, space), space)  # edgeless
        assert g.num_edges() == 0
        report = verify_union_decomposition(g, admissible_sets(g), 2, trials=50, seed=1)
        assert report["ok"] and report["admissible_count"] == 1

    def test_single_edge(self):
        report = verify_union_decomposition(SINGLE_EDGE, admissible_sets(SINGLE_EDGE), 2, trials=100, seed=0)
        assert report["ok"]

    def test_three_vertex(self):
        report = verify_union_decomposition(THREE_VERTEX, admissible_sets(THREE_VERTEX), 2, trials=100, seed=0)
        assert report["ok"]

    def test_trials_cap(self, monkeypatch):
        monkeypatch.setattr(decomp, "TRIALS_CAP", 3)
        admissible = admissible_sets(SINGLE_EDGE)
        assert verify_union_decomposition(SINGLE_EDGE, admissible, 2, trials=3, seed=0)["ok"]
        with pytest.raises(ResourceLimitError, match="4 trials exceed the trial cap of 3"):
            verify_union_decomposition(SINGLE_EDGE, admissible, 2, trials=4, seed=0)

    def test_d0_cap(self, monkeypatch):
        monkeypatch.setattr(decomp, "D0_CAP", 3)
        admissible = admissible_sets(SINGLE_EDGE)
        assert verify_union_decomposition(SINGLE_EDGE, admissible, 3, trials=5, seed=0)["ok"]
        with pytest.raises(ResourceLimitError, match="4 output letters exceed the output-letter cap of 3"):
            verify_union_decomposition(SINGLE_EDGE, admissible, 4, trials=5, seed=0)

    def test_cap(self):
        space = StateSpace(2, (2, 2, 2, 2))
        g = build_graph(make_uniform_spec(2, space), space)
        with pytest.raises(ResourceLimitError):
            verify_union_decomposition(g, admissible_sets(g), 2, trials=1, seed=0)


def fraction_point_in_VGY(structure, d0, rng):
    """The sampler on Fractions: the same draws as ``sample_point_in_VGY``."""
    columns = {}
    for block in structure.blocks:
        direction = None
        while direction is None or not any(direction):
            direction = tuple(Fraction(rng.randint(-3, 3)) for _ in range(d0))
        for x in block:
            scalar = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5))
            columns[x] = tuple(scalar * v for v in direction)
    return MatrixPoint(d0, columns)


def fraction_matrix_point(graph, d0, rng):
    """The random matrix on Fractions: the same draws as ``random_matrix_point``."""
    return MatrixPoint(d0, {x: tuple(Fraction(rng.randint(-3, 3)) for _ in range(d0)) for x in graph.vertices})


class TestUnionOnIntegers:
    """The variety-cover check on int points against the same points as Fractions."""

    def fraction_report(self, monkeypatch, graph, admissible, d0, trials, seed):
        with monkeypatch.context() as m:
            m.setattr(decomp, "sample_point_in_VGY", fraction_point_in_VGY)
            m.setattr(decomp, "random_matrix_point", fraction_matrix_point)
            return verify_union_decomposition(graph, admissible, d0, trials=trials, seed=seed)

    def test_reports_match(self, monkeypatch):
        rng = random.Random(7)
        cases = [(THREE_VERTEX, admissible_sets(THREE_VERTEX)[:-1], 2)]  # counterexamples
        for d0, max_vertices in ((2, 7), (3, 6), (4, 5)):
            for _ in range(10):
                g = random_graph(rng, max_vertices)
                cases.append((g, admissible_sets(g), d0))
        failing = 0
        for seed, (g, admissible, d0) in enumerate(cases):
            report = verify_union_decomposition(g, admissible, d0, trials=100, seed=seed)
            assert report == self.fraction_report(monkeypatch, g, admissible, d0, 100, seed)
            failing += not report["ok"]
        assert failing == 1

    def test_points_match(self):
        rng = random.Random(8)
        for d0 in (2, 3, 4):
            g = random_graph(rng, 7)
            for seed in range(20):
                support = [v for v in g.vertices if rng.random() < 0.6]
                y = components_of(g, support)
                point = sample_point_in_VGY(y, d0, random.Random(seed))
                assert point == fraction_point_in_VGY(y, d0, random.Random(seed))
                point = random_matrix_point(g, d0, random.Random(seed))
                assert point == fraction_matrix_point(g, d0, random.Random(seed))

    def test_fraction_columns_still_work(self):
        # Fraction entries beside a missing column, which reads as int zeros
        point = MatrixPoint(3, {(1,): (Fraction(1, 2), Fraction(0), Fraction(-1)), (3,): (1, 0, -2)})
        assert point.column((2,)) == (0, 0, 0)
        assert point_in_VG(point, THREE_VERTEX)
        assert point_in_VGY(point, components_of(THREE_VERTEX, [(1,), (3,)]))
        assert not point_in_VGY(point, components_of(THREE_VERTEX, [(1,), (2,)]))


class TestPrimaryDecomposition:
    def test_single_edge_full_report(self):
        report = verify_primary_decomposition(SINGLE_EDGE, admissible_sets(SINGLE_EDGE), 2)
        assert report["admissible_Y"] == [[[1], [2]]]
        assert report["legs"] == {
            "non_containment": True,
            "membership": True,
            "intersection_equality": True,
        }
        assert report["counterexamples"] == []

    def test_three_vertex_example(self):
        report = verify_primary_decomposition(THREE_VERTEX, admissible_sets(THREE_VERTEX), 2)
        assert report["admissible_Y"] == [[[1], [2]], [[1], [2], [3]]]
        assert all(v is True for v in report["legs"].values())

    def test_complete_graph(self):
        triangle = line_graph(3, [(1, 2), (1, 3), (2, 3)])
        report = verify_primary_decomposition(triangle, admissible_sets(triangle), 2)
        assert report["admissible_Y"] == [[[1], [2], [3]]]
        assert all(v is True for v in report["legs"].values())

    def test_intersection_skipped_beyond_cap(self):
        g = cube_graph()
        report = verify_primary_decomposition(g, admissible_sets(g), 2)
        assert report["legs"]["intersection_equality"] == "skipped"
        assert report["legs"]["non_containment"] is True
        assert report["legs"]["membership"] is True


class TestWrongDecomposition:
    """The verifiers check the list they are given, so a wrong one fails."""

    def test_dropped_structure_leaves_points_uncovered(self):
        g = THREE_VERTEX
        dropped = admissible_sets(g)[:-1]  # without the full support
        report = verify_union_decomposition(g, dropped, 2, trials=100, seed=0)
        cover = [c for c in report["counterexamples"] if c["kind"] == "cover"]
        assert cover and all(c["in_variety"] and not c["covered"] for c in cover)
        assert not report["ok"]

    def test_extra_non_maximal_structure_is_contained(self):
        g = THREE_VERTEX
        extra = admissible_sets(g) + [components_of(g, [(1,)])]
        report = verify_primary_decomposition(g, extra, 2)
        assert report["legs"]["non_containment"] is False
        assert {"leg": "non_containment", "outer": [[1], [2]], "inner": [[1]]} in report["counterexamples"]

    def test_blocks_splitting_an_edge_miss_the_edge_generators(self):
        g = SINGLE_EDGE
        split = [RobustnessStructure.from_blocks(g.space, [[(1,)], [(2,)]])]
        report = verify_primary_decomposition(g, split, 2)
        assert report["legs"]["membership"] is False
        assert {"leg": "membership", "support": [[1], [2]]} in report["counterexamples"]


class TestVarietyRobustnessBridge:
    def test_positive_matrix_matches_ci(self):
        space = StateSpace(2, (2, 2))
        spec = make_uniform_spec(1, space)
        g = build_graph(spec, space)
        rng = random.Random(14)
        for trial in range(60):
            if trial % 2:
                cols = {x: tuple(Fraction(rng.randint(1, 5)) for _ in range(2)) for x in g.vertices}
            else:
                base = tuple(Fraction(rng.randint(1, 5)) for _ in range(2))
                cols = {x: tuple(Fraction(rng.randint(1, 4)) * b for b in base) for x in g.vertices}
            point = MatrixPoint(2, cols)
            total = sum(sum(c) for c in cols.values())
            table = {
                (x0, x): cols[x][x0 - 1] / total
                for x in g.vertices
                for x0 in (1, 2)
            }
            dist = JointDistribution(space, table)
            assert point_in_VG(point, g) == is_robust(dist, spec)
