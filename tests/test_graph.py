import itertools
import json
import random
import time
from math import comb

import pytest

from robustci import (
    InputError,
    InputGraph,
    ResourceLimitError,
    RobustnessSpec,
    RobustnessStructure,
    StateSpace,
    build_graph,
    check_product_form,
    components_of,
    enumerate_maximal_structures,
    grow_to_maximal,
    is_maximal,
    make_uniform_spec,
    maximality_by_edges,
    restrict,
)
from robustci import graph as graphmod
from robustci.graph import (
    _mask_components,
    _structure,
    _unmerging_vertex,
    cube_complement_category,
    graph_from_json,
    graph_to_json,
    structure_from_json,
    structure_to_json,
)

CUBE_SPACE = StateSpace(2, (2, 2, 2))


def cube_graph():
    return build_graph(make_uniform_spec(2, CUBE_SPACE), CUBE_SPACE)


def hamming(x, y):
    return sum(a != b for a, b in zip(x, y))


def brute_force_maximal_supports(vertices, adjacent):
    """Independent oracle: test all subsets with a from-scratch component count."""

    def comps(sub):
        sub = set(sub)
        out = []
        while sub:
            v = min(sub)
            stack, comp = [v], {v}
            sub.remove(v)
            while stack:
                u = stack.pop()
                for w in list(sub):
                    if adjacent(u, w):
                        sub.remove(w)
                        comp.add(w)
                        stack.append(w)
            out.append(comp)
        return out

    maximal = []
    m = len(vertices)
    for mask in range(1, 1 << m):
        sub = [vertices[i] for i in range(m) if mask >> i & 1]
        base = len(comps(sub))
        if all(len(comps(sub + [x])) < base for x in vertices if x not in sub):
            maximal.append(frozenset(sub))
    return maximal


def non_merging_vertex(mask: int, comps, nbr_masks) -> int:
    """Oracle: the lowest vertex outside ``mask`` adjacent to fewer than two of
    its components ``comps``, as a bitmask; 0 when there is none.

    Adding vertex v to ``mask`` gives len(comps) + 1 - (#components v touches)
    components, so the structure on ``mask`` is maximal iff this returns 0.
    This is the leaf check that the search's cut with nothing undecided
    replaced.
    """
    outside = ((1 << len(nbr_masks)) - 1) & ~mask
    while outside:
        bit = outside & -outside
        outside ^= bit
        nb = nbr_masks[bit.bit_length() - 1] & mask
        for c in comps:
            if nb & c:
                if nb & ~c:
                    break  # the vertex also touches a second component
                return bit
        else:
            return bit
    return 0


def subset_scan_structures(graph):
    """Oracle: test all 2^m vertex subsets with :func:`non_merging_vertex`.

    This is the exhaustive scan that the pruned search in
    ``enumerate_maximal_structures`` replaces.
    """
    m = len(graph.vertices)
    found = []
    for mask in range(1, 1 << m):
        comps = _mask_components(mask, graph._masks)
        if not non_merging_vertex(mask, comps, graph._masks):
            found.append(_structure(graph, comps))
    found.sort(key=lambda s: s.blocks)
    return found


# every uniform space of at most 16 configurations built elsewhere in the suite
UNIFORM_SHAPES = [
    (2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 2), (2, 2, 2, 2),
]


def random_graph(rng, m, density):
    space = StateSpace(2, (m,))
    edges = [(u, v) for u, v in itertools.combinations(space.configs(), 2) if rng.random() < density]
    return InputGraph(space, edges)


def pairwise_scan_graph(spec, space):
    """Oracle: test every vertex pair against every pair of the spec.

    The witness of an edge is the first pair in sorted order that pins both
    endpoints.  This is the O(m^2 * |spec|) scan that ``build_graph`` replaces.
    """
    pairs = spec.sorted_pairs()
    edges = []
    witnesses = {}
    for x, y in itertools.combinations(space.configs(), 2):
        for nodes, pinned in pairs:
            if restrict(x, nodes) == pinned and restrict(y, nodes) == pinned:
                edges.append((x, y))
                witnesses[(x, y)] = (nodes, pinned)
                break
    return InputGraph(space, edges, witnesses)


def assert_matches_oracle(spec, space):
    g, oracle = build_graph(spec, space), pairwise_scan_graph(spec, space)
    assert g.edge_list() == oracle.edge_list()
    assert g.edge_witness == oracle.edge_witness
    assert json.dumps(graph_to_json(g), indent=2, sort_keys=True) == json.dumps(
        graph_to_json(oracle), indent=2, sort_keys=True
    )


class TestBuildGraphOracle:
    def test_every_spec_on_the_two_by_two_space(self):
        space = StateSpace(2, (2, 2))
        pairs = make_uniform_spec(0, space).sorted_pairs()  # every possible pair
        assert len(pairs) == 9 and ((), ()) in pairs
        for mask in range(1 << len(pairs)):
            spec = RobustnessSpec.of(p for i, p in enumerate(pairs) if mask >> i & 1)
            assert_matches_oracle(spec, space)

    @pytest.mark.parametrize("d", [(2, 3), (3, 3), (2, 2, 2, 2), (2, 4, 8)])
    def test_seeded_random_specs(self, d):
        space = StateSpace(2, d)
        pairs = make_uniform_spec(0, space).sorted_pairs()  # every possible pair
        rng = random.Random(repr(d))
        for _ in range(12):
            size = rng.randint(0, min(len(pairs), 16))
            assert_matches_oracle(RobustnessSpec.of(rng.sample(pairs, size)), space)
        for k in range(space.n + 1):
            assert_matches_oracle(make_uniform_spec(k, space), space)

    def test_single_configuration_pin_adds_no_edge(self):
        space = StateSpace(2, (2, 3))
        spec = RobustnessSpec.of([((1, 2), (2, 3))])
        assert_matches_oracle(spec, space)
        assert build_graph(spec, space).num_edges() == 0

    def test_letter_matching_no_configuration_rejected(self):
        space = StateSpace(2, (2, 3))
        with pytest.raises(InputError):
            build_graph(RobustnessSpec.of([((2,), (4,))]), space)

    def test_full_and_partial_cover_of_one_subset(self):
        space = StateSpace(2, (2, 3))
        # R = (1,) is pinned to both of its letters, R = (2,) to one of three
        spec = RobustnessSpec.of([((1,), (1,)), ((1,), (2,)), ((2,), (2,))])
        assert_matches_oracle(spec, space)
        g = build_graph(spec, space)
        assert g.num_edges() == 2 * comb(3, 2) + 1
        assert g.edge_witness[((1, 2), (2, 2))] == ((2,), (2,))
        assert g.edge_witness[((1, 1), (1, 2))] == ((1,), (1,))


class TestBuildGraph:
    def test_uniform_k0_complete(self):
        space = StateSpace(2, (2, 2))
        g = build_graph(make_uniform_spec(0, space), space)
        assert g.num_edges() == comb(space.num_configs(), 2)

    def test_cube(self):
        g = cube_graph()
        assert g.num_edges() == 12
        for u, v in g.edge_list():
            assert hamming(u, v) == 1
        for u, v in itertools.combinations(g.vertices, 2):
            assert g.has_edge(u, v) == (hamming(u, v) == 1)

    def test_full_pin_spec_is_edgeless(self):
        space = StateSpace(2, (2, 2))
        spec = RobustnessSpec.of([((1, 2), y) for y in space.configs()])
        g = build_graph(spec, space)
        assert g.num_edges() == 0

    def test_witnesses_certify_edges(self):
        g = cube_graph()
        for (u, v), witness in g.edge_witness.items():
            nodes, pinned = witness
            assert restrict(u, nodes) == pinned
            assert restrict(v, nodes) == pinned

    def test_rejects_self_loop_and_stray_vertices(self):
        space = StateSpace(2, (2,))
        with pytest.raises(InputError):
            InputGraph(space, [((1,), (1,))])
        with pytest.raises(InputError):
            InputGraph(space, [((1,), (3,))])


class TestComponents:
    def test_full_support_connected(self):
        g = cube_graph()
        structure = components_of(g, g.vertices)
        assert structure.blocks == (tuple(sorted(g.vertices)),)

    def test_antipodal_pair_splits(self):
        g = cube_graph()
        structure = components_of(g, {(1, 1, 1), (2, 2, 2)})
        assert structure.blocks == (((1, 1, 1),), ((2, 2, 2),))

    def test_four_input_example_blocks(self):
        space = StateSpace(2, (2, 2, 2, 2))
        g = build_graph(make_uniform_spec(2, space), space)
        support = {(1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 2, 2), (2, 1, 2, 2)}
        structure = components_of(g, support)
        assert structure.blocks == (
            ((1, 1, 1, 1), (2, 2, 1, 1)),
            ((1, 2, 2, 2), (2, 1, 2, 2)),
        )

    def test_empty_support(self):
        g = cube_graph()
        assert components_of(g, set()).blocks == ()


class TestMaximality:
    def test_full_support_maximal(self):
        g = cube_graph()
        s = components_of(g, g.vertices)
        assert is_maximal(s, g) and maximality_by_edges(s, g)

    def test_four_input_example_maximal(self):
        space = StateSpace(2, (2, 2, 2, 2))
        g = build_graph(make_uniform_spec(2, space), space)
        s = components_of(g, {(1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 2, 2), (2, 1, 2, 2)})
        assert is_maximal(s, g) and maximality_by_edges(s, g)

    def test_missing_single_vertex_not_maximal(self):
        g = cube_graph()
        support = set(g.vertices) - {(1, 1, 1)}
        s = components_of(g, support)
        assert not is_maximal(s, g)
        assert not maximality_by_edges(s, g)

    def test_inconsistent_structure_rejected(self):
        g = cube_graph()
        wrong = RobustnessStructure.from_blocks(
            CUBE_SPACE, [[(1, 1, 1)], [(1, 1, 2)]]
        )
        # (1,1,1)-(1,1,2) is an edge, so these blocks are not components
        with pytest.raises(InputError):
            is_maximal(wrong, g)

    def test_configuration_outside_the_graph(self):
        space = StateSpace(2, (2, 2))
        g = build_graph(make_uniform_spec(1, space), space)
        stray = RobustnessStructure.from_blocks(space, [[(1, 1)], [(9, 9)]])
        # (9, 9) is no vertex: the blocks are not the components, which is an
        # input error, not a failed lookup
        with pytest.raises(InputError):
            is_maximal(stray, g)
        with pytest.raises(InputError):
            maximality_by_edges(stray, g)
        assert grow_to_maximal(g, [(9, 9)]) == grow_to_maximal(g, [])

    def test_conditions_agree_on_small_graphs(self):
        for d, k in [((2, 2), 1), ((2, 2), 2), ((3,), 0), ((2, 2, 2), 2)]:
            space = StateSpace(2, d)
            g = build_graph(make_uniform_spec(k, space), space)
            verts = g.vertices
            for mask in range(1 << len(verts)):
                support = frozenset(verts[i] for i in range(len(verts)) if mask >> i & 1)
                s = components_of(g, support)
                assert is_maximal(s, g) == maximality_by_edges(s, g)


class TestEnumeration:
    def test_complete_graph_single_structure(self):
        space = StateSpace(2, (2, 2))
        g = build_graph(make_uniform_spec(0, space), space)
        structures = enumerate_maximal_structures(g)
        assert len(structures) == 1
        assert structures[0].blocks == (tuple(space.configs()),)

    def test_cube_against_brute_force_oracle(self):
        g = cube_graph()
        structures = enumerate_maximal_structures(g)
        oracle = brute_force_maximal_supports(
            list(g.vertices), lambda u, v: hamming(u, v) == 1
        )
        assert {s.support for s in structures} == set(oracle)
        assert all(is_maximal(s, g) for s in structures)

    def test_canonical_order_and_dedup(self):
        g = cube_graph()
        structures = enumerate_maximal_structures(g)
        assert structures == sorted(structures, key=lambda s: s.blocks)
        assert len(structures) == len(set(structures))

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(graphmod, "ENUMERATION_CAP", 7)
        with pytest.raises(ResourceLimitError, match="8 vertices exceed the enumeration cap of 7$"):
            enumerate_maximal_structures(cube_graph())

    @pytest.mark.parametrize("d", UNIFORM_SHAPES)
    def test_uniform_specs_against_subset_scan(self, d):
        space = StateSpace(2, d)
        for k in range(space.n + 1):
            g = build_graph(make_uniform_spec(k, space), space)
            assert enumerate_maximal_structures(g) == subset_scan_structures(g)

    def test_seeded_random_graphs_against_subset_scan(self):
        rng = random.Random("pruned-search")
        graphs = [random_graph(rng, m, density) for m in (1, 7, 14) for density in (0.0, 1.0)]
        while len(graphs) < 210:
            graphs.append(random_graph(rng, rng.randint(1, 14), rng.random()))
        for g in graphs:
            assert enumerate_maximal_structures(g) == subset_scan_structures(g)

    def test_twenty_vertices_against_subset_scan(self):
        space = StateSpace(2, (4, 5))
        g = build_graph(make_uniform_spec(1, space), space)
        structures = enumerate_maximal_structures(g)
        assert len(structures) == 1351
        assert structures == subset_scan_structures(g)

    def test_large_edgeless_space_runs_without_recursion(self, monkeypatch):
        space = StateSpace(2, (10, 110))
        monkeypatch.setattr(graphmod, "ENUMERATION_CAP", space.num_configs())
        g = build_graph(RobustnessSpec.of([((1, 2), y) for y in space.configs()]), space)
        assert g.num_edges() == 0
        start = time.perf_counter()
        structures = enumerate_maximal_structures(g)
        elapsed = time.perf_counter() - start
        assert structures == [components_of(g, g.vertices)]
        assert structures[0].num_blocks() == 1100
        assert elapsed < 1.0

    def test_cube_complement_taxonomy(self):
        g = cube_graph()
        categories = [cube_complement_category(s) for s in enumerate_maximal_structures(g)]
        counts = {c: categories.count(c) for c in set(categories)}
        assert counts == {"empty": 1, "plane-split": 6, "parity-class": 2, "vertex-cut": 8}


class TestCoarsening:
    def test_same_graph_identity(self):
        g = cube_graph()
        s = components_of(g, {(1, 1, 1), (1, 1, 2), (2, 2, 2)})
        assert components_of(g, s.support) == s

    def test_four_input_blocks_survive_k2_and_split_at_k3(self):
        space = StateSpace(2, (2, 2, 2, 2))
        g2 = build_graph(make_uniform_spec(2, space), space)
        g3 = build_graph(make_uniform_spec(3, space), space)
        s = components_of(g2, {(1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 2, 2), (2, 1, 2, 2)})
        assert components_of(g2, s.support) == s
        split = components_of(g3, s.support)
        assert [len(b) for b in split.blocks] == [1, 1, 1, 1]

    def test_each_block_lands_in_one_coarse_block(self):
        space = StateSpace(2, (2, 2, 2))
        g2 = cube_graph()
        g1 = build_graph(make_uniform_spec(1, space), space)
        for s in enumerate_maximal_structures(g2):
            coarse = components_of(g1, s.support)
            index = coarse.block_index()
            for block in s.blocks:
                assert len({index[x] for x in block}) == 1


class TestProductForm:
    def test_full_space_block(self):
        space = StateSpace(2, (2, 2))
        s = RobustnessStructure.from_blocks(space, [space.configs()])
        assert check_product_form(s, space)

    def test_two_block_tiling(self):
        space = StateSpace(2, (2, 3))
        s = RobustnessStructure.from_blocks(space, [
            [(1, 1), (1, 2)],
            [(2, 3)],
        ])
        # axis 2 letter 3 only reachable with x1=2; letters 1,2 only with x1=1
        assert check_product_form(s, space)

    def test_cube_vertex_cut_fails(self):
        s = RobustnessStructure.from_blocks(CUBE_SPACE, [
            [(1, 1, 1)],
            [(2, 2, 2), (2, 2, 1), (2, 1, 2), (1, 2, 2)],
        ])
        assert not check_product_form(s, CUBE_SPACE)

    def test_non_product_block_fails(self):
        space = StateSpace(2, (2, 2))
        s = RobustnessStructure.from_blocks(space, [[(1, 1), (2, 2)], [(1, 2), (2, 1)]])
        assert not check_product_form(s, space)

    def test_cube_antipodal_pair(self):
        # maximal, though fixing x2, x3 = (1, 2) has no completion in the support
        s = RobustnessStructure.from_blocks(CUBE_SPACE, [[(1, 2, 2)], [(2, 1, 1)]])
        assert is_maximal(s, build_graph(make_uniform_spec(1, CUBE_SPACE), CUBE_SPACE))
        assert check_product_form(s, CUBE_SPACE)

    def test_uncovered_letter_fails(self):
        space = StateSpace(2, (2, 2, 3))
        s = RobustnessStructure.from_blocks(space, [[(1, 1, 1)], [(2, 2, 2)]])
        # letter 3 of the last coordinate is uncovered: (1, 1, 3) touches one block
        graph = build_graph(make_uniform_spec(1, space), space)
        assert not is_maximal(s, graph)
        assert not check_product_form(s, space)


class TestGrowToMaximal:
    def test_result_is_maximal_and_contains_start(self):
        g = cube_graph()
        start = {(1, 1, 1), (2, 2, 2)}
        s = grow_to_maximal(g, start)
        assert is_maximal(s, g)
        assert start <= s.support

    def test_already_maximal_unchanged(self):
        g = cube_graph()
        s = components_of(g, g.vertices)
        assert grow_to_maximal(g, g.vertices) == s

    def test_kernel_with_nothing_undecided_matches_leaf_check(self):
        rng = random.Random("one-kernel")
        grown = 0
        for _ in range(300):
            g = random_graph(rng, rng.randint(1, 10), rng.random())
            full = (1 << len(g.vertices)) - 1
            mask = start = rng.randint(0, full)
            comps = _mask_components(mask, g._masks)
            got = _unmerging_vertex(mask, full & ~mask, 0, [(c, 0) for c in comps], g._masks)
            assert got == non_merging_vertex(mask, comps, g._masks)
            while bit := non_merging_vertex(mask, _mask_components(mask, g._masks), g._masks):
                mask |= bit
            assert grow_to_maximal(g, g._vertices_of(start)) == components_of(g, g._vertices_of(mask))
            grown += mask != start
        assert grown > 0


class TestStructureBasics:
    def test_from_blocks_canonicalizes(self):
        s = RobustnessStructure.from_blocks(CUBE_SPACE, [
            [(2, 2, 2), (2, 2, 1)],
            [(1, 1, 1)],
        ])
        assert s.blocks[0] == ((1, 1, 1),)
        assert s.blocks[1] == ((2, 2, 1), (2, 2, 2))

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(InputError):
            RobustnessStructure.from_blocks(CUBE_SPACE, [[(1, 1, 1)], [(1, 1, 1)]])

    def test_json_round_trip(self):
        g = cube_graph()
        s = components_of(g, {(1, 1, 1), (2, 2, 2)})
        assert structure_from_json(structure_to_json(s), CUBE_SPACE) == s

    def test_structure_file_with_infinity_rejected(self):
        with pytest.raises(InputError, match="bad structure file"):
            structure_from_json({"blocks": [[[1, 1, float("inf")]]]}, CUBE_SPACE)

    def test_graph_json_round_trip(self):
        g = cube_graph()
        obj = graph_to_json(g)
        loaded = graph_from_json(obj)
        assert loaded.edge_list() == g.edge_list()
        assert loaded.edge_witness == g.edge_witness


class TestEdgeMonotonicity:
    def test_uniform_spec_edges_nested(self):
        space = StateSpace(2, (2, 2, 2))
        for k in range(0, 3):
            coarse = build_graph(make_uniform_spec(k, space), space)
            fine = build_graph(make_uniform_spec(k + 1, space), space)
            assert set(fine.edge_list()) <= set(coarse.edge_list())
