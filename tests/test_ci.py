import random
from fractions import Fraction

import pytest

from robustci import (
    InputError,
    JointDistribution,
    RobustFunction,
    RobustnessSpec,
    RobustnessStructure,
    StateSpace,
    StructureParams,
    build_from_structure,
    build_graph,
    check_ci_statement,
    classify_structure,
    components_of,
    enumerate_maximal_structures,
    image_bound,
    is_robust,
    is_robust_function,
    make_uniform_spec,
    membership_in_PB,
    robustness_report,
    sample_structure_params,
)
from robustci.model import format_fraction, validate_spec, vectors_proportional


def product_table(space, out_dist, in_dist):
    """Output independent of input: p(x0, x) = out(x0) * in(x)."""
    table = {}
    for i, x in enumerate(space.configs()):
        for x0 in space.output_letters():
            table[(x0, x)] = out_dist[x0 - 1] * in_dist[i]
    return JointDistribution(space, table)


def non_robust_table():
    """n=2 binary, full support: columns at x1=1 proportional, at x1=2 not."""
    space = StateSpace(2, (2, 2))
    cols = {
        (1, 1): (Fraction(1, 7), Fraction(1, 7)),
        (1, 2): (Fraction(1, 14), Fraction(1, 14)),
        (2, 1): (Fraction(1, 7), Fraction(1, 14)),
        (2, 2): (Fraction(1, 14), Fraction(2, 7)),
    }
    table = {(x0, x): cols[x][x0 - 1] for x in space.configs() for x0 in (1, 2)}
    dist = JointDistribution(space, table)
    assert dist.total() == 1
    return space, dist


class TestCheckCiStatement:
    def test_product_table_satisfies_everything(self):
        space = StateSpace(2, (2, 2))
        dist = product_table(
            space,
            (Fraction(1, 3), Fraction(2, 3)),
            (Fraction(1, 4),) * 4,
        )
        for nodes, y in make_uniform_spec(0, space).sorted_pairs():
            assert check_ci_statement(dist, nodes, y)

    def test_diagonal_table_fails_unconditional(self):
        space = StateSpace(2, (2,))
        dist = JointDistribution.from_entries(space, {
            (1, (1,)): Fraction(1, 2),
            (2, (2,)): Fraction(1, 2),
        })
        assert not check_ci_statement(dist, (), ())

    def test_full_subset_vacuous(self):
        space, dist = non_robust_table()
        for y in space.configs():
            assert check_ci_statement(dist, (1, 2), y)

    def test_letters_follow_their_nodes(self):
        # the columns at x=(1,2,1) and (1,2,2) are not proportional; all others are
        space = StateSpace(2, (2, 2, 2))
        table = {(x0, x): Fraction(1, 18) for x in space.configs() for x0 in (1, 2)}
        table[(2, (1, 2, 1))] = Fraction(3, 18)
        dist = JointDistribution(space, table)
        assert dist.total() == 1
        # x1=1, x2=2 written in either order
        assert not check_ci_statement(dist, (1, 2), (1, 2))
        assert not check_ci_statement(dist, (2, 1), (2, 1))
        # x2=1, x1=2 pins two proportional columns
        assert check_ci_statement(dist, (2, 1), (1, 2))
        with pytest.raises(InputError):
            check_ci_statement(dist, (1, 1), (1, 2))

    def test_node_zero_rejected(self):
        # node 0 would otherwise pin the last coordinate through index -1
        dist = JointDistribution.uniform(StateSpace(2, (2, 2)))
        with pytest.raises(InputError, match="not within"):
            check_ci_statement(dist, (0,), (1,))

    def test_node_past_the_last_rejected(self):
        dist = JointDistribution.uniform(StateSpace(2, (2, 2)))
        with pytest.raises(InputError, match="not within"):
            check_ci_statement(dist, (3,), (1,))

    def test_letter_out_of_range_rejected(self):
        # letter 5 on a binary node pins only zero columns, which are proportional
        dist = JointDistribution.uniform(StateSpace(2, (2, 2)))
        with pytest.raises(InputError, match="out of range"):
            check_ci_statement(dist, (1,), (5,))


class TestIsRobust:
    def test_product_table_robust_for_every_spec(self):
        space = StateSpace(2, (2, 2))
        dist = product_table(
            space,
            (Fraction(2, 5), Fraction(3, 5)),
            (Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)),
        )
        for k in range(3):
            assert is_robust(dist, make_uniform_spec(k, space))

    def test_explicit_partial_failure(self):
        space, dist = non_robust_table()
        spec = make_uniform_spec(1, space)
        assert check_ci_statement(dist, (1,), (1,))
        assert not check_ci_statement(dist, (1,), (2,))
        assert not is_robust(dist, spec)
        report = robustness_report(dist, spec)
        assert report["robust"] is False
        assert report["failing_statement"]["R"] == [1]
        assert report["failing_statement"]["y"] == [2]
        minor = report["failing_statement"]["witness_minor"]
        assert minor["lhs"] != minor["rhs"]

    @pytest.mark.parametrize("nodes, y, message", [
        ((0,), (1,), "not within"),
        ((3,), (1,), "not within"),
        ((1,), (5,), "out of range"),
    ], ids=["node-0", "node-3", "letter-5"])
    @pytest.mark.parametrize("verdict", [is_robust, robustness_report], ids=["is_robust", "report"])
    def test_pair_outside_the_space_rejected(self, verdict, nodes, y, message):
        # unchecked, node 0 reads the last coordinate, node 3 raises IndexError
        # and letter 5 pins only zero columns, which are proportional
        dist = JointDistribution.uniform(StateSpace(2, (2, 2)))
        with pytest.raises(InputError, match=message):
            verdict(dist, RobustnessSpec.of([(nodes, y)]))

    def test_matches_edge_proportionality_oracle(self):
        rng = random.Random(2027)
        spaces = [StateSpace(2, (2, 2)), StateSpace(3, (3,)), StateSpace(2, (2, 2, 2))]
        for trial in range(120):
            space = spaces[trial % len(spaces)]
            k = rng.randint(0, space.n)
            spec = make_uniform_spec(k, space)
            graph = build_graph(spec, space)
            if trial % 3 == 0:
                structure = components_of(graph, [
                    x for x in space.configs() if rng.random() < 0.8
                ])
                if structure.is_empty():
                    continue
                dist = build_from_structure(
                    structure, sample_structure_params(structure, seed=trial)
                )
            else:
                table = {}
                for x in space.configs():
                    for x0 in space.output_letters():
                        table[(x0, x)] = Fraction(rng.randint(0, 4))
                total = sum(table.values())
                if not total:
                    continue
                dist = JointDistribution(space, {k_: v / total for k_, v in table.items()})
            edge_ok = all(
                vectors_proportional(dist.column(u), dist.column(v))
                for u, v in graph.edge_list()
            )
            assert is_robust(dist, spec) == edge_ok


def _oracle_full_config(n, nodes_a, part_a, nodes_b, part_b):
    out = [0] * n
    for i, v in zip(nodes_a, part_a):
        out[i - 1] = v
    for i, v in zip(nodes_b, part_b):
        out[i - 1] = v
    return tuple(out)


def _oracle_robustness_report(dist, spec):
    """The report built pair by pair: each pinned block assembled from the
    configurations on the complement, with its own loop over letter pairs."""
    space = dist.space
    validate_spec(spec, space)
    for nodes, y in spec.sorted_pairs():
        rest = [i for i in range(1, space.n + 1) if i not in nodes]
        configs = [
            _oracle_full_config(space.n, nodes, y, rest, xs)
            for xs in space.partial_configs(rest)
        ]
        for a in range(len(configs)):
            for b in range(a + 1, len(configs)):
                u, v = dist.column(configs[a]), dist.column(configs[b])
                for i in range(space.d0):
                    for j in range(i + 1, space.d0):
                        lhs, rhs = u[i] * v[j], u[j] * v[i]
                        if lhs != rhs:
                            return {
                                "robust": False,
                                "failing_statement": {
                                    "R": list(nodes),
                                    "y": list(y),
                                    "witness_minor": {
                                        "x": list(configs[a]),
                                        "x_prime": list(configs[b]),
                                        "x0": i + 1,
                                        "x0_prime": j + 1,
                                        "lhs": format_fraction(lhs),
                                        "rhs": format_fraction(rhs),
                                    },
                                },
                            }
    return {"robust": True, "failing_statement": None}


def _random_pair_spec(rng, space):
    pairs = []
    for _ in range(rng.randint(1, 8)):
        nodes = tuple(i for i in range(1, space.n + 1) if rng.random() < 0.5)
        pairs.append((nodes, tuple(rng.randint(1, space.d[i - 1]) for i in nodes)))
    return RobustnessSpec.of(pairs)


class TestReportOracle:
    SPACES = [
        StateSpace(2, (2, 2)), StateSpace(3, (3,)), StateSpace(2, (2, 3)),
        StateSpace(3, (2, 2, 2)), StateSpace(2, (3, 1, 4)), StateSpace(4, (4, 4)),
        StateSpace(2, (2, 2, 2, 2, 2, 2)), StateSpace(3, (4, 4, 4)), StateSpace(2, (2, 4, 8)),
    ]

    def test_report_matches_pair_by_pair_oracle(self):
        rng = random.Random(4051)
        verdicts = []
        for trial in range(90):
            space = self.SPACES[trial % len(self.SPACES)]
            if trial % 2:
                spec = _random_pair_spec(rng, space)
            else:
                # |R| >= n - 3 keeps the binary n=6 specs to a few hundred pairs
                spec = make_uniform_spec(rng.randint(max(0, space.n - 3), space.n), space)
            graph = build_graph(spec, space)
            structure = components_of(graph, [x for x in space.configs() if rng.random() < 0.8])
            if structure.is_empty():
                continue
            dist = build_from_structure(structure, sample_structure_params(structure, seed=trial))
            table = dict(dist.table)
            table[(rng.randint(1, space.d0), rng.choice(space.configs()))] += Fraction(1, 5)
            for candidate in (dist, JointDistribution(space, table)):
                report = robustness_report(candidate, spec)
                assert report == _oracle_robustness_report(candidate, spec)
                verdicts.append(report["robust"])
        assert all(verdicts[::2])
        assert sum(not robust for robust in verdicts[1::2]) > 45


class TestClassifyStructure:
    def test_full_support(self):
        space = StateSpace(2, (2, 2))
        spec = make_uniform_spec(1, space)
        graph = build_graph(spec, space)
        dist = JointDistribution.uniform(space)
        assert classify_structure(dist, graph) == components_of(graph, space.configs())

    def test_antipodal_support_in_cube(self):
        space = StateSpace(2, (2, 2, 2))
        graph = build_graph(make_uniform_spec(2, space), space)
        dist = JointDistribution.from_entries(space, {
            (1, (1, 1, 1)): Fraction(1, 2),
            (2, (2, 2, 2)): Fraction(1, 2),
        })
        assert classify_structure(dist, graph).blocks == (((1, 1, 1),), ((2, 2, 2),))


class TestBuildFromStructure:
    def test_uniform_from_single_block(self):
        space = StateSpace(2, (2, 2))
        structure = RobustnessStructure.from_blocks(space, [space.configs()])
        params = StructureParams(
            block_weights=(Fraction(1),),
            config_weights=((Fraction(1, 4),) * 4,),
            output_dists=((Fraction(1, 2), Fraction(1, 2)),),
        )
        dist = build_from_structure(structure, params)
        uniform = JointDistribution.uniform(space)
        for x in space.configs():
            assert dist.column(x) == uniform.column(x)

    def test_four_input_example_round_trip(self):
        space = StateSpace(2, (2, 2, 2, 2))
        spec = make_uniform_spec(2, space)
        graph = build_graph(spec, space)
        structure = components_of(
            graph, {(1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 2, 2), (2, 1, 2, 2)}
        )
        params = StructureParams(
            block_weights=(Fraction(1, 2), Fraction(1, 2)),
            config_weights=((Fraction(1, 2), Fraction(1, 2)),) * 2,
            output_dists=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
        )
        dist = build_from_structure(structure, params)
        assert dist.total() == 1
        assert is_robust(dist, spec)
        assert classify_structure(dist, graph) == structure
        assert membership_in_PB(dist, structure, graph)

    def test_positivity_enforced(self):
        space = StateSpace(2, (2,))
        structure = RobustnessStructure.from_blocks(space, [[(1,)], [(2,)]])
        bad = StructureParams(
            block_weights=(Fraction(1), Fraction(0)),
            config_weights=((Fraction(1),), (Fraction(1),)),
            output_dists=((Fraction(1), Fraction(0)),) * 2,
        )
        with pytest.raises(InputError):
            build_from_structure(structure, bad)

    def test_singleton_blocks_arbitrary_conditionals(self):
        # no edges between the two supports: robustness is vacuous
        space = StateSpace(2, (2, 2))
        spec = make_uniform_spec(2, space)
        graph = build_graph(spec, space)  # edgeless
        structure = components_of(graph, [(1, 1), (2, 2)])
        params = StructureParams(
            block_weights=(Fraction(1, 3), Fraction(2, 3)),
            config_weights=((Fraction(1),), (Fraction(1),)),
            output_dists=((Fraction(1), Fraction(0)), (Fraction(1, 4), Fraction(3, 4))),
        )
        dist = build_from_structure(structure, params)
        assert is_robust(dist, spec)
        assert classify_structure(dist, graph) == structure


class TestMembership:
    def test_zeroed_block_shrinks_support(self):
        space = StateSpace(2, (2, 2, 2))
        graph = build_graph(make_uniform_spec(2, space), space)
        structure = components_of(graph, {(1, 1, 1), (2, 2, 2)})
        params = StructureParams(
            block_weights=(Fraction(1, 2), Fraction(1, 2)),
            config_weights=((Fraction(1),), (Fraction(1),)),
            output_dists=((Fraction(1, 2), Fraction(1, 2)),) * 2,
        )
        dist = build_from_structure(structure, params)
        assert membership_in_PB(dist, structure, graph)
        table = {
            key: (Fraction(0) if key[1] == (2, 2, 2) else 2 * value)
            for key, value in dist.table.items()
        }
        shrunk = JointDistribution(space, table)
        assert shrunk.total() == 1
        assert not membership_in_PB(shrunk, structure, graph)

    def test_non_robust_table_fails_single_block(self):
        space, dist = non_robust_table()
        graph = build_graph(make_uniform_spec(1, space), space)
        structure = components_of(graph, space.configs())
        assert structure.num_blocks() == 1
        assert not membership_in_PB(dist, structure, graph)

    def test_at_most_one_structure_accepts(self):
        space = StateSpace(2, (2, 2))
        graph = build_graph(make_uniform_spec(1, space), space)
        structure = components_of(graph, space.configs())
        dist = build_from_structure(structure, sample_structure_params(structure, seed=5))
        hits = 0
        verts = graph.vertices
        for mask in range(1 << len(verts)):
            support = frozenset(verts[i] for i in range(len(verts)) if mask >> i & 1)
            if membership_in_PB(dist, components_of(graph, support), graph):
                hits += 1
        assert hits == 1


class TestRobustFunction:
    def test_constant_on_connected_graph(self):
        space = StateSpace(2, (2, 2, 2))
        graph = build_graph(make_uniform_spec(2, space), space)
        f = RobustFunction(frozenset(space.configs()), {x: "a" for x in space.configs()})
        assert is_robust_function(f, graph)

    def test_two_values_on_connected_cube_fail(self):
        space = StateSpace(2, (2, 2, 2))
        graph = build_graph(make_uniform_spec(2, space), space)
        values = {x: ("a" if x[0] == 1 else "b") for x in space.configs()}
        f = RobustFunction(frozenset(space.configs()), values)
        assert not is_robust_function(f, graph)

    def test_block_indicator_of_example_structure(self):
        space = StateSpace(2, (2, 2, 2, 2))
        graph = build_graph(make_uniform_spec(2, space), space)
        structure = components_of(
            graph, {(1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 2, 2), (2, 1, 2, 2)}
        )
        values = {}
        for idx, block in enumerate(structure.blocks):
            for x in block:
                values[x] = str(idx)
        f = RobustFunction(structure.support, values)
        assert is_robust_function(f, graph)

    def test_domain_mismatch_rejected(self):
        with pytest.raises(InputError):
            RobustFunction(frozenset({(1,)}), {})


class TestImageBound:
    def test_uniform_binary(self):
        for n in (2, 3):
            space = StateSpace(2, (2,) * n)
            for k in range(n + 1):
                assert image_bound(make_uniform_spec(k, space), space) == 2 ** k

    def test_k0_bound_is_one(self):
        space = StateSpace(2, (2, 3))
        assert image_bound(make_uniform_spec(0, space), space) == 1

    def test_cube_bound_respected(self):
        space = StateSpace(2, (2, 2, 2))
        spec = make_uniform_spec(2, space)
        graph = build_graph(spec, space)
        bound = image_bound(spec, space)
        assert bound == 4
        assert all(s.num_blocks() <= bound for s in enumerate_maximal_structures(graph))

    def test_undefined_without_fully_covered_subset(self):
        space = StateSpace(2, (2, 2))
        spec = RobustnessSpec.of([((1,), (1,))])
        with pytest.raises(InputError):
            image_bound(spec, space)

    def test_distinct_conditionals_bounded(self):
        space = StateSpace(2, (2, 2, 2))
        spec = make_uniform_spec(2, space)
        graph = build_graph(spec, space)
        bound = image_bound(spec, space)
        for idx, structure in enumerate(enumerate_maximal_structures(graph)):
            dist = build_from_structure(structure, sample_structure_params(structure, seed=idx))
            conditionals = set()
            for x in dist.support():
                col = dist.column(x)
                total = sum(col)
                conditionals.add(tuple(v / total for v in col))
            assert len(conditionals) <= bound


class TestSampledParams:
    def test_params_valid_and_reproducible(self):
        space = StateSpace(3, (2, 2))
        graph = build_graph(make_uniform_spec(1, space), space)
        structure = components_of(graph, space.configs())
        a = sample_structure_params(structure, seed=11)
        b = sample_structure_params(structure, seed=11)
        assert a == b
        assert sum(a.block_weights) == 1
        assert all(sum(v) == 1 for v in a.config_weights)
        assert all(sum(v) == 1 for v in a.output_dists)
        assert all(w > 0 for v in a.config_weights for w in v)

    def test_round_trip_over_maximal_structures(self):
        space = StateSpace(2, (2, 2))
        spec = make_uniform_spec(1, space)
        graph = build_graph(spec, space)
        for idx, structure in enumerate(enumerate_maximal_structures(graph)):
            params = sample_structure_params(structure, seed=100 + idx)
            dist = build_from_structure(structure, params)
            assert is_robust(dist, spec)
            assert classify_structure(dist, graph) == structure
            assert membership_in_PB(dist, structure, graph)
