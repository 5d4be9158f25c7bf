import itertools
import json
from fractions import Fraction

import pytest

from robustci import (
    InputError,
    JointDistribution,
    RobustnessSpec,
    StateSpace,
    build_graph,
    make_uniform_spec,
    restrict,
    validate_distribution,
)
from robustci.graph import graph_to_json
from robustci.model import (
    distribution_from_json,
    distribution_to_json,
    format_fraction,
    model_from_json,
    model_to_json,
    parse_fraction,
    vectors_proportional,
)


def oracle_uniform_pair_count(k, d):
    """Independent expansion: sum over subsets R with |R| >= k of prod d_i."""
    n = len(d)
    total = 0
    for size in range(k, n + 1):
        for nodes in itertools.combinations(range(1, n + 1), size):
            block = 1
            for i in nodes:
                block *= d[i - 1]
            total += block
    return total


class TestStateSpace:
    def test_configs_canonical_order(self):
        space = StateSpace(2, (2, 3))
        configs = space.configs()
        assert configs == sorted(configs)
        assert len(configs) == len(set(configs)) == 6
        assert configs[0] == (1, 1) and configs[-1] == (2, 3)

    def test_invariants_enforced(self):
        with pytest.raises(InputError):
            StateSpace(1, (2,))
        with pytest.raises(InputError):
            StateSpace(2, ())
        with pytest.raises(InputError):
            StateSpace(2, (2, 0))

    def test_alphabet_size_one_allowed(self):
        space = StateSpace(2, (1, 2))
        assert space.configs() == [(1, 1), (1, 2)]


class TestRestrict:
    def test_examples(self):
        assert restrict((1, 2, 2), {1, 3}) == (1, 2)
        assert restrict((1, 2, 2), set()) == ()
        assert restrict((2, 1), {1, 2}) == (2, 1)

    def test_projection_properties(self):
        space = StateSpace(2, (2, 2, 3))
        for x in space.configs():
            assert restrict(x, range(1, 4)) == x
            assert restrict(restrict(x, (1, 3)), (1,)) == restrict(x, (1,))

    def test_out_of_range_subset(self):
        with pytest.raises(InputError):
            restrict((1, 2), {3})


class TestUniformSpec:
    def test_k0_n1(self):
        space = StateSpace(2, (2,))
        spec = make_uniform_spec(0, space)
        assert spec.pairs == frozenset({((), ()), ((1,), (1,)), ((1,), (2,))})

    def test_k_equals_n(self):
        space = StateSpace(2, (2, 3))
        spec = make_uniform_spec(2, space)
        assert all(nodes == (1, 2) for nodes, _ in spec.pairs)
        assert len(spec) == space.num_configs()

    def test_k2_n3_binary_against_oracle(self):
        space = StateSpace(2, (2, 2, 2))
        spec = make_uniform_spec(2, space)
        assert len(spec) == oracle_uniform_pair_count(2, (2, 2, 2)) == 20

    def test_nesting(self):
        space = StateSpace(2, (2, 2, 2))
        for k in range(1, 4):
            finer = make_uniform_spec(k - 1, space)
            assert make_uniform_spec(k, space).pairs <= finer.pairs

    def test_k_out_of_range(self):
        space = StateSpace(2, (2,))
        with pytest.raises(InputError):
            make_uniform_spec(2, space)
        with pytest.raises(InputError):
            make_uniform_spec(-1, space)

    def test_duplicate_pairs_collapse(self):
        spec = RobustnessSpec.of([((1,), (2,)), ((1,), (2,)), ((), ())])
        assert len(spec) == 2


class TestSpecPairs:
    def test_letters_move_with_their_nodes(self):
        spec = RobustnessSpec.of([((3, 1), (1, 2))])
        assert spec.pairs == frozenset({((1, 3), (2, 1))})
        assert ((3, 1), (1, 2)) in spec and ((1, 3), (2, 1)) in spec
        assert ((1, 3), (1, 2)) not in spec

    @pytest.mark.parametrize("nodes, y", [((1, 1), (1, 2)), ((1, 2), (1,)), ((1,), (1, 2))])
    def test_repeated_node_or_length_mismatch(self, nodes, y):
        with pytest.raises(InputError):
            RobustnessSpec.of([(nodes, y)])
        with pytest.raises(InputError):
            (nodes, y) in RobustnessSpec.of([])

    def test_model_file_pairs_as_written(self):
        space = StateSpace(2, (2, 3, 2))

        def graph_json(nodes, y):
            obj = {"d0": 2, "d": [2, 3, 2], "spec": {"pairs": [{"R": nodes, "y": y}]}}
            _, spec = model_from_json(obj)
            return graph_to_json(build_graph(spec, space))

        unsorted = graph_json([3, 1], [1, 2])
        assert unsorted == graph_json([1, 3], [2, 1])
        assert unsorted != graph_json([1, 3], [1, 2])
        assert unsorted["edges"][0]["witness"] == {"R": [1, 3], "y": [2, 1]}


class TestValidateDistribution:
    def test_uniform_ok(self):
        space = StateSpace(2, (2, 2))
        assert validate_distribution(JointDistribution.uniform(space), space) is None

    def test_negative_entry(self):
        space = StateSpace(2, (2,))
        dist = JointDistribution.from_entries(space, {
            (1, (1,)): Fraction(3, 4),
            (2, (1,)): Fraction(3, 4),
            (1, (2,)): Fraction(-1, 2),
        })
        report = validate_distribution(dist, space)
        assert report is not None and "negative entry" in report

    def test_bad_sum(self):
        space = StateSpace(2, (2,))
        dist = JointDistribution.from_entries(space, {(1, (1,)): Fraction(3, 4)})
        report = validate_distribution(dist, space)
        assert report is not None and "sum != 1" in report

    def test_out_of_range(self):
        space = StateSpace(2, (2,))
        dist = JointDistribution.from_entries(space, {(3, (1,)): Fraction(1)})
        report = validate_distribution(dist, space)
        assert report is not None and "out-of-range" in report


class TestProportionality:
    def test_scalar_multiples(self):
        assert vectors_proportional((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
        assert not vectors_proportional((Fraction(1), Fraction(2)), (Fraction(2), Fraction(5)))

    def test_zero_vector_is_proportional_to_everything(self):
        zero = (Fraction(0), Fraction(0))
        assert vectors_proportional(zero, (Fraction(1), Fraction(7)))
        assert vectors_proportional((Fraction(1), Fraction(7)), zero)


class TestSerialization:
    def test_fraction_round_trip(self):
        for q in (Fraction(1, 3), Fraction(-7, 12), Fraction(0), Fraction(5)):
            assert parse_fraction(format_fraction(q)) == q
        with pytest.raises(InputError):
            parse_fraction("xyz")

    def test_model_round_trip_uniform(self):
        space = StateSpace(3, (2, 2))
        obj = model_to_json(space, uniform_k=1)
        loaded_space, loaded_spec = model_from_json(obj)
        assert loaded_space == space
        assert loaded_spec == make_uniform_spec(1, space)

    def test_model_round_trip_pairs(self):
        space = StateSpace(2, (2, 3))
        spec = RobustnessSpec.of([((1,), (2,)), ((), ()), ((1, 2), (1, 3))])
        obj = json.loads(json.dumps(model_to_json(space, spec=spec)))
        _, loaded = model_from_json(obj)
        assert loaded == spec

    def test_model_errors(self):
        with pytest.raises(InputError):
            model_from_json({"d0": 2})
        with pytest.raises(InputError):
            model_from_json({"d0": 2, "d": [2], "spec": {}})
        with pytest.raises(InputError):
            model_from_json({"d0": 2, "d": [2], "spec": {"pairs": [{"R": [5], "y": [1]}]}})

    def test_distribution_round_trip_bit_exact(self):
        space = StateSpace(2, (2, 2))
        dist = JointDistribution.from_entries(space, {
            (1, (1, 1)): Fraction(1, 3),
            (2, (1, 2)): Fraction(1, 7),
            (1, (2, 1)): Fraction(11, 21),
        })
        obj = json.loads(json.dumps(distribution_to_json(dist)))
        loaded = distribution_from_json(obj, space)
        for x in space.configs():
            assert loaded.column(x) == dist.column(x)

    def test_distribution_duplicate_entries_accumulate(self):
        space = StateSpace(2, (2,))
        obj = {"entries": [
            {"x0": 1, "x": [1], "p": "1/4"},
            {"x0": 1, "x": [1], "p": "1/4"},
        ]}
        loaded = distribution_from_json(obj, space)
        assert loaded.prob(1, (1,)) == Fraction(1, 2)
