import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from robustci import (
    FunctionalModalities,
    GibbsPotentials,
    InputError,
    StateSpace,
    alpha_coefficient,
    check_robust_at,
    check_tilde_constraints,
    gibbs_kernel,
    k_interaction_decompose,
    moebius_potentials,
    neuron_modalities,
    positive_mixture,
    potential_robustness_criterion,
)
from robustci.gibbs import (
    is_uniformly_robust_at,
    modalities_from_json,
    modalities_from_potentials,
    modalities_to_json,
    reconstruct_potential,
    tilde_constraint_report,
    uniform_modalities,
)
from robustci.model import node_subsets


def random_modalities(space, rng):
    kernels = {}
    for nodes in node_subsets(space.n):
        rows = {}
        for xa in space.partial_configs(nodes):
            raw = [rng.uniform(0.05, 1.0) for _ in range(space.d0)]
            total = sum(raw)
            rows[xa] = tuple(v / total for v in raw)
        kernels[nodes] = rows
    return FunctionalModalities(space, kernels)


def constant_modalities(space, row):
    kernels = {
        nodes: {xa: tuple(row) for xa in space.partial_configs(nodes)}
        for nodes in node_subsets(space.n)
    }
    return FunctionalModalities(space, kernels)


def diagonal_example():
    """Two binary inputs, robust exactly on the diagonal for single knockouts.

    The pair potential cancels the single-input potentials on the diagonal and
    is free elsewhere; the two single-input potentials agree.
    """
    space = StateSpace(2, (2, 2))
    single = {(1,): (0.2, -0.1), (2,): (0.1, 0.4)}
    phi = {
        (): {(): (0.3, -0.2)},
        (1,): dict(single),
        (2,): dict(single),
        (1, 2): {
            (1, 1): tuple(-v for v in single[(1,)]),
            (2, 2): tuple(-v for v in single[(2,)]),
            (1, 2): (0.7, -0.3),
            (2, 1): (-0.4, 0.25),
        },
    }
    pots = GibbsPotentials(space, phi)
    return pots, modalities_from_potentials(pots)


class TestMoebiusPotentials:
    def test_uniform_kernels_collapse(self):
        space = StateSpace(3, (2, 2))
        pots = moebius_potentials(uniform_modalities(space))
        assert all(abs(v - math.log(1 / 3)) < 1e-12 for v in pots.value((), ()))
        for nodes in node_subsets(2):
            if not nodes:
                continue
            for xa, row in pots.phi[nodes].items():
                assert all(abs(v) < 1e-12 for v in row)

    def test_two_term_inversion_single_input(self):
        space = StateSpace(2, (2,))
        rng = random.Random(0)
        mods = random_modalities(space, rng)
        pots = moebius_potentials(mods)
        for x1 in (1, 2):
            for x0 in (0, 1):
                empty = math.log(mods.row((), ())[x0])
                full = math.log(mods.row((1,), (x1,))[x0])
                assert abs(pots.value((), ())[x0] - empty) < 1e-12
                assert abs(pots.value((1,), (x1,))[x0] - (full - empty)) < 1e-12

    def test_inversion_identity_neuron(self):
        mods = neuron_modalities([1.0, -2.0])
        pots = moebius_potentials(mods)
        for nodes in node_subsets(2):
            for xa in mods.space.partial_configs(nodes):
                logs = [math.log(p) for p in mods.row(nodes, xa)]
                acc = [0.0, 0.0]
                for size in range(len(nodes) + 1):
                    for sub in itertools.combinations(nodes, size):
                        pos = {i: k for k, i in enumerate(nodes)}
                        xc = tuple(xa[pos[i]] for i in sub)
                        vals = pots.value(sub, xc)
                        acc = [a + v for a, v in zip(acc, vals)]
                assert all(abs(a - l) < 1e-9 for a, l in zip(acc, logs))

    def test_positivity_required(self):
        space = StateSpace(2, (2,))
        kernels = {
            (): {(): (1.0, 0.0)},
            (1,): {(1,): (0.5, 0.5), (2,): (0.5, 0.5)},
        }
        mods = FunctionalModalities(space, kernels)
        with pytest.raises(InputError):
            moebius_potentials(mods)


class TestGibbsKernel:
    def test_zero_potentials_give_uniform(self):
        space = StateSpace(4, (2,))
        phi = {nodes: {xa: (0.0,) * 4 for xa in space.partial_configs(nodes)}
               for nodes in node_subsets(1)}
        rows = gibbs_kernel(GibbsPotentials(space, phi), (1,))
        assert all(abs(p - 0.25) < 1e-12 for row in rows.values() for p in row)

    def test_round_trip(self):
        rng = random.Random(5)
        for trial in range(20):
            space = StateSpace(rng.randint(2, 3), tuple(rng.randint(2, 3) for _ in range(rng.randint(1, 3))))
            mods = random_modalities(space, rng)
            pots = moebius_potentials(mods)
            for nodes in node_subsets(space.n):
                rebuilt = gibbs_kernel(pots, nodes)
                for xa, row in rebuilt.items():
                    original = mods.row(nodes, xa)
                    assert max(abs(a - b) for a, b in zip(row, original)) < 1e-9

    def test_gauge_freedom(self):
        space = StateSpace(2, (2, 2))
        rng = random.Random(9)
        mods = random_modalities(space, rng)
        pots = moebius_potentials(mods)
        shifted = {
            nodes: {xa: tuple(row) for xa, row in rows.items()}
            for nodes, rows in pots.phi.items()
        }
        # add an output-independent offset to one potential
        shifted[(1, 2)] = {
            xa: tuple(v + 3.7 for v in row) for xa, row in shifted[(1, 2)].items()
        }
        before = gibbs_kernel(pots, (1, 2))
        after = gibbs_kernel(GibbsPotentials(space, shifted), (1, 2))
        for xa in before:
            assert max(abs(a - b) for a, b in zip(before[xa], after[xa])) < 1e-12

    def test_large_weights_survive_stabilization(self):
        mods = neuron_modalities([400.0, -300.0])
        pots = moebius_potentials(positive_mixture(mods, 1e-12))
        rows = gibbs_kernel(pots, (1, 2))
        assert all(math.isfinite(p) for row in rows.values() for p in row)


class TestRobustnessChecks:
    def test_constant_kernels_always_robust(self):
        space = StateSpace(2, (2, 2))
        mods = constant_modalities(space, (0.3, 0.7))
        for x in space.configs():
            for size in range(0, 3):
                for knocked in itertools.combinations((1, 2), size):
                    assert check_robust_at(mods, x, knocked)

    def test_neuron_partial_sum_differs(self):
        mods = neuron_modalities([1.0, 1.0])
        assert not check_robust_at(mods, (2, 1), (2,))

    def test_empty_knockout_trivially_robust(self):
        mods = neuron_modalities([1.0, 1.0])
        for x in mods.space.configs():
            assert check_robust_at(mods, x, ())

    def test_diagonal_example(self):
        pots, mods = diagonal_example()
        for x in mods.space.configs():
            expected = x[0] == x[1]
            for knocked in ((1,), (2,)):
                assert check_robust_at(mods, x, knocked) == expected
                assert potential_robustness_criterion(pots, x, knocked) == expected
        assert is_uniformly_robust_at(mods, (1, 1), 1)
        assert not is_uniformly_robust_at(mods, (1, 2), 1)

    def test_criterion_matches_direct_check(self):
        rng = random.Random(31)
        for trial in range(200):
            n = rng.randint(1, 3)
            space = StateSpace(rng.randint(2, 3), tuple(rng.randint(2, 3) for _ in range(n)))
            mods = random_modalities(space, rng)
            pots = moebius_potentials(mods)
            for x in space.configs():
                for size in range(1, n + 1):
                    for knocked in itertools.combinations(range(1, n + 1), size):
                        assert potential_robustness_criterion(pots, x, knocked) == check_robust_at(mods, x, knocked)


class TestAlphaCoefficient:
    def test_diagonal_is_one(self):
        for k in range(0, 6):
            assert alpha_coefficient(k, k, k) == 1

    def test_below_k_is_moebius_sign(self):
        for k in range(1, 5):
            for a in range(k, k + 4):
                for c in range(0, k):
                    assert alpha_coefficient(a, c, k) == Fraction((-1) ** (a - c))

    def test_one_above_k(self):
        for k in range(1, 6):
            assert alpha_coefficient(k + 1, k, k) == Fraction(-k, k + 1)

    def test_errors(self):
        with pytest.raises(InputError):
            alpha_coefficient(2, 3, 3)
        with pytest.raises(InputError):
            alpha_coefficient(3, 2, 1)


class TestKInteraction:
    def test_k_equals_n_collapses_to_moebius(self):
        rng = random.Random(77)
        space = StateSpace(2, (2, 2))
        mods = random_modalities(space, rng)
        dec = k_interaction_decompose(mods, 2)
        pots = moebius_potentials(mods)
        for nodes in node_subsets(2):
            rec = reconstruct_potential(dec, nodes)
            for xa, row in rec.items():
                target = pots.value(nodes, xa)
                assert max(abs(a - b) for a, b in zip(row, target)) < 1e-9

    def test_constant_in_input_reconstructs_everywhere(self):
        space = StateSpace(2, (2, 2, 2))
        mods = constant_modalities(space, (0.25, 0.75))
        for k in range(0, 4):
            dec = k_interaction_decompose(mods, k)
            pots = moebius_potentials(mods)
            for nodes in node_subsets(3):
                rec = reconstruct_potential(dec, nodes)
                for xa, row in rec.items():
                    target = pots.value(nodes, xa)
                    assert max(abs(a - b) for a, b in zip(row, target)) < 1e-8

    def test_diagonal_example_reconstruction(self):
        _, mods = diagonal_example()
        dec = k_interaction_decompose(mods, 1)
        pots = moebius_potentials(mods)
        rec = reconstruct_potential(dec, (1, 2))
        for xa in ((1, 1), (2, 2)):
            target = pots.value((1, 2), xa)
            assert max(abs(a - b) for a, b in zip(rec[xa], target)) < 1e-8
        # off the diagonal the bounded-interaction form genuinely misses
        off_errors = [
            max(abs(a - b) for a, b in zip(rec[xa], pots.value((1, 2), xa)))
            for xa in ((1, 2), (2, 1))
        ]
        assert min(off_errors) > 1e-2

    def test_positivity_required(self):
        space = StateSpace(2, (2,))
        mods = FunctionalModalities(space, {
            (): {(): (1.0, 0.0)},
            (1,): {(1,): (0.5, 0.5), (2,): (0.5, 0.5)},
        })
        with pytest.raises(InputError):
            k_interaction_decompose(mods, 1)


class TestPositiveMixture:
    def test_eps_one_is_uniform(self):
        mods = neuron_modalities([2.0])
        mixed = positive_mixture(mods, 1.0)
        for nodes, rows in mixed.kernels.items():
            for row in rows.values():
                assert all(abs(p - 0.5) < 1e-12 for p in row)

    def test_small_eps_close_to_original(self):
        mods = neuron_modalities([1.0, -2.0])
        mixed = positive_mixture(mods, 1e-6)
        sup = max(
            abs(a - b)
            for nodes in node_subsets(2)
            for xa in mods.space.partial_configs(nodes)
            for a, b in zip(mixed.row(nodes, xa), mods.row(nodes, xa))
        )
        assert sup <= 1e-6

    def test_exact_equalities_survive(self):
        # deterministic kernels equal across a knockout stay equal after mixing
        space = StateSpace(2, (2,))
        kernels = {
            (): {(): (1.0, 0.0)},
            (1,): {(1,): (1.0, 0.0), (2,): (0.0, 1.0)},
        }
        mods = FunctionalModalities(space, kernels)
        assert check_robust_at(mods, (1,), (1,), tol=0.0)
        mixed = positive_mixture(mods, 0.5)
        assert check_robust_at(mixed, (1,), (1,), tol=0.0)
        assert mixed.is_strictly_positive()

    def test_eps_range(self):
        mods = neuron_modalities([1.0])
        for eps in (0.0, -0.5, 1.5):
            with pytest.raises(InputError):
                positive_mixture(mods, eps)


class TestTildeConstraints:
    def test_constant_input_two_nodes_order_one(self):
        space = StateSpace(2, (2, 2))
        mods = constant_modalities(space, (0.3, 0.7))
        dec = k_interaction_decompose(mods, 1)
        assert check_tilde_constraints(dec)

    def test_perturbed_term_fails(self):
        space = StateSpace(2, (2, 2))
        mods = constant_modalities(space, (0.3, 0.7))
        dec = k_interaction_decompose(mods, 1)
        psi = {key: dict(rows) for key, rows in dec.psi.items()}
        key = ((), (1,))
        psi[key] = {xa: tuple(v + 0.5 for v in row) for xa, row in psi[key].items()}
        from robustci import KInteractionDecomposition
        broken = KInteractionDecomposition(space, 1, psi)
        assert not check_tilde_constraints(broken)

    def test_k_equals_n_vacuous_second_family(self):
        rng = random.Random(3)
        space = StateSpace(2, (2, 2))
        mods = random_modalities(space, rng)
        dec = k_interaction_decompose(mods, 2)
        report = tilde_constraint_report(dec)
        assert report["order_k_ok"] and not report["order_k_violations"]

    def test_verbatim_order_k_identity_fails_for_three_inputs(self):
        # the literal weighted-sum display is not scale-consistent once ambient
        # sets of three different sizes share a k-subset; the report flags the
        # order-k family separately from the low-order one
        space = StateSpace(2, (2, 2, 2))
        mods = constant_modalities(space, (0.3, 0.7))
        dec = k_interaction_decompose(mods, 1)
        report = tilde_constraint_report(dec)
        assert report["low_order_ok"]
        assert not report["order_k_ok"]


class TestSerialization:
    def test_round_trip_bit_exact(self):
        mods = neuron_modalities([1.0, -2.0])
        obj = json.loads(json.dumps(modalities_to_json(mods)))
        loaded = modalities_from_json(obj)
        assert loaded.space == mods.space
        for nodes in node_subsets(2):
            for xa in mods.space.partial_configs(nodes):
                assert loaded.row(nodes, xa) == mods.row(nodes, xa)

    def test_row_sum_validated(self):
        space = StateSpace(2, (2,))
        with pytest.raises(InputError):
            FunctionalModalities(space, {
                (): {(): (0.6, 0.6)},
                (1,): {(1,): (0.5, 0.5), (2,): (0.5, 0.5)},
            })

    def test_missing_subset_rejected(self):
        space = StateSpace(2, (2,))
        with pytest.raises(InputError):
            FunctionalModalities(space, {(): {(): (0.5, 0.5)}})
