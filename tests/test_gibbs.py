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
    KInteractionDecomposition,
    ResourceLimitError,
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
    _weighted_sum_coefficient,
    check_table_size,
    is_uniformly_robust_at,
    modalities_from_json,
    modalities_from_potentials,
    modalities_to_json,
    reconstruct_potential,
    robustness_table,
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


    @pytest.mark.parametrize("weights", [(math.inf, 0.0), (-math.inf, -math.inf), (0.0, math.nan)])
    def test_non_finite_row_maximum_rejected(self, weights):
        with pytest.raises(InputError, match="non-finite log-weights"):
            gibbs_kernel(one_input_potentials(weights), (1,))

    def test_minus_infinity_weight_has_probability_zero(self):
        rows = gibbs_kernel(one_input_potentials((-math.inf, 0.0)), (1,))
        assert rows == {(1,): (0.0, 1.0), (2,): (0.0, 1.0)}


def one_input_potentials(empty_weights):
    """One binary input: phi_{}() = empty_weights, phi_{1} zero."""
    space = StateSpace(2, (2,))
    return GibbsPotentials(space, {(): {(): empty_weights}, (1,): {(1,): (0.0, 0.0), (2,): (0.0, 0.0)}})


class TestRobustnessChecks:
    def test_constant_kernels_always_robust(self):
        space = StateSpace(2, (2, 2))
        mods = constant_modalities(space, (0.3, 0.7))
        for x in space.configs():
            for size in range(0, 3):
                for knocked in itertools.combinations((1, 2), size):
                    assert check_robust_at(mods, x, knocked)

    def test_table_cap_admits_binary_n8(self):
        check_table_size((2,) * 8)
        check_table_size((256,))
        with pytest.raises(ResourceLimitError, match="261632 entries exceeds the cap of 65280"):
            check_table_size((2,) * 9)

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
        assert mods.row((1,), (1,)) == mods.row((), ())
        mixed = positive_mixture(mods, 0.5)
        assert mixed.row((1,), (1,)) == mixed.row((), ())
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


# ---------------------------------------------------------------------------
# Oracles: the straightforward per-configuration forms of the gibbs layer.
# They restrict every configuration through a fresh position map, rebuild
# each interaction term for every ambient set and compare every pair of
# ambient sets at every configuration.  The fast paths must agree with them
# exactly, floats bit for bit and reports entry for entry.

def _oracle_sub_restrict(nodes_from, x_from, nodes_to):
    pos = {i: k for k, i in enumerate(nodes_from)}
    return tuple(x_from[pos[i]] for i in nodes_to)


def _oracle_moebius_potentials(mods):
    space = mods.space
    logs = {
        nodes: {xa: tuple(math.log(p) for p in row) for xa, row in rows.items()}
        for nodes, rows in mods.kernels.items()
    }
    phi = {}
    for nodes in node_subsets(space.n):
        rows = {}
        for xa in space.partial_configs(nodes):
            acc = [0.0] * space.d0
            for size in range(len(nodes) + 1):
                for sub in itertools.combinations(nodes, size):
                    sign = -1.0 if (len(nodes) - size) % 2 else 1.0
                    vals = logs[sub][_oracle_sub_restrict(nodes, xa, sub)]
                    for x0 in range(space.d0):
                        acc[x0] += sign * vals[x0]
            rows[xa] = tuple(acc)
        phi[nodes] = rows
    return phi


def _oracle_gibbs_kernel(pots, nodes):
    space = pots.space
    rows = {}
    for xa in space.partial_configs(nodes):
        weights = [0.0] * space.d0
        for size in range(len(nodes) + 1):
            for sub in itertools.combinations(nodes, size):
                vals = pots.phi[sub][_oracle_sub_restrict(nodes, xa, sub)]
                for x0 in range(space.d0):
                    weights[x0] += vals[x0]
        top = max(weights)
        expd = [math.exp(w - top) for w in weights]
        total = sum(expd)
        rows[xa] = tuple(e / total for e in expd)
    return rows


def _oracle_psi(mods, k):
    """Interaction terms with a separate row map for every (C, A)."""
    psi = {}
    for large in node_subsets(mods.space.n):
        for size in range(min(k, len(large)) + 1):
            for small in itertools.combinations(large, size):
                coeff = float(alpha_coefficient(len(large), len(small), k))
                psi[(small, large)] = {
                    xc: tuple(coeff * math.log(p) for p in row)
                    for xc, row in mods.kernels[small].items()
                }
    return psi


def _oracle_reconstruct_potential(dec, nodes):
    space = dec.space
    out = {}
    for xa in space.partial_configs(nodes):
        acc = [0.0] * space.d0
        for size in range(min(dec.k, len(nodes)) + 1):
            for small in itertools.combinations(nodes, size):
                vals = dec.psi[(small, nodes)][_oracle_sub_restrict(nodes, xa, small)]
                for x0 in range(space.d0):
                    acc[x0] += vals[x0]
        out[xa] = tuple(acc)
    return out


def _oracle_tilde_constraint_report(dec, tol=1e-9):
    space = dec.space
    k = dec.k
    family_small = []
    family_k = []
    by_small = {}
    for (small, large) in dec.psi:
        by_small.setdefault(small, []).append(large)
    for small, larges in sorted(by_small.items()):
        larges = sorted(larges)
        for a_idx in range(len(larges)):
            for b_idx in range(a_idx + 1, len(larges)):
                la, lb = larges[a_idx], larges[b_idx]
                for xc in space.partial_configs(small):
                    va = dec.psi[(small, la)][xc]
                    vb = dec.psi[(small, lb)][xc]
                    if len(small) < k:
                        sa = (-1.0) ** len(la)
                        sb = (-1.0) ** len(lb)
                        if any(abs(sa * p - sb * q) > tol for p, q in zip(va, vb)):
                            family_small.append({"B": list(small), "A": list(la), "A_prime": list(lb)})
                    elif len(small) == k:
                        ca = float(_weighted_sum_coefficient(len(lb), k))
                        cb = float(_weighted_sum_coefficient(len(la), k))
                        if any(abs(ca * p - cb * q) > tol for p, q in zip(va, vb)):
                            family_k.append({"B": list(small), "A": list(la), "A_prime": list(lb)})
    return {
        "low_order_ok": not family_small,
        "order_k_ok": not family_k,
        "low_order_violations": family_small,
        "order_k_violations": family_k,
    }


def _oracle_robustness_table(mods):
    full = tuple(range(1, mods.space.n + 1))
    return [
        {"x": list(x), "S": list(knocked_out), "robust": check_robust_at(mods, x, knocked_out)}
        for x in mods.space.configs()
        for size in range(1, mods.space.n + 1)
        for knocked_out in itertools.combinations(full, size)
    ]


def _neuron_instance(n):
    rng = random.Random(100 + n)
    return neuron_modalities([round(rng.uniform(-2.0, 2.0), 3) for _ in range(n)])


def _family_instance(seed):
    rng = random.Random(seed)
    d = [2, 3, 4]
    rng.shuffle(d)
    return random_modalities(StateSpace(3, tuple(d)), rng)


ORACLE_INSTANCES = (
    [pytest.param(lambda n=n: _neuron_instance(n), id=f"neuron-{n}") for n in range(1, 7)]
    + [pytest.param(lambda s=s: _family_instance(s), id=f"family-234-seed{s}") for s in range(3)]
)


class TestFastPathsMatchOracles:
    @pytest.mark.parametrize("make", ORACLE_INSTANCES)
    def test_potentials_kernels_and_table(self, make):
        mods = make()
        pots = moebius_potentials(mods)
        assert pots.phi == _oracle_moebius_potentials(mods)
        for nodes in node_subsets(mods.space.n):
            assert gibbs_kernel(pots, nodes) == _oracle_gibbs_kernel(pots, nodes)
        assert robustness_table(mods) == _oracle_robustness_table(mods)

    @pytest.mark.parametrize("make", ORACLE_INSTANCES)
    def test_decomposition_and_tilde_report_every_k(self, make):
        mods = make()
        n = mods.space.n
        for k in range(n + 1):
            dec = k_interaction_decompose(mods, k)
            unshared = KInteractionDecomposition(mods.space, k, _oracle_psi(mods, k))
            assert dec.psi == unshared.psi
            for nodes in node_subsets(n):
                assert reconstruct_potential(dec, nodes) == _oracle_reconstruct_potential(dec, nodes)
            assert tilde_constraint_report(dec) == _oracle_tilde_constraint_report(unshared)

    def test_rows_shared_per_subset_and_size(self):
        dec = k_interaction_decompose(_neuron_instance(3), 1)
        assert dec.psi[((1,), (1, 2))] is dec.psi[((1,), (1, 3))]
        assert dec.psi[((1,), (1, 2))] is not dec.psi[((1,), (1, 2, 3))]
        assert dec.psi[((), (1,))] is dec.psi[((), (2,))]

    @pytest.mark.parametrize("k, family", [(1, "order_k_violations"), (2, "low_order_violations")])
    def test_perturbed_term_on_copied_rows(self, k, family):
        mods = _family_instance(7)
        dec = k_interaction_decompose(mods, k)
        psi = {key: dict(rows) for key, rows in dec.psi.items()}
        key = ((2,), (1, 2))
        xc = next(iter(psi[key]))
        psi[key][xc] = tuple(v + 0.5 for v in psi[key][xc])
        broken = KInteractionDecomposition(mods.space, k, psi)
        report = tilde_constraint_report(broken)
        assert report == _oracle_tilde_constraint_report(broken)
        assert report[family] != tilde_constraint_report(dec)[family]

    @pytest.mark.parametrize("k", [0, 1])
    def test_row_map_shared_across_ambient_sizes(self, k):
        # one row-map object serves A = (1,), (2,) and (1, 2): the pair
        # (1,) < (1, 2) differs in |A| and fails, while (1,) < (2,) has equal
        # sizes and passes, so the memo must tell the two apart
        mods = random_modalities(StateSpace(2, (2, 2)), random.Random(11))
        dec = k_interaction_decompose(mods, k)
        psi = {key: dict(rows) for key, rows in dec.psi.items()}
        shared = {(): (0.25, -0.75)}
        for large in ((1,), (2,), (1, 2)):
            psi[((), large)] = shared
        hand_built = KInteractionDecomposition(mods.space, k, psi)
        report = tilde_constraint_report(hand_built)
        assert report == _oracle_tilde_constraint_report(hand_built)
        violations = report["low_order_violations" if k else "order_k_violations"]
        assert {"B": [], "A": [1], "A_prime": [1, 2]} in violations
        assert {"B": [], "A": [1], "A_prime": [2]} not in violations
