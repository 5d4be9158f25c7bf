"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every criterion must pass.  Criteria 9b and 9c are stated in their
corrected forms; the test docstrings give the boundary analysis behind each
correction.
"""

import itertools
import random
import time
from fractions import Fraction

from robustci import (
    FunctionalModalities,
    JointDistribution,
    RobustnessStructure,
    StateSpace,
    alpha_coefficient,
    build_from_structure,
    build_graph,
    check_product_form,
    check_robust_at,
    classify_structure,
    components_of,
    enumerate_maximal_structures,
    grow_to_maximal,
    image_bound,
    is_maximal,
    is_robust,
    k_interaction_decompose,
    make_uniform_spec,
    maximality_by_edges,
    membership_in_PB,
    moebius_potentials,
    robustness_report,
    sample_structure_params,
)
from robustci import graph as graphmod
from robustci.decomp import admissible_sets, verify_primary_decomposition, verify_union_decomposition
from robustci.gibbs import (
    gibbs_kernel,
    is_uniformly_robust_at,
    potential_robustness_criterion,
    reconstruct_potential,
)
from robustci.graph import InputGraph, cube_complement_category
from robustci.ideal import edge_generators, groebner_set, is_reduced
from robustci.model import node_subsets as all_subsets
from robustci.polyengine import buchberger, buchberger_criterion, is_bihomogeneous


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def line_graph(m, edges):
    space = StateSpace(2, (m,))
    return InputGraph(space, [((a,), (b,)) for a, b in edges])


def all_graphs(m, connected_only=False):
    space = StateSpace(2, (m,))
    verts = space.configs()
    pairs = list(itertools.combinations(verts, 2))
    out = []
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = InputGraph(space, edges)
        if connected_only and len(g.components()) != 1:
            continue
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# 1. Cube taxonomy


def brute_force_cube_maximal_supports():
    """Independent oracle over all 2^8 subsets with its own component counter."""
    verts = list(range(8))

    def adjacent(u, v):
        return bin(u ^ v).count("1") == 1

    def component_count(sub):
        sub = set(sub)
        count = 0
        while sub:
            count += 1
            stack = [sub.pop()]
            while stack:
                u = stack.pop()
                for w in list(sub):
                    if adjacent(u, w):
                        sub.remove(w)
                        stack.append(w)
        return count

    maximal = []
    for mask in range(1, 1 << 8):
        sub = [v for v in verts if mask >> v & 1]
        base = component_count(sub)
        if all(component_count(sub + [x]) < base for x in verts if x not in sub):
            maximal.append(frozenset(sub))
    return maximal


def test_criterion_1_cube_taxonomy():
    start = time.time()
    space = StateSpace(2, (2, 2, 2))
    graph = build_graph(make_uniform_spec(2, space), space)
    structures = enumerate_maximal_structures(graph)

    def to_bits(support):
        return frozenset(
            (x[0] - 1) + 2 * (x[1] - 1) + 4 * (x[2] - 1) for x in support
        )

    oracle = set(brute_force_cube_maximal_supports())
    count_matches = {to_bits(s.support) for s in structures} == oracle

    def category_predicates(structure):
        complement = sorted(set(space.configs()) - structure.support)
        sizes = sorted(len(b) for b in structure.blocks)
        return [
            not complement,
            len(complement) == 4 and sizes == [2, 2],
            len(complement) == 4 and len({sum(x) % 2 for x in complement}) == 1,
            len(complement) == 3 and sizes == [1, 4],
        ]

    exactly_one = all(sum(category_predicates(s)) == 1 for s in structures)
    classified = all(
        cube_complement_category(s) != "unclassified" for s in structures
    )
    elapsed = time.time() - start
    report(
        "1 (cube taxonomy)",
        count_matches and exactly_one and classified and elapsed < 5.0,
        f"{len(structures)} structures, oracle match={count_matches}, "
        f"exactly-one-category={exactly_one}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 2. The four-input example


def test_criterion_2_four_input_example():
    start = time.time()
    space = StateSpace(2, (2, 2, 2, 2))
    g2 = build_graph(make_uniform_spec(2, space), space)
    g3 = build_graph(make_uniform_spec(3, space), space)
    support = {(1, 1, 1, 1), (2, 2, 1, 1), (1, 2, 2, 2), (2, 1, 2, 2)}
    structure = components_of(g2, support)
    blocks_exact = structure.blocks == (
        ((1, 1, 1, 1), (2, 2, 1, 1)),
        ((1, 2, 2, 2), (2, 1, 2, 2)),
    )
    maximal = is_maximal(structure, g2) and maximality_by_edges(structure, g2)
    connected_in_g2 = all(len(g2.components(b)) == 1 for b in structure.blocks)
    split_in_g3 = [len(b) for b in components_of(g3, support).blocks] == [1, 1, 1, 1]
    elapsed = time.time() - start
    report(
        "2 (four-input example)",
        blocks_exact and maximal and connected_in_g2 and split_in_g3 and elapsed < 1.0,
        f"maximal={maximal}, split-in-finer-graph={split_in_g3}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 3. The Groebner basis theorem


def test_criterion_3_groebner_theorem():
    start = time.time()
    runs = failures = 0
    instances = [(g, d0) for g in all_graphs(4, connected_only=True) for d0 in (2, 3)]
    instances += [
        (g, d0)
        for m in (1, 2, 3)
        for g in all_graphs(m)
        for d0 in (2, 3)
    ]
    for graph, d0 in instances:
        basis = groebner_set(graph, d0)
        polys = [e.polynomial for e in basis]
        oracle = buchberger([b.polynomial() for b in edge_generators(graph, d0)])
        ok = (
            buchberger_criterion(polys)
            and is_reduced(basis)
            and all(p.leading_monomial().is_squarefree() for p in polys)
            and all(is_bihomogeneous(p) for p in polys)
            and set(polys) == set(oracle)
        )
        runs += 1
        if not ok:
            failures += 1
    elapsed = time.time() - start
    report(
        "3 (Groebner theorem)",
        failures == 0 and elapsed < 600.0,
        f"{runs} graph/d0 instances, {failures} failures, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 4. Equivalence of the two maximality conditions


def test_criterion_4_maximality_equivalence():
    disagreements = 0
    checked = 0
    for d in [(2,), (3,), (2, 2), (2, 3), (3, 3), (2, 2, 2)]:
        space = StateSpace(2, d)
        for k in range(0, space.n + 1):
            graph = build_graph(make_uniform_spec(k, space), space)
            verts = graph.vertices
            for mask in range(1 << len(verts)):
                support = frozenset(
                    verts[i] for i in range(len(verts)) if mask >> i & 1
                )
                s = components_of(graph, support)
                checked += 1
                if is_maximal(s, graph) != maximality_by_edges(s, graph):
                    disagreements += 1
    report(
        "4 (maximality definitions agree)",
        disagreements == 0,
        f"{checked} subsets checked, {disagreements} disagreements",
    )


# ---------------------------------------------------------------------------
# 5. Primary decomposition


def test_criterion_5_decomposition():
    start = time.time()
    intersection_ok = True
    for m in (1, 2, 3):
        for graph in all_graphs(m):
            rep = verify_primary_decomposition(graph, admissible_sets(graph), 2)
            if rep["legs"]["intersection_equality"] is not True:
                intersection_ok = False
            if not (rep["legs"]["non_containment"] and rep["legs"]["membership"]):
                intersection_ok = False

    space23 = StateSpace(2, (2, 3))
    union_graphs = [
        line_graph(2, [(1, 2)]),
        line_graph(3, [(1, 3), (2, 3)]),
        build_graph(make_uniform_spec(1, space23), space23),
        build_graph(
            make_uniform_spec(2, StateSpace(2, (2, 2, 2))), StateSpace(2, (2, 2, 2))
        ),
    ]
    counterexamples = 0
    trials_total = 0
    for idx, graph in enumerate(union_graphs):
        rep = verify_union_decomposition(graph, admissible_sets(graph), 2, trials=125, seed=1000 + idx)
        trials_total += rep["trials"]
        counterexamples += len(rep["counterexamples"])
    elapsed = time.time() - start
    report(
        "5 (primary decomposition)",
        intersection_ok and counterexamples == 0 and trials_total == 500 and elapsed < 300.0,
        f"intersection-equality on all <=3-vertex graphs={intersection_ok}, "
        f"{trials_total} union trials, {counterexamples} counterexamples, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. CI / generating-construction round trip


def test_criterion_6_ci_round_trip():
    rng = random.Random("acceptance-6")
    built_ok = 0
    broken = 0
    minors_reported = 0
    for trial in range(100):
        while True:
            n = rng.randint(1, 3)
            d = tuple(rng.choice([2, 3]) for _ in range(n))
            d0 = rng.choice([2, 3, 4])
            size = d0
            for di in d:
                size *= di
            if size <= 64:
                break
        space = StateSpace(d0, d)
        k = rng.randint(0, n - 1) if n > 1 else 0
        spec = make_uniform_spec(k, space)
        graph = build_graph(spec, space)
        start_set = [x for x in space.configs() if rng.random() < 0.7]
        structure = grow_to_maximal(graph, start_set)
        if all(len(b) == 1 for b in structure.blocks):
            structure = components_of(graph, space.configs())
        params = sample_structure_params(structure, seed=trial)
        dist = build_from_structure(structure, params)
        if (
            is_robust(dist, spec)
            and classify_structure(dist, graph) == structure
            and membership_in_PB(dist, structure, graph)
        ):
            built_ok += 1

        block = next(b for b in structure.blocks if len(b) >= 2)
        cell = (1, block[0])
        table = dict(dist.table)
        table[cell] = table[cell] * Fraction(3, 2)
        total = sum(table.values())
        perturbed = JointDistribution(space, {key: v / total for key, v in table.items()})
        if not is_robust(perturbed, spec):
            broken += 1
            failing = robustness_report(perturbed, spec)["failing_statement"]
            if failing is not None and failing["witness_minor"]["lhs"] != failing["witness_minor"]["rhs"]:
                minors_reported += 1
    report(
        "6 (CI/generating construction)",
        built_ok == 100 and broken >= 95 and minors_reported == broken,
        f"{built_ok}/100 triples round-trip, {broken}/100 perturbations break, "
        f"{minors_reported} failing minors reported",
    )


# ---------------------------------------------------------------------------
# 7. Moebius round trip and the potential criterion


def test_criterion_7_moebius_roundtrip():
    rng = random.Random("acceptance-7")
    worst = 0.0
    agreement = True
    for trial in range(200):
        n = rng.randint(1, 4)
        d = tuple(rng.choice([2, 3]) for _ in range(n))
        d0 = rng.choice([2, 3])
        space = StateSpace(d0, d)
        kernels = {}
        for nodes in all_subsets(n):
            rows = {}
            for xa in space.partial_configs(nodes):
                raw = [rng.uniform(0.05, 1.0) for _ in range(d0)]
                total = sum(raw)
                rows[xa] = tuple(v / total for v in raw)
            kernels[nodes] = rows
        mods = FunctionalModalities(space, kernels)
        pots = moebius_potentials(mods)
        for nodes in all_subsets(n):
            rebuilt = gibbs_kernel(pots, nodes)
            for xa, row in rebuilt.items():
                worst = max(
                    worst,
                    max(abs(a - b) for a, b in zip(row, mods.row(nodes, xa))),
                )
        for x in space.configs():
            for size in range(1, n + 1):
                for knocked in itertools.combinations(range(1, n + 1), size):
                    if potential_robustness_criterion(pots, x, knocked) != check_robust_at(
                        mods, x, knocked
                    ):
                        agreement = False
    report(
        "7 (Moebius/Gibbs round trip)",
        worst <= 1e-9 and agreement,
        f"sup roundtrip error={worst:.2e}, criterion agreement={agreement}",
    )


# ---------------------------------------------------------------------------
# 8. Bounded-interaction decomposition


def test_criterion_8_k_interaction():
    alpha_ok = all(alpha_coefficient(k, k, k) == 1 for k in range(0, 6)) and all(
        alpha_coefficient(k + 1, k, k) == Fraction(-k, k + 1) for k in range(0, 6)
    )
    rng = random.Random("acceptance-8")
    worst = 0.0
    robust_everywhere = True
    for n in range(1, 5):
        space = StateSpace(2, (2,) * n)
        for k in range(0, n + 1):
            shared = [rng.uniform(0.1, 1.0) for _ in range(2)]
            total = sum(shared)
            shared_row = tuple(v / total for v in shared)
            kernels = {}
            for nodes in all_subsets(n):
                rows = {}
                for xa in space.partial_configs(nodes):
                    if len(nodes) >= k:
                        rows[xa] = shared_row
                    else:
                        raw = [rng.uniform(0.1, 1.0) for _ in range(2)]
                        t = sum(raw)
                        rows[xa] = tuple(v / t for v in raw)
                kernels[nodes] = rows
            mods = FunctionalModalities(space, kernels)
            if not all(is_uniformly_robust_at(mods, x, k) for x in space.configs()):
                robust_everywhere = False
            dec = k_interaction_decompose(mods, k)
            pots = moebius_potentials(mods)
            for nodes in all_subsets(n):
                rec = reconstruct_potential(dec, nodes)
                for xa, row in rec.items():
                    target = pots.value(nodes, xa)
                    worst = max(worst, max(abs(a - b) for a, b in zip(row, target)))
    report(
        "8 (bounded interactions)",
        alpha_ok and robust_everywhere and worst <= 1e-8,
        f"alpha exact={alpha_ok}, reconstruction sup error={worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 9. The structural lemmas


def test_criterion_9a_image_bound():
    violations = 0
    matrix = [
        ((2, 2), range(0, 3)),
        ((2, 3), range(0, 3)),
        ((2, 2, 2), range(0, 4)),
        ((2, 2, 2, 2), range(0, 5)),
    ]
    for d, ks in matrix:
        space = StateSpace(2, d)
        for k in ks:
            spec = make_uniform_spec(k, space)
            graph = build_graph(spec, space)
            bound = image_bound(spec, space)
            for structure in enumerate_maximal_structures(graph):
                if structure.num_blocks() > bound:
                    violations += 1
    report("9a (image bound)", violations == 0, f"{violations} violations")


def test_criterion_9b_product_form_equivalence():
    """Product-form characterization against maximality, exhaustively.

    A 1-robustness structure is maximal exactly when every block is the full
    product of its coordinate projections and, for every coordinate, the
    blocks' projections partition the letters of that coordinate.  The
    per-coordinate coverage is what the proof establishes; the stronger
    demand that every assignment of n-1 coordinates completes to a support
    element is not necessary once n > 2.  The boundary case is the binary
    three-input space: the structure with blocks {(1,2,2)} and {(2,1,1)} is
    maximal (the two supports are bitwise complements, so every outside
    configuration shares a coordinate with each of them and merges the two
    blocks), yet prescribing the last two coordinates as (1,2) admits no
    completion inside the support.  The same holds for the other three
    antipodal pairs of the cube.
    """
    disagreements = []
    for d in [(2, 2), (2, 3), (2, 2, 2)]:
        space = StateSpace(2, d)
        graph = build_graph(make_uniform_spec(1, space), space)
        verts = graph.vertices
        for mask in range(1 << len(verts)):
            support = frozenset(verts[i] for i in range(len(verts)) if mask >> i & 1)
            s = components_of(graph, support)
            if is_maximal(s, graph) != check_product_form(s, space):
                disagreements.append((d, sorted(support)))
    report(
        "9b (product-form equivalence)",
        not disagreements,
        f"{len(disagreements)} disagreements, first: {disagreements[:1]}",
    )


def test_criterion_9c_binary_connectivity(monkeypatch):
    """Binary connectivity bound for s <= min(n - 2k, n - 1), all k including 0.

    Every block of a maximal k-robustness structure is connected in the
    agreement graph G_s.  The bound cannot reach s = n: G_n joins
    configurations that agree in all n coordinates, so it has no edges.  At
    k=0 the range s <= n - 2k would include s = n, where the only maximal
    structure is the single block holding all 2^n configurations, which no
    edgeless graph connects.  That boundary fact is asserted on its own; for
    every k >= 1 the two ranges coincide.  n <= 4 is enumerated exhaustively;
    n = 5 is enumerated exhaustively for k <= 2 (beyond, the s-range is
    empty) and sampled from 60 seeded starts for every k.
    """
    violations = []

    def check(n, k, structures, graphs_s):
        for structure in structures:
            for s in range(1, min(n - 2 * k, n - 1) + 1):
                for block in structure.blocks:
                    if len(graphs_s[s].components(block)) > 1:
                        violations.append((n, k, s, block))
        if k == 0:
            # boundary s = n: one block holding everything, edgeless G_n
            space = graphs_s[n].space
            whole = RobustnessStructure.from_blocks(space, [space.configs()])
            if set(structures) != {whole} or graphs_s[n].num_edges() != 0:
                violations.append((n, k, n, "boundary"))

    for n in range(1, 5):
        space = StateSpace(2, (2,) * n)
        graphs_s = {
            s: build_graph(make_uniform_spec(s, space), space)
            for s in range(1, n + 1)
        }
        for k in range(0, n + 1):
            graph = build_graph(make_uniform_spec(k, space), space)
            structures = enumerate_maximal_structures(graph)
            check(n, k, structures, graphs_s)

    n = 5
    monkeypatch.setattr(graphmod, "ENUMERATION_CAP", 2 ** n)
    space = StateSpace(2, (2,) * n)
    graphs_s = {
        s: build_graph(make_uniform_spec(s, space), space) for s in range(1, n + 1)
    }
    for k in range(0, n + 1):
        graph = build_graph(make_uniform_spec(k, space), space)
        rng = random.Random(f"acceptance-9c:{k}")
        structures = set()
        for _ in range(60):
            density = rng.uniform(0.03, 0.6)
            start = [v for v in graph.vertices if rng.random() < density]
            structures.add(grow_to_maximal(graph, start))
        check(n, k, structures, graphs_s)
        if k > 2:
            continue  # min(n - 2k, n - 1) < 1: the s-range is empty
        # every maximal structure, where 2^32 subsets rule out brute force; the
        # sampled structures are an independent spot check of completeness
        enumerated = enumerate_maximal_structures(graph)
        check(n, k, enumerated, graphs_s)
        for structure in enumerated:
            if not maximality_by_edges(structure, graph):
                violations.append((n, k, "not maximal", structure.blocks))
        missed = structures - set(enumerated)
        if missed:
            violations.append((n, k, "sample not enumerated", sorted(s.blocks for s in missed)[:1]))

    report(
        "9c (binary connectivity)",
        not violations,
        f"{len(violations)} violations, first: {violations[:1]}",
    )
