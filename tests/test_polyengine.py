import functools
import itertools
import random
from fractions import Fraction

import pytest

from robustci import (
    InputError,
    ResourceLimitError,
    StateSpace,
)
from robustci import polyengine
from robustci.graph import InputGraph
from robustci.ideal import EdgeBinomial, Unknown, edge_generators, groebner_set
from robustci.polyengine import (
    ELIM_VARIABLE,
    Monomial,
    Polynomial,
    bidegree,
    buchberger,
    buchberger_criterion,
    elimination_intersection,
    ideal_membership,
    interreduce,
    is_bihomogeneous,
    reduce,
    s_polynomial,
)


def var(row, col):
    return Unknown(row, (col,))


def mono(*pairs):
    return Monomial(tuple((v, e) for v, e in pairs))


P11 = var(1, 1)
P12 = var(1, 2)
P13 = var(1, 3)
P21 = var(2, 1)
P22 = var(2, 2)
P23 = var(2, 3)


def minor(i, j, x, y):
    return EdgeBinomial.make(i, j, (x,), (y,)).polynomial()


def three_vertex_graph():
    space = StateSpace(2, (3,))
    return InputGraph(space, [((1,), (3,)), ((2,), (3,))])


class TestMonomialOrder:
    def test_row_dominates_column(self):
        assert mono((P21, 1)) > mono((P13, 5))

    def test_same_row_column_order(self):
        assert mono((P13, 1)) > mono((P12, 1)) > mono((P11, 1))

    def test_pure_lex_ignores_degree(self):
        # lex, not graded: one factor of the bigger variable beats any power
        assert mono((P12, 1)) > mono((P11, 7))

    def test_elimination_variable_on_top(self):
        assert mono((ELIM_VARIABLE, 1)) > mono((P23, 9))

    def test_total_order_is_strict(self):
        monos = [mono((P11, 1)), mono((P12, 2)), mono((P11, 2), (P21, 1)), Monomial(())]
        ordered = sorted(monos)
        for a in range(len(ordered) - 1):
            assert ordered[a] < ordered[a + 1]


class TestMonomialArithmetic:
    def test_mul_div_lcm(self):
        a = mono((P11, 1), (P22, 2))
        b = mono((P22, 1), (P13, 1))
        prod = a * b
        assert prod.exponent(P22) == 3
        assert (prod / b) == a
        assert a.lcm(b).exponent(P22) == 2
        assert b.divides(prod) and not b.divides(a)

    def test_division_requires_divisibility(self):
        with pytest.raises(InputError):
            mono((P11, 1)) / mono((P12, 1))

    def test_squarefree(self):
        assert mono((P11, 1), (P22, 1)).is_squarefree()
        assert not mono((P11, 2)).is_squarefree()


class TestReduce:
    def test_self_reduction_is_zero(self):
        g = minor(1, 2, 1, 2)
        assert not reduce(g, [g])

    def test_hand_division_by_variable(self):
        # minor = p[1;1]p[2;2] - p[1;2]p[2;1]; dividing by p[1;1] leaves -p[1;2]p[2;1]
        f = minor(1, 2, 1, 2)
        remainder = reduce(f, [Polynomial.variable(P11)])
        assert remainder == Polynomial({mono((P12, 1), (P21, 1)): Fraction(-1)})

    def test_idempotent(self):
        basis = [minor(1, 2, 1, 3), minor(1, 2, 2, 3)]
        f = minor(1, 2, 1, 2).term_mul(Fraction(3), mono((P13, 2)))
        once = reduce(f, basis)
        assert reduce(once, basis) == once

    def test_binomials_stay_binomials(self):
        rng = random.Random(7)
        gens = [minor(1, 2, 1, 3), minor(1, 2, 2, 3), minor(1, 2, 1, 2)]
        for _ in range(50):
            f = rng.choice(gens).term_mul(
                Fraction(rng.randint(1, 5)),
                mono((rng.choice([P11, P12, P13, P21]), rng.randint(1, 2))),
            )
            remainder = reduce(f, gens)
            assert remainder.num_terms() <= 2


class TestSPolynomial:
    def test_self_pair_is_zero(self):
        f = minor(1, 2, 1, 2)
        assert not s_polynomial(f, f)

    def test_coprime_leads_reduce_to_zero(self):
        f = Polynomial({mono((P11, 1)): Fraction(1), Monomial(()): Fraction(1)})
        g = Polynomial({mono((P22, 1)): Fraction(1), Monomial(()): Fraction(2)})
        assert not reduce(s_polynomial(f, g), [f, g])

    def test_shared_variable_pair_hand_computed(self):
        # f1 = p[1;1]p[2;3] - p[1;3]p[2;1], f2 = p[1;2]p[2;3] - p[1;3]p[2;2]
        # S = p[1;2]*f1 - p[1;1]*f2 = p[1;3]*(p[1;1]p[2;2] - p[1;2]p[2;1])
        f1 = minor(1, 2, 1, 3)
        f2 = minor(1, 2, 2, 3)
        s = s_polynomial(f1, f2)
        expected = minor(1, 2, 1, 2).term_mul(Fraction(1), mono((P13, 1)))
        assert s in (expected, -expected)


class TestBuchberger:
    def test_single_binomial_is_its_own_basis(self):
        f = minor(1, 2, 1, 2)
        assert buchberger([f]) == [f]

    def test_empty_generators(self):
        assert buchberger([]) == []

    def test_three_vertex_example(self):
        g = three_vertex_graph()
        basis = buchberger([b.polynomial() for b in edge_generators(g, 2)])
        assert len(basis) == 3
        degree_three = [p for p in basis if p.leading_monomial().degree == 3]
        assert len(degree_three) == 1
        expected = minor(1, 2, 1, 2).term_mul(Fraction(1), mono((P13, 1)))
        assert degree_three[0] == expected

    def test_input_order_irrelevant(self):
        g = three_vertex_graph()
        gens = [b.polynomial() for b in edge_generators(g, 2)]
        assert buchberger(gens) == buchberger(list(reversed(gens)))

    def test_component_minors_already_groebner(self):
        gens = [minor(1, 2, 1, 2), minor(1, 2, 1, 3), minor(1, 2, 2, 3)]
        basis = buchberger(gens)
        assert set(basis) == set(gens)

    def test_pair_cap(self, monkeypatch):
        monkeypatch.setattr(polyengine, "MAX_PAIRS", 1)
        g = three_vertex_graph()
        gens = [b.polynomial() for b in edge_generators(g, 2)]
        with pytest.raises(ResourceLimitError, match="S-pair cap 1 exceeded"):
            buchberger(gens)

    def test_trace_remainders_are_binomials(self, monkeypatch):
        # every nonzero remainder of the run, S-pairs and interreduction alike
        trace = []

        def spy(f, basis):
            r = reduce(f, basis)
            if r:
                trace.append(r)
            return r

        monkeypatch.setattr(polyengine, "reduce", spy)
        g = three_vertex_graph()
        buchberger([b.polynomial() for b in edge_generators(g, 3)])
        assert trace and all(p.num_terms() <= 2 for p in trace)

    def test_term_cap(self, monkeypatch):
        monkeypatch.setattr(polyengine, "MAX_TERMS", 1)
        g = three_vertex_graph()
        gens = [b.polynomial() for b in edge_generators(g, 2)]
        with pytest.raises(ResourceLimitError, match="polynomial support cap 1 exceeded"):
            buchberger(gens)


class TestBuchbergerCriterion:
    def test_buchberger_outputs_pass(self):
        g = three_vertex_graph()
        basis = buchberger([b.polynomial() for b in edge_generators(g, 2)])
        assert buchberger_criterion(basis)

    def test_missing_completion_fails(self):
        # S(minor, p[1;1]) = -p[1;2]p[2;1], irreducible by both: not a basis
        f = minor(1, 2, 1, 2)
        assert not buchberger_criterion([f, Polynomial.variable(P11)])

    def test_groebner_set_outputs_pass(self):
        g = three_vertex_graph()
        basis = [e.polynomial for e in groebner_set(g, 2)]
        assert buchberger_criterion(basis)


class TestIdealMembership:
    def test_basis_elements_belong(self):
        g = three_vertex_graph()
        basis = buchberger([b.polynomial() for b in edge_generators(g, 2)])
        assert all(ideal_membership(p, basis) for p in basis)

    def test_one_is_outside_proper_binomial_ideal(self):
        basis = buchberger([minor(1, 2, 1, 2)])
        assert not ideal_membership(Polynomial.constant(1), basis)

    def test_combinatorial_elements_inside_edge_ideal(self):
        g = three_vertex_graph()
        gb = buchberger([b.polynomial() for b in edge_generators(g, 2)])
        for element in groebner_set(g, 2):
            assert ideal_membership(element.polynomial, gb)

    def test_verify_flag_rejects_non_basis(self):
        with pytest.raises(InputError):
            ideal_membership(
                Polynomial.variable(P11),
                [minor(1, 2, 1, 2), Polynomial.variable(P11)],
                verify=True,
            )


class TestBidegree:
    def test_single_monomial(self):
        deg = bidegree(mono((P11, 1), (P22, 1)))
        assert deg.rows == ((1, 1), (2, 1))
        assert deg.cols == (((1,), 1), ((2,), 1))

    def test_minor_terms_share_bidegree(self):
        f = minor(1, 2, 1, 2)
        assert is_bihomogeneous(f)

    def test_scaled_elements_share_bidegree(self):
        g = three_vertex_graph()
        for element in groebner_set(g, 3):
            assert is_bihomogeneous(element.polynomial)

    def test_elimination_variable_has_no_bidegree(self):
        with pytest.raises(InputError):
            bidegree(mono((ELIM_VARIABLE, 1)))


class TestElimination:
    def test_principal_ideals_intersect_to_product(self):
        a = [Polynomial.variable(P11)]
        b = [Polynomial.variable(P12)]
        result = elimination_intersection(a, b)
        assert result == [Polynomial({mono((P11, 1), (P12, 1)): Fraction(1)})]

    def test_intersection_with_itself(self):
        f = minor(1, 2, 1, 2)
        assert elimination_intersection([f], [f]) == [f]

    def test_zero_ideal_absorbs(self):
        f = minor(1, 2, 1, 2)
        assert elimination_intersection([], [f]) == []


class TestInterreduce:
    def test_removes_redundant_elements(self):
        f = minor(1, 2, 1, 2)
        redundant = f.term_mul(Fraction(1), mono((P13, 1)))
        assert interreduce([f, redundant]) == [f]

    def test_normalizes_to_monic(self):
        f = minor(1, 2, 1, 2).term_mul(Fraction(-3, 7), Monomial(()))
        assert interreduce([f]) == [f.monic()]


# ---------------------------------------------------------------------------
# Oracles: the merged-scan lex comparison, the division by Polynomial
# subtraction, the fixpoint interreduction and the all-pairs criterion that
# the tuple order, the in-place term loop, the one-pass interreduction and
# the coprime skip replaced.  The
# arithmetic oracles work on plain term dicts, so they share no code with
# Polynomial.

def oracle_cmp(a: Monomial, b: Monomial) -> int:
    x, y = a.items, b.items
    i = j = 0
    while i < len(x) and j < len(y):
        va, ea = x[i]
        vb, eb = y[j]
        if va == vb:
            if ea != eb:
                return 1 if ea > eb else -1
            i += 1
            j += 1
        elif va > vb:
            return 1
        else:
            return -1
    if i < len(x):
        return 1
    if j < len(y):
        return -1
    return 0


def oracle_lead(terms: dict) -> Monomial:
    return max(terms, key=functools.cmp_to_key(oracle_cmp))


def oracle_add(p: dict, q: dict, sign=1) -> dict:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, Fraction(0)) + sign * c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def oracle_sub(p: dict, q: dict) -> dict:
    return oracle_add(p, q, -1)


def oracle_mul(p: dict, q: dict) -> dict:
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = m1 * m2
            s = out.get(m, Fraction(0)) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def oracle_term_mul(terms: dict, coeff, mono: Monomial) -> dict:
    return {m * mono: c * coeff for m, c in terms.items()}


def oracle_reduce(f: dict, basis) -> dict:
    divisors = [(oracle_lead(g), g) for g in basis if g]
    remainder = {}
    p = f
    while p:
        lm = oracle_lead(p)
        lc = p[lm]
        for glm, g in divisors:
            if glm.divides(lm):
                p = oracle_sub(p, oracle_term_mul(g, lc / g[glm], lm / glm))
                break
        else:
            remainder[lm] = lc
            p = oracle_sub(p, {lm: lc})
    return remainder


def oracle_interreduce(polys) -> list:
    """Interreduction by an all-pairs divisibility test and passes to a fixpoint."""
    basis = sorted({g.monic() for g in polys if g}, key=lambda p: p.leading_monomial())
    minimal = []
    for i, g in enumerate(basis):
        lm = g.leading_monomial()
        if any(
            h.leading_monomial().divides(lm)
            for j, h in enumerate(basis)
            if j != i and (h.leading_monomial() != lm or j < i)
        ):
            continue
        minimal.append(g)
    while True:
        reduced = []
        for i, g in enumerate(minimal):
            r = reduce(g, minimal[:i] + minimal[i + 1:])
            if r:
                reduced.append(r.monic())
        reduced.sort(key=lambda p: p.leading_monomial())
        if reduced == minimal:
            return reduced
        minimal = reduced


def oracle_criterion(basis) -> bool:
    """Buchberger's criterion over every pair, coprime ones included."""
    basis = [g for g in basis if g]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if reduce(s_polynomial(basis[i], basis[j]), basis):
                return False
    return True


ORACLE_VARS = [var(r, c) for r in (1, 2, 3) for c in (1, 2, 3)] + [ELIM_VARIABLE]


def random_monomial(rng, max_vars=3, max_exp=3) -> Monomial:
    picked = rng.sample(ORACLE_VARS, rng.randint(0, max_vars))
    return Monomial((v, rng.randint(1, max_exp)) for v in picked)


def random_terms(rng, max_terms) -> dict:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        numerator = rng.choice([-7, -3, -2, -1, 1, 2, 5, 9])
        terms[random_monomial(rng, max_exp=2)] = Fraction(numerator, rng.randint(1, 6))
    return terms


class TestOracles:
    def test_tuple_order_matches_merged_scan(self):
        rng = random.Random(11)
        monos = [random_monomial(rng) for _ in range(300)] + [
            Monomial(()), mono((ELIM_VARIABLE, 1)), mono((ELIM_VARIABLE, 2)), mono((P11, 1)),
        ]
        for a in monos:
            for b in monos[:60]:
                c = oracle_cmp(a, b)
                assert (a < b, a > b, a == b) == (c < 0, c > 0, c == 0)
        assert sorted(monos) == sorted(monos, key=functools.cmp_to_key(oracle_cmp))

    def test_arithmetic_matches_dict_oracles(self):
        rng = random.Random(12)
        for _ in range(200):
            p, q = random_terms(rng, 5), random_terms(rng, 5)
            coeff = Fraction(rng.choice([-4, -1, 1, 3]), rng.randint(1, 5))
            m = random_monomial(rng)
            pp, qq = Polynomial(p), Polynomial(q)
            # equal term dicts in equal order: the term loop keeps insertion order
            assert list((pp + qq).terms.items()) == list(oracle_add(p, q).items())
            assert list((pp - qq).terms.items()) == list(oracle_sub(p, q).items())
            assert list((pp * qq).terms.items()) == list(oracle_mul(p, q).items())
            assert list(pp.term_mul(coeff, m).terms.items()) == list(oracle_term_mul(p, coeff, m).items())

    def test_in_place_division_matches_subtraction(self):
        rng = random.Random(13)
        nonzero = 0
        for _ in range(400):
            basis = [random_terms(rng, 3) for _ in range(rng.randint(1, 4))]
            f = random_terms(rng, 6)
            expected = oracle_reduce(f, basis)
            got = reduce(Polynomial(f), [Polynomial(g) for g in basis])
            assert list(got.terms.items()) == list(expected.items())
            nonzero += bool(expected)
        assert 0 < nonzero < 400

    def test_one_pass_interreduce_matches_fixpoint(self):
        rng = random.Random(14)
        shrunk = rewritten = 0
        for _ in range(150):
            polys = [Polynomial(random_terms(rng, 4)) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.4:
                # an equal leading monomial with a different tail
                lm = polys[0].leading_monomial()
                polys.append(Polynomial({lm: Fraction(2), Monomial(()): Fraction(rng.randint(1, 3))}))
            if rng.random() < 0.3:
                polys.append(polys[0].term_mul(Fraction(-3, 2), Monomial(())))  # duplicate after monic
            if rng.random() < 0.1:
                polys.append(Polynomial.constant(rng.randint(1, 4)))
            polys.append(Polynomial())
            rng.shuffle(polys)
            got = interreduce(polys)
            expected = oracle_interreduce(polys)
            assert [p.sorted_terms() for p in got] == [p.sorted_terms() for p in expected]
            inputs = {p.monic() for p in polys if p}
            shrunk += len(got) < len(inputs)
            rewritten += any(g not in inputs for g in got)
        assert shrunk > 0 and rewritten > 0

    def test_coprime_skip_keeps_the_criterion_verdict(self):
        rng = random.Random(15)
        verdicts = []
        coprime = 0
        for _ in range(150):
            polys = [Polynomial(random_terms(rng, 3)) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:
                polys = buchberger(polys)
                if len(polys) > 1 and rng.random() < 0.5:
                    polys.pop(rng.randrange(len(polys)))
            verdicts.append(buchberger_criterion(polys))
            assert verdicts[-1] == oracle_criterion(polys)
            leads = [p.leading_monomial() for p in polys if p]
            coprime += any(not a.shares_variable(b) for a, b in itertools.combinations(leads, 2))
        assert set(verdicts) == {True, False}
        assert coprime > 0

    def test_division_edge_cases(self):
        f = {mono((ELIM_VARIABLE, 1), (P11, 1)): Fraction(2, 3), Monomial(()): Fraction(-5, 2)}
        for basis in ([], [{}], [{Monomial(()): Fraction(7, 3)}], [{mono((ELIM_VARIABLE, 1)): Fraction(-1, 4)}]):
            got = reduce(Polynomial(f), [Polynomial(g) for g in basis])
            assert list(got.terms.items()) == list(oracle_reduce(f, basis).items())
        assert not reduce(Polynomial(), [Polynomial(f)])
