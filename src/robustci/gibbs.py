"""Post-knockout kernel families, their log-linear potentials, and the
bounded-interaction expansion.

A family of functional modalities assigns to every input subset A a Markov
kernel from the A-restricted inputs to the output.  Strictly positive
families are log-linear: Moebius inversion over the subset lattice turns the
log-kernels into potentials, one per subset, and summing potentials back
recovers every kernel.  Robustness of the full kernel at a configuration
against a knockout is equivalent to a linear condition on the potentials,
and uniformly robust families admit an expansion through functions of at
most k inputs.

Everything here is double precision with explicit tolerances; the exact
rational world of :mod:`robustci.ci` is never mixed into these predicates.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, ResourceLimitError
from .model import Config, StateSpace, node_subsets, restrict

ROW_TOL = 1e-12
ROBUST_TOL = 1e-9

# Entries of the largest robustness table built: binary n=8, 2^8 x (2^8 - 1).
TABLE_CAP = 2 ** 8 * (2 ** 8 - 1)


def _projector(positions):
    """The map taking a tuple to the tuple of its entries at ``positions``."""
    if len(positions) == 1:
        (p,) = positions
        return lambda xa: (xa[p],)
    return operator.itemgetter(*positions) if positions else lambda xa: ()


def _subset_sums(space, nodes, max_size, table_of, alternating=False) -> dict:
    """Per partial configuration x on the sorted tuple ``nodes``, the sum of
    table_of(C)[x_C] over the subsets C of ``nodes`` with |C| <= max_size, by
    size then lexicographically; ``alternating`` weights each term by
    (-1)^(|nodes| - |C|).  Each subset's restriction is built once."""
    terms = []
    for size in range(max_size + 1):
        sign = -1.0 if alternating and (len(nodes) - size) % 2 else 1.0
        for positions in itertools.combinations(range(len(nodes)), size):
            table = table_of(tuple(nodes[p] for p in positions))
            terms.append((sign, table, _projector(positions)))
    out = {}
    for xa in space.partial_configs(nodes):
        acc = [0.0] * space.d0
        for sign, table, project in terms:
            vals = table[project(xa)]
            for x0 in range(space.d0):
                acc[x0] += sign * vals[x0]
        out[xa] = tuple(acc)
    return out


@dataclass(frozen=True)
class FunctionalModalities:
    """One kernel per input subset; rows are tuples of d0 probabilities.

    ``kernels`` maps each sorted subset tuple A to a mapping from partial
    configurations on A to probability rows.  Every subset of {1..n} must be
    present and every row must sum to one within ROW_TOL.
    """

    space: StateSpace
    kernels: dict

    def __post_init__(self):
        n = self.space.n
        if len(self.kernels) != 2 ** n or set(self.kernels) != set(node_subsets(n)):
            raise InputError("kernels must cover every subset of the input nodes")
        for nodes in sorted(self.kernels):
            rows = self.kernels[nodes]
            wanted = math.prod(self.space.d[i - 1] for i in nodes)
            if len(rows) != wanted or set(rows) != set(self.space.partial_configs(nodes)):
                raise InputError(f"kernel rows for subset {nodes} do not cover its configurations")
            for xa, row in rows.items():
                if len(row) != self.space.d0:
                    raise InputError(f"row {nodes}:{xa} has wrong output length")
                if any(math.isnan(p) or math.isinf(p) for p in row):
                    raise InputError(f"row {nodes}:{xa} has non-finite entries")
                if abs(sum(row) - 1.0) > ROW_TOL:
                    raise InputError(f"row {nodes}:{xa} does not sum to 1")

    def row(self, nodes, xa) -> tuple:
        return self.kernels[tuple(sorted(nodes))][tuple(xa)]

    def is_strictly_positive(self) -> bool:
        return all(
            p > 0.0
            for rows in self.kernels.values()
            for row in rows.values()
            for p in row
        )


@dataclass(frozen=True)
class GibbsPotentials:
    """One potential per input subset: a map from partial configurations to
    real vectors over the output letters."""

    space: StateSpace
    phi: dict

    def value(self, nodes, xa) -> tuple:
        return self.phi[tuple(sorted(nodes))][tuple(xa)]


@dataclass(frozen=True)
class KInteractionDecomposition:
    """Interaction terms of order at most k, one per pair C subset of A."""

    space: StateSpace
    k: int
    psi: dict

    def value(self, small, large, xc) -> tuple:
        return self.psi[(tuple(sorted(small)), tuple(sorted(large)))][tuple(xc)]


def uniform_modalities(space: StateSpace) -> FunctionalModalities:
    row = tuple(1.0 / space.d0 for _ in range(space.d0))
    kernels = {
        nodes: {xa: row for xa in space.partial_configs(nodes)}
        for nodes in node_subsets(space.n)
    }
    return FunctionalModalities(space, kernels)


def neuron_modalities(weights) -> FunctionalModalities:
    """Logistic-output modalities on binary inputs, one weight per input.

    Letters are coded 1 -> -1 and 2 -> +1 on both the inputs and the binary
    output; knocking out a subset removes its terms from the weighted sum.
    """
    weights = [float(w) for w in weights]
    if not weights:
        raise InputError("need at least one weight")
    space = StateSpace(2, (2,) * len(weights))

    def sigmoid(s):
        return 0.5 * (1.0 + math.tanh(0.5 * s))

    kernels = {}
    for nodes in node_subsets(space.n):
        rows = {}
        for xa in space.partial_configs(nodes):
            s = sum(weights[i - 1] * (1.0 if v == 2 else -1.0) for i, v in zip(nodes, xa))
            rows[xa] = (sigmoid(-s), sigmoid(s))
        kernels[nodes] = rows
    return FunctionalModalities(space, kernels)


def _log_kernels(mods: FunctionalModalities) -> dict:
    """ln kernel_C, per subset C and partial configuration on C."""
    return {
        nodes: {xa: tuple(math.log(p) for p in row) for xa, row in rows.items()}
        for nodes, rows in mods.kernels.items()
    }


def moebius_potentials(mods: FunctionalModalities) -> GibbsPotentials:
    """Potentials via Moebius inversion of the log-kernels over the subset lattice.

    phi_A(x_A, x0) = sum over C subset of A of (-1)^|A minus C| * ln kernel_C(x_C; x0).
    Requires strictly positive kernels; summing the potentials back over
    subsets of A reproduces ln kernel_A exactly.
    """
    if not mods.is_strictly_positive():
        raise InputError("positivity required for Moebius inversion")
    space = mods.space
    logs = _log_kernels(mods)
    phi = {
        nodes: _subset_sums(space, nodes, len(nodes), logs.__getitem__, alternating=True)
        for nodes in node_subsets(space.n)
    }
    return GibbsPotentials(space, phi)


def gibbs_kernel(pots: GibbsPotentials, nodes) -> dict:
    """The kernel with log-weights summed over subsets of ``nodes``, row-normalized.

    Exponentiation is stabilized by subtracting the row maximum first, so the
    maximum must be finite; a -inf weight gives probability zero.
    """
    space = pots.space
    nodes = tuple(sorted(nodes))
    rows = {}
    for xa, weights in _subset_sums(space, nodes, len(nodes), pots.phi.__getitem__).items():
        top = max(weights)
        if not math.isfinite(top) or any(math.isnan(w) for w in weights):
            raise InputError(f"non-finite log-weights at {nodes}:{xa}")
        expd = [math.exp(w - top) for w in weights]
        total = sum(expd)
        rows[xa] = tuple(e / total for e in expd)
    return rows


def modalities_from_potentials(pots: GibbsPotentials) -> FunctionalModalities:
    kernels = {nodes: gibbs_kernel(pots, nodes) for nodes in node_subsets(pots.space.n)}
    return FunctionalModalities(pots.space, kernels)


def check_robust_at(mods: FunctionalModalities, x: Config, knocked_out) -> bool:
    """Whether the full kernel at x equals the post-knockout kernel on the rest.

    ``knocked_out`` is the removed subset S; the comparison is entrywise
    within ``ROBUST_TOL`` over all output letters.
    """
    space = mods.space
    knocked_out = tuple(sorted(set(knocked_out)))
    remaining = tuple(i for i in range(1, space.n + 1) if i not in knocked_out)
    full = mods.row(tuple(range(1, space.n + 1)), x)
    post = mods.row(remaining, restrict(x, remaining))
    return all(abs(a - b) <= ROBUST_TOL for a, b in zip(full, post))


def robustness_table(mods: FunctionalModalities) -> list:
    """:func:`check_robust_at` at every configuration x against every nonempty
    knockout S, as entries {"x", "S", "robust"} with x in canonical order and
    S by size then lexicographically."""
    full = tuple(range(1, mods.space.n + 1))
    knockouts = []
    for knocked_out in node_subsets(mods.space.n, 1):
        remaining = tuple(i for i in full if i not in knocked_out)
        project = _projector(tuple(i - 1 for i in remaining))
        knockouts.append((knocked_out, mods.kernels[remaining], project))
    table = []
    for x in mods.space.configs():
        row = mods.kernels[full][x]
        for knocked_out, post_rows, project in knockouts:
            robust = all(abs(a - b) <= ROBUST_TOL for a, b in zip(row, post_rows[project(x)]))
            table.append({"x": list(x), "S": list(knocked_out), "robust": robust})
    return table


def check_table_size(d) -> None:
    """Raise ResourceLimitError if the robustness table on alphabet sizes ``d``,
    configurations x nonempty knockouts, has more than TABLE_CAP entries."""
    size = math.prod(d) * (2 ** len(d) - 1)
    if size > TABLE_CAP:
        raise ResourceLimitError(f"robustness table of {size} entries exceeds the cap of {TABLE_CAP}")


def potential_robustness_criterion(pots: GibbsPotentials, x: Config, knocked_out) -> bool:
    """Robustness read off the potentials: the sum of all potential terms that
    touch the knocked-out set must not depend on the output letter."""
    space = pots.space
    knocked_out = set(knocked_out)
    acc = [0.0] * space.d0
    for nodes in node_subsets(space.n):
        if not knocked_out.intersection(nodes):
            continue
        vals = pots.value(nodes, restrict(x, nodes))
        for x0 in range(space.d0):
            acc[x0] += vals[x0]
    mean = sum(acc) / space.d0
    return all(abs(v - mean) <= ROBUST_TOL for v in acc)


def is_uniformly_robust_at(mods: FunctionalModalities, x: Config, k: int) -> bool:
    """Robust at x against every knockout leaving at least k inputs."""
    n = mods.space.n
    for size in range(1, n - k + 1):
        for knocked_out in itertools.combinations(range(1, n + 1), size):
            if not check_robust_at(mods, x, knocked_out):
                return False
    return True


def alpha_coefficient(a: int, c: int, k: int) -> Fraction:
    """Weight of ln kernel_C inside the collapsed potential of a set of size a.

    For c < k the weight is the Moebius sign (-1)^(a-c); for c = k it is
    sum over r of binom(a-k, r) * (-1)^(a-r-k) / binom(r+k, k).
    """
    if a < 0 or c < 0 or c > a:
        raise InputError(f"need 0 <= c <= a, got a={a}, c={c}")
    if c > k:
        raise InputError(f"coefficient undefined for c={c} > k={k}")
    if c < k:
        return Fraction((-1) ** (a - c))
    total = Fraction(0)
    for r in range(a - k + 1):
        total += (
            Fraction(math.comb(a - k, r))
            * Fraction((-1) ** (a - r - k))
            / Fraction(math.comb(r + k, k))
        )
    return total


def k_interaction_decompose(mods: FunctionalModalities, k: int) -> KInteractionDecomposition:
    """Interaction terms psi[C, A] = alpha(|A|, |C|, k) * ln kernel_C.

    Wherever the modalities are robust at x against every knockout leaving at
    least k inputs, summing psi[C, A] over C recovers the Moebius potential of
    A at x.  A term depends on A only through |A|, so every A of one size
    shares a single row map per C: the row maps of ``psi`` are shared per
    (C, |A|) and must not be mutated.
    """
    if not 0 <= k <= mods.space.n:
        raise InputError(f"k must lie in 0..{mods.space.n}, got {k}")
    if not mods.is_strictly_positive():
        raise InputError("positivity required for the interaction decomposition")
    space = mods.space
    logs = _log_kernels(mods)
    psi = {}
    shared = {}
    for large in node_subsets(space.n):
        for size in range(min(k, len(large)) + 1):
            for small in itertools.combinations(large, size):
                rows = shared.get((small, len(large)))
                if rows is None:
                    coeff = float(alpha_coefficient(len(large), len(small), k))
                    rows = shared[(small, len(large))] = {
                        xc: tuple(coeff * v for v in row)
                        for xc, row in logs[small].items()
                    }
                psi[(small, large)] = rows
    return KInteractionDecomposition(space, k, psi)


def reconstruct_potential(dec: KInteractionDecomposition, nodes) -> dict:
    """Sum of the interaction terms of a subset, per partial configuration."""
    nodes = tuple(sorted(nodes))
    max_size = min(dec.k, len(nodes))
    return _subset_sums(dec.space, nodes, max_size, lambda small: dec.psi[(small, nodes)])


def positive_mixture(mods: FunctionalModalities, eps: float) -> FunctionalModalities:
    """Blend every kernel row with the uniform row: (1-eps)*row + eps/d0.

    Strictly positive for eps > 0, and any exact pointwise robustness equality
    survives the blend.
    """
    if not 0.0 < eps <= 1.0:
        raise InputError(f"eps must lie in (0, 1], got {eps}")
    space = mods.space
    base = eps / space.d0
    kernels = {
        nodes: {
            xa: tuple((1.0 - eps) * p + base for p in row)
            for xa, row in rows.items()
        }
        for nodes, rows in mods.kernels.items()
    }
    return FunctionalModalities(space, kernels)


def _weighted_sum_coefficient(size: int, k: int) -> Fraction:
    total = Fraction(0)
    for ell in range(size - k + 1):
        total += Fraction((-1) ** (size - ell)) / Fraction(math.comb(ell + k, k))
    return total


def tilde_constraint_report(dec: KInteractionDecomposition) -> dict:
    """Check the two symmetry families on the interaction terms, separately.

    Family one: for shared subsets B with |B| < k, the sign-weighted terms
    (-1)^|A| psi[B, A] agree across ambient sets.  Family two: for |B| = k,
    the displayed weighted-sum identity, implemented exactly as written (the
    sum bound of one side multiplies the term of the other side); failures of
    the two families are reported independently.

    A pair A < A' gets one entry per configuration on B where it fails.  For
    each B the count is memoised on (id(psi[B, A]), id(psi[B, A']), |A|, |A'|):
    identical row-map objects give identical counts, and distinct objects are
    compared entry by entry even when their contents are equal.
    """
    space = dec.space
    k = dec.k
    family_small = []
    family_k = []
    by_small = {}
    for (small, large) in dec.psi:
        by_small.setdefault(small, []).append(large)
    weights = [float(_weighted_sum_coefficient(size, k)) for size in range(space.n + 1)]
    for small, larges in sorted(by_small.items()):
        if len(small) > k:
            continue
        family = family_small if len(small) < k else family_k
        configs = space.partial_configs(small)
        larges = sorted(larges)
        failures = {}
        for a_idx in range(len(larges)):
            for b_idx in range(a_idx + 1, len(larges)):
                la, lb = larges[a_idx], larges[b_idx]
                rows_a, rows_b = dec.psi[(small, la)], dec.psi[(small, lb)]
                key = (id(rows_a), id(rows_b), len(la), len(lb))
                count = failures.get(key)
                if count is None:
                    if len(small) < k:
                        ca, cb = (-1.0) ** len(la), (-1.0) ** len(lb)
                    else:
                        ca, cb = weights[len(lb)], weights[len(la)]
                    count = failures[key] = sum(
                        any(abs(ca * p - cb * q) > ROBUST_TOL for p, q in zip(rows_a[xc], rows_b[xc]))
                        for xc in configs
                    )
                family.extend(
                    {"B": list(small), "A": list(la), "A_prime": list(lb)} for _ in range(count)
                )
    return {
        "low_order_ok": not family_small,
        "order_k_ok": not family_k,
        "low_order_violations": family_small,
        "order_k_violations": family_k,
    }


def check_tilde_constraints(dec: KInteractionDecomposition) -> bool:
    """True iff both constraint families hold; see :func:`tilde_constraint_report`."""
    report = tilde_constraint_report(dec)
    return report["low_order_ok"] and report["order_k_ok"]


# ---------------------------------------------------------------------------
# Serialization: subsets and partial configurations as comma-joined strings,
# probabilities as decimal strings (repr round-trips doubles exactly).

def _key_to_str(values) -> str:
    return ",".join(str(v) for v in values)


def _str_to_key(text: str) -> tuple:
    if not text:
        return ()
    return tuple(int(v) for v in text.split(","))


def modalities_to_json(mods: FunctionalModalities) -> dict:
    kernels = {}
    for nodes in sorted(mods.kernels):
        rows = mods.kernels[nodes]
        kernels[_key_to_str(nodes)] = {
            _key_to_str(xa): [repr(p) for p in rows[xa]] for xa in sorted(rows)
        }
    return {
        "n": mods.space.n,
        "d0": mods.space.d0,
        "d": list(mods.space.d),
        "kernels": kernels,
    }


def modalities_from_json(obj) -> FunctionalModalities:
    try:
        space = StateSpace(int(obj["d0"]), [int(v) for v in obj["d"]])
        if obj.get("n", space.n) != space.n:
            raise InputError(f"n={obj['n']!r} disagrees with len(d)={space.n}")
        kernels = {}
        for nodes_text, rows in obj["kernels"].items():
            nodes = _str_to_key(nodes_text)
            kernels[nodes] = {
                _str_to_key(xa): tuple(float(p) for p in row)
                for xa, row in rows.items()
            }
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"bad modalities file: {exc}") from exc
    return FunctionalModalities(space, kernels)
