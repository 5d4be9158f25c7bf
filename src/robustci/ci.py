"""Conditional-independence checking and the structure of robust distributions.

A distribution is robust for a specification when, for every pair (R, y), the
output is independent of the knocked-out nodes given that the nodes in R read
y.  Each such statement is a family of vanishing 2x2 minors on the columns of
the joint table, so everything here is exact rational arithmetic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError
from .graph import InputGraph, RobustnessStructure, _require_consistent, components_of
from .model import (
    JointDistribution,
    RobustnessSpec,
    StateSpace,
    blocks_proportional,
    first_nonvanishing_minor,
    format_fraction,
    pinned_blocks,
)

# Denominator of the raw weights that sample_structure_params draws.
PARAM_DENOMINATOR = 97


def _first_failing_minor(dist: JointDistribution, block):
    """The first nonvanishing 2x2 minor among the columns of a pinned block, as
    (x, x', i, j, lhs, rhs) with 0-based letters i < j, or None."""
    columns = [dist.column(x) for x in block]
    for a, b in itertools.combinations(range(len(block)), 2):
        minor = first_nonvanishing_minor(columns[a], columns[b])
        if minor is not None:
            return (block[a], block[b], *minor)
    return None


def check_ci_statement(dist: JointDistribution, nodes, y) -> bool:
    """Whether the columns pinned to y on the node subset are pairwise proportional.

    Equivalently, all 2x2 minors p(a,xS,y)p(b,xS',y) - p(a,xS',y)p(b,xS,y)
    vanish, where S is the complement of the subset.  ``y[k]`` is the letter
    pinned on ``nodes[k]``, in whatever order the nodes are given.  Raises
    InputError unless the pair fits the distribution's space.
    """
    return is_robust(dist, RobustnessSpec.of([(nodes, y)]))


def is_robust(dist: JointDistribution, spec: RobustnessSpec) -> bool:
    """Whether every conditional-independence statement of the specification holds.
    Raises InputError unless every pair fits the distribution's space."""
    return robustness_report(dist, spec)["robust"]


def robustness_report(dist: JointDistribution, spec: RobustnessSpec) -> dict:
    """Robustness verdict plus, on failure, the first failing statement and minor,
    by sorted pair (R, y) on its pinned block, then column pair, then letter pair.
    Raises InputError unless every pair fits the distribution's space."""
    for (nodes, y), block in pinned_blocks(spec, dist.space):
        failing = _first_failing_minor(dist, block)
        if failing is not None:
            x, x_prime, i, j, lhs, rhs = failing
            return {
                "robust": False,
                "failing_statement": {
                    "R": list(nodes),
                    "y": list(y),
                    "witness_minor": {
                        "x": list(x),
                        "x_prime": list(x_prime),
                        "x0": i + 1,
                        "x0_prime": j + 1,
                        "lhs": format_fraction(lhs),
                        "rhs": format_fraction(rhs),
                    },
                },
            }
    return {"robust": True, "failing_statement": None}


def classify_structure(dist: JointDistribution, graph: InputGraph) -> RobustnessStructure:
    """The structure whose blocks are the components of the graph on the support."""
    return components_of(graph, dist.support())


@dataclass(frozen=True)
class StructureParams:
    """Weights of the generating construction for a fixed structure.

    ``block_weights`` is a distribution over blocks, ``config_weights`` a
    distribution over each block's configurations (aligned with the block's
    canonical order), ``output_dists`` a distribution over output letters per
    block.  Block and configuration weights must be strictly positive so the
    built table has support exactly equal to the structure's support.
    """

    block_weights: tuple
    config_weights: tuple
    output_dists: tuple


def _check_params(structure: RobustnessStructure, params: StructureParams):
    blocks = structure.blocks
    d0 = structure.space.d0
    if len(params.block_weights) != len(blocks):
        raise InputError("one block weight per block required")
    if len(params.config_weights) != len(blocks) or len(params.output_dists) != len(blocks):
        raise InputError("per-block weight vectors misaligned with the structure")
    if sum(params.block_weights) != 1:
        raise InputError("block weights must sum to 1")
    for z, block in enumerate(blocks):
        mu = params.block_weights[z]
        lam = params.config_weights[z]
        out = params.output_dists[z]
        if mu <= 0:
            raise InputError(f"block weight {z} must be positive")
        if len(lam) != len(block):
            raise InputError(f"config weights of block {z} misaligned")
        if any(w <= 0 for w in lam):
            raise InputError(f"config weights of block {z} must be positive")
        if sum(lam) != 1:
            raise InputError(f"config weights of block {z} must sum to 1")
        if len(out) != d0 or any(p < 0 for p in out) or sum(out) != 1:
            raise InputError(f"output distribution of block {z} is not a distribution")


def build_from_structure(structure: RobustnessStructure, params: StructureParams) -> JointDistribution:
    """The product-form distribution mu(Z) * lambda_Z(x) * p_Z(x0) on the structure.

    The result sums to one, has support exactly the structure's support, and is
    robust for any specification whose graph keeps each block connected.
    """
    _check_params(structure, params)
    space = structure.space
    table = {}
    for x in space.configs():
        for x0 in space.output_letters():
            table[(x0, x)] = Fraction(0)
    for z, block in enumerate(structure.blocks):
        mu = Fraction(params.block_weights[z])
        for pos, x in enumerate(block):
            lam = Fraction(params.config_weights[z][pos])
            for x0 in space.output_letters():
                table[(x0, x)] = mu * lam * Fraction(params.output_dists[z][x0 - 1])
    return JointDistribution(space, table)


def membership_in_PB(dist: JointDistribution, structure: RobustnessStructure, graph: InputGraph) -> bool:
    """Whether the distribution lies in the cell attached to the structure.

    Two conditions: support exactly equal to the structure's support, and
    pairwise proportional columns within every block.
    """
    _require_consistent(structure, graph)
    if frozenset(dist.support()) != structure.support:
        return False
    return blocks_proportional(dist.column, structure.blocks)


@dataclass(frozen=True)
class RobustFunction:
    """A labelling of a subset of input configurations; labels are opaque strings."""

    domain: frozenset
    values: dict

    def __post_init__(self):
        if set(self.values) != set(self.domain):
            raise InputError("function values must cover exactly the domain")


def is_robust_function(func: RobustFunction, graph: InputGraph) -> bool:
    """Whether the function is constant on each component of its domain."""
    structure = components_of(graph, func.domain)
    for block in structure.blocks:
        labels = {func.values[x] for x in block}
        if len(labels) > 1:
            return False
    return True


def image_bound(spec: RobustnessSpec, space: StateSpace) -> int:
    """Upper bound on the number of blocks: the smallest fully pinned subset size.

    Minimum of prod_{i in R} d_i over subsets R such that (R, y) belongs to the
    specification for every configuration y on R.
    """
    by_subset = {}
    for nodes, y in spec.pairs:
        by_subset.setdefault(nodes, set()).add(y)
    best = None
    for nodes, ys in by_subset.items():
        size = 1
        for i in nodes:
            size *= space.d[i - 1]
        if len(ys) == size:
            best = size if best is None else min(best, size)
    if best is None:
        raise InputError("image bound undefined for this specification: no fully covered subset")
    return best


def sample_structure_params(structure: RobustnessStructure, seed) -> StructureParams:
    """Seeded positive rational weights k/PARAM_DENOMINATOR, normalized per vector."""
    rng = random.Random(seed)

    def vector(length):
        raw = [Fraction(rng.randint(1, PARAM_DENOMINATOR), PARAM_DENOMINATOR) for _ in range(length)]
        total = sum(raw)
        return tuple(w / total for w in raw)

    blocks = structure.blocks
    return StructureParams(
        block_weights=vector(len(blocks)),
        config_weights=tuple(vector(len(block)) for block in blocks),
        output_dists=tuple(vector(structure.space.d0) for _ in blocks),
    )
