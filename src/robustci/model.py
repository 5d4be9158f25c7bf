"""State spaces, robustness specifications and exact-rational joint distributions.

Conventions shared by every module in the package:

* an input configuration is a plain tuple of 1-based letters, e.g. ``(1, 2, 2)``;
* the canonical order on configurations is the lexicographic tuple order,
  coordinate 1 most significant;
* input nodes are numbered ``1..n``, the output node has alphabet size ``d0``;
* probabilities are exact ``fractions.Fraction`` values.  Robustness of a
  distribution is a polynomial vanishing condition, so no module built on top
  of this one compares probabilities against a tolerance.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError

# An input configuration; used as a type alias in signatures.
Config = tuple

# A specification pair: (sorted node subset R, partial configuration on R).
Pair = tuple


@dataclass(frozen=True)
class StateSpace:
    """Alphabet sizes of the output node and the n input nodes."""

    d0: int
    d: tuple

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(v) for v in self.d))
        if self.d0 < 2:
            raise InputError(f"output alphabet size must be >= 2, got {self.d0}")
        if not self.d:
            raise InputError("need at least one input node")
        for i, di in enumerate(self.d, start=1):
            if di < 1:
                raise InputError(f"input alphabet size d_{i} must be >= 1, got {di}")

    @property
    def n(self) -> int:
        return len(self.d)

    def num_configs(self) -> int:
        out = 1
        for di in self.d:
            out *= di
        return out

    def configs(self) -> list:
        """All input configurations, in canonical order."""
        return list(itertools.product(*(range(1, di + 1) for di in self.d)))

    def output_letters(self) -> range:
        return range(1, self.d0 + 1)

    def partial_configs(self, nodes) -> list:
        """All configurations on the given node subset, in canonical order."""
        nodes = sorted(nodes)
        return list(itertools.product(*(range(1, self.d[i - 1] + 1) for i in nodes)))

    def contains_config(self, x) -> bool:
        return (
            isinstance(x, tuple)
            and len(x) == self.n
            and all(isinstance(v, int) and 1 <= v <= di for v, di in zip(x, self.d))
        )


def restrict(x: Config, nodes) -> tuple:
    """Restriction of a configuration to a node subset (empty subset allowed)."""
    nodes = sorted(nodes)
    if nodes and (nodes[0] < 1 or nodes[-1] > len(x)):
        raise InputError(f"node subset {nodes} not within 1..{len(x)}")
    return tuple(x[i - 1] for i in nodes)


def node_subsets(n: int, min_size: int = 0) -> list:
    """All subsets of {1..n} with at least ``min_size`` elements, as sorted tuples."""
    out = []
    for size in range(min_size, n + 1):
        out.extend(itertools.combinations(range(1, n + 1), size))
    return out


@dataclass(frozen=True)
class RobustnessSpec:
    """A finite set of pairs (R, y): node subset plus pinned partial configuration.

    Each pair demands that the output be conditionally independent of the
    knocked-out nodes given that the remaining nodes R read y.
    """

    pairs: frozenset

    @staticmethod
    def of(pairs) -> "RobustnessSpec":
        """Normalize and deduplicate an iterable of (R, y) pairs.

        R may be any iterable of distinct node indices; y is aligned with R
        as written.
        """
        return RobustnessSpec(frozenset(sort_pair(nodes, y) for nodes, y in pairs))

    def sorted_pairs(self) -> list:
        return sorted(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair) -> bool:
        return sort_pair(*pair) in self.pairs


def sort_pair(nodes, y) -> Pair:
    """The pair (R, y) with R sorted and each letter of y moved with its node.

    ``y[k]`` is the letter pinned on node ``nodes[k]``.  Raises InputError on a
    repeated node or when y and R differ in length.
    """
    nodes, y = tuple(nodes), tuple(y)
    if len(y) != len(nodes):
        raise InputError(f"partial configuration {y} does not match subset {nodes}")
    if len(set(nodes)) != len(nodes):
        raise InputError(f"repeated node in subset {nodes}")
    pinned = sorted(zip(nodes, y))  # distinct nodes, so letters never decide
    return tuple(i for i, _ in pinned), tuple(v for _, v in pinned)


def validate_spec(spec: RobustnessSpec, space: StateSpace) -> None:
    """Raise InputError unless every pair of the specification fits the space."""
    malformed = [p for p in spec.pairs if not all(isinstance(v, int) for v in p[0] + p[1])]
    if malformed:
        nodes, y = min(malformed, key=repr)
        raise InputError(f"spec pair R={list(nodes)}, y={list(y)} must hold integers")
    for nodes, y in spec.sorted_pairs():
        if nodes and (nodes[0] < 1 or nodes[-1] > space.n):
            raise InputError(f"subset {nodes} not within 1..{space.n}")
        for i, v in zip(nodes, y):
            if not 1 <= v <= space.d[i - 1]:
                raise InputError(f"letter {v} out of range for node {i}")


def pinned_blocks(spec: RobustnessSpec, space: StateSpace):
    """Each pair (R, y) of the specification in sorted order, with its pinned
    block: the configurations x with x|_R = y, in canonical order.

    Raises InputError unless every pair fits the space.  Sorted pairs sharing R
    are consecutive, so the m configurations are bucketed once per distinct R.
    """
    validate_spec(spec, space)
    configs = space.configs()
    for nodes, group in itertools.groupby(spec.sorted_pairs(), key=lambda p: p[0]):
        buckets = {}
        for x in configs:
            buckets.setdefault(tuple(x[i - 1] for i in nodes), []).append(x)
        for pair in group:
            yield pair, buckets[pair[1]]


def make_uniform_spec(k: int, space: StateSpace) -> RobustnessSpec:
    """All pairs (R, y) with |R| >= k and y running over every configuration on R."""
    if not 0 <= k <= space.n:
        raise InputError(f"k must lie in 0..{space.n}, got {k}")
    pairs = []
    for nodes in node_subsets(space.n, min_size=k):
        for y in space.partial_configs(nodes):
            pairs.append((nodes, y))
    return RobustnessSpec.of(pairs)


@dataclass(frozen=True, eq=True)
class JointDistribution:
    """Exact-rational probability table over output x input configurations.

    The table may be sparse; missing cells are zero.  Construction does not
    validate the probability axioms, so invalid tables can be built and fed to
    :func:`validate_distribution`.
    """

    space: StateSpace
    table: dict

    @staticmethod
    def from_entries(space: StateSpace, entries) -> "JointDistribution":
        table = {}
        for (x0, x), p in dict(entries).items():
            table[(x0, tuple(x))] = Fraction(p)
        return JointDistribution(space, table)

    @staticmethod
    def uniform(space: StateSpace) -> "JointDistribution":
        cell = Fraction(1, space.d0 * space.num_configs())
        table = {
            (x0, x): cell
            for x0 in space.output_letters()
            for x in space.configs()
        }
        return JointDistribution(space, table)

    def prob(self, x0: int, x: Config) -> Fraction:
        return self.table.get((x0, x), Fraction(0))

    def column(self, x: Config) -> tuple:
        """The vector of joint probabilities over output letters at input x."""
        return tuple(self.prob(x0, x) for x0 in self.space.output_letters())

    def support(self) -> list:
        """Input configurations with a nonzero column, in canonical order."""
        return [x for x in self.space.configs() if any(self.column(x))]

    def total(self) -> Fraction:
        return sum(self.table.values(), Fraction(0))


def validate_distribution(dist: JointDistribution, space: StateSpace):
    """Return None if the table is a valid distribution on the space, else a message.

    Checks, in order: cell indices in range, no negative entry, exact total of 1.
    The message names the first violated cell.
    """
    for key in sorted(dist.table, key=lambda k: (k[1], k[0])):
        x0, x = key
        if not (isinstance(x0, int) and 1 <= x0 <= space.d0 and space.contains_config(x)):
            return f"out-of-range index at cell (x0={x0}, x={x})"
    for key in sorted(dist.table, key=lambda k: (k[1], k[0])):
        if dist.table[key] < 0:
            x0, x = key
            return f"negative entry at cell (x0={x0}, x={x}): {format_fraction(dist.table[key])}"
    total = dist.total()
    if total != 1:
        return f"sum != 1 (table sums to {format_fraction(total)})"
    return None


def first_nonvanishing_minor(u, v):
    """The first nonvanishing 2x2 minor of two rational vectors, as
    (i, j, u[i]*v[j], u[j]*v[i]) with 0-based letters i < j, or None."""
    for i, j in itertools.combinations(range(len(u)), 2):
        lhs, rhs = u[i] * v[j], u[j] * v[i]
        if lhs != rhs:
            return i, j, lhs, rhs
    return None


def vectors_proportional(u, v) -> bool:
    """Whether two rational vectors are proportional (all 2x2 minors vanish).

    This is the symmetric notion u = c*v or v = c*u; the zero vector is
    proportional to everything, which is why proportionality is not transitive.
    """
    return first_nonvanishing_minor(u, v) is None


def blocks_proportional(column, blocks) -> bool:
    """Whether the vectors ``column(x)`` are pairwise proportional within every block."""
    for block in blocks:
        cols = [column(x) for x in block]
        if not all(vectors_proportional(u, v) for u, v in itertools.combinations(cols, 2)):
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization.  Rationals travel as "numerator/denominator" strings so the
# round trip is bit-exact.

def format_fraction(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise InputError(f"bad rational {text!r}: {exc}") from exc


def model_to_json(space: StateSpace, spec: RobustnessSpec = None, uniform_k: int = None) -> dict:
    obj = {"d0": space.d0, "d": list(space.d)}
    if uniform_k is not None:
        obj["spec"] = {"uniform_k": uniform_k}
    elif spec is not None:
        obj["spec"] = {
            "pairs": [{"R": list(nodes), "y": list(y)} for nodes, y in spec.sorted_pairs()]
        }
    return obj


def model_from_json(obj) -> tuple:
    """Parse a model object into (StateSpace, RobustnessSpec)."""
    if not isinstance(obj, dict):
        raise InputError("model file must contain a JSON object")
    try:
        space = StateSpace(int(obj["d0"]), [int(v) for v in obj["d"]])
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"bad model fields d0/d: {exc}") from exc
    spec_obj = obj.get("spec")
    if spec_obj is None:
        raise InputError("model file is missing the 'spec' field")
    if not isinstance(spec_obj, dict):
        raise InputError("the 'spec' field must be a JSON object")
    if "uniform_k" in spec_obj:
        try:
            k = int(spec_obj["uniform_k"])
        except (OverflowError, TypeError, ValueError) as exc:
            raise InputError(f"bad uniform_k: {exc}") from exc
        spec = make_uniform_spec(k, space)
    elif "pairs" in spec_obj:
        try:
            spec = RobustnessSpec.of(
                (tuple(p["R"]), tuple(p["y"])) for p in spec_obj["pairs"]
            )
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad spec pair: {exc}") from exc
        validate_spec(spec, space)
    else:
        raise InputError("spec must provide either 'uniform_k' or 'pairs'")
    return space, spec


def distribution_to_json(dist: JointDistribution) -> dict:
    entries = []
    for x in sorted({key[1] for key in dist.table}):
        for x0 in sorted({key[0] for key in dist.table if key[1] == x}):
            p = dist.table[(x0, x)]
            if p != 0:
                entries.append({"x0": x0, "x": list(x), "p": format_fraction(p)})
    return {"entries": entries}


def distribution_from_json(obj, space: StateSpace) -> JointDistribution:
    if not isinstance(obj, dict) or not isinstance(obj.get("entries"), list):
        raise InputError("distribution file must contain an 'entries' list")
    table = {}
    for entry in obj["entries"]:
        try:
            key = (int(entry["x0"]), tuple(int(v) for v in entry["x"]))
            p = parse_fraction(entry["p"])
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise InputError(f"bad distribution entry {entry!r}: {exc}") from exc
        table[key] = table.get(key, Fraction(0)) + p
    return JointDistribution(space, table)


def read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, RecursionError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
