"""Graphs on input configurations, robustness structures, and maximality.

A robustness specification induces a graph on the input configurations: two
configurations are adjacent when some pair (R, y) pins both of them to the
same partial configuration y on R.  A robustness structure is the set of
connected components of the subgraph induced by a support set; it is maximal
when no outside configuration can be added without strictly lowering the
component count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, ResourceLimitError
from .model import Config, RobustnessSpec, StateSpace, pinned_blocks

# Most vertices enumerate_maximal_structures accepts.
ENUMERATION_CAP = 20


class InputGraph:
    """Undirected graph on the input configurations of a state space.

    Edges built from a specification carry a witness pair (R, y) certifying
    x|_R = x'|_R = y; explicitly constructed graphs may omit witnesses.
    """

    def __init__(self, space: StateSpace, edges, witnesses=None):
        self.space = space
        self.vertices = tuple(space.configs())
        self._index = {v: i for i, v in enumerate(self.vertices)}
        # adjacency as bitmasks over the canonical vertex order
        self._masks = [0] * len(self.vertices)
        witnesses = witnesses or {}
        self.edge_witness = {}
        for u, v in edges:
            u, v = tuple(u), tuple(v)
            if u not in self._index or v not in self._index:
                raise InputError(f"edge ({u}, {v}) leaves the configuration set")
            if u == v:
                raise InputError(f"self-loop at {u}")
            key = (min(u, v), max(u, v))
            self._masks[self._index[u]] |= 1 << self._index[v]
            self._masks[self._index[v]] |= 1 << self._index[u]
            self.edge_witness[key] = witnesses.get(key)

    def neighbors(self, v: Config) -> tuple:
        return tuple(self._vertices_of(self._masks[self._index[v]]))

    def has_edge(self, u: Config, v: Config) -> bool:
        return (min(u, v), max(u, v)) in self.edge_witness

    def edge_list(self) -> list:
        return sorted(self.edge_witness)

    def num_edges(self) -> int:
        return len(self.edge_witness)

    def _mask_of(self, subset) -> int:
        """Bitmask of the vertices in ``subset``; other configurations are ignored."""
        mask = 0
        for x in subset:
            i = self._index.get(x)
            if i is not None:
                mask |= 1 << i
        return mask

    def _vertices_of(self, mask: int) -> list:
        """The vertices of a bitmask, in canonical order."""
        out = []
        while mask:
            bit = mask & -mask
            mask ^= bit
            out.append(self.vertices[bit.bit_length() - 1])
        return out

    def components(self, subset=None) -> list:
        """Connected components of the subgraph induced by ``subset``.

        Components are returned as sorted lists, ordered by their minimal
        element; ``subset=None`` means the whole vertex set.
        """
        mask = (1 << len(self.vertices)) - 1 if subset is None else self._mask_of(subset)
        return [self._vertices_of(c) for c in _mask_components(mask, self._masks)]


def build_graph(spec: RobustnessSpec, space: StateSpace) -> InputGraph:
    """The graph induced by a robustness specification, with edge witnesses.

    Each pair (R, y) adds the clique on its pinned block
    (:func:`robustci.model.pinned_blocks`), in O(|distinct R|*m + sum of
    |clique|^2).  An edge's witness is the first pair in sorted order that
    pins both endpoints, i.e. the pair that first adds it.
    """
    witnesses = {}
    for pair, block in pinned_blocks(spec, space):
        # blocks keep the canonical order, so each edge comes as (min, max)
        for edge in itertools.combinations(block, 2):
            witnesses.setdefault(edge, pair)
    return InputGraph(space, sorted(witnesses), witnesses)


@dataclass(frozen=True)
class RobustnessStructure:
    """A support set partitioned into its connectivity blocks.

    Blocks are sorted tuples ordered by their minimal elements, so equal
    structures compare and hash equal.
    """

    space: StateSpace
    blocks: tuple

    @staticmethod
    def from_blocks(space: StateSpace, blocks) -> "RobustnessStructure":
        norm = []
        seen = set()
        for block in blocks:
            block = tuple(sorted(tuple(x) for x in block))
            if not block:
                raise InputError("empty block")
            if seen & set(block):
                raise InputError("blocks are not disjoint")
            seen |= set(block)
            norm.append(block)
        norm.sort(key=lambda b: b[0])
        return RobustnessStructure(space, tuple(norm))

    @property
    def support(self) -> frozenset:
        return frozenset(x for block in self.blocks for x in block)

    def block_index(self) -> dict:
        return {x: i for i, block in enumerate(self.blocks) for x in block}

    def num_blocks(self) -> int:
        return len(self.blocks)

    def is_empty(self) -> bool:
        return not self.blocks


def components_of(graph: InputGraph, support) -> RobustnessStructure:
    """The robustness structure whose blocks are the components induced by ``support``."""
    return _structure(graph, _mask_components(graph._mask_of(support), graph._masks))


def _structure(graph: InputGraph, comps) -> RobustnessStructure:
    """The structure whose blocks are the given component masks."""
    return RobustnessStructure(graph.space, tuple(tuple(graph._vertices_of(c)) for c in comps))


def _require_consistent(structure: RobustnessStructure, graph: InputGraph):
    if components_of(graph, structure.support) != structure:
        raise InputError("structure blocks are not the components of the induced subgraph")


def is_maximal(structure: RobustnessStructure, graph: InputGraph) -> bool:
    """Maximality by component counting: every outside vertex strictly merges.

    True iff for every configuration x outside the support, the subgraph
    induced by support + {x} has strictly fewer connected components.
    """
    _require_consistent(structure, graph)
    support = structure.support
    base = structure.num_blocks()
    for x in graph.vertices:
        if x in support:
            continue
        if len(graph.components(support | {x})) >= base:
            return False
    return True


def maximality_by_edges(structure: RobustnessStructure, graph: InputGraph) -> bool:
    """Maximality by the edge condition: every outside vertex sees two blocks.

    True iff every configuration outside the support has two neighbours inside
    the support lying in different blocks.  Agrees with :func:`is_maximal` on
    every input; the equivalence is exercised by the test suite.
    """
    _require_consistent(structure, graph)
    support = structure.support
    index = structure.block_index()
    for x in graph.vertices:
        if x in support:
            continue
        touched = {index[w] for w in graph.neighbors(x) if w in support}
        if len(touched) < 2:
            return False
    return True


def _mask_components(mask: int, nbr_masks) -> list:
    """Connected components of the induced sub-vertex-set, as bitmasks."""
    comps = []
    rest = mask
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            m = frontier
            while m:
                bit = m & -m
                m ^= bit
                grow |= nbr_masks[bit.bit_length() - 1]
            frontier = grow & mask & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


def _unmerging_vertex(inside: int, out: int, undecided: int, comps, nbr_masks) -> int:
    """The lowest vertex of ``out`` with c + e < 2 (the cut of
    :func:`enumerate_maximal_structures`) as a bitmask, 0 when there is none;
    ``comps`` holds the components of ``inside`` as (vertex mask,
    neighbourhood mask) pairs.  With nothing undecided e = 0, so ``inside`` is
    maximal iff this returns 0 with ``out`` its complement."""
    while out:
        bit = out & -out
        out ^= bit
        nb = nbr_masks[bit.bit_length() - 1]
        free = nb & undecided
        seen = nb & inside
        if not seen:
            if not free & (free - 1):  # c = 0 and e < 2
                return bit
            continue
        for comp, reach in comps:
            if seen & comp:
                break
        if seen & ~comp:
            continue  # c >= 2
        if not free & ~reach:  # c = 1 and e = 0
            return bit
    return 0


def check_enumeration_cap(m: int) -> None:
    """Raise ResourceLimitError when ``m`` vertices exceed ENUMERATION_CAP."""
    if m > ENUMERATION_CAP:
        raise ResourceLimitError(f"{m} vertices exceed the enumeration cap of {ENUMERATION_CAP}")


def enumerate_maximal_structures(graph: InputGraph) -> list:
    """All maximal robustness structures, by a pruned depth-first search.

    The search decides the vertices in canonical order, each in or out of the
    support, keeping the masks I (in), X (out) and U (undecided) and the
    components of G[I] with their neighbourhoods.  A branch is cut when some
    v in X touches c components of G[I] and has e undecided neighbours
    adjacent to none of them with c + e < 2.  The cut is sound: every final
    support S contains I, so the components of G[I] can only merge, and any
    other component of G[S] touching v holds an undecided neighbour of v
    counted in e; so v touches at most c + e components of G[S] and cannot
    merge two of them.  At the last decision nothing is undecided, so e = 0
    and the cut is exactly the maximality test: every leaf is maximal, and
    its blocks are the components the search carries.  The stack is
    explicit, so ENUMERATION_CAP may exceed the recursion limit.

    The result is deduplicated and canonically ordered; it is exactly the
    index set of the primary decomposition of the associated edge ideal.
    Raises ResourceLimitError beyond ENUMERATION_CAP vertices.
    """
    m = len(graph.vertices)
    check_enumeration_cap(m)
    masks = graph._masks
    full = (1 << m) - 1
    found = []
    # (next vertex, I, X, components of G[I] as (mask, neighbourhood) pairs)
    stack = [(0, 0, 0, ())]
    while stack:
        i, inside, out, comps = stack.pop()
        if i == m:
            found.append(_structure(graph, sorted((c for c, _ in comps), key=lambda c: c & -c)))
            continue
        bit = 1 << i
        undecided = full & ~((bit << 1) - 1)
        if not _unmerging_vertex(inside, out | bit, undecided, comps, masks):
            stack.append((i + 1, inside, out | bit, comps))
        nb = masks[i]
        merged, reach = bit, nb
        joined = []
        for comp, comp_reach in comps:
            if nb & comp:
                merged |= comp
                reach |= comp_reach
            else:
                joined.append((comp, comp_reach))
        joined.append((merged, reach))
        if not _unmerging_vertex(inside | bit, out, undecided, joined, masks):
            stack.append((i + 1, inside | bit, out, tuple(joined)))
    found.sort(key=lambda s: s.blocks)
    return found


def check_product_form(structure: RobustnessStructure, space: StateSpace) -> bool:
    """Whether the structure looks like a maximal 1-robustness structure.

    Two conditions: every block is the full product of its coordinate
    projections, and for every coordinate i the blocks' projections on i
    partition {1..d_i}.  For the components of G_1 these are exactly
    maximality: blocks never share a letter, since configurations that agree
    in one coordinate are adjacent.  A point of prod(pi(Y_a)) outside Y_a
    touches only block a, so each block must be a product; giving some
    y in Y_a an uncovered letter in one coordinate likewise touches only
    block a, so every letter must be covered.  Conversely, an outside point
    whose letters all come from one block lies in that block's product, so
    under both conditions every outside point touches two blocks.
    """
    for block in structure.blocks:
        projections = [sorted({x[i] for x in block}) for i in range(space.n)]
        if set(block) != set(itertools.product(*projections)):
            return False
    for i, di in enumerate(space.d):
        letters = [v for block in structure.blocks for v in {x[i] for x in block}]
        if sorted(letters) != list(range(1, di + 1)):
            return False
    return True


def grow_to_maximal(graph: InputGraph, start) -> RobustnessStructure:
    """Extend a support set to a maximal structure.

    Repeatedly adds the canonically first outside vertex whose addition does
    not strictly lower the component count; the loop ends exactly when the
    maximality condition holds.
    """
    mask = graph._mask_of(start)
    full = (1 << len(graph.vertices)) - 1
    while True:
        comps = _mask_components(mask, graph._masks)
        # with nothing undecided the components' neighbourhoods play no part
        bit = _unmerging_vertex(mask, full & ~mask, 0, [(c, 0) for c in comps], graph._masks)
        if not bit:
            return _structure(graph, comps)
        mask |= bit


def cube_complement_category(structure: RobustnessStructure) -> str:
    """Classify the complement of a structure on the binary 3-input space.

    Categories: "empty"; "plane-split" (4-set whose removal leaves two size-2
    components); "parity-class" (the 4 vertices of equal parity);
    "vertex-cut" (the 3 neighbours of one vertex); otherwise "unclassified".
    """
    space = structure.space
    if space.d != (2, 2, 2):
        raise InputError("cube taxonomy applies to the binary 3-input space only")
    complement = sorted(set(space.configs()) - structure.support)
    sizes = sorted(len(b) for b in structure.blocks)
    if not complement:
        return "empty"
    if len(complement) == 4 and len({sum(x) % 2 for x in complement}) == 1:
        return "parity-class"
    if len(complement) == 4 and sizes == [2, 2]:
        return "plane-split"
    if len(complement) == 3 and sizes == [1, 4]:
        return "vertex-cut"
    return "unclassified"


def graph_to_json(graph: InputGraph) -> dict:
    edges = []
    for u, v in graph.edge_list():
        witness = graph.edge_witness[(u, v)]
        edges.append({
            "u": list(u),
            "v": list(v),
            "witness": None if witness is None else {"R": list(witness[0]), "y": list(witness[1])},
        })
    return {
        "space": {"d0": graph.space.d0, "d": list(graph.space.d)},
        "vertices": [list(v) for v in graph.vertices],
        "edges": edges,
    }


def graph_from_json(obj) -> InputGraph:
    try:
        space = StateSpace(int(obj["space"]["d0"]), [int(v) for v in obj["space"]["d"]])
        edges = []
        witnesses = {}
        for e in obj["edges"]:
            u, v = tuple(int(a) for a in e["u"]), tuple(int(a) for a in e["v"])
            key = (min(u, v), max(u, v))
            edges.append((u, v))
            w = e.get("witness")
            if w is not None:
                witnesses[key] = (tuple(int(a) for a in w["R"]), tuple(int(a) for a in w["y"]))
        return InputGraph(space, edges, witnesses)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"bad graph file: {exc}") from exc


def structure_to_json(structure: RobustnessStructure) -> dict:
    return {"blocks": [[list(x) for x in block] for block in structure.blocks]}


def structure_from_json(obj, space: StateSpace) -> RobustnessStructure:
    try:
        blocks = [
            [tuple(int(v) for v in x) for x in block]
            for block in obj["blocks"]
        ]
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"bad structure file: {exc}") from exc
    return RobustnessStructure.from_blocks(space, blocks)
