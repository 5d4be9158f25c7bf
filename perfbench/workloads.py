"""Seeded job generators for the three benchmark workloads.

A workload is an endless stream of rounds.  Every round holds the same cells
(one job per cell, in a seeded order); a cell fixes the subcommand and the
size class, and the seed draws the instance inside it.  Fixing the mix per
round keeps the job-type composition, and with it the medians, the same from
seed to seed, while the instances themselves never repeat within a run.  Some
cells appear twice or three times, so that the median and the p90 job each
fall inside a group of cells of similar cost, not into a gap between two,
where a small change in the mix would move them far.

The generators build every input with their own code (standard library only):
graphs from specification pairs, supports and their components, product-form
distributions, random graphs and kernel families.  The same code serves as the
independent oracle the per-job checks compare the program's output against.
The program itself only ever receives the generated files and the argv.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

GIBBS_ROUNDTRIP_TOL = 1e-9


@dataclass
class Job:
    """One command-line invocation with its inputs, expectation and oracle data."""

    index: int
    cell: str
    command: str
    argv: list
    expected_exit: int
    params: dict
    oracle: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Combinatorial oracle: configurations, specification pairs, induced graphs.


def configs(d):
    return list(itertools.product(*(range(1, di + 1) for di in d)))


def uniform_pairs(d, k):
    n = len(d)
    out = []
    for size in range(k, n + 1):
        for nodes in itertools.combinations(range(1, n + 1), size):
            for y in itertools.product(*(range(1, d[i - 1] + 1) for i in nodes)):
                out.append((nodes, y))
    return out


def random_pairs(rng, d, count):
    """``count`` distinct pairs (R, y) with 1 <= |R| <= n-1, sorted."""
    n = len(d)
    pairs = set()
    while len(pairs) < count:
        nodes = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n - 1))))
        pairs.add((nodes, tuple(rng.randint(1, d[i - 1]) for i in nodes)))
    return sorted(pairs)


def pair_space(d):
    """Number of pairs (R, y) with 1 <= |R| <= n-1."""
    n = len(d)
    return sum(
        math.prod(d[i - 1] for i in nodes)
        for size in range(1, n)
        for nodes in itertools.combinations(range(1, n + 1), size)
    )


def induced_edges(d, pairs):
    """Edge set of the graph a specification induces: one clique per pair."""
    vertices = configs(d)
    edges = set()
    for nodes, y in pairs:
        clique = [x for x in vertices if all(x[i - 1] == v for i, v in zip(nodes, y))]
        for a in range(len(clique)):
            for b in range(a + 1, len(clique)):
                edges.add((clique[a], clique[b]))
    return edges


def adjacency(vertices, edges):
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def components(vertices, adj, support):
    """Components of the subgraph induced by ``support``, as sorted tuples
    ordered by their minimal element."""
    support = set(support)
    seen = set()
    out = []
    for v in vertices:
        if v not in support or v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w in support and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return out


def is_maximal_support(vertices, adj, blocks):
    """The edge condition: every outside vertex touches two different blocks."""
    index = {x: b for b, block in enumerate(blocks) for x in block}
    for x in vertices:
        if x in index:
            continue
        if len({index[w] for w in adj[x] if w in index}) < 2:
            return False
    return True


def maximal_supports(vertices, edges):
    """Every nonempty support satisfying the edge condition, by brute force
    over the 2^m vertex subsets, as a set of frozensets of vertices."""
    m = len(vertices)
    bit = {x: 1 << i for i, x in enumerate(vertices)}
    nbr = [0] * m
    for u, v in edges:
        nbr[bit[u].bit_length() - 1] |= bit[v]
        nbr[bit[v].bit_length() - 1] |= bit[u]
    found = set()
    for mask in range(1, 1 << m):
        # Label each support vertex with its component by flood fill.
        label = [-1] * m
        rest, count = mask, 0
        while rest:
            frontier = rest & -rest
            comp = 0
            while frontier:
                comp |= frontier
                grow = 0
                f = frontier
                while f:
                    low = f & -f
                    f ^= low
                    grow |= nbr[low.bit_length() - 1]
                frontier = grow & mask & ~comp
            rest &= ~comp
            c = comp
            while c:
                low = c & -c
                c ^= low
                label[low.bit_length() - 1] = count
            count += 1
        outside = ((1 << m) - 1) & ~mask
        maximal = True
        while outside:
            low = outside & -outside
            outside ^= low
            near = nbr[low.bit_length() - 1] & mask
            touched = set()
            while near and len(touched) < 2:
                b = near & -near
                near ^= b
                touched.add(label[b.bit_length() - 1])
            if len(touched) < 2:
                maximal = False
                break
        if maximal:
            found.add(frozenset(x for x in vertices if mask & bit[x]))
    return found


def model_obj(d0, d, pairs=None, uniform_k=None):
    if uniform_k is not None:
        spec = {"uniform_k": uniform_k}
    else:
        spec = {"pairs": [{"R": list(nodes), "y": list(y)} for nodes, y in pairs]}
    return {"d0": d0, "d": list(d), "spec": spec}


def num_configs(d):
    return math.prod(d)


# ---------------------------------------------------------------------------
# Workload definitions.


class Workload:
    """Endless seeded stream of rounds of distinct jobs.

    Subclasses list their cells as ``(name, method, args)``; the method draws
    one instance for the cell, or returns None when the draw repeats an
    instance already used in this run (the caller then draws again).

    The parameters that set a job's cost (shape, d0, spec kind, edge count)
    are dealt from shuffled decks, not drawn independently: every option
    comes up once per pass through its deck.  A run then holds nearly the
    same mix of cost classes at every seed, and its medians vary less.
    """

    cells: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.workdir = Path(workdir)
        self.seen = set()
        self.count = 0
        self.decks = {}

    def rounds(self):
        """Rounds of jobs, until some cell runs out of distinct instances."""
        while True:
            order = list(self.cells)
            self.rng.shuffle(order)
            jobs = [self._draw(cell) for cell in order]
            if None in jobs:
                return
            yield jobs

    def _draw(self, cell):
        name, method, args = cell
        for _ in range(200):
            job = getattr(self, method)(name, *args)
            if job is not None:
                return job
        return None

    def _deal(self, key, options):
        """Next option from the shuffled deck ``key``; reshuffled when empty."""
        deck = self.decks.get(key)
        if not deck:
            deck = self.decks[key] = list(options)
            self.rng.shuffle(deck)
        return deck.pop()

    def _unique(self, key) -> bool:
        """Register an instance key; False if this run already used it."""
        digest = hashlib.sha256(json.dumps(key, sort_keys=True).encode()).digest()
        if digest in self.seen:
            return False
        self.seen.add(digest)
        return True

    def _write(self, name, obj) -> str:
        path = self.workdir / f"{self.count:05d}-{name}.json"
        path.write_text(json.dumps(obj, separators=(",", ":")), encoding="utf-8")
        return str(path)

    def _job(self, cell, command, argv, params, expected_exit=0, oracle=None):
        job = Job(self.count, cell, command, argv, expected_exit, params, oracle or {})
        self.count += 1
        return job


def _spec_params(d0, d, pairs, uniform_k, edges):
    return {
        "space": list(d),
        "d0": d0,
        "spec_kind": "uniform_k" if uniform_k is not None else "pairs",
        "spec_size": len(pairs),
        "uniform_k": uniform_k,
        "vertices": num_configs(d),
        "edges": len(edges),
    }


class Combinatorics(Workload):
    """graph, structures and check jobs: model, graph and ci layers."""

    name = "combinatorics"
    cells = (
        *[("graph_pairs_64", "_graph", ("64",))] * 2,
        *[("graph_pairs_32", "_graph", ("32",))] * 2,
        ("graph_uniform", "_graph", ("uniform",)),
        *[("structures_cube", "_structures", ("cube",))] * 3,
        *[("structures_12", "_structures", ("12",))] * 2,
        ("structures_16", "_structures", ("16",)),
        *[("check_robust", "_check", (False,))] * 2,
        *[("check_broken", "_check", (True,))] * 2,
    )

    SHAPES = {
        "64": ((2, 2, 2, 2, 2, 2), (4, 4, 4), (2, 4, 8), (2, 2, 2, 2, 4)),
        "32": ((2, 2, 2, 2, 2), (3, 3, 3), (2, 2, 3, 3), (2, 4, 4)),
        # Binary n=6 is left out of the uniform specs: one such graph job takes
        # about 1.5 s and would set the tail on its own.
        "uniform": ((4, 4, 4), (2, 4, 8), (3, 4, 4), (2, 2, 3, 4), (2, 3, 3, 3)),
        # Enumeration visits 2^m masks: 16 vertices cost about 0.2 s, 20 about 4 s.
        "cube": ((2, 2, 2),),
        "12": ((3, 4), (2, 2, 3), (2, 6), (2, 7), (2, 3, 2)),
        "16": ((2, 2, 2, 2), (4, 4), (2, 2, 4), (2, 8), (2, 4, 2)),
        "check": ((2, 2, 2), (2, 2, 3), (3, 4), (2, 2, 2, 2), (4, 4), (3, 3, 2),
                  (2, 2, 2, 3), (3, 3, 3), (2, 2, 2, 2, 2), (4, 4, 4), (2, 4, 8)),
    }

    COMPLETE_MAX = 14

    def _shape(self, shapes):
        d = list(self._deal(shapes, shapes))
        self.rng.shuffle(d)
        return tuple(d)

    def _spec(self, d, uniform, max_pairs):
        if uniform:
            k = self._deal(("k", len(d)), range(1, len(d)))
            return uniform_pairs(d, k), k
        count = self.rng.randint(max(2, max_pairs // 2), max_pairs)
        return random_pairs(self.rng, d, min(count, pair_space(d))), None

    def _graph(self, cell, kind):
        rng = self.rng
        d = self._shape(self.SHAPES[kind])
        d0 = self._deal((cell, "d0"), (2, 3))
        pairs, k = self._spec(d, kind == "uniform", 32)
        if k is not None and self._deal((cell, "thin"), (True, False)):
            # A thinned uniform spec, given as pairs: about the same graph and
            # cost, and an endless supply of distinct instances.
            pairs, k = [p for p in pairs if rng.random() < 0.8], None
        if not self._unique(["graph", d, pairs]):
            return None
        edges = induced_edges(d, pairs)
        path = self._write("model", model_obj(d0, d, pairs, k))
        return self._job(cell, "graph", ["graph", "--model", path],
                         _spec_params(d0, d, pairs, k, edges),
                         oracle={"edges": edges, "pairs": set(pairs)})

    def _structures(self, cell, kind):
        d = self._shape(self.SHAPES[kind])
        d0 = self._deal((cell, "d0"), (2, 3))
        pairs, k = self._spec(d, self._deal((cell, "uniform"), (True, False, False)), 3 * len(d))
        if not self._unique(["structures", d, pairs]):
            return None
        edges = induced_edges(d, pairs)
        path = self._write("model", model_obj(d0, d, pairs, k))
        argv = ["structures", "--model", path]
        if d == (2, 2, 2):
            argv.append("--classify-complements")
        # The oracle enumerates the structures itself where 2^m stays cheap
        # (at most 14 vertices), so a program that drops some is caught.
        complete = num_configs(d) <= self.COMPLETE_MAX
        return self._job(cell, "structures", argv, _spec_params(d0, d, pairs, k, edges),
                         oracle={"d": d, "edges": edges, "complete": complete})

    def _check(self, cell, broken):
        rng = self.rng
        d = self._shape(self.SHAPES["check"])
        d0 = self._deal((cell, "d0"), (2, 3))
        uniform = self._deal((cell, "uniform"), (True, False))
        pairs, k = self._spec(d, num_configs(d) <= 32 and uniform, 24)
        vertices = configs(d)
        edges = induced_edges(d, pairs)
        adj = adjacency(vertices, edges)
        keep = rng.uniform(0.5, 0.9)
        support = [x for x in vertices if rng.random() < keep]
        blocks = components(vertices, adj, support)
        if broken and all(len(b) == 1 for b in blocks):
            return None
        if not self._unique(["check", d, d0, pairs, support, broken]):
            return None
        # Product-form construction mu(Z) * lambda_Z(x) * p_Z(x0): robust for
        # every specification whose graph keeps each block connected.
        table = {}
        for block in blocks:
            mu = Fraction(rng.randint(1, 9))
            out = [Fraction(rng.randint(1, 9)) for _ in range(d0)]
            for x in block:
                lam = Fraction(rng.randint(1, 9))
                for x0 in range(1, d0 + 1):
                    table[(x0, x)] = mu * lam * out[x0 - 1]
        if broken:
            # Scale one cell of a configuration that has a neighbour in its
            # block: its column stops being proportional to the neighbour's,
            # which breaks the statement of the edge between them.
            block = rng.choice([b for b in blocks if len(b) > 1])
            table[(1, rng.choice(block))] *= Fraction(3, 2)
        total = sum(table.values())
        entries = [
            {"x0": x0, "x": list(x), "p": f"{(p / total).numerator}/{(p / total).denominator}"}
            for (x0, x), p in sorted(table.items(), key=lambda item: (item[0][1], item[0][0]))
        ]
        model_path = self._write("model", model_obj(d0, d, pairs, k))
        dist_path = self._write("dist", {"entries": entries})
        params = _spec_params(d0, d, pairs, k, edges)
        params["support"] = len(support)
        params["blocks"] = len(blocks)
        return self._job(cell, "check", ["check", "--model", model_path, "--dist", dist_path],
                         params, expected_exit=1 if broken else 0,
                         oracle={"blocks": [[list(x) for x in b] for b in blocks]})


def random_connected_edges(rng, vertices, extra):
    """A random spanning tree plus up to ``extra`` further edges."""
    order = list(vertices)
    rng.shuffle(order)
    edges = set()
    for i in range(1, len(order)):
        u, v = order[i], rng.choice(order[:i])
        edges.add((min(u, v), max(u, v)))
    rest = [e for e in itertools.combinations(vertices, 2) if e not in edges]
    edges.update(rng.sample(rest, min(extra, len(rest))))
    return edges


class Algebra(Workload):
    """groebner --verify and decompose jobs: ideal, polyengine and decomp layers."""

    name = "algebra"
    cells = (
        *[(f"groebner_{m}_d2", "_groebner_graph", (m, 2)) for m in (4, 5, 5, 6, 7, 8)],
        # d0=3 stops at 5 vertices: 7- and 8-vertex d0=3 bases take 2-12 s each.
        *[(f"groebner_{m}_d3", "_groebner_graph", (m, 3)) for m in (4, 5)],
        ("groebner_cube", "_groebner_cube", ()),
        # The intersection leg of decompose runs only at <= 3 vertices, d0=2.
        ("decompose_tiny", "_decompose", ("tiny", 2)),
        ("decompose_small_d2", "_decompose", ("small", 2)),
        *[("decompose_small_d3", "_decompose", ("small_d3", 3))] * 2,
        ("decompose_mid", "_decompose", ("mid", 2)),
    )

    # Shapes fix the vertex order; alphabets of size 1 give 4-vertex graphs
    # more distinct labelings, so a run does not exhaust them.
    GRAPH_SHAPES = {
        4: ((4,), (2, 2), (1, 4), (4, 1), (1, 2, 2), (2, 1, 2), (2, 2, 1), (1, 1, 4),
            (1, 4, 1), (4, 1, 1), (1, 1, 2, 2), (2, 1, 1, 2)),
        5: ((5,), (1, 5), (5, 1)),
        6: ((6,), (2, 3), (3, 2)),
        7: ((7,), (1, 7), (7, 1)),
        8: ((8,), (2, 4), (4, 2), (2, 2, 2)),
    }
    MODEL_SHAPES = {
        "tiny": ((3,), (1, 3), (3, 1), (1, 1, 3), (1, 3, 1)),
        "small": ((2, 2), (4,), (5,), (2, 3), (3, 2), (6,), (2, 2, 2), (2, 4), (7,), (8,)),
        "small_d3": ((2, 2), (4,), (2, 3), (3, 2), (5,), (6,)),
        "mid": ((3, 3), (2, 5), (10,), (3, 4), (2, 6), (2, 2, 3), (11,), (12,)),
    }

    def _groebner_graph(self, cell, m, d0):
        rng = self.rng
        d = self._deal((cell, "shape"), self.GRAPH_SHAPES[m])
        vertices = configs(d)
        edges = random_connected_edges(rng, vertices, self._deal((cell, "extra"), range(m - 1)))
        if not self._unique(["groebner", d, d0, sorted(edges)]):
            return None
        graph = {
            "space": {"d0": d0, "d": list(d)},
            "vertices": [list(v) for v in vertices],
            "edges": [{"u": list(u), "v": list(v), "witness": None} for u, v in sorted(edges)],
        }
        path = self._write("graph", graph)
        params = {"space": list(d), "d0": d0, "spec_kind": "graph",
                  "vertices": m, "edges": len(edges)}
        return self._job(cell, "groebner",
                         ["groebner", "--graph", path, "--d0", str(d0), "--verify"], params)

    def _model_spec(self, cell, d):
        rng = self.rng
        n = len(d)
        if n > 1 and self._deal((cell, "pairs"), (True, False)):
            count = rng.randint(1, max(1, num_configs(d) // 2))
            return random_pairs(rng, d, min(count, pair_space(d))), None
        k = self._deal((cell, "k", n), range(n + 1))
        return uniform_pairs(d, k), k

    def _groebner_cube(self, cell):
        d = (2, 2, 2)
        pairs, k = self._model_spec(cell, d)
        edges = induced_edges(d, pairs)
        if k == 0 or not edges or not self._unique(["cube", pairs]):
            return None
        path = self._write("model", model_obj(2, d, pairs, k))
        return self._job(cell, "groebner", ["groebner", "--model", path, "--verify"],
                         _spec_params(2, d, pairs, k, edges))

    def _decompose(self, cell, kind, d0):
        rng = self.rng
        d = self._deal((cell, "shape"), self.MODEL_SHAPES[kind])
        pairs, k = self._model_spec(cell, d)
        trials = self._deal((cell, "trials"), (10, 20, 30, 40))
        seed = rng.randint(0, 10**6)
        if not self._unique(["decompose", d, d0, pairs, trials, seed]):
            return None
        edges = induced_edges(d, pairs)
        path = self._write("model", model_obj(d0, d, pairs, k))
        params = _spec_params(d0, d, pairs, k, edges)
        params["trials"] = trials
        vertices = configs(d)
        return self._job(cell, "decompose",
                         ["decompose", "--model", path, "--trials", str(trials),
                          "--seed", str(seed)],
                         params,
                         oracle={"vertices": vertices, "adj": adjacency(vertices, edges),
                                 "intersection": len(vertices) <= 3 and d0 == 2})


class Kernels(Workload):
    """gibbs jobs on logistic neurons and random positive families: gibbs layer."""

    name = "kernels"
    # Each cell fixes n, k and the alphabet multiset, so that a cell's cost
    # varies little from seed to seed; the seed draws the weights, the order
    # of the alphabets and the kernel rows.
    cells = (
        *[("neuron_5", "_neuron", (5, None))] * 2,
        ("neuron_5_k2", "_neuron", (5, 2)),
        ("neuron_6", "_neuron", (6, None)),
        ("neuron_6_k1", "_neuron", (6, 1)),
        ("neuron_6_k2", "_neuron", (6, 2)),
        ("family_2", "_family", ((3, 4), None)),
        ("family_3", "_family", ((2, 3, 4), None)),
        ("family_3_k1", "_family", ((2, 3, 4), 1)),
        *[("family_4", "_family", ((2, 3, 3, 4), None))] * 2,
        ("family_4_k2", "_family", ((2, 3, 3, 4), 2)),
    )

    def _neuron(self, cell, n, k):
        rng = self.rng
        weights = ",".join(f"{rng.uniform(-2.0, 2.0):.3f}" for _ in range(n))
        if not self._unique(["neuron", weights, k]):
            return None
        argv = ["gibbs", f"--neuron={weights}"] + ([] if k is None else ["--k", str(k)])
        params = {"space": [2] * n, "configs": 2 ** n, "d0": 2, "spec_kind": "neuron",
                  "k": k}
        return self._job(cell, "gibbs", argv, params, oracle={"n": n, "configs": 2 ** n})

    def _family(self, cell, alphabets, k):
        rng = self.rng
        d0 = 3
        d = list(alphabets)
        rng.shuffle(d)
        n = len(d)
        kernels = {}
        for size in range(n + 1):
            for nodes in itertools.combinations(range(1, n + 1), size):
                rows = {}
                for xa in itertools.product(*(range(1, d[i - 1] + 1) for i in nodes)):
                    raw = [rng.randint(1, 100) for _ in range(d0)]
                    total = sum(raw)
                    rows[",".join(map(str, xa))] = [repr(r / total) for r in raw]
                kernels[",".join(map(str, nodes))] = rows
        obj = {"n": n, "d0": d0, "d": list(d), "kernels": kernels}
        if not self._unique(["family", obj, k]):
            return None
        path = self._write("modalities", obj)
        argv = ["gibbs", "--modalities", path] + ([] if k is None else ["--k", str(k)])
        params = {"space": list(d), "configs": num_configs(d), "d0": d0,
                  "spec_kind": "modalities", "k": k}
        return self._job(cell, "gibbs", argv, params,
                         oracle={"n": n, "configs": num_configs(d)})


WORKLOADS = {w.name: w for w in (Combinatorics, Algebra, Kernels)}


# ---------------------------------------------------------------------------
# Per-job correctness checks against the oracle data.  Each returns a list of
# problems; an empty list means the job passed.


def check_job(job: Job, exit_code, stdout: str) -> list:
    if exit_code != job.expected_exit:
        return [f"exit {exit_code}, expected {job.expected_exit}"]
    try:
        return CHECKS[job.command](job, json.loads(stdout))
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"]
    except (KeyError, TypeError, IndexError) as exc:
        return [f"stdout lacks an expected field: {exc!r}"]


def _edge_key(e):
    return (tuple(e["u"]), tuple(e["v"]))


def _check_graph(job, payload):
    problems = []
    edges = {_edge_key(e) for e in payload["edges"]}
    if edges != job.oracle["edges"]:
        problems.append(f"{len(edges)} edges, oracle has {len(job.oracle['edges'])}")
    for e in payload["edges"]:
        w = e["witness"]
        pair = (tuple(w["R"]), tuple(w["y"]))
        pins = all(e["u"][i - 1] == v and e["v"][i - 1] == v for i, v in zip(*pair))
        if pair not in job.oracle["pairs"] or not pins:
            problems.append(f"bad witness {w} on edge {e['u']}-{e['v']}")
            break
    return problems


def _check_structures(job, payload):
    d = job.oracle["d"]
    vertices = configs(d)
    adj = adjacency(vertices, job.oracle["edges"])
    items = payload["structures"]
    if payload["count"] != len(items):
        return ["count does not match the structure list"]
    for item in items:
        blocks = [tuple(tuple(x) for x in block) for block in item["blocks"]]
        support = [x for block in blocks for x in block]
        if components(vertices, adj, support) != sorted(blocks):
            return [f"blocks {item['blocks']} are not the components of their support"]
        if not is_maximal_support(vertices, adj, blocks):
            return [f"structure {item['blocks']} is not maximal"]
        if d == (2, 2, 2) and "complement_class" not in item:
            return ["cube structure without complement_class"]
    if job.oracle["complete"]:
        listed = {frozenset(tuple(x) for block in item["blocks"] for x in block)
                  for item in items}
        expected = maximal_supports(vertices, job.oracle["edges"])
        if listed != expected:
            return [f"{len(listed)} structures listed, the oracle finds {len(expected)}; "
                    f"{len(expected - listed)} missing, {len(listed - expected)} extra"]
    return []


def _check_check(job, payload):
    problems = []
    if payload["robust"] != (job.expected_exit == 0):
        problems.append(f"robust={payload['robust']}")
    if payload["structure"] != job.oracle["blocks"]:
        problems.append("structure differs from the support's components")
    if job.expected_exit == 1:
        minor = (payload.get("failing_statement") or {}).get("witness_minor")
        if not minor or minor["lhs"] == minor["rhs"]:
            problems.append("no failing minor reported")
    return problems


def _check_groebner(job, payload):
    checks = payload.get("verification", {})
    if len(checks) != 5 or not all(v is True for v in checks.values()):
        return [f"verification {checks}"]
    if payload["element_count"] != len(payload["elements"]):
        return ["element_count does not match the element list"]
    return []


def _check_decompose(job, payload):
    problems = []
    legs = payload["legs"]
    if not all(v is True or v == "skipped" for v in legs.values()):
        problems.append(f"legs {legs}")
    if job.oracle["intersection"] and legs["intersection_equality"] is not True:
        problems.append("intersection leg did not run on a tiny d0=2 instance")
    if payload["counterexamples"]:
        problems.append(f"{len(payload['counterexamples'])} counterexamples")
    if payload["union_trials"] != job.params["trials"]:
        problems.append("union_trials differs from --trials")
    vertices, adj = job.oracle["vertices"], job.oracle["adj"]
    for y in payload["admissible_Y"]:
        support = [tuple(x) for x in y]
        if not is_maximal_support(vertices, adj, components(vertices, adj, support)):
            problems.append(f"admissible support {y} is not maximal")
            break
    return problems


def _check_gibbs(job, payload):
    problems = []
    if not payload["roundtrip_sup_error"] <= GIBBS_ROUNDTRIP_TOL:
        problems.append(f"roundtrip_sup_error {payload['roundtrip_sup_error']}")
    n, m = job.oracle["n"], job.oracle["configs"]
    if len(payload["robustness"]) != m * (2 ** n - 1):
        problems.append("robustness table has the wrong size")
    if (job.params["k"] is not None) != ("tilde_constraints" in payload):
        problems.append("tilde_constraints present without --k or missing with it")
    return problems


CHECKS = {
    "graph": _check_graph,
    "structures": _check_structures,
    "check": _check_check,
    "groebner": _check_groebner,
    "decompose": _check_decompose,
    "gibbs": _check_gibbs,
}
