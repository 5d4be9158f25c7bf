"""Command-line entry point.

Subcommands wrap the library with file-based workflows: ``graph`` and
``structures`` for the combinatorial side, ``check`` for distribution
robustness, ``groebner`` and ``decompose`` for the algebra, ``gibbs`` for the
kernel analysis.  JSON is the stable output surface; the text format is
human-oriented and may change.  Only ``decompose`` is randomized, and it is
deterministic given its inputs and ``--seed``; outputs are written atomically,
and exit codes follow a fixed contract:

    0  success (for ``check``: the distribution is robust)
    1  ``check`` ran and the distribution is not robust
    2  input or validation error
    3  resource cap exceeded
    4  a requested verification failed
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from . import ci, decomp, gibbs, graph as graphmod, ideal, model, polyengine
from .errors import InputError, ResourceLimitError

EXIT_OK = 0
EXIT_NOT_ROBUST = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_VERIFY = 4

# Most vertices ``structures --all`` accepts: it visits all 2^m subsets.
ALL_STRUCTURES_CAP = 12


def _emit(payload, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = _to_text(payload) + "\n"
    if args.out:
        directory = os.path.dirname(os.path.abspath(args.out))
        tmp_path = None
        try:
            fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".robustci-")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_path, args.out)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
        finally:
            if tmp_path is not None and os.path.exists(tmp_path):
                os.unlink(tmp_path)
    else:
        sys.stdout.write(text)


def _to_text(payload, indent: str = "") -> str:
    lines = []
    if isinstance(payload, dict):
        for key in sorted(payload):
            value = payload[key]
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}{key}:")
                lines.append(_to_text(value, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {value}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)):
                lines.append(f"{indent}-")
                lines.append(_to_text(value, indent + "  "))
            else:
                lines.append(f"{indent}- {value}")
    else:
        lines.append(f"{indent}{payload}")
    return "\n".join(line for line in lines if line)


def _load_model(path):
    return model.model_from_json(model.read_json(path))


def cmd_graph(args) -> int:
    space, spec = _load_model(args.model)
    g = graphmod.build_graph(spec, space)
    _emit(graphmod.graph_to_json(g), args)
    return EXIT_OK


def cmd_structures(args) -> int:
    space, spec = _load_model(args.model)
    m = space.num_configs()
    if args.all and m > ALL_STRUCTURES_CAP:
        raise ResourceLimitError(f"{m} vertices exceed the all-structures cap of {ALL_STRUCTURES_CAP}")
    graphmod.check_enumeration_cap(m)
    g = graphmod.build_graph(spec, space)
    if args.all:
        structures = sorted(
            (
                graphmod.components_of(g, support)
                for support in _all_subsets(g.vertices)
            ),
            key=lambda s: s.blocks,
        )
        maximal = set(graphmod.enumerate_maximal_structures(g))
    else:
        structures = graphmod.enumerate_maximal_structures(g)
    items = []
    for s in structures:
        item = graphmod.structure_to_json(s)
        if args.all:
            item["maximal"] = s in maximal
        if args.classify_complements and space.d == (2, 2, 2):
            item["complement_class"] = graphmod.cube_complement_category(s)
        items.append(item)
    _emit({"count": len(items), "structures": items}, args)
    return EXIT_OK


def _all_subsets(vertices):
    m = len(vertices)
    for mask in range(1 << m):
        yield frozenset(vertices[i] for i in range(m) if mask >> i & 1)


def cmd_check(args) -> int:
    space, spec = _load_model(args.model)
    dist = model.distribution_from_json(model.read_json(args.dist), space)
    problem = model.validate_distribution(dist, space)
    if problem is not None:
        _emit({"robust": None, "validation_error": problem}, args)
        return EXIT_INPUT
    g = graphmod.build_graph(spec, space)
    report = ci.robustness_report(dist, spec)
    report["structure"] = graphmod.structure_to_json(ci.classify_structure(dist, g))["blocks"]
    _emit(report, args)
    return EXIT_OK if report["robust"] else EXIT_NOT_ROBUST


def cmd_groebner(args) -> int:
    if args.model:
        space, spec = _load_model(args.model)
    else:
        g = graphmod.graph_from_json(model.read_json(args.graph))
        space = g.space
    d0 = args.d0 if args.d0 is not None else space.d0
    ideal.check_basis_size(space.num_configs(), d0)
    if args.model:
        g = graphmod.build_graph(spec, space)
    include_endpoints = args.antitone_range == "inclusive"
    basis = ideal.groebner_set(g, d0, include_endpoints=include_endpoints)
    payload = {
        "d0": d0,
        "antitone_range": args.antitone_range,
        "element_count": len(basis),
    }
    if args.format == "text":
        payload["elements"] = ideal.basis_to_text(basis).splitlines()
    else:
        payload["elements"] = ideal.basis_to_json(basis)["elements"]
    failed = False
    if args.verify:
        polys = [e.polynomial for e in basis]
        oracle = polyengine.buchberger([b.polynomial() for b in ideal.edge_generators(g, d0)])
        checks = {
            "buchberger_criterion": polyengine.buchberger_criterion(polys),
            "reduced": ideal.is_reduced(basis),
            "squarefree_initial_terms": all(
                p.leading_monomial().is_squarefree() for p in polys
            ),
            "bidegree_homogeneous": all(polyengine.is_bihomogeneous(p) for p in polys),
            "matches_generic_buchberger": set(polys) == set(oracle),
        }
        payload["verification"] = checks
        failed = not all(checks.values())
    _emit(payload, args)
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_decompose(args) -> int:
    if args.trials < 0:
        raise InputError(f"--trials must be >= 0, got {args.trials}")
    space, spec = _load_model(args.model)
    d0 = args.d0 if args.d0 is not None else space.d0
    decomp.check_union_size(space.num_configs(), d0, args.trials)
    g = graphmod.build_graph(spec, space)
    admissible = decomp.admissible_sets(g)
    report = decomp.verify_primary_decomposition(g, admissible, d0)
    union = decomp.verify_union_decomposition(g, admissible, d0, trials=args.trials, seed=args.seed)
    report["union_trials"] = union["trials"]
    report["counterexamples"] = report["counterexamples"] + union["counterexamples"]
    _emit(report, args)
    legs_ok = all(v is True or v == "skipped" for v in report["legs"].values())
    if report["counterexamples"] or not legs_ok:
        return EXIT_VERIFY
    return EXIT_OK


def cmd_gibbs(args) -> int:
    if args.neuron:
        try:
            weights = [float(w) for w in args.neuron.split(",")]
        except ValueError as exc:
            raise InputError(f"bad --neuron weights {args.neuron!r}: {exc}") from exc
        gibbs.check_table_size((2,) * len(weights))
        mods = gibbs.neuron_modalities(weights)
    elif args.modalities:
        mods = gibbs.modalities_from_json(model.read_json(args.modalities))
        gibbs.check_table_size(mods.space.d)
    else:
        raise InputError("gibbs needs --modalities FILE or --neuron w1,...,wn")
    space = mods.space
    payload = {"n": space.n, "d0": space.d0}

    if not mods.is_strictly_positive():
        raise InputError("positivity required: kernels must be strictly positive")
    if args.k is not None:
        dec = gibbs.k_interaction_decompose(mods, args.k)
    pots = gibbs.moebius_potentials(mods)
    sup_error = 0.0
    for nodes in model.node_subsets(space.n):
        rebuilt = gibbs.gibbs_kernel(pots, nodes)
        for xa, row in rebuilt.items():
            original = mods.row(nodes, xa)
            sup_error = max(sup_error, max(abs(a - b) for a, b in zip(row, original)))
    payload["roundtrip_sup_error"] = sup_error

    payload["robustness"] = gibbs.robustness_table(mods)

    if args.k is not None:
        payload["tilde_constraints"] = gibbs.tilde_constraint_report(dec)
        payload["alpha"] = [
            {
                "a": a,
                "c": c,
                "k": args.k,
                "value": model.format_fraction(gibbs.alpha_coefficient(a, c, args.k)),
            }
            for a in range(args.k, space.n + 1)
            for c in range(0, args.k + 1)
            if c <= a
        ]
    _emit(payload, args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustci",
        description="Knockout-robustness structures, conditional independence, and edge-ideal algebra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output path (atomic write); stdout when omitted")
        p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("graph", help="emit the induced configuration graph")
    p.add_argument("--model", required=True)
    common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("structures", help="enumerate robustness structures")
    p.add_argument("--model", required=True)
    p.add_argument("--all", action="store_true",
                   help="every support subset, not only maximal ones (tiny spaces)")
    p.add_argument("--classify-complements", action="store_true",
                   help="tag complements with the binary three-input taxonomy")
    common(p)
    p.set_defaults(func=cmd_structures)

    p = sub.add_parser("check", help="robustness of a joint distribution")
    p.add_argument("--model", required=True)
    p.add_argument("--dist", required=True)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("groebner", help="combinatorial Groebner basis of the edge ideal")
    p.add_argument("--model")
    p.add_argument("--graph", help="explicit graph file instead of a model")
    p.add_argument("--d0", type=int)
    p.add_argument("--verify", action="store_true",
                   help="run Buchberger, reducedness, squarefree, bidegree and oracle checks")
    p.add_argument("--antitone-range", choices=["inclusive", "literal"], default="inclusive")
    common(p)
    p.set_defaults(func=cmd_groebner)

    p = sub.add_parser("decompose", help="verify the primary decomposition")
    p.add_argument("--model", required=True)
    p.add_argument("--d0", type=int)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, help="seed of the variety-cover trials")
    common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("gibbs", help="kernel family analysis")
    p.add_argument("--modalities")
    p.add_argument("--neuron", help="comma-separated weights for the logistic family")
    p.add_argument("--k", type=int, help="interaction order for the decomposition checks")
    common(p)
    p.set_defaults(func=cmd_gibbs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "groebner" and not (args.model or args.graph):
            raise InputError("groebner needs --model or --graph")
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
