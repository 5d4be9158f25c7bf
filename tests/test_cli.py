import itertools
import json
import math
import random

import pytest

from robustci import (
    JointDistribution,
    RobustnessSpec,
    RobustnessStructure,
    StateSpace,
    StructureParams,
    build_from_structure,
    build_graph,
    check_product_form,
    components_of,
    is_maximal,
    make_uniform_spec,
)
from robustci import cli, decomp
from robustci.cli import main
from robustci.graph import structure_from_json
from robustci.model import distribution_to_json, model_to_json
from fractions import Fraction


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def cube_model(tmp_path, k=2):
    space = StateSpace(2, (2, 2, 2))
    return write_json(tmp_path / "model.json", model_to_json(space, uniform_k=k)), space


class TestGraphCommand:
    def test_cube_counts(self, tmp_path):
        model_path, _ = cube_model(tmp_path)
        out = tmp_path / "graph.json"
        assert main(["graph", "--model", model_path, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert len(obj["vertices"]) == 8
        assert len(obj["edges"]) == 12
        assert all(e["witness"] is not None for e in obj["edges"])

    def test_complete_graph_edge_count(self, tmp_path):
        model_path, _ = cube_model(tmp_path, k=0)
        out = tmp_path / "graph.json"
        assert main(["graph", "--model", model_path, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert len(obj["edges"]) == 28

    def test_malformed_json_no_partial_output(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{ not json")
        out = tmp_path / "never.json"
        assert main(["graph", "--model", str(bad), "--out", str(out)]) == 2
        assert not out.exists()

    def test_seed_is_not_an_option(self, tmp_path, capsys):
        model_path, _ = cube_model(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["graph", "--model", model_path, "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_byte_identical_across_runs(self, tmp_path):
        model_path, _ = cube_model(tmp_path)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["graph", "--model", model_path, "--out", str(out1)])
        main(["graph", "--model", model_path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestOutWriteFailures:
    """A failed --out write is an input error, and leaves no temporary file."""

    @pytest.mark.parametrize("target, reason", [
        ("missing/x.json", "No such file or directory"),
        ("", "Is a directory"),
    ], ids=["missing-directory", "existing-directory"])
    def test_exits_2(self, tmp_path, capsys, target, reason):
        model_path, _ = cube_model(tmp_path)
        out = str(tmp_path / target)
        assert main(["graph", "--model", model_path, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]


class TestStructuresCommand:
    def test_k0_single_structure(self, tmp_path):
        model_path, _ = cube_model(tmp_path, k=0)
        out = tmp_path / "structures.json"
        assert main(["structures", "--model", model_path, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["count"] == 1
        assert len(obj["structures"][0]["blocks"]) == 1

    def test_cube_taxonomy_fully_classified(self, tmp_path):
        model_path, _ = cube_model(tmp_path)
        out = tmp_path / "structures.json"
        assert main([
            "structures", "--model", model_path,
            "--classify-complements", "--out", str(out),
        ]) == 0
        obj = json.loads(out.read_text())
        assert obj["count"] == 17
        classes = [s["complement_class"] for s in obj["structures"]]
        assert "unclassified" not in classes

    def test_product_form_for_two_inputs(self, tmp_path):
        space = StateSpace(2, (2, 2))
        model_path = write_json(tmp_path / "m.json", model_to_json(space, uniform_k=1))
        out = tmp_path / "structures.json"
        assert main(["structures", "--model", model_path, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        for item in obj["structures"]:
            blocks = [[tuple(x) for x in block] for block in item["blocks"]]
            structure = RobustnessStructure.from_blocks(space, blocks)
            assert check_product_form(structure, space)

    def test_all_mode_reports_maximality(self, tmp_path):
        space = StateSpace(2, (2,))
        model_path = write_json(tmp_path / "m.json", model_to_json(space, uniform_k=0))
        out = tmp_path / "structures.json"
        assert main(["structures", "--model", model_path, "--all", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["count"] == 4  # every subset of a two-element space
        assert sum(1 for s in obj["structures"] if s["maximal"]) == 1

    @staticmethod
    def _small_uniform_specs():
        """One space of 2..12 configurations per shape up to node order, at every k."""
        for n in (1, 2, 3):
            for d in itertools.combinations_with_replacement(range(2, 13), n):
                if math.prod(d) <= 12:
                    space = StateSpace(2, d)
                    for k in range(n + 1):
                        yield space, make_uniform_spec(k, space)

    @staticmethod
    def _seeded_pair_specs():
        rng = random.Random(1213)
        for _ in range(20):
            space = StateSpace(2, rng.choice([(2, 2), (2, 3), (2, 2, 2), (3, 3), (2, 4)]))
            pairs = []
            for _ in range(rng.randint(1, 6)):
                nodes = tuple(i for i in range(1, space.n + 1) if rng.random() < 0.5)
                pairs.append((nodes, tuple(rng.randint(1, space.d[i - 1]) for i in nodes)))
            yield space, RobustnessSpec.of(pairs)

    def test_all_mode_maximality_matches_the_oracle(self, tmp_path, monkeypatch):
        payloads = []
        monkeypatch.setattr(cli, "_emit", lambda payload, args: payloads.append(payload))
        model_path = tmp_path / "m.json"
        for space, spec in [*self._small_uniform_specs(), *self._seeded_pair_specs()]:
            write_json(model_path, model_to_json(space, spec))
            assert main(["structures", "--model", str(model_path), "--all"]) == 0
            g = build_graph(spec, space)
            for item in payloads.pop()["structures"]:
                assert item["maximal"] == is_maximal(structure_from_json(item, space), g)

    def test_all_mode_obeys_cap_vertices(self, tmp_path, capsys):
        out = tmp_path / "structures.json"
        argv = ["structures", "--all", "--out", str(out), "--model"]
        big = write_json(tmp_path / "big.json", model_to_json(StateSpace(2, (13,)), uniform_k=1))
        assert main(argv + [big]) == 3
        assert "13 vertices exceed the all-structures cap of 12" in capsys.readouterr().err
        assert not out.exists()
        small = write_json(tmp_path / "small.json", model_to_json(StateSpace(2, (2, 2)), uniform_k=1))
        assert main(argv + [small]) == 0
        assert json.loads(out.read_text())["count"] == 16


class TestCheckCommand:
    def test_built_distribution_is_robust(self, tmp_path):
        space = StateSpace(2, (2, 2))
        spec = make_uniform_spec(1, space)
        graph = build_graph(spec, space)
        structure = components_of(graph, space.configs())
        params = StructureParams(
            block_weights=(Fraction(1),),
            config_weights=((Fraction(1, 4),) * 4,),
            output_dists=((Fraction(1, 3), Fraction(2, 3)),),
        )
        dist = build_from_structure(structure, params)
        model_path = write_json(tmp_path / "m.json", model_to_json(space, uniform_k=1))
        dist_path = write_json(tmp_path / "d.json", distribution_to_json(dist))
        out = tmp_path / "report.json"
        assert main(["check", "--model", model_path, "--dist", dist_path, "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["robust"] is True and obj["failing_statement"] is None
        assert obj["structure"] == [[list(x) for x in space.configs()]]

    def test_output_copies_input_not_robust(self, tmp_path):
        space = StateSpace(2, (2, 2))
        table = {}
        for x in space.configs():
            for x0 in (1, 2):
                table[(x0, x)] = Fraction(1, 4) if x0 == x[0] else Fraction(0)
        dist = JointDistribution(space, table)
        model_path = write_json(tmp_path / "m.json", model_to_json(space, uniform_k=1))
        dist_path = write_json(tmp_path / "d.json", distribution_to_json(dist))
        out = tmp_path / "report.json"
        assert main(["check", "--model", model_path, "--dist", dist_path, "--out", str(out)]) == 1
        obj = json.loads(out.read_text())
        assert obj["robust"] is False
        assert obj["failing_statement"]["witness_minor"]["lhs"] != obj["failing_statement"]["witness_minor"]["rhs"]

    def test_uniform_table_robust(self, tmp_path):
        space = StateSpace(2, (2, 2))
        dist = JointDistribution.uniform(space)
        model_path = write_json(tmp_path / "m.json", model_to_json(space, uniform_k=0))
        dist_path = write_json(tmp_path / "d.json", distribution_to_json(dist))
        assert main(["check", "--model", model_path, "--dist", dist_path]) == 0

    def test_invalid_distribution_exits_2(self, tmp_path, capsys):
        space = StateSpace(2, (2, 2))
        model_path = write_json(tmp_path / "m.json", model_to_json(space, uniform_k=1))
        dist_path = write_json(tmp_path / "d.json", {
            "entries": [{"x0": 1, "x": [1, 1], "p": "3/4"}],
        })
        assert main(["check", "--model", model_path, "--dist", dist_path]) == 2
        out = capsys.readouterr().out
        assert "sum != 1" in out

    @pytest.mark.parametrize("spec, dist, message", [
        ({"uniform_k": "x"}, {"entries": []}, "bad uniform_k"),
        ("uniform_k", {"entries": []}, "must be a JSON object"),
        ({"pairs": [{"R": [1], "y": ["a"]}]}, {"entries": []}, "must hold integers"),
        ({"uniform_k": 1}, {"entries": 5}, "'entries' list"),
        ({"uniform_k": 1}, {"entries": [{"x0": 1, "x": [1, 1], "p": float("inf")}]},
         "bad rational"),
        ({"uniform_k": 1}, {"entries": [{"x0": 1, "x": [1, 1], "p": float("-inf")}]},
         "bad rational"),
    ], ids=["uniform-k-not-int", "spec-not-object", "letter-not-int", "entries-not-list",
            "p-infinity", "p-minus-infinity"])
    def test_malformed_files_exit_2(self, tmp_path, capsys, spec, dist, message):
        model_path = write_json(tmp_path / "m.json", {"d0": 2, "d": [2, 2], "spec": spec})
        dist_path = write_json(tmp_path / "d.json", dist)
        assert main(["check", "--model", model_path, "--dist", dist_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestLoaderFaults:
    """Faults that once escaped the loaders as tracebacks with exit 1."""

    @pytest.mark.parametrize("command, text, message", [
        ("graph", b'{"d0": 2, "d": [2], "spec": {"uniform_k": 1}, "x": "\xff"}', "cannot read"),
        ("graph", b"[" * 100_000, "cannot read"),
        ("graph", b'{"d0": Infinity, "d": [2], "spec": {"uniform_k": 1}}', "bad model fields d0/d"),
        ("graph", b'{"d0": 2, "d": [2, Infinity], "spec": {"uniform_k": 1}}', "bad model fields d0/d"),
        ("graph", b'{"d0": 2, "d": [2], "spec": {"uniform_k": Infinity}}', "bad uniform_k"),
        ("groebner", b'{"space": {"d0": 2, "d": [Infinity]}, "edges": []}', "bad graph file"),
        ("groebner", b'{"space": {"d0": 2, "d": [2]}, "edges": [{"u": [Infinity], "v": [1]}]}',
         "bad graph file"),
    ], ids=["not-utf8", "deep-nesting", "d0-infinity", "d-infinity", "uniform-k-infinity",
            "graph-d-infinity", "edge-u-infinity"])
    def test_input_file_exits_2(self, tmp_path, capsys, command, text, message):
        path = tmp_path / "in.json"
        path.write_bytes(text)
        flag = "--graph" if command == "groebner" else "--model"
        assert main([command, flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_distribution_x0_infinity_exits_2(self, tmp_path, capsys):
        model_path = write_json(tmp_path / "m.json", {"d0": 2, "d": [2], "spec": {"uniform_k": 1}})
        dist_path = tmp_path / "d.json"
        dist_path.write_text('{"entries": [{"x0": Infinity, "x": [1], "p": "1"}]}')
        assert main(["check", "--model", model_path, "--dist", str(dist_path)]) == 2
        assert "bad distribution entry" in capsys.readouterr().err


class TestCapsBeforeGraph:
    """The vertex caps and the d0 check fire before the configuration graph is built."""

    @pytest.fixture(autouse=True)
    def no_graph(self, monkeypatch):
        def no_graph(*args, **kwargs):
            raise AssertionError("graph built before the vertex cap")

        monkeypatch.setattr("robustci.graph.build_graph", no_graph)

    @pytest.fixture
    def big_model(self, tmp_path):
        # 2,000 configurations: the k=0 graph is a 2M-edge clique
        return write_json(tmp_path / "m.json", {"d0": 2, "d": [40, 50], "spec": {"uniform_k": 0}})

    @pytest.mark.parametrize("command, extra, message", [
        ("structures", [], "2000 vertices exceed the enumeration cap of 20"),
        ("structures", ["--all"], "2000 vertices exceed the all-structures cap of 12"),
        ("groebner", [], "2000 vertices exceed the basis enumeration cap of 12"),
        ("decompose", [], "2000 vertices exceed the verification cap of 12"),
    ], ids=["structures", "structures-all", "groebner", "decompose"])
    def test_cap_exits_3(self, big_model, capsys, command, extra, message):
        assert main([command, "--model", big_model] + extra) == 3
        assert capsys.readouterr().err == f"resource limit: {message}\n"

    def test_decompose_union_cap_comes_before_the_primary_leg(self, tmp_path, capsys):
        # 16 configurations pass the enumeration cap of 20 but not the union cap of 12
        model_path = write_json(tmp_path / "m.json", {"d0": 2, "d": [2, 2, 2, 2], "spec": {"uniform_k": 3}})
        assert main(["decompose", "--model", model_path]) == 3
        assert capsys.readouterr().err == "resource limit: 16 vertices exceed the verification cap of 12\n"

    def test_decompose_trials_cap(self, tmp_path, capsys):
        model_path = write_json(tmp_path / "m.json", {"d0": 3, "d": [2, 2, 3], "spec": {"uniform_k": 1}})
        assert main(["decompose", "--model", model_path, "--trials", str(10**23)]) == 3
        assert capsys.readouterr().err == (
            f"resource limit: {10**23} trials exceed the trial cap of {decomp.TRIALS_CAP}\n"
        )

    def test_decompose_d0_cap(self, big_model, capsys):
        # the d0 cap fires before the vertex cap of the 2,000-configuration model
        d0 = decomp.D0_CAP + 1
        assert main(["decompose", "--model", big_model, "--d0", str(d0)]) == 3
        assert capsys.readouterr().err == (
            f"resource limit: {d0} output letters exceed the output-letter cap of {decomp.D0_CAP}\n"
        )

    def test_groebner_d0_fault_comes_first(self, big_model, capsys):
        assert main(["groebner", "--model", big_model, "--d0", "1"]) == 2
        assert capsys.readouterr().err == "error: need at least two output letters, got 1\n"

    @pytest.mark.parametrize("d0", ["0", "1"])
    def test_decompose_rejects_d0_below_two(self, tmp_path, capsys, d0):
        # an edgeless two-configuration model; d0 = 0 once sampled directions forever
        model_path = write_json(tmp_path / "m.json", {"d0": 2, "d": [2], "spec": {"uniform_k": 1}})
        assert main(["decompose", "--model", model_path, "--d0", d0]) == 2
        assert capsys.readouterr().err == f"error: need at least two output letters, got {d0}\n"


class TestGroebnerCommand:
    def test_single_edge_d3_verified(self, tmp_path):
        space = StateSpace(3, (2,))
        model_path = write_json(tmp_path / "m.json", model_to_json(space, uniform_k=0))
        out = tmp_path / "basis.json"
        assert main([
            "groebner", "--model", model_path, "--verify", "--out", str(out),
        ]) == 0
        obj = json.loads(out.read_text())
        assert obj["element_count"] == 3
        assert all(obj["verification"].values())

    def test_explicit_graph_file(self, tmp_path):
        graph_obj = {
            "space": {"d0": 2, "d": [3]},
            "vertices": [[1], [2], [3]],
            "edges": [
                {"u": [1], "v": [3], "witness": None},
                {"u": [2], "v": [3], "witness": None},
            ],
        }
        graph_path = write_json(tmp_path / "g.json", graph_obj)
        out = tmp_path / "basis.json"
        assert main([
            "groebner", "--graph", graph_path, "--d0", "2", "--verify", "--out", str(out),
        ]) == 0
        obj = json.loads(out.read_text())
        assert obj["element_count"] == 3

    def test_text_format(self, tmp_path):
        space = StateSpace(2, (2,))
        model_path = write_json(tmp_path / "m.json", model_to_json(space, uniform_k=0))
        out = tmp_path / "basis.txt"
        assert main([
            "groebner", "--model", model_path, "--format", "text", "--out", str(out),
        ]) == 0
        assert "p[2;2]*p[1;1] - p[2;1]*p[1;2]" in out.read_text()

    def test_cap_exit_code(self, tmp_path, capsys):
        model_path = write_json(tmp_path / "m.json", model_to_json(StateSpace(2, (13,)), uniform_k=1))
        assert main(["groebner", "--model", model_path]) == 3
        assert "13 vertices exceed the basis enumeration cap of 12" in capsys.readouterr().err

    def test_verification_failure_exit_code(self, tmp_path):
        # the literal antitone range yields a correct but non-reduced basis
        graph_obj = {
            "space": {"d0": 2, "d": [3]},
            "vertices": [[1], [2], [3]],
            "edges": [
                {"u": [1], "v": [2], "witness": None},
                {"u": [1], "v": [3], "witness": None},
            ],
        }
        graph_path = write_json(tmp_path / "g.json", graph_obj)
        out = tmp_path / "basis.json"
        assert main([
            "groebner", "--graph", graph_path, "--verify",
            "--antitone-range", "literal", "--out", str(out),
        ]) == 4
        obj = json.loads(out.read_text())
        assert obj["verification"]["reduced"] is False
        assert obj["verification"]["buchberger_criterion"] is True

    def test_requires_model_or_graph(self):
        assert main(["groebner"]) == 2


class TestDecomposeCommand:
    def test_single_edge_model(self, tmp_path):
        space = StateSpace(2, (2,))
        model_path = write_json(tmp_path / "m.json", model_to_json(space, uniform_k=1))
        out = tmp_path / "report.json"
        assert main([
            "decompose", "--model", model_path, "--trials", "50", "--out", str(out),
        ]) == 0
        obj = json.loads(out.read_text())
        assert obj["legs"]["intersection_equality"] is True
        assert obj["counterexamples"] == []

    def test_cube_model_intersection_skipped(self, tmp_path):
        model_path, _ = cube_model(tmp_path)
        out = tmp_path / "report.json"
        assert main([
            "decompose", "--model", model_path, "--trials", "25", "--out", str(out),
        ]) == 0
        obj = json.loads(out.read_text())
        assert obj["legs"]["intersection_equality"] == "skipped"
        assert obj["legs"]["membership"] is True
        assert obj["legs"]["non_containment"] is True

    def test_edgeless_model_single_admissible_family(self, tmp_path):
        space = StateSpace(2, (2, 2))
        model_path = write_json(tmp_path / "m.json", model_to_json(space, uniform_k=2))
        out = tmp_path / "report.json"
        assert main([
            "decompose", "--model", model_path, "--trials", "25", "--out", str(out),
        ]) == 0
        obj = json.loads(out.read_text())
        assert obj["admissible_Y"] == [[[1, 1], [1, 2], [2, 1], [2, 2]]]

    def test_one_enumeration_per_job(self, tmp_path, monkeypatch):
        calls = []
        enumerate_structures = decomp.admissible_sets

        def counting(graph):
            calls.append(graph)
            return enumerate_structures(graph)

        monkeypatch.setattr(decomp, "admissible_sets", counting)
        model_path, _ = cube_model(tmp_path)
        out = tmp_path / "report.json"
        assert main(["decompose", "--model", model_path, "--trials", "5", "--out", str(out)]) == 0
        assert len(calls) == 1
        assert len(json.loads(out.read_text())["admissible_Y"]) == len(enumerate_structures(calls[0]))

    def test_large_clique_block_at_d0_4(self, tmp_path):
        # one 12-column block with 396 minors, too many for a Buchberger run
        # within polyengine.MAX_PAIRS; the membership leg runs none
        model_path = write_json(tmp_path / "m.json", {"d0": 4, "d": [12], "spec": {"uniform_k": 0}})
        out = tmp_path / "report.json"
        assert main(["decompose", "--model", model_path, "--trials", "5", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["legs"] == {
            "intersection_equality": "skipped",
            "membership": True,
            "non_containment": True,
        }
        assert obj["counterexamples"] == []

    def test_negative_trials_exit_2(self, tmp_path, capsys):
        model_path, _ = cube_model(tmp_path)
        out = tmp_path / "report.json"
        assert main(["decompose", "--model", model_path, "--trials", "-1", "--out", str(out)]) == 2
        assert "--trials" in capsys.readouterr().err
        assert not out.exists()


class TestGibbsCommand:
    def test_neuron_round_trip(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["gibbs", "--neuron", "1,-2", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert obj["roundtrip_sup_error"] <= 1e-9

    def test_uniform_modalities_all_robust(self, tmp_path):
        from robustci.gibbs import modalities_to_json, uniform_modalities

        mods = uniform_modalities(StateSpace(2, (2, 2)))
        mods_path = write_json(tmp_path / "mods.json", modalities_to_json(mods))
        out = tmp_path / "report.json"
        assert main(["gibbs", "--modalities", str(mods_path), "--k", "1", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert all(entry["robust"] for entry in obj["robustness"])
        assert obj["tilde_constraints"]["low_order_ok"]

    def test_nonpositive_kernels_exit_2(self, tmp_path):
        mods_obj = {
            "n": 1, "d0": 2, "d": [2],
            "kernels": {
                "": {"": ["1.0", "0.0"]},
                "1": {"1": ["0.5", "0.5"], "2": ["0.5", "0.5"]},
            },
        }
        mods_path = write_json(tmp_path / "mods.json", mods_obj)
        assert main(["gibbs", "--modalities", str(mods_path)]) == 2

    def test_needs_input(self):
        assert main(["gibbs"]) == 2

    @pytest.mark.parametrize("mods_obj", [
        {"n": 1, "d0": 2, "d": [2], "kernels": []},
        {"n": 1, "d0": 2, "d": [2], "kernels": {"": [["0.5", "0.5"]]}},
        {"n": 1, "d0": float("inf"), "d": [2], "kernels": {}},
        {"n": 1, "d0": 2, "d": [float("inf")], "kernels": {}},
    ], ids=["kernels-list", "rows-list", "d0-infinity", "d-infinity"])
    def test_malformed_modalities_exit_2(self, tmp_path, capsys, mods_obj):
        mods_path = write_json(tmp_path / "mods.json", mods_obj)
        assert main(["gibbs", "--modalities", str(mods_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad modalities file: ")
        assert err.count("bad modalities file") == 1

    def test_n_disagreeing_with_d_exit_2(self, tmp_path, capsys):
        mods_obj = {"n": 2, "d0": 2, "d": [2], "kernels": {
            "": {"": ["0.5", "0.5"]},
            "1": {"1": ["0.5", "0.5"], "2": ["0.5", "0.5"]},
        }}
        mods_path = write_json(tmp_path / "mods.json", mods_obj)
        assert main(["gibbs", "--modalities", str(mods_path)]) == 2
        assert capsys.readouterr().err == "error: bad modalities file: n=2 disagrees with len(d)=1\n"

    def test_many_inputs_rejected_before_subset_enumeration(self, tmp_path, capsys):
        # 2^40 subsets cannot be listed; the kernel count alone rejects the file
        mods_obj = {"n": 40, "d0": 2, "d": [2] * 40, "kernels": {"": {"": ["0.5", "0.5"]}}}
        mods_path = write_json(tmp_path / "mods.json", mods_obj)
        assert main(["gibbs", "--modalities", str(mods_path)]) == 2
        assert "kernels must cover every subset" in capsys.readouterr().err

    def test_table_cap_exits_3_before_kernels(self, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("kernels built before the table-size check")

        monkeypatch.setattr("robustci.gibbs.neuron_modalities", no_work)
        assert main(["gibbs", "--neuron", ",".join(["1"] * 40)]) == 3
        size = 2 ** 40 * (2 ** 40 - 1)
        assert capsys.readouterr().err == (
            f"resource limit: robustness table of {size} entries exceeds the cap of 65280\n"
        )

    def test_table_cap_on_modalities_file(self, tmp_path, monkeypatch, capsys):
        from robustci.gibbs import modalities_to_json, uniform_modalities

        mods = uniform_modalities(StateSpace(2, (2, 2)))
        mods_path = write_json(tmp_path / "mods.json", modalities_to_json(mods))
        monkeypatch.setattr("robustci.gibbs.TABLE_CAP", 11)
        assert main(["gibbs", "--modalities", mods_path]) == 3
        assert "robustness table of 12 entries exceeds the cap of 11" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["-1", "3"])
    def test_k_out_of_range_rejected_before_work(self, monkeypatch, capsys, k):
        def no_work(*args, **kwargs):
            raise AssertionError("potentials computed before the --k check")

        monkeypatch.setattr("robustci.gibbs.moebius_potentials", no_work)
        assert main(["gibbs", "--neuron", "1,-2", "--k", k]) == 2
        assert capsys.readouterr().err == f"error: k must lie in 0..2, got {k}\n"
