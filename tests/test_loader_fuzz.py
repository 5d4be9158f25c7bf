"""Seeded fuzzing of the JSON loaders through the command line.

Valid model, distribution, graph and modalities files are mutated (type
swaps, missing keys, NaN and infinities, negative and huge integers, deep
nesting, bytes that are not UTF-8) and fed to ``main`` in-process.  Every run
must return an exit code of the contract without raising, and exit 1 ("not
robust") may come only from ``check``.  Alphabet sizes are never mutated
upward: ``graph`` and ``check`` have no vertex cap, so a large space would
hang the run.
"""

import json
import random
from collections import Counter

import pytest

from robustci.cli import main

MODEL = {"d0": 2, "d": [2, 3], "spec": {"pairs": [{"R": [1], "y": [1]}, {"R": [2, 1], "y": [3, 2]}]}}
UNIFORM_MODEL = {"d0": 2, "d": [2, 2, 2], "spec": {"uniform_k": 2}}
DIST = {"entries": [
    {"x0": 1, "x": [1, 1], "p": "1/2"},
    {"x0": 2, "x": [1, 2], "p": "1/4"},
    {"x0": 1, "x": [2, 3], "p": "1/4"},
]}
CUBE_DIST = {"entries": [{"x0": 1, "x": [1, 1, 1], "p": "1/2"}, {"x0": 2, "x": [2, 2, 2], "p": "1/2"}]}
GRAPH = {
    "space": {"d0": 2, "d": [3]},
    "vertices": [[1], [2], [3]],
    "edges": [
        {"u": [1], "v": [3], "witness": {"R": [], "y": []}},
        {"u": [2], "v": [3], "witness": None},
    ],
}
MODALITIES = {
    "n": 2, "d0": 2, "d": [2, 2],
    "kernels": {
        "": {"": ["0.5", "0.5"]},
        "1": {"1": ["0.25", "0.75"], "2": ["0.5", "0.5"]},
        "2": {"1": ["0.5", "0.5"], "2": ["0.125", "0.875"]},
        "1,2": {f"{a},{b}": ["0.5", "0.5"] for a in (1, 2) for b in (1, 2)},
    },
}

# Alphabet sizes: a huge value here would make a space too large to list.
SIZE_KEYS = {"d", "d0"}

# returned by a mutation to remove the value it was given
DROP = object()

SWAPS = ["1", "2,1", "", 1.5, 0.5, None, True, False, [], {}, [1], [[1]], {"R": [1]}, 3]


def paths(obj, path=()):
    """Every (path, may-grow) position in a JSON value, the root included."""
    grow = not SIZE_KEYS & set(path)
    yield path, grow
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from paths(value, path + (i,))


def replace(obj, path, make):
    """A copy of ``obj`` with the value at ``path`` replaced by ``make(value)``,
    or removed when ``make`` returns the ``DROP`` marker."""
    if not path:
        return make(obj)
    head, rest = path[0], path[1:]
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    value = replace(copy[head], rest, make)
    if value is DROP:
        del copy[head]
    else:
        copy[head] = value
    return copy


def nested(value, depth):
    for _ in range(depth):
        value = [value]
    return value


def mutate(rng, obj):
    """One seeded mutation of a JSON value, with a label for failure messages."""
    path, grow = rng.choice(list(paths(obj)))
    makers = {
        "swap": lambda v: rng.choice(SWAPS),
        "drop": lambda v: DROP if path else {},
        "nan": lambda v: float("nan"),
        "inf": lambda v: float("inf"),
        "-inf": lambda v: float("-inf"),
        "negative": lambda v: -rng.choice([1, 2, 7, 10 ** 30]),
        "zero": lambda v: 0,
        "nest": lambda v: nested(v, rng.choice([2, 50])),
        "rekey": lambda v: rekeyed(rng, v),
    }
    if grow:
        makers["huge"] = lambda v: rng.choice([10 ** 6, 2 ** 63, 10 ** 400])
    kind = rng.choice(list(makers))
    return replace(obj, path, makers[kind]), f"{kind} at {path}"


def rekeyed(rng, value):
    """The object with one key renamed; other values come back unchanged."""
    if not isinstance(value, dict) or not value:
        return value
    old = rng.choice(sorted(value))
    new = rng.choice(["", "9", "1,1", "x", "2,1", old + "0"])
    return {(new if k == old else k): v for k, v in value.items()}


def write(path, obj, rng):
    """Write a JSON file, now and then with a file-level fault; returns the
    path and the fault's name."""
    fault = rng.choice(["deep", "not-utf8", "truncated"] + ["none"] * 30)
    text = json.dumps(obj)
    if fault == "deep":
        text = "[" * 100_000
    elif fault == "truncated":
        text = text[:-1]
    path.write_bytes((b"\xff\xfe" if fault == "not-utf8" else b"") + text.encode())
    return str(path), fault


# (command, files: flag -> base object)
JOBS = [
    ("check", {"--model": MODEL, "--dist": DIST}),
    ("check", {"--model": UNIFORM_MODEL, "--dist": CUBE_DIST}),
    ("structures", {"--model": MODEL}),
    ("structures", {"--model": UNIFORM_MODEL}),
    ("groebner", {"--graph": GRAPH}),
    ("gibbs", {"--modalities": MODALITIES}),
]


def test_base_files_are_valid(tmp_path):
    for command, files in JOBS:
        argv = [command]
        for flag, obj in files.items():
            argv += [flag, str(tmp_path / flag.strip("-"))]
            (tmp_path / flag.strip("-")).write_text(json.dumps(obj))
        assert main(argv + ["--out", str(tmp_path / "out.json")]) in (0, 1)


@pytest.mark.parametrize("index", range(len(JOBS)), ids=[f"{c}-{i}" for i, (c, _) in enumerate(JOBS)])
def test_mutated_files_end_in_a_contract_exit(tmp_path, capsys, index):
    command, files = JOBS[index]
    rng = random.Random(f"loader-fuzz:{index}")
    codes = Counter()
    for trial in range(90):
        argv = [command]
        labels = []
        target = rng.choice(sorted(files))
        for flag, obj in files.items():
            if flag == target:
                obj, label = mutate(rng, obj)
                labels.append(f"{flag}: {label}")
            path, fault = write(tmp_path / f"{trial}{flag}.json", obj, rng)
            argv += [flag, path]
            labels.append(f"{flag} file fault: {fault}")
        argv += ["--out", str(tmp_path / "out.json")]
        try:
            code = main(argv)
        except Exception as exc:
            raise AssertionError(f"trial {trial}, {labels} raised") from exc
        assert code in (0, 1, 2, 3, 4), (trial, labels, code)
        assert code != 1 or command == "check", (trial, labels)
        codes[code] += 1
    capsys.readouterr()
    assert codes[2] and sum(codes.values()) > codes[2], codes
