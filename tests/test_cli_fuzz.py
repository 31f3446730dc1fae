"""Seeded fuzzing of the CLI: damaged graph files and build specs.

Every command must answer a damaged input with one of the documented exit
codes 0-4 and never let an exception escape to the user.  Graph files are
catalog graphs and ``tests/fixtures/*.g``, truncated, with their lines
shuffled, or with up to three characters replaced, deleted or inserted.
Insertions add no digits, so a damaged file that still parses keeps about
the size of its source and each case runs in milliseconds.  Specs are the
fixture specs with one field replaced or removed, or their JSON text
truncated; builds are capped at 3,000 vertices.
"""

import copy
import json
import random
from pathlib import Path

import pytest

from lobes.catalog import named_graph
from lobes.cli import run_cli
from lobes.graph import serialize_graph

FIXTURES = Path(__file__).parent / "fixtures"
CASES = 1500

GRAPH_TEXTS = [serialize_graph(named_graph(*args)) for args in (
    ("petersen",), ("holt",), ("folkman",), ("k4",), ("chorded_5_cycle",),
    ("cycle", 6), ("path", 4), ("star", 5), ("complete_bipartite", 2, 3))] + [
    path.read_text() for path in sorted(FIXTURES.glob("*.g"))]
SPEC_DOCS = [json.loads(path.read_text())
             for path in sorted(FIXTURES.glob("*.json"))]
FIELD_VALUES = [-1, 0, 1, 2, 3, 7, 1.5, True, None, "aut", "x", "", [], [0],
                [[0, 1]], [[1, 0]], [[0, 1, 2]], {}, {"0": 2}, {"k": 0}]


def _mutate_text(rng: random.Random, text: str) -> str:
    kind = rng.randrange(3)
    if kind == 0:
        return text[:rng.randrange(len(text) + 1)]
    if kind == 1:
        lines = text.splitlines()
        rng.shuffle(lines)
        return "\n".join(lines) + "\n"
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 and i < len(chars):
            chars[i] = rng.choice("0123456789 \n#-x")
        elif op == 1 and i < len(chars):
            del chars[i]
        else:
            chars.insert(i, rng.choice(" \n#-x\t"))
    return "".join(chars)


def _fields(doc, path=()):
    """Paths to every value inside a JSON document, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _mutate_spec(rng: random.Random, doc) -> str:
    if rng.randrange(4) == 0:
        text = json.dumps(doc)
        return text[:rng.randrange(len(text))]
    doc = copy.deepcopy(doc)
    *parent_path, key = rng.choice(list(_fields(doc)))
    parent = doc
    for step in parent_path:
        parent = parent[step]
    if rng.randrange(4) == 0:
        del parent[key]
    else:
        parent[key] = copy.deepcopy(rng.choice(FIELD_VALUES))
    return json.dumps(doc)


def _graph_argv(rng, bad: str, good: str) -> list[str]:
    command = rng.choice(["decompose", "aut", "classify", "karc", "iso"])
    if command == "karc":
        return [command, bad, "-k", str(rng.randint(1, 3))]
    if command == "iso":
        return [command] + rng.sample([bad, good], 2)
    return [command, bad]


def _spec_argv(rng, bad: str, good: str) -> list[str]:
    command = rng.choice(["build", "limit", "equiv"])
    if command == "build":
        return [command, bad, "--max-vertices", "3000"]
    if command == "equiv":
        return [command] + rng.sample([bad, good], 2) + [
            "-d", str(rng.randint(0, 2)), "--max-vertices", "3000"]
    return [command, bad]


@pytest.mark.parametrize("kind", ["graph", "spec"])
def test_damaged_inputs_exit_with_a_documented_code(tmp_path, capsys, kind):
    rng = random.Random(f"cli fuzz {kind}")
    bad = str(tmp_path / "bad")
    good = str(tmp_path / "good")
    codes = set()
    for case in range(CASES):
        if kind == "graph":
            text = rng.choice(GRAPH_TEXTS)
            mutated = _mutate_text(rng, text)
            argv = _graph_argv(rng, bad, good)
        else:
            doc = rng.choice(SPEC_DOCS)
            text = json.dumps(doc)
            mutated = _mutate_spec(rng, doc)
            argv = _spec_argv(rng, bad, good)
        Path(bad).write_text(mutated)
        Path(good).write_text(text)
        if rng.randrange(2):
            argv.insert(1, "--json")
        code = run_cli(argv)
        err = capsys.readouterr().err
        assert code in range(5), (case, argv, mutated)
        assert "Traceback" not in err, (case, argv, mutated)
        codes.add(code)
    # some damaged inputs still parse and run, others are refused
    assert {0, 3} <= codes
