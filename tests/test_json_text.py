"""The CLI's JSON writer against ``json.dumps(indent=2, sort_keys=True)``.

``lobes.cli._json_text`` writes every JSON document the CLI prints or
stores, and must match ``json.dumps(doc, indent=2, sort_keys=True)`` byte
for byte: on seeded random documents, and on every ``--json`` document the
CLI writes over the fixture corpus.
"""

import contextlib
import io
import json
import math
import random
from pathlib import Path

from lobes import cli
from lobes.builder import build_truncation, validate_spec, with_depth
from lobes.graph import serialize_graph

FIXTURES = Path(__file__).parent / "fixtures"
STRINGS = ["", "a", "café", " ", "\U0001f600", 'q"uote', "back\\slash",
           "tab\tnew\nline", "\x00\x1f", "ÿĀ"]
FLOATS = [0.0, -0.0, 1.5, -2.25, 1e300, 1e-300, math.inf, -math.inf, math.nan]


def _scalar(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([0, 1, -1, 7, -12345, 10 ** 40, -(10 ** 40)])
    if kind == 1:
        return rng.choice(STRINGS)
    if kind == 2:
        return rng.choice(FLOATS)
    if kind == 3:
        return rng.choice([True, False])
    if kind == 4:
        return None
    return rng.randrange(-5, 100)


def _int_rows(rng: random.Random):
    return [[rng.randrange(-3, 1000) for _ in range(rng.randrange(4))]
            for _ in range(rng.randrange(5))]


def _document(rng: random.Random, depth: int = 0):
    kind = rng.randrange(8) if depth < 4 else 0
    if kind <= 1:
        return _scalar(rng)
    if kind == 2:
        return [rng.randrange(-10, 10 ** 6) for _ in range(rng.randrange(6))]
    if kind == 3:
        return _int_rows(rng)
    items = [_document(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 4:
        return items
    if kind == 5:
        return tuple(items)
    if kind == 6:
        return {rng.choice(STRINGS) + str(i): item
                for i, item in enumerate(items)}
    # keys that json turns into strings itself
    keys = rng.choice([[3, 1, 2, 10], [1.5, -2.0, 0.5, 9.0], [None], [True]])
    return dict(zip(keys, items))


def test_random_documents_match_json_dumps():
    rng = random.Random("json text")
    for _ in range(3000):
        doc = _document(rng)
        assert cli._json_text(doc) == json.dumps(doc, indent=2,
                                                 sort_keys=True), doc


def test_cli_documents_match_json_dumps(tmp_path, monkeypatch):
    """Every document the CLI writes over the fixture corpus."""
    written = []
    real = cli._json_text

    def checked(doc):
        text = real(doc)
        assert text == json.dumps(doc, indent=2, sort_keys=True)
        written.append(text)
        return text
    monkeypatch.setattr(cli, "_json_text", checked)
    runs = [["named", "--json", "petersen"], ["named", "--json", "cycle", "5"]]
    for path in sorted(FIXTURES.glob("*.json")):
        doc = json.loads(path.read_text())
        spec = validate_spec(doc)
        runs += [["limit", "--json", str(path)],
                 ["equiv", "--json", str(path), str(path), "-d", "1"]]
        for depth in (0, 1, 2):
            spec_file = tmp_path / f"{path.stem}_d{depth}.json"
            spec_file.write_text(json.dumps(doc | {"depth": depth}))
            out = tmp_path / f"{path.stem}_d{depth}.g"
            runs += [["build", "--json", str(spec_file)],
                     ["build", "--json", str(spec_file), "-o", str(out)],
                     ["decompose", "--json", str(out)]]
        graph = tmp_path / f"{path.stem}_d1_lib.g"
        graph.write_text(serialize_graph(build_truncation(
            with_depth(spec, 1)).graph))
        runs += [[command, "--json", str(graph)]
                 for command in ("decompose", "aut", "classify")]
        runs += [["karc", "--json", str(graph), "-k", "2"],
                 ["iso", "--json", str(graph), str(graph)]]
    runs.append(["decompose", "--json", str(FIXTURES / "bowtie.g")])
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.run_cli(argv) == 0, argv
    assert len(written) == len(runs) + 3 * 12  # build -o writes a sidecar


def test_sidecar_is_json_dump_with_a_final_newline(tmp_path):
    out = tmp_path / "k4.g"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_cli(["build", str(FIXTURES / "k4_uniform.json"),
                            "-o", str(out)]) == 0
    sidecar = Path(str(out) + ".json").read_text()
    assert sidecar == json.dumps(json.loads(sidecar), indent=2,
                                 sort_keys=True) + "\n"
