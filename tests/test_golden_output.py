"""Golden CLI output: stdout digests of the analysis commands.

Refactors of the analysis layers must leave the CLI output byte-identical.
This test hashes the exit code and stdout of ``classify --json``,
``decompose --json`` and ``karc -k 2 --json`` on every connected graph on at
most 7 vertices and on each fixture's depth-1 truncation, and of
``limit --json`` on every fixture spec, and compares the digests with
``golden_digests.json``.  The output of ``aut`` and ``iso``, which depends
on the search engine's choices, is pinned by ``test_golden_engine.py``.

Run ``PYTHONPATH=src python tests/test_golden_output.py > tests/golden_digests.json``
to regenerate the digests after an intended output change.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from lobes.builder import build_truncation, validate_spec, with_depth
from lobes.cli import run_cli
from lobes.graph import serialize_graph

from enumeration import connected_graphs_up_to

FIXTURE_SPECS = sorted((Path(__file__).parent / "fixtures").glob("*.json"))
DIGESTS = Path(__file__).parent / "golden_digests.json"
GRAPH_COMMANDS = {
    "classify": ["classify", "--json"],
    "decompose": ["decompose", "--json"],
    "karc2": ["karc", "-k", "2", "--json"],
}


def _graph_corpora():
    """Named groups of graphs: one per order, plus the fixture truncations."""
    corpora = {f"n{n}": graphs
               for n, graphs in connected_graphs_up_to(7).items()}
    truncations = []
    for path in FIXTURE_SPECS:
        spec = validate_spec(json.loads(path.read_text()))
        truncations.append(build_truncation(with_depth(spec, 1)).graph)
    corpora["fixtures_d1"] = truncations
    return corpora


def _run(argv, digest) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    digest.update(f"{code}\n".encode())
    digest.update(out.getvalue().encode())


def current_digests(workdir: Path) -> dict[str, str]:
    """sha256 per (corpus, command) over exit codes and stdout, in order."""
    graph_file = workdir / "g.g"
    result = {}
    for corpus, graphs in _graph_corpora().items():
        digests = {name: hashlib.sha256() for name in GRAPH_COMMANDS}
        for g in graphs:
            graph_file.write_text(serialize_graph(g))
            for name, (command, *flags) in GRAPH_COMMANDS.items():
                _run([command, str(graph_file), *flags], digests[name])
        for name, digest in digests.items():
            result[f"{corpus}/{name}"] = digest.hexdigest()
    for path in FIXTURE_SPECS:
        digest = hashlib.sha256()
        _run(["limit", str(path), "--json"], digest)
        result[f"limit/{path.stem}"] = digest.hexdigest()
    return result


def test_cli_stdout_matches_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert current_digests(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(current_digests(Path(tmp)), indent=2, sort_keys=True))
