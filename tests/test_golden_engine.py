"""Golden search-engine output: stdout digests of ``aut`` and ``iso``.

The generators ``aut`` prints and the mapping ``iso`` prints depend on the
search engine's choices: which nodes it visits, in which order, and which
leaf it keeps.  Changes that only make the engine cheaper must leave them
byte-identical.  This test hashes the exit code and stdout of ``aut --json``
and of ``iso --json`` (each graph against a fixed seeded relabeling of
itself) on every connected graph on at most 6 vertices and on each
fixture's depth-1 truncation, and compares the digests with
``golden_engine_digests.json``.

Run ``PYTHONPATH=src python tests/test_golden_engine.py > tests/golden_engine_digests.json``
to regenerate the digests after an intended output change.
"""

import hashlib
import json
import random
import tempfile
from pathlib import Path

from lobes.builder import build_truncation, validate_spec, with_depth
from lobes.graph import relabel_graph, serialize_graph

from enumeration import connected_graphs_up_to
from test_golden_output import FIXTURE_SPECS, _run

DIGESTS = Path(__file__).parent / "golden_engine_digests.json"
RELABEL_SEED = 20140101


def _graph_corpora():
    """Named groups of graphs: one per order, plus the fixture truncations."""
    corpora = {f"n{n}": graphs
               for n, graphs in connected_graphs_up_to(6).items()}
    corpora["fixtures_d1"] = [
        build_truncation(with_depth(validate_spec(json.loads(
            path.read_text())), 1)).graph
        for path in FIXTURE_SPECS]
    return corpora


def current_digests(workdir: Path) -> dict[str, str]:
    """sha256 per (corpus, command) over exit codes and stdout, in order."""
    graph_file = workdir / "g.g"
    image_file = workdir / "h.g"
    rng = random.Random(RELABEL_SEED)
    result = {}
    for corpus, graphs in _graph_corpora().items():
        aut = hashlib.sha256()
        iso = hashlib.sha256()
        for g in graphs:
            perm = list(range(g.vertex_count))
            rng.shuffle(perm)
            graph_file.write_text(serialize_graph(g))
            image_file.write_text(serialize_graph(relabel_graph(g, perm)))
            _run(["aut", str(graph_file), "--json"], aut)
            _run(["iso", str(graph_file), str(image_file), "--json"], iso)
        result[f"{corpus}/aut"] = aut.hexdigest()
        result[f"{corpus}/iso"] = iso.hexdigest()
    return result


def test_engine_stdout_matches_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert current_digests(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(current_digests(Path(tmp)), indent=2, sort_keys=True))
