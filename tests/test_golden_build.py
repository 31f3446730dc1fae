"""Golden write/read path: digests of built files, CLI JSON and verifications.

``build`` writes a graph file and its JSON sidecar, ``decompose`` reads the
graph file back, and the builder's two verifications recount a truncation.
Changes that only make this path cheaper must leave every byte as it is.
This test hashes, for each fixture spec at depths 0-3:

- the graph file and the sidecar that ``build -o`` writes, with its exit
  code and stdout;
- the exit code and stdout of ``build --json``;
- the exit code and stdout of ``decompose --json`` on the written file;
- the ``verify_interior`` report, and the ``verify_local_transitivity``
  report at every radius the depth allows;

and compares the digests with ``golden_build_digests.json``.

Run ``PYTHONPATH=src python tests/test_golden_build.py > tests/golden_build_digests.json``
to regenerate the digests after an intended output change.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from lobes.builder import (build_truncation, validate_spec, verify_interior,
                           verify_local_transitivity, with_depth)
from lobes.cli import run_cli

from test_golden_output import FIXTURE_SPECS

DIGESTS = Path(__file__).parent / "golden_build_digests.json"
DEPTHS = (0, 1, 2, 3)


def _sha(*chunks) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk.encode() if isinstance(chunk, str) else chunk)
    return digest.hexdigest()


def _cli(argv, workdir: Path) -> str:
    """sha256 of the exit code and stdout, with the work directory's path
    written as ``WORKDIR``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(argv)
    return _sha(f"{code}\n", out.getvalue().replace(str(workdir), "WORKDIR"))


def current_digests(workdir: Path) -> dict[str, str]:
    """sha256 per (fixture, depth, artifact)."""
    result = {}
    for path in FIXTURE_SPECS:
        doc = json.loads(path.read_text())
        spec = validate_spec(doc)
        for depth in DEPTHS:
            key = f"{path.stem}/d{depth}"
            spec_d = with_depth(spec, depth)
            spec_file = workdir / "spec.json"
            spec_file.write_text(json.dumps(doc | {"depth": depth}))
            graph_file = workdir / "t.g"

            result[f"{key}/build_o_stdout"] = _cli(
                ["build", str(spec_file), "-o", str(graph_file)], workdir)
            result[f"{key}/build_o_graph"] = _sha(graph_file.read_bytes())
            result[f"{key}/build_o_sidecar"] = _sha(
                Path(str(graph_file) + ".json").read_bytes())

            result[f"{key}/build_json"] = _cli(
                ["build", str(spec_file), "--json"], workdir)
            result[f"{key}/decompose_json"] = _cli(
                ["decompose", "--json", str(graph_file)], workdir)

            built = build_truncation(spec_d)
            result[f"{key}/verify_interior"] = _sha(
                repr(verify_interior(built, spec_d)))
            result[f"{key}/verify_local_transitivity"] = _sha(*(
                f"{radius}: {verify_local_transitivity(built, radius)!r}\n"
                for radius in range(depth)))
    return result


def test_build_path_matches_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert current_digests(tmp_path) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        print(json.dumps(current_digests(Path(tmp)), indent=2, sort_keys=True))
