"""Golden orbit-kernel output: digests of stabilizers, restrictions and orbits.

The orbit closure, the Schreier transversal and the Schreier-generator loop
decide which generators ``lobe_stabilizer`` returns and in which order, and
the orbit cells the checkers and ``karc`` read.  The CLI prints none of the
stabilizer generators, so the CLI digests cannot pin them.  This test hashes,
on every connectivity-1 graph on at most 6 vertices and on each fixture's
depth-1 truncation:

- the ``lobe_stabilizer`` generator list of every lobe;
- ``restrict_to`` of each stabilizer onto its lobe, with its ``group_order``;
- the lobe orbit cells of Aut(g);
- ``k_arc_orbit_count`` for k = 1, 2, 3 (the error message where the graph
  has no k-arcs);

and compares the digests with ``golden_orbit_digests.json``.

Run ``PYTHONPATH=src python tests/test_golden_orbits.py > tests/golden_orbit_digests.json``
to regenerate the digests after an intended output change.
"""

import hashlib
import json
from pathlib import Path

from lobes.builder import build_truncation, validate_spec, with_depth
from lobes.decomposition import connectivity_class, decompose
from lobes.symmetry import (automorphism_generators, group_order,
                            lobe_stabilizer, orbit_partition, restrict_to)
from lobes.transitivity import TransitivityError, k_arc_orbit_count

from enumeration import connected_graphs_up_to
from test_golden_output import FIXTURE_SPECS

DIGESTS = Path(__file__).parent / "golden_orbit_digests.json"


def _graph_corpora():
    """Named groups of connectivity-1 graphs: one per order, plus the
    fixture truncations."""
    corpora = {f"n{n}": [g for g in graphs
                         if connectivity_class(g) == "connectivity_one"]
               for n, graphs in connected_graphs_up_to(6).items()}
    corpora["fixtures_d1"] = [
        build_truncation(with_depth(validate_spec(json.loads(
            path.read_text())), 1)).graph
        for path in FIXTURE_SPECS]
    return {name: graphs for name, graphs in corpora.items() if graphs}


def _karc(g, k):
    try:
        return k_arc_orbit_count(g, k)
    except TransitivityError as exc:
        return str(exc)


def _record(g) -> dict:
    gens = automorphism_generators(g)
    d = decompose(g)
    stabilizers = []
    for i, lobe in enumerate(d.lobes):
        stab = lobe_stabilizer(g, gens, d, i)
        local = restrict_to(stab, lobe.vertices)
        stabilizers.append([stab.generators, local.generators,
                            group_order(local)])
    return {
        "stabilizers": stabilizers,
        "lobe_orbits": orbit_partition(gens, "lobes", decomposition=d).cells,
        "karc": [_karc(g, k) for k in (1, 2, 3)],
    }


def current_digests() -> dict[str, str]:
    """sha256 per corpus over the records of its graphs, in order."""
    result = {}
    for corpus, graphs in _graph_corpora().items():
        h = hashlib.sha256()
        for g in graphs:
            h.update(json.dumps(_record(g), sort_keys=True).encode())
            h.update(b"\n")
        result[corpus] = h.hexdigest()
    return result


def test_orbit_kernel_matches_golden_digests():
    expected = json.loads(DIGESTS.read_text())
    assert current_digests() == expected


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=2, sort_keys=True))
