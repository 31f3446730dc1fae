"""CLI subcommands, output formats, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lobes.cli import run_cli
from lobes.graph import parse_graph, serialize_graph
from lobes.catalog import named_graph

FIXTURES = Path(__file__).parent / "fixtures"

BOWTIE_TEXT = "5 6\n0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n"


def write_bowtie(tmp_path):
    path = tmp_path / "bowtie.g"
    path.write_text(BOWTIE_TEXT)
    return str(path)


def test_decompose(tmp_path, capsys):
    assert run_cli(["decompose", write_bowtie(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "lobes: 2" in out and "cut vertices: [2]" in out


def test_decompose_json(tmp_path, capsys):
    assert run_cli(["decompose", write_bowtie(tmp_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lobe_count"] == 2
    assert doc["lobes"] == [[0, 1, 2], [2, 3, 4]]
    assert doc["cut_vertices"] == [2]
    assert doc["class_of"] == [0, 0]


def test_aut(tmp_path, capsys):
    assert run_cli(["aut", write_bowtie(tmp_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["group_order"] == 8
    assert len(doc["orbits"]["vertices"]) == 2


def test_classify(tmp_path, capsys):
    assert run_cli(["classify", write_bowtie(tmp_path), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theorem"]["lobe"] is True
    assert doc["theorem"]["edge"] is False
    assert doc["consistent"] is True


def test_classify_prints_failure_witnesses_in_text_mode(tmp_path, capsys):
    # P4: three K2 lobes, the middle one moved by no automorphism onto an
    # end one, so the lobe, edge and arc verdicts all fail
    path = tmp_path / "p4.g"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    assert run_cli(["classify", str(path), "--json"]) == 0
    witnesses = json.loads(capsys.readouterr().out)["witnesses"]
    assert run_cli(["classify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "lobe witness: incompatible_lobe (0, 1)" in lines
    assert "edge witness: side_count_not_constant (0, 2)" in lines
    assert "arc witness: lobe_count_not_constant [1, 2]" in lines
    assert witnesses == {"lobe": ["incompatible_lobe", [0, 1]],
                         "edge": ["side_count_not_constant", [0, 2]],
                         "arc": ["lobe_count_not_constant", [1, 2]]}
    assert run_cli(["classify", write_bowtie(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "edge witness: not_bipartite\n" in out
    assert "lobe witness" not in out


def test_python_m_lobes_runs_from_a_checkout(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "lobes", "named", "petersen"],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=60)
    assert done.returncode == 0, done.stderr
    assert parse_graph(done.stdout) == named_graph("petersen")


@pytest.mark.parametrize("argv", [["decompose", "bowtie.g"],
                                  ["named", "path", "3000"]])
def test_closed_stdout_exits_3_without_traceback(argv):
    # the read end is closed before the child starts, so its first write
    # fails: at the final flush for the small output, inside print for the
    # one larger than the stdout buffer
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "lobes"] + argv,
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, cwd=FIXTURES, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 3
    # one error line, no traceback
    assert done.stderr == \
        "error: stdout was closed before the output was written\n"


def test_karc(tmp_path, capsys):
    pet = tmp_path / "petersen.g"
    pet.write_text(serialize_graph(named_graph("petersen")))
    assert run_cli(["karc", str(pet), "-k", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["orbit_count"] == 1


def test_build_writes_graph_and_sidecar(tmp_path, capsys):
    out = tmp_path / "gamma.g"
    code = run_cli(["build", str(FIXTURES / "chord5cyc.json"),
                    "-o", str(out)])
    assert code == 0
    g = parse_graph(out.read_text())
    assert g.vertex_count == 57
    sidecar = json.loads((tmp_path / "gamma.g.json").read_text())
    assert sidecar["depth"] == 1
    assert len(sidecar["lobes"]) == 14
    assert sidecar["lobes"][0]["sigma"] == [0, 1, 2, 3, 4]


def test_build_stdout_deterministic(capsys):
    assert run_cli(["build", str(FIXTURES / "clothesline_i.json")]) == 0
    first = capsys.readouterr().out
    assert run_cli(["build", str(FIXTURES / "clothesline_i.json")]) == 0
    assert capsys.readouterr().out == first


def test_limit(capsys):
    assert run_cli(["limit", str(FIXTURES / "kst_equal_3a.json"),
                    "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["arc_transitive"] is True and doc["edge_case"] == "3a"


def test_limit_uniform_k4_is_arc_transitive(capsys):
    # K4 lobes, two at every vertex: fully transitive limit
    assert run_cli(["limit", str(FIXTURES / "k4_uniform.json"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lobe_transitive"] and doc["vertex_transitive"]
    assert doc["edge_transitive"] and doc["arc_transitive"]


def test_equiv_exit_codes(capsys):
    a = str(FIXTURES / "clothesline_i.json")
    b = str(FIXTURES / "clothesline_iv.json")
    c = str(FIXTURES / "chord5cyc.json")
    assert run_cli(["equiv", a, b, "-d", "2"]) == 0
    assert "equivalent" in capsys.readouterr().out
    assert run_cli(["equiv", a, c, "-d", "1"]) == 1
    assert "not equivalent" in capsys.readouterr().out


def test_iso_exit_codes(tmp_path, capsys):
    g1 = tmp_path / "a.g"
    g2 = tmp_path / "b.g"
    g3 = tmp_path / "c.g"
    g1.write_text("3 2\n0 1\n1 2\n")
    g2.write_text("3 2\n0 2\n1 2\n")
    g3.write_text("3 3\n0 1\n0 2\n1 2\n")
    assert run_cli(["iso", str(g1), str(g2)]) == 0
    capsys.readouterr()
    assert run_cli(["iso", str(g1), str(g3)]) == 1
    assert "non-isomorphic" in capsys.readouterr().out


def test_iso_on_two_empty_graphs(tmp_path, capsys):
    # the empty mapping is a mapping, not a missing one
    empty = tmp_path / "e.g"
    empty.write_text("0 0\n")
    assert run_cli(["iso", str(empty), str(empty), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"isomorphic": True,
                                                  "mapping": []}
    assert run_cli(["iso", str(empty), str(empty)]) == 0
    assert capsys.readouterr().out == "[]\n"


def test_named_json_with_output(tmp_path, capsys):
    path = tmp_path / "c4.g"
    assert run_cli(["named", "cycle", "4", "--json", "-o", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"vertex_count": 4,
                                                  "written": str(path)}
    assert parse_graph(path.read_text()).edge_count == 4
    assert run_cli(["named", "cycle", "4", "-o", str(path)]) == 0
    assert capsys.readouterr().out == f"wrote cycle to {path}\n"


def test_named(capsys):
    assert run_cli(["named", "petersen"]) == 0
    text = capsys.readouterr().out
    assert parse_graph(text).vertex_count == 10
    assert run_cli(["named", "complete_bipartite", "2", "3"]) == 0
    assert parse_graph(capsys.readouterr().out).edge_count == 6


def test_usage_errors(capsys):
    assert run_cli([]) == 2
    capsys.readouterr()
    assert run_cli(["classify"]) == 2
    capsys.readouterr()
    assert run_cli(["karc", "x.g"]) == 2
    capsys.readouterr()
    assert run_cli(["frobnicate"]) == 2


def test_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.g")
    assert run_cli(["classify", missing]) == 3
    bad = tmp_path / "bad.g"
    bad.write_text("3 1\n0 3\n")
    assert run_cli(["classify", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "error" in err
    badspec = tmp_path / "bad.json"
    badspec.write_text("{\"lambda0\": 3}")
    assert run_cli(["limit", str(badspec)]) == 3
    disconnected = tmp_path / "disc.g"
    disconnected.write_text("3 1\n0 1\n")
    assert run_cli(["classify", str(disconnected)]) == 3


def test_resource_cap_exit_code(capsys):
    code = run_cli(["build", str(FIXTURES / "chord5cyc.json"),
                    "--max-vertices", "20"])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_aut_beyond_chain_degree_bound(tmp_path, capsys):
    # 4100 vertices is over the 4096 bound of the stabilizer chain, which
    # the search's recorded order does not need
    path = tmp_path / "path.g"
    path.write_text(serialize_graph(named_graph("path", 4100)))
    assert run_cli(["aut", "--json", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["group_order"] == 2


@pytest.mark.parametrize("command", ["aut", "iso", "classify"])
def test_deep_search_exits_4_without_traceback(tmp_path, capsys, command):
    # a star's leaves are individualized one search level at a time
    path = tmp_path / "star.g"
    path.write_text(serialize_graph(named_graph("star", 1500)))
    argv = [command, str(path)] + ([str(path)] if command == "iso" else [])
    assert run_cli(argv) == 4
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


def _spec_with_h(tmp_path, h):
    doc = json.loads((FIXTURES / "k4_uniform.json").read_text())
    doc["h"] = h
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _latin1_spec(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"name": "caf\xe9"}')
    return str(path)


@pytest.mark.parametrize("argv, code", [
    (lambda t: ["equiv", str(FIXTURES / "k4_uniform.json"),
                str(FIXTURES / "k4_uniform.json"), "-d", "-1"], 2),
    (lambda t: ["limit", _latin1_spec(t)], 3),
    (lambda t: ["limit", _spec_with_h(t, [["x", 1, 2, 3]])], 3),
    (lambda t: ["limit", _spec_with_h(t, [5])], 3),
    (lambda t: ["build", str(FIXTURES / "k4_uniform.json"),
                "-o", str(t / "missing" / "out.g")], 3),
    (lambda t: ["named", "petersen", "-o", str(t / "missing" / "p.g")], 3),
], ids=["negative_depth", "spec_not_utf8", "h_entry_not_int",
        "h_not_a_list_of_lists", "build_into_missing_dir",
        "named_into_missing_dir"])
def test_bad_input_exits_without_traceback(tmp_path, capsys, argv, code):
    assert run_cli(argv(tmp_path)) == code
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("field, value", [
    ("edges", [[0, True], [1, 2], [0, 2]]),
    ("edges", [[0, 1.0], [1, 2], [0, 2]]),
    ("n", 3.9),
    ("n", 3.0),
    ("r_partition", [[0, 1.7, 2]]),
    ("r_partition", [[0, "1", 2]]),
    ("k", 0.0),
], ids=["edge_id_true", "edge_id_float", "n_fraction", "n_float",
        "partition_float", "partition_str", "mu_k_float"])
def test_non_integer_spec_ids_exit_3(tmp_path, capsys, field, value):
    doc = {"lambda0": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]},
           "h": "aut", "r_partition": [[0, 1, 2]],
           "mu": [{"k": 0, "values": {"0": 2}}], "depth": 1}
    if field in ("n", "edges"):
        doc["lambda0"][field] = value
    elif field == "k":
        doc["mu"][0]["k"] = value
    else:
        doc[field] = value
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    graph = tmp_path / "out.g"
    assert run_cli(["build", str(spec), "-o", str(graph)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "is not an integer" in err[0]
    assert not graph.exists()


def test_named_unknown(capsys):
    assert run_cli(["named", "mystery"]) == 3
