"""Tests for the command-line interface."""

import gc
import json
import os
import random
import re
import resource
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from click.testing import CliRunner

from terwalg import cli, verify
from terwalg.cli import main
from terwalg.graphs import hypercube
from terwalg.report import VerificationReport


@pytest.fixture
def runner():
    return CliRunner()


def write_graph_file(path, g):
    lines = [f"{g.n} {g.m}"]
    for u in range(g.n):
        for v in g.neighbors[u]:
            if u < v:
                lines.append(f"{u} {v}")
    path.write_text("\n".join(lines) + "\n")


def test_verify_json_smallest(runner):
    result = runner.invoke(main, ["verify", "--max-d", "1", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["schema"] == 1
    assert data["overall"] == "pass"
    assert [r["blocks"] for r in data["results"]] == [[2]]
    assert data["results"][0]["dim_T"] == 4
    assert data["results"][0]["u0"]["rank"] == 2


def test_verify_dimensions_to_3(runner):
    result = runner.invoke(main, ["verify", "--max-d", "3", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert [r["dim_T"] for r in data["results"]] == [4, 10, 20]


def test_verify_rejects_max_d_zero(runner):
    result = runner.invoke(main, ["verify", "--max-d", "0"])
    assert result.exit_code == 2


def test_verify_rejects_max_d_thirteen(runner):
    result = runner.invoke(main, ["verify", "--max-d", "13"])
    assert result.exit_code == 2
    assert runner.invoke(main, ["report", "--d", "13"]).exit_code == 2
    with pytest.raises(ValueError, match="between 1 and 12"):
        verify.run_verification(13)


def test_verify_and_report_accept_d_eleven(runner, monkeypatch):
    # The top diameter reaches the library; stand-ins replace the runs
    # themselves (several seconds and several hundred MB at d=11).
    asked = []

    def fake_verification(max_d, vertex=0):
        asked.append(("verify", max_d, vertex))
        return verify.run_verification(1)

    def fake_report(d, vertex=0):
        asked.append(("report", d, vertex))
        return verify.build_parameter_report(1)

    monkeypatch.setattr(cli, "run_verification", fake_verification)
    monkeypatch.setattr(cli, "build_parameter_report", fake_report)
    assert runner.invoke(main, ["verify", "--max-d", "11"]).exit_code == 0
    last = str(2**11 - 1)
    assert runner.invoke(main, ["report", "--d", "11", "--vertex", last]).exit_code == 0
    assert runner.invoke(main, ["report", "--d", "11", "--vertex", "2048"]).exit_code == 2
    assert asked == [("verify", 11, 0), ("report", 11, 2047)]


def test_verify_and_report_accept_d_twelve(runner, monkeypatch):
    # The top diameter, MAX_D = 12, reaches the library; stand-ins replace
    # the runs themselves.
    asked = []

    def fake_verification(max_d, vertex=0):
        asked.append(("verify", max_d, vertex))
        return verify.run_verification(1)

    def fake_report(d, vertex=0):
        asked.append(("report", d, vertex))
        return verify.build_parameter_report(1)

    monkeypatch.setattr(cli, "run_verification", fake_verification)
    monkeypatch.setattr(cli, "build_parameter_report", fake_report)
    assert verify.MAX_D == 12
    assert runner.invoke(main, ["verify", "--max-d", "12"]).exit_code == 0
    last = str(2**12 - 1)
    assert runner.invoke(main, ["report", "--d", "12", "--vertex", last]).exit_code == 0
    assert runner.invoke(main, ["report", "--d", "12", "--vertex", "4096"]).exit_code == 2
    assert asked == [("verify", 12, 0), ("report", 12, 4095)]


def test_verify_has_no_threads_option(runner):
    result = runner.invoke(main, ["verify", "--max-d", "2", "--threads", "2"])
    assert result.exit_code == 2


def test_run_verification_accepts_only_one_thread():
    with pytest.raises(ValueError, match="threads must be 1"):
        verify.run_verification(3, threads=2)


def test_verification_holds_one_diameter_at_a_time(monkeypatch):
    # Before each diameter is prepared, no earlier context may be alive.
    real_prepare = verify._prepare
    contexts = []
    alive = []

    def counting_prepare(d, vertex):
        gc.collect()
        alive.append(sum(ref() is not None for ref in contexts))
        prep = real_prepare(d, vertex)
        contexts.append(weakref.ref(prep.ctx))
        return prep

    monkeypatch.setattr(verify, "_prepare", counting_prepare)
    assert verify.run_verification(6, vertex=5).overall == "pass"
    assert alive == [0] * 7


def test_verify_out_file_and_round_trip(runner, tmp_path):
    out = tmp_path / "report.json"
    result = runner.invoke(
        main, ["verify", "--max-d", "2", "--format", "json", "--out", str(out)]
    )
    assert result.exit_code == 0
    text = out.read_text()
    report = VerificationReport.from_json(text)
    assert report.to_json() == text  # lossless round trip
    assert report.overall == "pass"


def test_verify_format_parity(runner):
    json_result = runner.invoke(main, ["verify", "--max-d", "2", "--format", "json"])
    text_result = runner.invoke(main, ["verify", "--max-d", "2", "--format", "text"])
    assert json_result.exit_code == 0 and text_result.exit_code == 0
    data = json.loads(json_result.output)
    json_names = [c["name"] for r in data["results"] for c in r["checks"]]
    json_names += [c["name"] for c in data["global_checks"]]
    text_names = re.findall(r"(?:PASS|FAIL) (\S+)", text_result.output)
    assert sorted(json_names) == sorted(text_names)


def test_verify_nonzero_vertex(runner):
    result = runner.invoke(
        main, ["verify", "--max-d", "2", "--vertex", "3", "--format", "json"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    # Vertex folds into range per diameter; checks stay green everywhere.
    assert [r["vertex"] for r in data["results"]] == [1, 3]


def test_report_p_table_entry(runner):
    result = runner.invoke(main, ["report", "--d", "2", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["p_table"][2][1][1] == 2
    assert data["krein_table"][2][1][1] == 2
    assert data["dim_T"] == 10
    assert data["blocks"] == [3, 1]
    assert len(data["permissible_set"]) == 10


def test_report_eigenvalues_d4(runner):
    result = runner.invoke(main, ["report", "--d", "4", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["eigenvalues"] == [4, 2, 0, -2, -4]


def test_report_u0_identity_d1(runner):
    result = runner.invoke(main, ["report", "--d", "1", "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["u0_is_identity"] is True
    result = runner.invoke(main, ["report", "--d", "1"])
    assert "u0_is_identity = true" in result.output


def test_report_usage_bounds(runner):
    assert runner.invoke(main, ["report", "--d", "0"]).exit_code == 2
    assert runner.invoke(main, ["report", "--d", "13"]).exit_code == 2
    assert runner.invoke(main, ["report"]).exit_code == 2


@pytest.mark.parametrize("d", [1, 3])
def test_report_vertex_range(runner, d):
    # The last vertex of the d-cube is reported; the next is a usage error
    # that names the range, not a report for vertex 0.
    last = runner.invoke(main, ["report", "--d", str(d), "--vertex", str(2**d - 1)])
    assert last.exit_code == 0
    assert f"base vertex {2**d - 1}" in last.output
    past = runner.invoke(main, ["report", "--d", str(d), "--vertex", str(2**d)])
    assert past.exit_code == 2
    assert f"out of range for {2**d} vertices" in past.output
    with pytest.raises(ValueError, match="out of range"):
        verify.build_parameter_report(d, 2**d)


def test_graph_six_cycle(runner, tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    result = runner.invoke(main, ["graph", "--file", str(path), "--format", "json"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["distance_regular"] is True
    assert data["dim_T"] == 20
    assert data["eigenvalues"] == [2, 1, -1, -2]


def test_graph_report_is_the_same_on_bitmask_and_relabelled_cubes(runner, tmp_path, monkeypatch):
    # The bitmask Q_7 takes the translation path and the relabelled copy the
    # all-pairs search; the reports differ only in the vertex they name.
    from terwalg import graphs

    taken = []
    certificate = graphs._translations

    def spy(g):
        s = certificate(g)
        taken.append(s is not None)
        return s

    monkeypatch.setattr(graphs, "_translations", spy)
    g = hypercube(7)
    perm = list(range(g.n))
    random.Random(7).shuffle(perm)
    edges = [(perm[u], perm[v]) for u in range(g.n) for v in g.neighbors[u] if u < v]
    (tmp_path / "relabelled.txt").write_text(f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    write_graph_file(tmp_path / "bitmask.txt", g)
    outputs = {}
    for name, vertex in (("bitmask", 0), ("relabelled", perm[5])):
        taken.clear()
        argv = ["graph", "--file", str(tmp_path / f"{name}.txt"), "--vertex", str(vertex)]
        result = runner.invoke(main, argv + ["--format", "json"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["vertex"] == vertex
        outputs[name] = re.sub(r'"vertex": \d+', '"vertex": N', result.output)
        assert set(taken) == {name == "bitmask"}
    assert outputs["bitmask"] == outputs["relabelled"]


def test_graph_path_not_distance_regular(runner, tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    result = runner.invoke(main, ["graph", "--file", str(path)])
    assert result.exit_code == 1
    assert "not distance-regular" in result.output
    # The middle vertex of the 5-vertex path has eccentricity 2 < 4, so a
    # sphere around it is empty; the graph is still named by its witness,
    # as at an end vertex, with a clean exit.
    path = tmp_path / "p5.txt"
    path.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
    results = [
        runner.invoke(main, ["graph", "--file", str(path), "--vertex", str(x)])
        for x in (0, 2)
    ]
    for result in results:
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert "not distance-regular" in result.stderr
        assert "Traceback" not in result.output
    assert results[0].stderr == results[1].stderr


def test_graph_pentagon_irrational(runner, tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text("5 5\n0 1\n1 2\n2 3\n3 4\n4 0\n")
    result = runner.invoke(main, ["graph", "--file", str(path)])
    assert result.exit_code == 1
    assert "irrational" in result.output


def test_graph_missing_file(runner, tmp_path):
    result = runner.invoke(main, ["graph", "--file", str(tmp_path / "absent.txt")])
    assert result.exit_code == 1


def test_graph_malformed_file(runner, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 1\n0 x\n")
    result = runner.invoke(main, ["graph", "--file", str(path)])
    assert result.exit_code == 1
    assert "line 2" in result.output


def test_graph_vertex_cap(runner, tmp_path):
    # One vertex past the cap is refused before any distance is computed;
    # at the cap the file is read, and this one fails as disconnected.
    path = tmp_path / "big.txt"
    path.write_text("4097 0\n")
    result = runner.invoke(main, ["graph", "--file", str(path)])
    assert result.exit_code == 1
    assert "vertex count 4097 exceeds cap 4096" in result.output
    path.write_text("4096 0\n")
    result = runner.invoke(main, ["graph", "--file", str(path)])
    assert result.exit_code == 1
    assert "graph is not connected" in result.output


def test_graph_refuses_a_long_diameter_before_its_p_table(tmp_path):
    # The 1024-cycle is under the vertex cap, but its p-table would hold
    # 513^3 int64 entries (1.08 GB).  Under a 768 MiB address-space limit
    # the command must still exit 1 with a message naming the diameter and
    # the table size, and no traceback: the refusal comes from the diameter,
    # before the table or any count is allocated.
    n = 1024
    path = tmp_path / "c1024.txt"
    path.write_text(f"{n} {n}\n" + "".join(f"{i} {(i + 1) % n}\n" for i in range(n)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))

    result = subprocess.run(
        [sys.executable, "-m", "terwalg.cli", "graph", "--file", str(path)],
        env=env,
        preexec_fn=limit,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 1
    assert "diameter 512 needs a p-table of 513^3 = 135005697 entries" in result.stderr
    assert "Traceback" not in result.stderr and not result.stdout


def test_graph_vertex_out_of_range(runner, tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text("6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n")
    result = runner.invoke(main, ["graph", "--file", str(path), "--vertex", "6"])
    assert result.exit_code == 2


def test_graph_file_matches_builtin_hypercube(runner, tmp_path):
    path = tmp_path / "q3.txt"
    write_graph_file(path, hypercube(3))
    graph_result = runner.invoke(
        main, ["graph", "--file", str(path), "--format", "json"]
    )
    report_result = runner.invoke(main, ["report", "--d", "3", "--format", "json"])
    assert graph_result.exit_code == 0 and report_result.exit_code == 0
    via_file = json.loads(graph_result.output)
    builtin = json.loads(report_result.output)
    for key in ("p_table", "krein_table", "P", "Q", "eigenvalues", "valencies",
                "dual_valencies", "dim_T", "triple_span_dim"):
        assert via_file[key] == builtin[key], key


def test_poly_command(runner):
    result = runner.invoke(main, ["poly", "--max-d", "64"])
    assert result.exit_code == 0
    assert "PASS spectrum_polynomial_factorial_identity" in result.output
    assert "PASS krawtchouk_descent_identities" in result.output
    assert runner.invoke(main, ["poly", "--max-d", "2"]).exit_code == 0
    assert runner.invoke(main, ["poly", "--max-d", "0"]).exit_code == 2
    assert runner.invoke(main, ["poly", "--max-d", "65"]).exit_code == 2


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "terwalg" in result.output
