"""Command-line interface: plumbing, report shapes, exit codes."""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import weylscope
from weylscope import cli, root_data
from weylscope.root_data import build_named


def _run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _report(tmp_path, capsys, *argv):
    out = tmp_path / "report.json"
    code, stdout, stderr = _run(capsys, *argv, "--out", str(out))
    assert code == 0, stderr
    return json.loads(out.read_text()), stdout


def test_datum_info_summary(capsys):
    code, out, err = _run(capsys, "datum-info", "--datum", "A1")
    assert code == 0 and err == ""
    assert "A1: rank 1, 2 roots, |W| = 2" in out


def test_datum_info_report(tmp_path, capsys):
    report, stdout = _report(tmp_path, capsys, "datum-info", "--datum", "A2")
    assert report["rank"] == 2
    assert report["cartan"] == [[2, -1], [-1, 2]]
    assert report["num_positive_roots"] == 3
    assert report["weyl_order"] == 6
    assert report["simple_roots"] == ["a1", "a2"]
    assert "report written to" in stdout


def test_report_bytes_are_stable(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = _run(capsys, "fan", "--datum", "B2", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


def test_fan_counts(tmp_path, capsys):
    report, _ = _report(tmp_path, capsys, "fan", "--datum", "A2")
    assert report["count"] == 13
    assert report["dims"] == {"0": 1, "1": 6, "2": 6}
    assert len(report["cones"]) == 13
    assert report["cones"][0]["parabolic"] == {"label": [], "word": []}


def test_prefan_counts(tmp_path, capsys):
    report, _ = _report(
        tmp_path, capsys, "prefan", "--datum", "A2", "--type", "a1"
    )
    assert report["count"] == 7
    assert report["dims"] == {"0": 1, "1": 3, "2": 3}
    assert report["lineality_dim"] == 0


def test_relevant_standard_labels(capsys):
    code, out, _ = _run(capsys, "relevant", "--datum", "A3", "--type", "a1,a2")
    assert code == 0
    assert "{a1,a2}, {a1,a3}, {a2,a3}, {a1,a2,a3}" in out


def test_relevant_all_flag(tmp_path, capsys):
    report, _ = _report(
        tmp_path, capsys, "relevant", "--datum", "A2", "--type", "a1", "--all"
    )
    assert report["standard_relevant"] == [["a1"], ["a2"], ["a1", "a2"]]
    assert report["all_count"] == 7


def test_cone_weyl_of_borel(tmp_path, capsys):
    report, _ = _report(
        tmp_path, capsys, "cone", "--datum", "A2", "--label", "", "--kind", "weyl"
    )
    assert report["cone"]["dim"] == 2
    assert report["cone"]["lineality_dim"] == 0
    # one inequality per positive root
    assert sorted(report["cone"]["ineqs"]) == [[-1, -1], [-1, 0], [0, -1]]


def test_cone_type_relevance_fields(tmp_path, capsys):
    report, stdout = _report(
        tmp_path,
        capsys,
        "cone",
        "--datum",
        "A3",
        "--type",
        "a1,a2",
        "--label",
        "a2",
        "--kind",
        "type",
    )
    assert report["is_relevant"] is False
    assert report["minimal_relevant"] == {"label": ["a1", "a2"], "word": []}
    assert report["active_components"] == []
    assert report["span_equalities"] == []
    assert "relevant: no" in stdout
    assert "{a1,a2}" in stdout


def test_limit_flags(tmp_path, capsys):
    report, stdout = _report(
        tmp_path,
        capsys,
        "limit",
        "--datum",
        "A2",
        "--type",
        "a1",
        "--u0",
        "0,0",
        "--v",
        "1,0",
    )
    assert report["stratum"] == {"label": ["a2"], "word": []}
    assert report["residual"] == ["0", "0"]
    assert report["residual_rank"] == 1
    assert "stratum {a2}" in stdout


def test_limit_ray_file(tmp_path, capsys):
    ray = tmp_path / "ray.json"
    ray.write_text(json.dumps({"u0": ["1/2", "0"], "v": ["1", "0"]}))
    report, _ = _report(
        tmp_path,
        capsys,
        "limit",
        "--datum",
        "A2",
        "--type",
        "a1",
        "--ray-file",
        str(ray),
    )
    assert report["stratum"]["label"] == ["a2"]
    assert report["residual_rank"] == 1


def test_seminorm_at_origin_is_max_coefficient(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    poly.write_text(
        json.dumps(
            [
                {"exponents": {"0": 1}, "log_coeff": "2"},
                {"exponents": {"1": 2}, "log_coeff": "-5"},
            ]
        )
    )
    report, stdout = _report(
        tmp_path,
        capsys,
        "seminorm",
        "--datum",
        "A2",
        "--type",
        "a1",
        "--poly",
        str(poly),
        "--interior",
        "0,0",
    )
    assert report["value"] == "2"
    assert report["is_norm"] is True
    assert report["monomials"] == 2
    assert "log-norm value" in stdout


def test_seminorm_chart_mismatch_exit(tmp_path, capsys):
    # the base point of the standard ray stratum lies in two of the
    # three charts; the third must refuse with the validation exit code
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps([{"exponents": {}, "log_coeff": "0"}]))
    codes = []
    for chart in range(3):
        codes.append(
            cli.main(
                [
                    "seminorm",
                    "--datum",
                    "A2",
                    "--type",
                    "a1",
                    "--poly",
                    str(poly),
                    "--stratum",
                    "a2",
                    "--residual",
                    "0,0",
                    "--chart",
                    str(chart),
                ]
            )
        )
        captured = capsys.readouterr()
        if codes[-1] != 0:
            assert captured.err.startswith("error:")
    assert sorted(codes) == [0, 0, 2]


def test_stabilizer_report(tmp_path, capsys):
    report, stdout = _report(
        tmp_path,
        capsys,
        "stabilizer",
        "--datum",
        "A2",
        "--type",
        "a1",
        "--stratum",
        "a2",
        "--residual",
        "0,7",
    )
    assert len(report["full_unipotent"]) == 2
    levels = {tuple(e["root"]): e["level"] for e in report["filtered"]}
    assert levels == {(0, 1): "-7", (0, -1): "7"}
    assert report["normalizer"] == "N(k)_x"
    assert "times N(k)_x" in stdout


def test_project_to_full_type(tmp_path, capsys):
    report, _ = _report(
        tmp_path,
        capsys,
        "project",
        "--datum",
        "A2",
        "--type",
        "",
        "--to-type",
        "a1,a2",
        "--interior",
        "2,5",
    )
    # interior points live on the dense stratum of the full group; the
    # target compactification for the full type is a single stratum
    assert report["from_stratum"] == {"label": ["a1", "a2"], "word": []}
    assert report["stratum"] == {"label": ["a1", "a2"], "word": []}
    assert report["stratum_dim"] == 2
    assert report["residual"] == ["0", "0"]


def test_pgl_with_kernel(tmp_path, capsys):
    report, stdout = _report(tmp_path, capsys, "pgl", "--values", "0,-1,-inf")
    assert report["dimension"] == 3
    assert report["kernel"] == [2]
    assert report["interior"] is False
    assert report["round_trip_ok"] is True
    assert "kernel positions [2]" in stdout


def test_pgl_interior(tmp_path, capsys):
    report, _ = _report(tmp_path, capsys, "pgl", "--values", "0,0")
    assert report["interior"] is True
    assert report["kernel"] == []
    assert report["values"] == ["0", "0"]


def test_pgl_seminorm_file(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text(json.dumps({"values": ["-1", "-inf", "0"]}))
    report, _ = _report(tmp_path, capsys, "pgl", "--seminorm-file", str(f))
    assert report["kernel"] == [1]
    assert report["values"] == ["-1", "-inf", "0"]


def test_pgl_rejects_all_infinite(capsys):
    code, _, err = _run(capsys, "pgl", "--values=-inf,-inf")
    assert code == 2
    assert err.startswith("error:")


def test_datum_file_by_name(tmp_path, capsys):
    f = tmp_path / "datum.json"
    f.write_text(json.dumps({"name": "B2"}))
    report, _ = _report(tmp_path, capsys, "datum-info", "--datum-file", str(f))
    assert report["rank"] == 2
    assert report["num_roots"] == 8
    assert report["weyl_order"] == 8


def test_datum_file_naming_a1xa1_matches_the_named_flag(tmp_path, capsys):
    f = tmp_path / "datum.json"
    f.write_text(json.dumps({"name": "A1xA1"}))
    named, from_file = tmp_path / "named.json", tmp_path / "file.json"
    assert _run(capsys, "datum-info", "--datum", "A1xA1", "--out", str(named))[0] == 0
    code, _, err = _run(capsys, "datum-info", "--datum-file", str(f), "--out", str(from_file))
    assert code == 0, err
    assert from_file.read_bytes() == named.read_bytes()
    assert _run(capsys, "datum-info", "--datum-file", str(f)) == _run(
        capsys, "datum-info", "--datum", "A1xA1"
    )


def test_datum_file_by_cartan(tmp_path, capsys):
    f = tmp_path / "datum.json"
    f.write_text(json.dumps({"rank": 2, "cartan": [[2, -1], [-2, 2]]}))
    report, _ = _report(tmp_path, capsys, "datum-info", "--datum-file", str(f))
    assert report["num_roots"] == 8
    assert report["weyl_order"] == 8


def test_datum_file_roots_checked(tmp_path, capsys):
    good = tmp_path / "good.json"
    report, _ = _report(tmp_path, capsys, "datum-info", "--datum", "A2")
    roots = [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]]
    good.write_text(
        json.dumps({"rank": 2, "cartan": [[2, -1], [-1, 2]], "roots": roots})
    )
    report, _ = _report(tmp_path, capsys, "datum-info", "--datum-file", str(good))
    assert report["num_roots"] == 6
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"rank": 2, "cartan": [[2, -1], [-1, 2]], "roots": roots[:-1]})
    )
    code, _, err = _run(capsys, "datum-info", "--datum-file", str(bad))
    assert code == 2
    assert "roots" in err


@pytest.mark.parametrize("label", [1.5, True, 5, ["x"], {}])
def test_datum_file_label_must_be_a_string(tmp_path, capsys, label):
    """A label of another JSON type is refused before the summary line, where
    a float used to fail in the report after it."""
    f = tmp_path / "datum.json"
    f.write_text(json.dumps({"rank": 2, "cartan": [[2, -1], [-1, 2]], "label": label}))
    assert _run(capsys, "datum-info", "--datum-file", str(f)) == (
        2, "", f'error: {f}: "label" must be a JSON string\n'
    )


def test_datum_file_name_must_stand_alone(tmp_path, capsys):
    f = tmp_path / "datum.json"
    f.write_text(json.dumps({"name": "G2", "rank": 2, "cartan": [[2, -1], [-1, 2]]}))
    assert _run(capsys, "datum-info", "--datum-file", str(f)) == (
        2, "", f'error: {f}: "name" must stand alone\n'
    )


@pytest.mark.parametrize("rank,edges", [(22, True), (300, False)])
def test_a_cartan_matrix_past_the_root_bound_names_the_bound(tmp_path, capsys, rank, edges):
    """A22 (506 roots) and A1^300 (600 roots) are of finite type; the error
    states the bound they pass."""
    cartan = [
        [2 if i == j else -int(edges and abs(i - j) == 1) for j in range(rank)]
        for i in range(rank)
    ]
    f = tmp_path / "datum.json"
    f.write_text(json.dumps({"rank": rank, "cartan": cartan}))
    assert _run(capsys, "datum-info", "--datum-file", str(f)) == (
        2, "", "error: root system exceeds the bound of 500 roots\n"
    )


def test_unknown_datum_name(capsys):
    code, _, err = _run(capsys, "datum-info", "--datum", "E9")
    assert code == 2
    assert err.startswith("error:")


def test_cartan_entry_location_in_error(tmp_path, capsys):
    f = tmp_path / "datum.json"
    f.write_text(json.dumps({"rank": 2, "cartan": [[2, -1.5], [-1, 2]]}))
    code, _, err = _run(capsys, "datum-info", "--datum-file", str(f))
    assert code == 2
    assert "cartan[0][1]" in err


def test_enumeration_cap_exit_code(capsys):
    code, _, err = _run(capsys, "datum-info", "--datum", "A5", "--cap", "10")
    assert code == 3
    assert "cap 10" in err


def test_caps_below_one_exit_with_one_line(capsys, monkeypatch):
    for cap in ("0", "-1"):
        code, out, err = _run(capsys, "fan", "--datum", "A2", "--cap", cap)
        assert code == 2 and out == ""
        assert err == f"error: --cap must be at least 1, got {cap}\n"
    monkeypatch.setenv("WEYLSCOPE_ENUM_CAP", "0")
    for argv in (("fan", "--datum", "A2"), ("pgl", "--values", "0,-1")):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: WEYLSCOPE_ENUM_CAP") and err.count("\n") == 1


@pytest.mark.parametrize(
    "value, message",
    [("0", "must be at least 1, got 0"), ("abc", "must be an integer, got 'abc'")],
)
def test_a_bad_env_cap_fails_every_datum_command(monkeypatch, value, message):
    # The Weyl cone of a standard parabolic needs no Weyl group, so the
    # environment cap is checked where the command settles its cap.
    monkeypatch.setenv("WEYLSCOPE_ENUM_CAP", value)
    proc = _run_child("cone", "--datum", "A2", "--label", "a1", "--kind", "weyl")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: WEYLSCOPE_ENUM_CAP {message}\n"


def test_cap_errors_name_the_datum_and_the_count(tmp_path):
    proc = _run_child("fan", "--datum", "A5", "--cap", "100")
    assert proc.returncode == 3
    assert "Weyl enumeration of A5 exceeded cap 100 at 101 elements" in proc.stderr
    f = tmp_path / "datum.json"
    # B2 x A1, which no name covers.
    f.write_text(json.dumps({"rank": 3, "cartan": [[2, -2, 0], [-1, 2, 0], [0, 0, 2]]}))
    proc = _run_child("datum-info", "--datum-file", str(f), "--cap", "5")
    assert proc.returncode == 3
    assert "of a rank-3 datum exceeded cap 5 at 6 elements" in proc.stderr


def test_enumeration_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("WEYLSCOPE_ENUM_CAP", "10")
    code, _, err = _run(capsys, "datum-info", "--datum", "A5")
    assert code == 3
    assert "WEYLSCOPE_ENUM_CAP" in err


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _child_env():
    """The environment of a child process that imports this weylscope."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def _run_child(*argv):
    """The CLI in a fresh process (so no table is shared with other tests),
    under a 1 GiB address-space limit and a 30-s timeout."""
    return subprocess.run(
        [sys.executable, "-m", "weylscope.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=30,
        preexec_fn=_limit_memory,
    )


def test_a_closed_stdout_exits_2_with_one_line():
    """A reader that leaves early gets the exit code and the one line of an
    unwritable --out, and no second error at interpreter exit."""
    with subprocess.Popen(
        [sys.executable, "-m", "weylscope.cli", "fan", "--datum", "F4"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
        preexec_fn=_limit_memory,
    ) as proc:
        try:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
    assert code == 2
    assert err == "error: stdout: Broken pipe\n"


def _modules_loaded_by(argv):
    """The exit code of the command in a fresh process, the weylscope
    modules that process loaded, and the other modules that importing cli
    and running the command added to it."""
    script = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from weylscope import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({list(argv)!r})\n"
        "ours = sorted(n for n in sys.modules if n.startswith('weylscope.'))\n"
        "print(json.dumps([code, ours, sorted(set(sys.modules) - before)]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(), timeout=30
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_fan_loads_no_point_layer_module():
    """Each command runs in a fresh process on the layers under it and no
    others: each module a process imports costs it its compile time.
    datum-info and relevant need root_data alone, and not even fractions;
    fan and prefan the cone layers through cli_cones; the point commands
    not cli_cones."""
    for argv in (
        ("datum-info", "--datum", "B2"),
        ("relevant", "--datum", "A3", "--type", "a1", "--all"),
    ):
        code, ours, added = _modules_loaded_by(argv)
        assert (code, ours) == (0, ["weylscope.cli", "weylscope.root_data"]), argv
        assert "fractions" not in added, argv
    cone_layers = ["cli", "cli_cones", "linalg", "polyfan", "root_data", "type_geometry"]
    for argv in (("fan", "--datum", "A2"), ("prefan", "--datum", "A3", "--type", "a1")):
        code, ours, _ = _modules_loaded_by(argv)
        assert (code, ours) == (0, [f"weylscope.{n}" for n in cone_layers]), argv
    for argv in (
        next(a for a in _PINNED_REPORTS if a[0] == "stabilizer"),
        ("pgl", "--values=0,-1,-inf"),
    ):
        code, ours, _ = _modules_loaded_by(argv)
        assert code == 0 and "weylscope.cli_points" in ours, argv
        assert "weylscope.cli_cones" not in ours, argv


def test_an_indeterminate_value_exits_2_with_one_line(capsys, monkeypatch):
    """main catches polyfan's IndeterminateValueError without importing
    polyfan itself: it looks the class up once a command has loaded it."""
    from weylscope import polyfan, type_geometry

    def indeterminate(datum):
        raise polyfan.IndeterminateValueError("(+inf) + (-inf) is undefined")

    monkeypatch.setattr(type_geometry, "weyl_cone_orbits", indeterminate)
    assert _run(capsys, "fan", "--datum", "A2") == (
        2, "", "error: (+inf) + (-inf) is undefined\n"
    )


def test_point_commands_run_in_a_fresh_process(tmp_path):
    """stabilizer and pgl, whose handlers import cli_points, give their
    pinned output in a process that has not loaded it yet."""
    argv = next(a for a in _PINNED_REPORTS if a[0] == "stabilizer")
    out = tmp_path / "report.json"
    done = _run_child(*argv, "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_REPORTS[argv]
    done = _run_child("pgl", "--values=0,-1,-inf")
    assert done.returncode == 0 and done.stderr == ""
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "03a14a3893afa49373383a137176bb1e27fb267f058f1c446ca65be7d74d80b8"
    )
    assert "weylscope.cli_points" in _modules_loaded_by(["pgl", "--values=0,-1"])[1]


def _diagonal_datum_file(tmp_path, rank):
    f = tmp_path / "datum.json"
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    f.write_text(json.dumps({"rank": rank, "cartan": cartan}))
    return f


def test_enumeration_cap_bounds_the_work_on_high_rank(tmp_path):
    # A1^30: 60 roots, but 2^30 type labels, so nothing indexed by labels
    # may be built before the cap stops the Weyl enumeration.
    f = _diagonal_datum_file(tmp_path, 30)
    for command in ("datum-info", "fan"):
        proc = _run_child(command, "--datum-file", str(f), "--cap", "100")
        assert proc.returncode == 3, proc.stderr
        assert "exceeded cap 100" in proc.stderr


@pytest.mark.parametrize(
    "argv, expected",
    [
        pytest.param(("datum-info",), 3, id="datum-info"),
        pytest.param(("relevant", "--type", "a1"), 3, id="relevant"),
        pytest.param(("cone", "--label", "a1"), 3, id="cone-type"),
        pytest.param(("cone", "--label", "a1", "--kind", "weyl"), 0, id="cone-weyl"),
    ],
)
def test_default_cap_trips_fast_on_high_rank(tmp_path, argv, expected):
    # A simple reflection is a rank-1 update, so reaching the default cap on
    # A1^30 costs well under a second of CPU time; nothing indexed by the
    # 2^30 type labels is built first, and the Weyl cone of a standard
    # parabolic needs no Weyl group at all.
    f = _diagonal_datum_file(tmp_path, 30)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = _run_child(argv[0], "--datum-file", str(f), *argv[1:])
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert proc.returncode == expected, proc.stderr
    if expected == 3:
        assert "exceeded cap 1152" in proc.stderr
    assert after.ru_utime - before.ru_utime < 3


def _e7_datum_file(tmp_path):
    rank = 7
    cartan = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    # Bourbaki numbering: the chain a1-a3-a4-a5-a6-a7, with a2 on a4.
    for i, j in [(0, 2), (1, 3)] + [(k, k + 1) for k in range(2, rank - 1)]:
        cartan[i][j] = cartan[j][i] = -1
    f = tmp_path / "e7.json"
    f.write_text(json.dumps({"rank": rank, "cartan": cartan}))
    return f


def _timed_child(*argv):
    """_run_child, and the CPU seconds the child took."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = _run_child(*argv)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


def test_e7_runs_without_listing_its_weyl_group(tmp_path):
    # |W(E7)| = 2,903,040: a listing of W would need minutes and gigabytes,
    # but the relevant labels and |W| come from the roots alone.
    f = _e7_datum_file(tmp_path)
    for argv in (("relevant", "--type", "a1"), ("datum-info",)):
        proc, cpu = _timed_child(*argv, "--datum-file", str(f), "--cap", "2903040")
        assert proc.returncode == 0, proc.stderr
        assert cpu < 3
        if argv[0] == "datum-info":
            assert json.loads(proc.stdout[proc.stdout.index("{"):])["weyl_order"] == 2903040
        proc = _run_child(*argv, "--datum-file", str(f))
        assert proc.returncode == 3
        assert "exceeded cap 1152 at 1153 elements" in proc.stderr


def test_e7_point_commands_build_one_stratum_and_the_charts_of_their_type(tmp_path):
    # A point reads one stratum cone and, to be evaluated, the 56 charts of
    # type {a1,...,a6}; the 33,771 parabolics of the ten relevant orbits
    # are never built.
    f = _e7_datum_file(tmp_path)
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps([{"exponents": {"0": 1, "3": 2}, "log_coeff": "1/2"}]))
    where = ("--datum-file", str(f), "--cap", "2903040", "--type", "a1,a2,a3,a4,a5,a6")
    for argv in (
        ("stabilizer", "--interior=-1,-2,0,1,-3,2,1"),
        ("stabilizer", "--stratum", "a2,a3,a4,a5,a6,a7", "--word", "7,6",
         "--residual=1,0,0,0,0,0,2"),
        ("seminorm", "--poly", str(poly), "--interior=-1,-2,0,1,-3,2,1"),
        ("project", "--to-type", "a1,a2,a3,a4,a5,a6,a7", "--interior=-1,-2,0,1,-3,2,1"),
    ):
        proc, cpu = _timed_child(*argv, *where)
        assert proc.returncode == 0, proc.stderr
        assert cpu < 1, argv


def test_e7_limit_builds_one_stratum_at_small_types(tmp_path):
    # The stratum of a ray limit is read off the parabolic of its direction,
    # so no relevant orbit is built; at type {a1} the prefan would hold a
    # cone for every parabolic of most orbits of W(E7).
    f = _e7_datum_file(tmp_path)
    for t in ("a1", "a1,a2,a3"):
        for v in ("--v=1,-2,3,0,-1,2,-3", "--v=0,0,0,0,0,0,0", "--v=1,0,0,-1/2,0,0,0"):
            argv = ("limit", "--datum-file", str(f), "--cap", "2903040", "--type", t)
            proc, cpu = _timed_child(*argv, "--u0=1,2,3,4,5,6,7", v)
            assert proc.returncode == 0, proc.stderr
            assert cpu < 1, (t, v)


def test_a_long_word_is_multiplied_out_and_named_once(tmp_path, capsys):
    # s_i s_i = 1, so pairs spliced into a reduced word leave its element.
    longest = oracles.matrix_weyl_group(build_named("B3"), 48)[0][-1]
    rng = random.Random(5)
    letters = iter(longest.word)
    at = set(rng.sample(range(50000), len(longest.word)))
    word = []
    for k in range(50000):
        if k in at:
            word.append(next(letters) + 1)
        i = rng.randint(1, 3)
        word += [i, i]
    argv = ("cone", "--datum", "B3", "--type", "a1", "--label", "a2")
    short = ",".join(str(i + 1) for i in longest.word)
    reduced, _ = _report(tmp_path, capsys, *argv, "--word", short)
    start = time.process_time()
    spliced, _ = _report(tmp_path, capsys, *argv, "--word", ",".join(map(str, word)))
    assert time.process_time() - start < 1.0
    assert spliced["parabolic"] == reduced["parabolic"]
    assert reduced["parabolic"]["word"] != []


def test_explicit_cap_bounds_the_whole_command():
    # |W(A6)| = 5040 is above the default cap of 1152.
    proc = _run_child("relevant", "--datum", "A6", "--type", "a1", "--cap", "6000")
    assert proc.returncode == 0, proc.stderr
    assert "{a1,a2,a3,a4,a5,a6}" in proc.stdout
    proc = _run_child("relevant", "--datum", "A6", "--type", "a1")
    assert proc.returncode == 3
    assert "exceeded cap 1152" in proc.stderr


def test_pgl_honours_the_enumeration_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("WEYLSCOPE_ENUM_CAP", "5")
    code, _, err = _run(capsys, "pgl", "--values", "0,-1,-2")
    assert code == 3
    assert "WEYLSCOPE_ENUM_CAP" in err


def test_hostile_numbers_exit_with_one_line(tmp_path, capsys):
    f = tmp_path / "datum.json"
    for text in ('{"rank": ' + "9" * 5000 + ', "cartan": [[2]]}', "[" * 100000):
        f.write_text(text)
        code, _, err = _run(capsys, "datum-info", "--datum-file", str(f))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
    for values in ("0,1e300000", "0,-1E-300000", "0," + "7" * 5000):
        code, out, err = _run(capsys, "pgl", "--values", values)
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_long_json_integers_exit_with_one_line(tmp_path, capsys):
    poly = tmp_path / "poly.json"
    for monomial, where in (
        ('{"exponents": {"0": ' + "9" * 4299 + "}}", "exponents[0]"),
        ('{"exponents": {"' + "7" * 4000 + '": 1}}', "exponent key"),
    ):
        poly.write_text("[" + monomial + "]")
        code, out, err = _run(
            capsys, "seminorm", "--datum", "A2", "--type", "a1",
            "--poly", str(poly), "--interior=-1000,-1",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert where in err and len(err) < 300
    datum = tmp_path / "datum.json"
    datum.write_text('{"rank": 2, "cartan": [[2, -' + "1" * 101 + '], [-1, 2]]}')
    code, _, err = _run(capsys, "datum-info", "--datum-file", str(datum))
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "cartan[0][1]" in err


# SHA-256 of reports written by the Fraction kernel, before elimination
# became integer (fan A3, fan B3, prefan B3), and by the subset-enumerating
# ray search, before the double description (fan A4, fan D4, prefan B4):
# later kernels must reproduce them byte for byte.
_PINNED_REPORTS = {
    ("fan", "--datum", "A3"): "de672f8fdc8d2080c97e161a914ee15cae31c2c773240e19157c5219ee54b6da",
    ("fan", "--datum", "B3"): "19326e618a535172b0921c47b8f998bea3aaefff2c2f4976082074c76daef7b6",
    ("prefan", "--datum", "B3", "--type", "a1"): (
        "dd526d260e2826a6b0f6b9b66bb1813fc7aff60111b59b6fe180e8abfd5792a0"
    ),
    ("fan", "--datum", "A4"): "292684e248f142caa6c882f2e5e623a0c09a185f9b117ea40ae321380177e867",
    ("fan", "--datum", "D4"): "20187d3db79fa4745b08ea263ea3c78e7a3e43a9cfafd56b2b92ec6673e1ef8e",
    ("prefan", "--datum", "B4", "--type", "a1,a2"): (
        "5a19efa6cadd879a4590463839aa8cf2f02c37c8dc58e90e28dfaa3fd8139f88"
    ),
    ("relevant", "--datum", "A5", "--type", "a1", "--all"): (
        "abba7b9640d668b0d56cfb5efa74017e3aaf52b5bf58afbfaf566d3d96761beb"
    ),
    (
        "stabilizer", "--datum", "A5", "--type", "a1,a2", "--stratum", "a1,a2,a4",
        "--word", "1,2,3", "--residual=1,2,3,4,5",
    ): "67c8cc15fecee926c49aed529527e68b06eed67de5d19d594ad2dc75d18a6116",
    # Recorded through --datum-file (the same Cartan matrix, labelled F4 and
    # B5) before these data had names, and before relevancy was decided
    # once per label.
    ("relevant", "--datum", "F4", "--type", "a1", "--all"): (
        "ce80bdc48ca5e90c5521146e1e8aa553009d92a192f1330228f46ba412665452"
    ),
    ("relevant", "--datum", "B5", "--type", "a1", "--all", "--cap", "4000"): (
        "bec9cf642803d8cdbaee98b278f8a7ad5602d7c1584189503574087308ba9eb4"
    ),
    # The two benchmarked reports that had no pin, recorded before reports
    # were streamed.
    ("fan", "--datum", "C3"): "5440644c366d299f5805d8524c9e74fa57a14d1ae9935a466d820f94cc748ecc",
    ("prefan", "--datum", "A4", "--type", "a1"): (
        "9896b34c10c764efaac415dcb4104ba3d5b16b4d86f5742a695767f4d738085c"
    ),
}


@pytest.mark.parametrize("argv", sorted(_PINNED_REPORTS))
def test_reports_match_pinned_digests(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    code, _, _ = _run(capsys, *argv, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_REPORTS[argv]


def test_f4_prefan_stdout_matches_its_pinned_digest(capsys):
    """The whole stdout (summary line and report) of the F4 prefan of type
    {a2}, recorded while the parabolics of every label were still built."""
    code, out, _ = _run(capsys, "prefan", "--datum", "F4", "--type", "a2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "677a7092aaf3bcc75779ecd0c771ab22b9e3ba8bc23cb291e7300779defdeff1"
    )


_RANK_AT_MOST_4 = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "G2", "A1xA1", "F4"
)


def _streamed_report(capsys, summary_lines, *argv):
    """The stdout of a command after its summary lines."""
    code, out, err = _run(capsys, *argv)
    assert code == 0 and err == ""
    return out.split("\n", summary_lines)[summary_lines]


@pytest.mark.parametrize("name", _RANK_AT_MOST_4)
def test_streamed_fan_matches_the_oracle_report(capsys, name):
    expected = oracles.report_text(oracles.fan_report(build_named(name))) + "\n"
    assert _streamed_report(capsys, 1, "fan", "--datum", name) == expected


@pytest.mark.parametrize("name", [n for n in _RANK_AT_MOST_4 if build_named(n).rank <= 3])
def test_streamed_prefan_matches_the_oracle_report(capsys, name):
    datum = build_named(name)
    for t in oracles.all_type_labels(datum.rank):
        expected = oracles.report_text(oracles.prefan_report(datum, t)) + "\n"
        tokens = ",".join(f"a{i + 1}" for i in sorted(t))
        argv = ("prefan", "--datum", name, f"--type={tokens}")
        assert _streamed_report(capsys, 1, *argv) == expected, argv


@pytest.mark.parametrize("name", ["A2", "A3", "A4", "A5", "B4", "F4"])
def test_streamed_relevant_all_matches_the_oracle_report(capsys, name):
    datum = build_named(name)
    for t in oracles.all_type_labels(datum.rank):
        expected = oracles.report_text(oracles.relevant_all_report(datum, t)) + "\n"
        tokens = ",".join(f"a{i + 1}" for i in sorted(t))
        argv = ("relevant", "--datum", name, f"--type={tokens}", "--all")
        assert _streamed_report(capsys, 2, *argv) == expected, argv


# Quotes, backslashes, every control character, and non-ASCII characters:
# in the BMP, beyond it, and lone surrogates.
_REPORT_TEXT = st.text(
    st.sampled_from(
        list('"\\/ aZ~') + [chr(i) for i in range(32)]
        + ["\x7f", "é", "€", "\u2028", "\ud800", "\udfff", "\U0001f600"]
    )
)
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**300), 10**300) | _REPORT_TEXT,
    lambda children: (
        st.lists(children)
        | st.lists(children).map(tuple)
        | st.dictionaries(_REPORT_TEXT, children)
    ),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(value=_REPORT_VALUES)
def test_the_encoder_writes_what_json_dumps_writes(value):
    assert "".join(cli._encode(value)) == oracles.report_text(value)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(items=st.lists(_REPORT_VALUES, max_size=4), key=_REPORT_TEXT)
def test_an_encoded_list_writes_what_the_list_would(items, key):
    lazy = cli._EncodedList(lambda level: ("".join(cli._encode(x, level)) for x in items))
    assert "".join(cli._encode({key: lazy})) == oracles.report_text({key: items})


@pytest.mark.parametrize(
    "value",
    [1.5, float("nan"), {"a": [0.0]}, {1: "a"}, {"a": 1, None: 2}, [{(1,): 1}],
     {"a": Fraction(1, 2)}, {"a": {1, 2}}, b"x"],
)
def test_the_encoder_rejects_what_reports_do_not_hold(value):
    with pytest.raises(TypeError):
        "".join(cli._encode(value))


def test_bad_type_token(capsys):
    code, _, err = _run(capsys, "prefan", "--datum", "A2", "--type", "a9")
    assert code == 2
    assert "a9" in err


def test_point_file_stratum(tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text(
        json.dumps({"stratum": {"label": ["a2"], "word": []}, "residual": ["0", "7"]})
    )
    report, _ = _report(
        tmp_path,
        capsys,
        "stabilizer",
        "--datum",
        "A2",
        "--type",
        "a1",
        "--point-file",
        str(point),
    )
    assert report["stratum"] == {"label": ["a2"], "word": []}


def test_a_point_file_with_interior_and_stratum_is_refused(tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"interior": [1, 2], "stratum": ["a1"]}))
    where = ("--datum", "A2", "--type", "a1")
    assert _run(capsys, "stabilizer", *where, "--point-file", str(point)) == (
        2, "", f'error: {point}: give exactly one of "interior" and "stratum"\n'
    )


_STABILIZER_A2 = ["stabilizer", "--datum", "A2", "--type", "a1", "--point-file"]


@pytest.mark.parametrize(
    "argv,data,where,field",
    [
        (
            _STABILIZER_A2,
            {"stratum": {"label": ["a1"], "words": [2]}, "residual": [1, 2]},
            ": stratum",
            "words",
        ),
        (_STABILIZER_A2, {"interior": [1, 2], "residual": [5, 5]}, "", "residual"),
        (
            ["datum-info", "--datum-file"],
            {"rank": 2, "cartan": [[2, -1], [-1, 2]], "root": [[1, 0]]},
            "",
            "root",
        ),
        (
            ["limit", "--datum", "A2", "--type", "a1", "--ray-file"],
            {"u0": [1, 2], "v": [0, 1], "V": [1, 1]},
            "",
            "V",
        ),
        (["pgl", "--seminorm-file"], {"values": ["0", "-1"], "kernel": [1]}, "", "kernel"),
        (
            ["seminorm", "--datum", "A2", "--type", "a1", "--interior=0,0", "--poly"],
            [{"exponents": {}, "coeff": "5"}],
            ": monomial 0",
            "coeff",
        ),
    ],
    ids=["stratum-word", "interior-residual", "datum-roots", "ray", "pgl", "monomial"],
)
def test_input_files_refuse_a_field_their_reader_does_not_read(
    tmp_path, capsys, argv, data, where, field
):
    """A misspelt or misplaced field is refused, not dropped: each of these
    files ran to exit 0 on what was left of it."""
    path = tmp_path / "data.json"
    path.write_text(json.dumps(data))
    assert _run(capsys, *argv, str(path)) == (
        2, "", f'error: {path}{where}: unknown field "{field}"\n'
    )


def test_seminorm_evaluates_its_chart_once(tmp_path, capsys, monkeypatch):
    """seminorm reads the value and the norm off one evaluation of its chart,
    the accepting one or the one --chart names; besides that, only the
    stratum check of stratum_of scans the charts, once."""
    from weylscope import apartment, polyfan

    calls = []
    evaluate = polyfan.eval_at_boundary

    def counted(point, phi):
        calls.append(phi)
        return evaluate(point, phi)

    monkeypatch.setattr(polyfan, "eval_at_boundary", counted)
    datum = build_named("A3")
    ctx = apartment.make_context(datum, {0})
    x = apartment.stratum_point(ctx, root_data.standard_parabolic(datum, {1}), (1, -2, 3))
    del calls[:]
    apartment.stratum_of(ctx, x)
    scan = len(calls)
    p, psi, _ = apartment._accepting_chart(ctx, x)
    chart = [c for c, _ in ctx.charts].index(p)
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps([{"exponents": {"0": 1, "1": 2}, "log_coeff": "1/2"}]))
    where = ("seminorm", "--datum", "A3", "--type", "a1", "--poly", str(poly), "--stratum", "a2")
    for extra, evaluations in (((), 2 * scan), (("--chart", str(chart)), len(psi) + scan)):
        del calls[:]
        code, _, err = _run(capsys, *where, "--residual=1,-2,3", *extra)
        assert (code, err) == (0, "")
        assert len(calls) == evaluations, extra


def test_seminorm_refuses_an_out_of_range_key_at_every_point(tmp_path, capsys):
    """Generator 0 is -inf on the stratum {a1}, and a key past the chart is
    refused there as it is at an interior point."""
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps([{"exponents": {"0": 1, "99": 1}, "log_coeff": "0"}]))
    where = ("seminorm", "--datum", "A2", "--type", "a1", "--poly", str(poly))
    line = "error: generator index 99 out of range for a chart with 2 generators\n"
    for point in (["--interior=1,2"], ["--stratum", "a1", "--residual=1,2"]):
        assert _run(capsys, *where, *point) == (2, "", line)


def test_render_structure(tmp_path, capsys):
    out = tmp_path / "pic.svg"
    code, stdout, _ = _run(
        capsys, "render", "--datum", "A2", "--type", "a1", "--out", str(out)
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith('<?xml version="1.0"')
    assert text.count("<polygon") == 3
    assert text.count("<line") == 3
    assert 'width="480"' in text
    assert "svg written to" in stdout or str(out) in stdout


def test_render_is_byte_deterministic(tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    for path in (a, b):
        code, _, _ = _run(
            capsys, "render", "--datum", "G2", "--type", "", "--out", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().count("<polygon") == 12


# SHA-256 of the pictures drawn while the renderer still lived in the CLI
# module: the renderer must keep drawing them byte for byte.
_PINNED_SVGS = {
    ("A2", "a1"): "2912f255a78637cc1151a25c504380ce9a409680a4dc820a17874d0fa9845038",
    ("B2", "a1"): "dc86e8e0b913fae5be177e9522940a4c2da7a372fad0e62c02b1e3f9692264ca",
    ("G2", ""): "30bcfd879a09d039bcbaac0bc948ab932ab0a20a4b7d0e3e5f7b3496d67c352b",
    ("G2", "a1"): "f157d67533443640399de6bf076262212d7e4f6cab5635c8ea622e9108d2981c",
}


@pytest.mark.parametrize("datum,t", sorted(_PINNED_SVGS))
def test_render_matches_pinned_digests(tmp_path, capsys, datum, t):
    out = tmp_path / "pic.svg"
    code, _, _ = _run(capsys, "render", "--datum", datum, "--type", t, "--out", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == _PINNED_SVGS[datum, t]


def test_no_floats_outside_the_renderer():
    """The library is exact: float(), float literals and the math module
    appear only in weylscope/render.py, apart from the integer functions
    gcd and lcm."""
    found = []
    for path in sorted(Path(weylscope.__file__).parent.glob("*.py")):
        if path.name == "render.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
                or isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                or isinstance(node, ast.Import)
                and any(alias.name == "math" for alias in node.names)
                or isinstance(node, ast.ImportFrom)
                and node.module == "math"
                and any(alias.name not in ("gcd", "lcm") for alias in node.names)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_render_requires_rank_two(tmp_path, capsys):
    out = tmp_path / "pic.svg"
    code, _, err = _run(
        capsys, "render", "--datum", "A3", "--type", "", "--out", str(out)
    )
    assert code == 2
    assert "rank" in err


def test_errors_name_the_parabolic_and_the_type(capsys):
    for word, name in (([], "{a3}"), (["--word", "2"], "{a3} w=s2")):
        code, out, err = _run(
            capsys, "stabilizer", "--datum", "A3", "--type", "a1", "--stratum", "a3", *word
        )
        assert code == 2 and out == ""
        assert err == f"error: parabolic {name} does not index a stratum of type {{a1}}" \
            " (not relevant)\n"


def test_a_stabilizer_builds_only_the_orbit_of_its_type(capsys, monkeypatch):
    """On a fresh A5 table, stabilizer at type {a1,a2} builds one stratum
    cone and the charts of its type: the orbit of {a1,a2} and no other,
    for an interior point and for a conjugated stratum."""
    datum = build_named("A5")
    for point in (
        ("--interior=-1,2,0,-3,1",),
        ("--stratum", "a1,a2,a4", "--word", "3", "--residual", "0,1,0,2,0"),
    ):
        tables = root_data.DatumTables(datum)
        monkeypatch.setitem(root_data._TABLES, datum, tables)
        code, _, err = _run(capsys, "stabilizer", "--datum", "A5", "--type", "a1,a2", *point)
        assert code == 0, err
        assert list(tables.orbits) == [frozenset({0, 1})]


def test_a_bad_stratum_token_names_the_flag_it_came_from(tmp_path, capsys):
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"stratum": ["a1", "-"]}))
    where = ("--datum", "A3", "--type", "a1")
    assert _run(capsys, "stabilizer", *where, "--stratum", "-") == (
        2, "", "error: --stratum: bad simple-root token '-'\n"
    )
    assert _run(capsys, "stabilizer", *where, "--point-file", str(point)) == (
        2, "", f"error: {point}: stratum: bad simple-root token '-'\n"
    )
    assert _run(capsys, "cone", *where, "--label", "-") == (
        2, "", "error: --label: bad simple-root token '-'\n"
    )


def test_python_m_compiles_cli_once():
    """Run as `python -m weylscope.cli`, the module is weylscope.cli for the
    command modules that import it, so no second copy of it is imported,
    and the command says what the console script says."""
    pinned = next(a for a in _PINNED_REPORTS if a[0] == "stabilizer")
    for argv in (pinned, ("stabilizer", "--datum", "A3", "--type", "a1", "--stratum", "a3")):
        timed = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "weylscope.cli", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=30,
        )
        imports = [line for line in timed.stderr.splitlines() if line.startswith("import time:")]
        assert imports and not any(line.endswith("| weylscope.cli") for line in imports)
        script = "import sys; from weylscope import cli; sys.exit(cli.main())"
        plain = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=_child_env(), timeout=30,
        )
        errors = [line for line in timed.stderr.splitlines() if line not in imports]
        assert (timed.returncode, timed.stdout, errors) == (
            plain.returncode, plain.stdout, plain.stderr.splitlines()
        ), argv


def test_importtime_lists_the_command_module_a_command_loads():
    """A point or cone command imports its module the way an import
    statement does, so `python -X importtime` times it as it times every
    other import."""
    for argv, module in (
        (("limit", "--datum", "A2", "--type", "a1", "--u0=1,2", "--v=0,-1"), "weylscope.cli_points"),
        (("fan", "--datum", "A2"), "weylscope.cli_cones"),
    ):
        timed = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "weylscope.cli", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=30,
        )
        assert timed.returncode == 0, timed.stderr
        assert any(line.endswith(f"| {module}") for line in timed.stderr.splitlines()), argv


# Small JSON values, nested at most three deep with at most four entries per
# container.  Object keys are the ones the file's command reads, and strings
# favour values those keys accept.
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-2, 2, width=16)
    | st.sampled_from(["a1", "a2", "B2", "-inf", "1/2", "0", "", "x"])
)


def _json_values(keys, depth):
    if depth == 0:
        return _JSON_LEAVES
    inner = _json_values(keys, depth - 1)
    return _json_object(keys, inner) | st.lists(inner, max_size=4) | _JSON_LEAVES


def _json_object(keys, inner):
    return st.dictionaries(st.sampled_from(keys), inner, max_size=4)


def _json_files(keys):
    """Any value, with the shapes input files take (an object, a list of
    objects) drawn more often."""
    return (
        _json_object(keys, _json_values(keys, 2))
        | st.lists(_json_object(keys, _json_values(keys, 1)), max_size=4)
        | _json_values(keys, 3)
    )


_POLY = '[{"exponents": {"0": 1}, "log_coeff": "2"}]'
_FILE_COMMANDS = {
    "--poly": (
        ["seminorm", "--datum", "A2", "--type", "a1", "--interior", "0,0"],
        ["exponents", "log_coeff", "character", "0", "1"],
    ),
    "--point-file": (
        ["stabilizer", "--datum", "A2", "--type", "a1"],
        ["interior", "stratum", "residual", "label", "word"],
    ),
    "--ray-file": (["limit", "--datum", "A2", "--type", "a1"], ["u0", "v"]),
    "--seminorm-file": (["pgl"], ["values"]),
    "--datum-file": (["datum-info"], ["name", "rank", "cartan", "roots", "label"]),
}
_FILE_VALUES = {flag: _json_files(keys) for flag, (_, keys) in _FILE_COMMANDS.items()}


@pytest.mark.parametrize(
    "argv,text",
    [
        (_FILE_COMMANDS["--poly"][0] + ["--poly"], '[{"exponents": [1, 2]}]'),
        (_FILE_COMMANDS["--poly"][0] + ["--poly"], '[{"exponents": {"0": 1}, "character": 5}]'),
        (
            _FILE_COMMANDS["--point-file"][0] + ["--point-file"],
            '{"stratum": {"label": ["a1"], "word": 3}}',
        ),
        (["pgl", "--seminorm-file"], '{"values": 5}'),
    ],
)
def test_json_files_of_the_wrong_shape_exit_with_one_line(tmp_path, capsys, argv, text):
    path = tmp_path / "data.json"
    path.write_text(text)
    code, out, err = _run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}:") and err.count("\n") == 1


@pytest.mark.parametrize("flag", sorted(_FILE_COMMANDS))
@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_json_files_of_any_shape_exit_cleanly(flag, data):
    """Whatever JSON an input file holds, the command exits 0, 2 or 3, and
    an error is one line on stderr, never a traceback."""
    value = data.draw(_FILE_VALUES[flag])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "data.json")
        path.write_text(json.dumps(value))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(_FILE_COMMANDS[flag][0] + [flag, str(path)])
    assert code in (0, 2, 3)
    if code:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# Command-line tokens by the kind of value a flag takes: (valid, malformed).
_LONG = "9" * 30
_FLAG_TOKENS = {
    "datum": (["A1", "A2", "A3", "B2", "G2"], ["E9", "a2", "", "A0"]),
    "type": (
        ["", "none", "a1", "a2", "a1,a2", "1,3", "A3"],
        ["a9", "a0", "x", "a1,,a2", "-1", "a" + _LONG],
    ),
    "word": (["", "1", "s2,s1", "1,2,1"], ["0", "9", "s", "x,1", _LONG]),
    "vector": (
        ["0", "0,0", "1,-2", "1/2,3", "1e5,0", "0,0,0", "1,2,3", "-1,0,1/3"],
        ["x,1", "1/0,1", "1e999,0", "", ",", "1," + _LONG],
    ),
    "cap": (["100", _LONG, "24", "1"], ["0", "-1", "-7", "-" + _LONG, "x", "1.5", ""]),
    "kind": (["type", "weyl", "max"], ["bogus"]),
}
_FLAG_KINDS = {
    "--datum": "datum", "--type": "type", "--label": "type", "--to-type": "type",
    "--stratum": "type", "--word": "word", "--interior": "vector", "--residual": "vector",
    "--u0": "vector", "--v": "vector", "--cap": "cap", "--kind": "kind",
}
_FLAG_COMMANDS = {
    "relevant": ("--datum", "--type", "--all", "--cap"),
    "cone": ("--datum", "--type", "--label", "--word", "--kind", "--cap"),
    "fan": ("--datum", "--cap"),
    "prefan": ("--datum", "--type", "--cap"),
    "stabilizer": ("--datum", "--type", "--cap"),
    "limit": ("--datum", "--type", "--u0", "--v", "--cap"),
    "project": ("--datum", "--type", "--to-type", "--cap"),
}
_ALWAYS = ("--datum", "--label", "--to-type", "--poly")
# The point flags of stabilizer and project: one source mostly, else both
# or none.
_POINT_SOURCES = (
    ("--interior",), ("--stratum",), ("--stratum", "--word"), ("--stratum", "--residual"),
    ("--stratum", "--word", "--residual"), ("--interior", "--stratum"), (),
)


@st.composite
def _command_lines(draw, commands=_FLAG_COMMANDS):
    """A command with its datum and required flags, each other flag with
    odds of three in four, and one value in four malformed."""
    command = draw(st.sampled_from(sorted(commands)))
    flags = list(commands[command])
    if command in ("stabilizer", "project", "seminorm"):
        flags += draw(st.sampled_from(_POINT_SOURCES))
    argv = [command]
    for flag in flags:
        if flag not in _ALWAYS and draw(st.integers(0, 3)) == 0:
            continue
        if flag == "--all":
            argv.append(flag)
            continue
        valid, malformed = _FLAG_TOKENS[_FLAG_KINDS[flag]]
        tokens = malformed if draw(st.integers(0, 3)) == 0 else valid
        argv.append(f"{flag}={draw(st.sampled_from(tokens))}")
    return argv


def _assert_exits_cleanly(argv):
    """The command exits 0, 2 or 3 (argparse's own exit counts as 2), never
    with a traceback, and an error ends stderr with an error: line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code:
        assert "error:" in err.getvalue().splitlines()[-1]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_command_lines())
def test_command_line_flags_of_any_value_exit_cleanly(argv):
    _assert_exits_cleanly(argv)


# Files for the flags that read or write one: "{dir}" stands for a
# directory holding a valid file of each kind and a malformed one.
_FLAG_TOKENS.update({
    "poly": (["{dir}/poly.json"], ["{dir}/bad.json", "{dir}/missing.json"]),
    "seminorm": (["{dir}/seminorm.json"], ["{dir}/poly.json", "{dir}/bad.json"]),
    "datum-file": (["{dir}/datum.json"], ["{dir}/seminorm.json", "{dir}/missing.json"]),
    "out": (["{dir}/out"], ["{dir}", "{dir}/missing/out"]),
    "chart": (["0", "1", "2"], ["-1", "99", "x", _LONG]),
    "values": (
        ["0", "0,-1", "0,-1,-inf", "1/2,-3,0,-inf", "0,0,0,0"],
        ["-inf,-inf", "", "x,0", "0,1/0", "+inf,0", "1e999,0", "0," + _LONG],
    ),
})
_FLAG_KINDS.update({
    "--poly": "poly", "--seminorm-file": "seminorm", "--datum-file": "datum-file",
    "--out": "out", "--chart": "chart", "--values": "values",
})
_MORE_FLAG_COMMANDS = {
    "seminorm": ("--datum", "--type", "--poly", "--chart", "--cap"),
    "pgl": ("--values", "--seminorm-file"),
    "render": ("--datum", "--type", "--cap", "--out"),
    "datum-info": ("--datum", "--datum-file", "--cap", "--out"),
}
_FLAG_FILES = {
    "poly.json": '[{"exponents": {"0": 1, "1": 2}, "log_coeff": "1/2"}, {"exponents": {}}]',
    "seminorm.json": '{"values": ["0", "-1/2", "-inf"]}',
    "datum.json": '{"rank": 2, "cartan": [[2, -1], [-1, 2]]}',
    "bad.json": '[{"exponents": ',
}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_command_lines(_MORE_FLAG_COMMANDS))
def test_flags_of_seminorm_pgl_render_and_datum_info_exit_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _FLAG_FILES.items():
            Path(tmp, name).write_text(text)
        _assert_exits_cleanly([a.replace("{dir}", tmp) for a in argv])


_SUCCESS_RANKS = {"A1": 1, "A2": 2, "B2": 2, "G2": 2, "A1xA1": 2, "A3": 3}
_COORDINATES = st.one_of(
    st.integers(-5, 5).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 4)),
)
_CONSTANT_POLY = '[{"exponents": {}, "log_coeff": "1/2"}]'


@st.composite
def _valid_command_lines(draw):
    """limit, stabilizer, project or seminorm on a named datum, with a valid
    type, point vectors of the datum's rank, a target type containing the
    type for project, and a constant polynomial for seminorm."""
    name = draw(st.sampled_from(sorted(_SUCCESS_RANKS)))
    rank = _SUCCESS_RANKS[name]
    letters = st.sets(st.integers(1, rank))
    t = draw(letters)

    def tokens(label):
        return ",".join(f"a{i}" for i in sorted(label))

    def point():
        return ",".join(draw(st.lists(_COORDINATES, min_size=rank, max_size=rank)))

    command = draw(st.sampled_from(("limit", "project", "seminorm", "stabilizer")))
    argv = [command, "--datum", name, f"--type={tokens(t)}"]
    if command == "limit":
        return argv + [f"--u0={point()}", f"--v={point()}"]
    argv.append(f"--interior={point()}")
    if command == "project":
        argv.append(f"--to-type={tokens(t | draw(letters))}")
    if command == "seminorm":
        argv += ["--poly", "{dir}/poly.json"]
    return argv


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_valid_command_lines())
def test_valid_points_of_limit_stabilizer_project_and_seminorm_succeed(argv):
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "poly.json").write_text(_CONSTANT_POLY)
        out = Path(tmp, "report.json")
        argv = [a.replace("{dir}", tmp) for a in argv] + ["--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code == 0, (argv, err.getvalue())
        assert isinstance(json.loads(out.read_text()), dict)


def test_unwritable_out_paths_exit_with_one_line(tmp_path, capsys):
    missing = tmp_path / "missing" / "out"
    for argv in (
        ["datum-info", "--datum", "A2"],
        ["render", "--datum", "A2", "--type", "a1"],
    ):
        code, _, err = _run(capsys, *argv, "--out", str(missing))
        assert code == 2
        assert err == f"error: {missing}: No such file or directory\n"


def test_missing_point_source(capsys):
    code, _, err = _run(
        capsys, "stabilizer", "--datum", "A2", "--type", "a1"
    )
    assert code == 2
    assert "--interior" in err


def test_no_arguments_shows_usage():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def _outcome(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv",
    [("--help",), ("-h", "fan"), (), ("bogus",)]
    + [(name, "--help") for name in cli._SUBCOMMANDS]
    + [(name, "--bogus") for name in cli._SUBCOMMANDS]
    + [(name, "stray") for name in cli._SUBCOMMANDS]
    + [
        ("cone", "--datum", "A2"),
        ("seminorm", "--datum", "A2", "--interior", "0,0"),
        ("project", "--datum", "A2", "--interior", "0,0"),
        ("render", "--datum", "A2"),
        ("cone", "--datum", "A2", "--label", "a1", "--kind", "bad"),
        ("fan", "--datum", "A2", "--cap", "x"),
        ("fan", "--datum", "B3", "extra"),
    ],
)
def test_the_subcommand_parser_says_what_the_full_parser_says(capsys, monkeypatch, argv):
    """A process that names a subcommand builds that subcommand's arguments
    only; help, usage, errors and exit codes are those of build_parser."""
    lean = _outcome(capsys, argv)
    monkeypatch.setattr(cli, "_command_parser", lambda name: cli.build_parser())
    assert lean == _outcome(capsys, argv)
    assert lean[0] in (0, 2) and (lean[1] or lean[2])


@pytest.mark.parametrize(
    "argv, error",
    [
        ((), "the following arguments are required: subcommand"),
        (("bogus",), "argument subcommand: invalid choice: 'bogus'"),
    ],
)
def test_the_full_parser_calls_the_subcommand_argument_subcommand(capsys, argv, error):
    """Errors about the subcommand itself name the argument by its dest.
    Only a parser of one subcommand spells the subcommand list out as a
    metavar, and a command line that reaches it has a valid subcommand."""
    code, out, err = _outcome(capsys, argv)
    assert (code, out) == (2, "")
    assert f"\nweylscope: error: {error}" in err


def test_a_subcommand_parser_is_built_once_per_process(capsys):
    cli.main(["fan", "--datum", "A1"])
    before = cli._command_parser.cache_info()
    cli.main(["fan", "--datum", "A1"])
    after = cli._command_parser.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize(
    "values, dimension",
    [("1,2,3,4,5,6,7,8", 8), ("1", 1), (",".join(["x"] * 10**5), 10**5)],
)
def test_pgl_outside_dimensions_2_to_7_exits_with_one_line(capsys, values, dimension):
    """The dimension is checked before any value is parsed, and names no
    datum the user did not give."""
    code, out, err = _run(capsys, "pgl", f"--values={values}")
    assert (code, out) == (2, "")
    assert err == (
        "error: the diagonal dictionary covers dimensions 2..7 "
        f"(the named data A1-A6), got dimension {dimension}\n"
    )
