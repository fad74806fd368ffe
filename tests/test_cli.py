"""Command-line surface: subcommands, exit codes, determinism, schema gate."""

import json
import subprocess
import sys
import tempfile

import pytest

GRID_1D = '{"factor_dims":[1],"depths":[2]}'


def run_cli(args, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "dyadichardy.cli"] + args,
        capture_output=True, text=True, env=full_env,
    )


@pytest.fixture
def atom_path(tmp_path):
    out = tmp_path / "atom.json"
    res = run_cli(["generate", "--kind", "haar-atom", "--grid", GRID_1D,
                   "--output", str(out)])
    assert res.returncode == 0
    return str(out)


def test_generate_constant_all_ones(tmp_path):
    res = run_cli(["generate", "--kind", "constant", "--grid", GRID_1D])
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["values"] == [1.0, 1.0, 1.0, 1.0]


def test_generate_unknown_kind():
    res = run_cli(["generate", "--kind", "nope", "--grid", GRID_1D])
    assert res.returncode == 1


def test_malformed_grid_descriptor():
    res = run_cli(["generate", "--kind", "constant",
                   "--grid", '{"factor_dims":[1]}'])
    assert res.returncode == 1
    assert "error" in res.stderr


def test_norms_h1_of_normalized_atom(atom_path):
    res = run_cli(["norms", "h1", "--input", atom_path])
    assert res.returncode == 0
    assert json.loads(res.stdout)["value"] == pytest.approx(1.0, rel=1e-12)


def test_decompose_round_trip(atom_path):
    res = run_cli(["decompose", "--input", atom_path])
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["reconstruction_max_error"] <= 1e-12


def test_bmo_dyadic_cap_exit_3(tmp_path):
    big = tmp_path / "big.json"
    res = run_cli(["generate", "--kind", "random-uniform",
                   "--grid", '{"factor_dims":[1,1],"depths":[3,2]}',
                   "--output", str(big)])
    assert res.returncode == 0
    res = run_cli(["norms", "bmo-dyadic", "--input", str(big), "--exact"],
                  env={"DH_CAP_CELLS": "22"})
    assert res.returncode == 3
    assert "cap" in res.stderr


def test_cap_cells_env_override(atom_path):
    # 4-cell input passes even with a 4-cell cap, fails with a 3-cell cap
    assert run_cli(["norms", "bmo-dyadic", "--input", atom_path, "--exact"],
                   env={"DH_CAP_CELLS": "4"}).returncode == 0
    assert run_cli(["norms", "bmo-dyadic", "--input", atom_path, "--exact"],
                   env={"DH_CAP_CELLS": "3"}).returncode == 3


def test_tau_report(tmp_path):
    mask = tmp_path / "E.json"
    mask.write_text(json.dumps(
        {"grid": {"factor_dims": [1], "depths": [2]}, "cells": [0]}))
    res = run_cli(["tau", "--set", str(mask), "--delta", "0.5"])
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["tau"]["values"][0] == 1.0
    assert 0.0 <= min(data["tau"]["values"])


def test_verify_exit_codes():
    res = run_cli(["verify", "lemma-a", "--trials", "3"])
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert len(lines) == 4  # 3 trials + summary
    assert json.loads(lines[-1])["summary"]["passed"] is True


def test_determinism_excluding_meta():
    a = run_cli(["verify", "split", "--trials", "3", "--seed", "9"])
    b = run_cli(["verify", "split", "--trials", "3", "--seed", "9"])
    assert a.stdout == b.stdout  # timestamps only on stderr


def test_run_spec_valid(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "schema": "experiment-v1",
        "command": "norms",
        "subcommand": "h1",
        "grid": {"factor_dims": [1], "depths": [2]},
        "inputs": {"f": {"kind": "haar-atom"}},
    }))
    res = run_cli(["run", "--spec", str(spec)])
    assert res.returncode == 0
    assert json.loads(res.stdout)["value"] == pytest.approx(1.0)


def test_run_spec_unknown_field_rejected(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "schema": "experiment-v1", "command": "norms", "mystery": 1}))
    res = run_cli(["run", "--spec", str(spec)])
    assert res.returncode == 1
    assert "schema" in res.stderr


def test_generate_round_trip_bit_exact(tmp_path):
    out = tmp_path / "f.json"
    res = run_cli(["generate", "--kind", "random-uniform", "--grid", GRID_1D,
                   "--seed", "5", "--output", str(out)])
    assert res.returncode == 0
    first = json.loads(out.read_text())
    res2 = run_cli(["norms", "sf", "--input", str(out)])
    assert res2.returncode == 0
    # re-emitting the same generator reproduces identical bytes
    out2 = tmp_path / "g.json"
    run_cli(["generate", "--kind", "random-uniform", "--grid", GRID_1D,
             "--seed", "5", "--output", str(out2)])
    assert out.read_text() == out2.read_text()
    assert first["values"] == json.loads(out2.read_text())["values"]


def test_csv_format(atom_path):
    res = run_cli(["norms", "h1", "--input", atom_path, "--format", "csv"])
    assert res.returncode == 0
    assert res.stdout.splitlines()[0] == "key,value"
    assert any(line.startswith("value,") for line in res.stdout.splitlines())


def test_missing_input_file():
    res = run_cli(["norms", "h1", "--input", "/nonexistent/f.json"])
    assert res.returncode == 1


def test_run_spec_leaves_no_temp_files(tmp_path, monkeypatch, capsys):
    from dyadichardy import cli
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "schema": "experiment-v1",
        "command": "norms",
        "subcommand": "h1",
        "grid": {"factor_dims": [1], "depths": [2]},
        "inputs": {"f": {"kind": "haar-atom"}},
    }))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert cli.main(["run", "--spec", str(spec)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.0)
    assert not list(tmp_path.glob("dyadichardy-*.json"))


@pytest.mark.parametrize("bad, quantity", [
    ("NaN", ["h1"]),
    ("Infinity", ["bmo-little", "--p", "2"]),
])
def test_non_finite_input_exit_1(tmp_path, bad, quantity):
    path = tmp_path / "f.json"
    path.write_text(
        '{"grid": {"factor_dims": [1], "depths": [2]}, "values": [0.0, %s, 1.0, 2.0]}' % bad)
    res = run_cli(["norms", *quantity, "--input", str(path)])
    assert res.returncode == 1
    assert "finite" in res.stderr
    assert res.stdout == ""


def test_bmo_dyadic_exact_memory_cap_exit_3(tmp_path):
    # A 32-cell grid passes a raised cell cap, but its 2^32-mask table would
    # need tens of GiB: the oracle refuses before allocating.
    f = tmp_path / "f32.json"
    assert run_cli(["generate", "--kind", "random-uniform",
                    "--grid", '{"factor_dims":[1],"depths":[5]}',
                    "--output", str(f)]).returncode == 0
    res = run_cli(["norms", "bmo-dyadic", "--input", str(f), "--exact",
                   "--cap-cells", "64"])
    assert res.returncode == 3
    assert "masks" in res.stderr
