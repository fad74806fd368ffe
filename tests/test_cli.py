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


def _main_stdout(capsys, argv):
    from dyadichardy import cli
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _write_function(tmp_path, dims, depths, seed, name="f.json"):
    from dyadichardy import ProductGrid, generators
    path = tmp_path / name
    f = generators.random_uniform(ProductGrid(dims, depths), seed=seed)
    path.write_text(json.dumps(f.to_dict()))
    return str(path)


def test_bmo_dyadic_default_is_exact_cut(tmp_path, capsys):
    path = _write_function(tmp_path, (1, 1), (4, 4), 16)
    code, out = _main_stdout(capsys, ["norms", "bmo-dyadic", "--input", path,
                                      "--restarts", "4", "--seed", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "cut"
    assert report["value"] == pytest.approx(0.419856, abs=5e-7)
    assert set(report["diagnostics"]) == {"cuts", "boxes", "rectangles", "upper_bound"}
    assert report["value"] <= report["diagnostics"]["upper_bound"]


@pytest.mark.parametrize("flags", [[], ["--shift", "1,0"]])
def test_bmo_dyadic_restarts_and_seed_are_unused(tmp_path, capsys, flags):
    path = _write_function(tmp_path, (1, 1), (3, 3), 2)
    base = ["norms", "bmo-dyadic", "--input", path, *flags]
    code, plain = _main_stdout(capsys, base)
    assert code == 0
    code, seeded = _main_stdout(capsys, base + ["--restarts", "2", "--seed", "7"])
    assert code == 0
    assert seeded == plain


def test_bmo_dyadic_shift_with_exact_exit_1(tmp_path, capsys):
    path = _write_function(tmp_path, (1, 1), (2, 2), 0)
    code, out = _main_stdout(capsys, ["norms", "bmo-dyadic", "--input", path,
                                      "--shift", "1,1", "--exact"])
    assert code == 1
    assert out == ""


def test_bmo_dyadic_shift_honours_cap(tmp_path, capsys):
    path = _write_function(tmp_path, (1, 1), (2, 2), 0)
    base = ["norms", "bmo-dyadic", "--input", path, "--cap", "0.25"]
    code, plain = _main_stdout(capsys, base)
    assert code == 0
    code, shifted = _main_stdout(capsys, base + ["--shift", "0,0"])
    assert code == 0
    plain, shifted = json.loads(plain), json.loads(shifted)
    assert shifted["value"] == plain["value"]
    assert shifted["diagnostics"]["rectangles"] == plain["diagnostics"]["rectangles"]
    code, uncapped = _main_stdout(capsys, base[:-2] + ["--shift", "0,0"])
    assert code == 0
    assert json.loads(uncapped)["diagnostics"]["rectangles"] > plain["diagnostics"]["rectangles"]


@pytest.mark.parametrize("flags", [[], ["--shift", ",".join(["1"] * 12)]])
def test_bmo_dyadic_cut_box_cap_exit_3(tmp_path, capsys, flags):
    # 4096 cells on twelve one-axis factors: 3^12 dyadic boxes, over the cap.
    # The min-cut engine is the only one behind the default and --shift.
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"grid": {"factor_dims": [1] * 12, "depths": [1] * 12},
                                "values": [0.0] * 4096}))
    code, out = _main_stdout(capsys, ["norms", "bmo-dyadic", "--input", str(path), *flags])
    assert code == 3
    assert out == ""


@pytest.mark.parametrize("parameters, flags", [
    ({"p": 1, "rect_class": "dyadic"}, ["bmo-little", "--p", "1", "--rect-class", "dyadic"]),
    ({"p": 2, "rect_class": "aligned"}, ["bmo-little", "--p", "2", "--rect-class", "aligned"]),
    ({"include_mean": True}, ["h1", "--include-mean"]),
    ({"include_mean": False}, ["h1"]),
])
def test_run_spec_matches_flag_invocation(tmp_path, capsys, parameters, flags):
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"grid": {"factor_dims": [1, 1], "depths": [2, 2]},
                                "values": [float(v % 5) for v in range(16)]}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "schema": "experiment-v1", "command": "norms", "subcommand": flags[0],
        "inputs": {"f": {"path": str(path)}}, "parameters": parameters}))
    code, from_spec = _main_stdout(capsys, ["run", "--spec", str(spec)])
    assert code == 0
    code, from_flags = _main_stdout(capsys, ["norms", *flags, "--input", str(path)])
    assert code == 0
    assert from_spec == from_flags


def test_run_spec_threads_rejected(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "schema": "experiment-v1", "command": "norms", "subcommand": "h1",
        "grid": {"factor_dims": [1], "depths": [2]},
        "inputs": {"f": {"kind": "haar-atom"}}, "parameters": {"threads": 2}}))
    code, out = _main_stdout(capsys, ["run", "--spec", str(spec)])
    assert code == 1
    assert out == ""


THEOREM_CONFIG = {"grid": {"factor_dims": [1, 1], "depths": [2, 2]}, "parameters": {"horizon": 1}}


@pytest.mark.parametrize("command", [["verify", "theorem"], ["demo"]])
def test_theorem_trials_flag_exit_1(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(THEOREM_CONFIG))
    from dyadichardy import cli
    assert cli.main([*command, "--config", str(config), "--trials", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--trials" in err
    code, out = _main_stdout(capsys, [*command, "--config", str(config)])
    assert code in (0, 2)
    assert len(out.splitlines()) == 3  # two records and the summary


def test_run_spec_theorem_trials_exit_1(tmp_path, capsys):
    spec = dict(THEOREM_CONFIG, schema="experiment-v1", command="verify", subcommand="theorem")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(spec, parameters={"horizon": 1, "trials": 3})))
    code, out = _main_stdout(capsys, ["run", "--spec", str(path)])
    assert code == 1
    assert out == ""
    path.write_text(json.dumps(spec))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(THEOREM_CONFIG))
    code, from_spec = _main_stdout(capsys, ["run", "--spec", str(path)])
    assert (code, from_spec) == _main_stdout(capsys, ["verify", "theorem", "--config", str(config)])


def test_cli_import_loads_no_scipy_or_networkx():
    # Both are installed on some hosts but undeclared; importing scipy's
    # csgraph alone roughly doubles the CLI's import time and peak RSS.
    code = ("import sys, dyadichardy.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'networkx'}))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


@pytest.mark.parametrize("command", [["verify", "theorem"], ["demo"]])
def test_theorem_seed_flag_overrides_config_seed(tmp_path, capsys, monkeypatch, command):
    from dyadichardy import cli
    seeds = []
    theorem_demo = cli.verify_mod.theorem_demo

    def recording(config):
        seeds.append(config.seed)
        return theorem_demo(config)

    monkeypatch.setattr(cli.verify_mod, "theorem_demo", recording)
    config, seeded = tmp_path / "config.json", tmp_path / "seeded.json"
    config.write_text(json.dumps(THEOREM_CONFIG))
    seeded.write_text(json.dumps(dict(THEOREM_CONFIG, parameters={"horizon": 1, "seed": 4})))
    flag = _main_stdout(capsys, [*command, "--config", str(config), "--seed", "4"])
    assert flag == _main_stdout(capsys, [*command, "--config", str(seeded)])
    _main_stdout(capsys, [*command, "--config", str(config)])
    assert seeds == [4, 4, 0]


def test_verify_without_seed_reports_seed_0(capsys):
    code, out = _main_stdout(capsys, ["verify", "abs-bmo", "--trials", "1"])
    assert code == 0
    assert json.loads(out.splitlines()[-1])["summary"]["seed"] == 0


def test_cli_builds_one_parser_and_one_schema_validator(tmp_path, capsys, monkeypatch):
    import argparse
    from dyadichardy import cli
    parsers, schema_reads = [], []
    init, files = argparse.ArgumentParser.__init__, cli.resources.files

    def counting_init(self, *args, **kwargs):
        parsers.append(self)
        init(self, *args, **kwargs)

    def counting_files(package):
        schema_reads.append(package)
        return files(package)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(cli.resources, "files", counting_files)
    cli.build_parser.cache_clear()
    cli._spec_validator.cache_clear()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "schema": "experiment-v1", "command": "norms", "subcommand": "h1",
        "grid": {"factor_dims": [1], "depths": [2]}, "inputs": {"f": {"kind": "haar-atom"}}}))
    first = _main_stdout(capsys, ["run", "--spec", str(spec)])
    built = len(parsers)
    assert built > 0 and len(schema_reads) == 1
    assert _main_stdout(capsys, ["run", "--spec", str(spec)]) == first
    assert (len(parsers), len(schema_reads)) == (built, 1)
