"""Command-line surface: subcommands, exit codes, determinism, schema gate."""

import hashlib
import json
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

GRID_1D = '{"factor_dims":[1],"depths":[2]}'


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "dyadichardy.cli"] + args,
        capture_output=True, text=True,
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
    res = run_cli(["norms", "bmo-dyadic", "--input", str(big), "--exact"])
    assert res.returncode == 3
    assert "cap" in res.stderr


def test_cap_cells_flag_override(atom_path):
    # 4-cell input passes even with a 4-cell cap, fails with a 3-cell cap
    assert run_cli(["norms", "bmo-dyadic", "--input", atom_path, "--exact",
                    "--cap-cells", "4"]).returncode == 0
    assert run_cli(["norms", "bmo-dyadic", "--input", atom_path, "--exact",
                    "--cap-cells", "3"]).returncode == 3


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


@pytest.mark.parametrize("flag", [["--output", "o.json"], ["--format", "csv"], ["--seed", "5"]])
def test_run_rejects_output_flags(tmp_path, capsys, flag):
    # output options come from the spec; run takes no flag but --spec
    from dyadichardy import cli
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"schema": "experiment-v1", "command": "norms",
                                "subcommand": "h1", "grid": {"factor_dims": [1], "depths": [2]},
                                "inputs": {"f": {"kind": "haar-atom"}}}))
    assert cli.main(["run", "--spec", str(spec), *flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


@pytest.mark.parametrize("command", ["decompose", "maximal", "tau"])
def test_seed_rejected_where_unused(tmp_path, capsys, command):
    # these commands draw nothing, so a seed is a usage error, as flag and as spec key
    from dyadichardy import ProductGrid, cli, generators
    grid = ProductGrid((1, 1), (2, 2))
    if command == "tau":
        path = tmp_path / "E.json"
        path.write_text(json.dumps(generators.cell_mask(grid, [0, 1]).to_dict()))
        argv, inputs, params = ["tau", "--set", str(path), "--delta", "0.5"], "E", {"delta": 0.5}
    else:
        path = _write_function(tmp_path, (1, 1), (2, 2), 1)
        argv, inputs, params = [command, "--input", str(path)], "f", {}
    assert cli.main([*argv, "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments: --seed 1" in captured.err
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"schema": "experiment-v1", "command": command,
                                "inputs": {inputs: {"path": str(path)}},
                                "parameters": dict(params, seed=1)}))
    assert cli.main(["run", "--spec", str(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "parameters.seed" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["generate", "--p", "1", "--kind", "constant", "--grid", GRID_1D],
     "unrecognized arguments: --p 1"),
    (["generate", "--k", "constant", "--grid", GRID_1D], "required: --kind"),
    (["generate", "--kind", "constant", "--gr", GRID_1D], "required: --grid"),
])
def test_flag_prefixes_rejected(argv, message):
    # flags match by full name only: --p is not read as --params
    res = run_cli(argv)
    assert res.returncode == 1
    assert res.stdout == ""
    assert message in res.stderr


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

    def no_files(*args, **kwargs):
        raise AssertionError("run --spec created a temporary file")

    monkeypatch.setattr(tempfile, "NamedTemporaryFile", no_files)
    monkeypatch.setattr(tempfile, "mkstemp", no_files)
    calls = []
    main = cli.main

    def counting_main(argv=None):
        calls.append(argv)
        return main(argv)

    monkeypatch.setattr(cli, "main", counting_main)
    assert cli.main(["run", "--spec", str(spec)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.0)
    assert not list(tmp_path.glob("dyadichardy-*.json"))
    assert len(calls) == 1  # the handler is called directly, not through main again


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


def test_aligned_p1_visit_cap_exit_3(tmp_path, capsys):
    # One 4096-cell row: its aligned boxes hold 1.1e10 cells, over the cap, so
    # both callers of the p = 1 aligned oscillations stop before any work.
    import time
    path = _write_function(tmp_path, (1,), (12,), 0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"factor_dims": [1], "depths": [12]}}))
    for argv in (["norms", "bmo-little", "--input", path, "--p", "1"],
                 ["verify", "abs-bmo", "--config", str(config), "--trials", "1"]):
        start = time.perf_counter()
        code, out = _main_stdout(capsys, argv)
        assert (code, out) == (3, ""), argv
        assert time.perf_counter() - start < 1.0, argv


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


@pytest.mark.parametrize("command, spec_command", [
    (["verify", "theorem"], {"command": "verify", "subcommand": "theorem"}),
    (["demo"], {"command": "demo"})])
def test_theorem_seed_exit_1(tmp_path, capsys, command, spec_command):
    # The demo draws no random numbers: a seed from the flag, the config's
    # parameters or a spec is a usage error naming both, and nothing runs.
    from dyadichardy import cli
    config, seeded, spec = tmp_path / "config.json", tmp_path / "seeded.json", tmp_path / "spec.json"
    seeded_config = dict(THEOREM_CONFIG, parameters={"horizon": 1, "seed": 4})
    config.write_text(json.dumps(THEOREM_CONFIG))
    seeded.write_text(json.dumps(seeded_config))
    spec.write_text(json.dumps(dict(seeded_config, schema="experiment-v1", **spec_command)))
    for argv in ([*command, "--config", str(config), "--seed", "4"],
                 [*command, "--config", str(seeded)], ["run", "--spec", str(spec)]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "--seed" in err and "parameters.seed" in err


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


@pytest.mark.parametrize("config, command", [
    ([1], ["verify", "split", "--trials", "1"]),
    ({"parameters": {"horizon": "x"}}, ["demo"]),
    ({"parameters": {"alpha": "0.25"}}, ["verify", "lemma-b", "--trials", "1"]),
    ({"parameters": {"factor": 1}}, ["verify", "lemma-a", "--trials", "1"]),
], ids=["list", "horizon-string", "alpha-string", "factor"])
def test_malformed_config_exit_1(tmp_path, capsys, config, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    from dyadichardy import cli
    assert cli.main([*command, "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "config failed schema validation" in err


@pytest.mark.parametrize("check", ["lemma-a", "split", "lemma-b", "abs-bmo"])
def test_config_with_grid_and_alpha_passes(tmp_path, capsys, check):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": {"factor_dims": [1, 2], "depths": [2, 1]},
                                "parameters": {"alpha": 0.25}}))
    code, out = _main_stdout(capsys, ["verify", check, "--config", str(path), "--trials", "2"])
    assert code == 0
    assert json.loads(out.splitlines()[-1])["summary"]["passed"] is True


def test_run_spec_factor_rejected(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "schema": "experiment-v1", "command": "verify", "subcommand": "lemma-a",
        "parameters": {"trials": 1, "factor": 1}}))
    code, out = _main_stdout(capsys, ["run", "--spec", str(spec)])
    assert code == 1
    assert out == ""


def _schema_parameters():
    from importlib import resources
    text = resources.files("dyadichardy").joinpath("schemas", "experiment-v1.schema.json").read_text()
    return sorted(json.loads(text)["properties"]["parameters"]["properties"])


# One schema-valid value per spec parameter; a new schema key needs one here.
PARAMETER_VALUES = {
    "alpha": 0.25, "delta": 0.5, "eta": 0.01, "epsilon": 0.01, "c": 0.5, "tol": 1e-6,
    "kmax": 30, "p": 1, "restarts": 3, "cap_cells": 64, "cap": 0.25, "trials": 2,
    "seed": 3, "iter": 2, "shift": [1, 1], "horizon": 1, "generator": "l1-spike",
    "exact": True, "rect_class": "dyadic", "include_mean": True, "kind": "constant",
}
SPEC_TARGETS = [
    ("generate", None), ("decompose", None), ("norms", "sf"), ("norms", "h1"),
    ("norms", "bmo-little"), ("norms", "bmo-dyadic"), ("maximal", None), ("tau", None),
    ("verify", "lemma-a"), ("verify", "split"), ("verify", "lemma-b"),
    ("verify", "abs-bmo"), ("verify", "theorem"), ("demo", None),
]


def _flag(key, value):
    if value is True:
        return ["--" + key.replace("_", "-")]
    if isinstance(value, list):
        value = ",".join(map(str, value))
    return ["--" + key.replace("_", "-"), str(value)]


def _spec_and_flags(tmp_path, command, sub, key):
    """A spec that sets `key` on a small base case, and the flag invocation
    that asks for the same run."""
    from dyadichardy import ProductGrid, generators
    grid = {"factor_dims": [1, 1], "depths": [2, 2]}
    spec = {"schema": "experiment-v1", "command": command, "grid": grid}
    argv = [command] + ([sub] if sub else [])
    if sub:
        spec["subcommand"] = sub
    if command == "generate":
        params = {"kind": "random-uniform"}
        argv += ["--grid", json.dumps(grid)]
    elif command == "tau":
        params = {"delta": 0.25}
        mask = tmp_path / "E.json"
        mask.write_text(json.dumps(generators.cell_mask(ProductGrid((1, 1), (2, 2)), [0, 1]).to_dict()))
        spec["inputs"] = {"E": {"path": str(mask)}}
        argv += ["--set", str(mask)]
    elif command in ("verify", "demo"):
        params = {"horizon": 1} if sub in (None, "theorem") else {"trials": 1}
    else:
        params = {}
        path = _write_function(tmp_path, (1, 1), (2, 2), 1)
        spec["inputs"] = {"f": {"path": path}}
        argv += ["--input", path]
    params[key] = PARAMETER_VALUES[key]
    spec["parameters"] = params
    if command in ("verify", "demo"):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": grid, "parameters": {
            k: v for k, v in params.items() if k not in ("trials", "seed")}}))
        argv += ["--config", str(config)]
        params = {k: v for k, v in params.items() if k in ("trials", "seed")}
    for k, v in params.items():
        argv += _flag(k, v)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return str(path), argv


@pytest.mark.parametrize("key", _schema_parameters())
@pytest.mark.parametrize("command, sub", SPEC_TARGETS)
def test_every_spec_parameter_is_honoured_or_rejected(tmp_path, capsys, command, sub, key):
    from dyadichardy import cli
    spec, argv = _spec_and_flags(tmp_path, command, sub, key)
    code = cli.main(["run", "--spec", spec])
    out, err = capsys.readouterr()
    if code == 1:
        assert out == "" and f"parameters.{key}" in err
    else:
        assert (code, out) == _main_stdout(capsys, argv)


# sha256 of stdout and the exit code of `run --spec` for each spec below, and
# of `--help` for the program and each command, recorded before `run --spec`
# stopped translating specs into flags and temporary files.  `run --help` was
# re-recorded when `run` stopped taking --output, --format and --seed, and
# `decompose`, `maximal` and `tau --help` when they stopped taking --seed.
# `demo` was re-recorded when its phi_tau_bmo_search became phi_tau_bmo: the
# parent's stdout with that key renamed is byte-identical.
PINNED_GRID_16 = {"factor_dims": [1, 1], "depths": [2, 2]}
PINNED_GRID_64 = {"factor_dims": [1, 1], "depths": [3, 3]}
PINNED_SPECS = {
    "norms h1 generated": {"command": "norms", "subcommand": "h1", "grid": PINNED_GRID_64,
                           "inputs": {"f": {"kind": "random-uniform", "seed": 11}}},
    "norms sf path": {"command": "norms", "subcommand": "sf",
                      "inputs": {"f": {"path": "f.json"}}},
    "decompose path": {"command": "decompose", "inputs": {"f": {"path": "f.json"}}},
    "verify lemma-a": {"command": "verify", "subcommand": "lemma-a", "grid": PINNED_GRID_16,
                       "parameters": {"trials": 2, "seed": 3}},
    "verify split": {"command": "verify", "subcommand": "split", "grid": PINNED_GRID_64,
                     "parameters": {"trials": 2, "seed": 4, "alpha": 0.25}},
    "maximal generated": {"command": "maximal", "grid": PINNED_GRID_64,
                          "inputs": {"f": {"kind": "random-uniform", "seed": 5}},
                          "parameters": {"iter": 1}},
    "norms bmo-little smooth-bump": {"command": "norms", "subcommand": "bmo-little",
                                     "grid": PINNED_GRID_64,
                                     "inputs": {"f": {"kind": "smooth-bump"}},
                                     "parameters": {"p": 2}},
    "tau": {"command": "tau", "grid": PINNED_GRID_64,
            "inputs": {"E": {"kind": "cell-mask", "params": {"cells": [9, 10, 17, 18]}}},
            "parameters": {"delta": 0.5}},
    "generate": {"command": "generate", "grid": PINNED_GRID_16,
                 "parameters": {"kind": "random-uniform", "seed": 6}},
    "demo": {"command": "demo", "grid": PINNED_GRID_16, "parameters": {"horizon": 1}},
    "verify lemma-b": {"command": "verify", "subcommand": "lemma-b", "grid": PINNED_GRID_16,
                       "parameters": {"trials": 2, "seed": 7, "alpha": 0.25}},
    "verify abs-bmo": {"command": "verify", "subcommand": "abs-bmo", "grid": PINNED_GRID_16,
                       "parameters": {"trials": 2, "seed": 8}},
}
PINNED_SPEC_DIGESTS = {
    "norms h1 generated": (0, "58e9e4178b35e4c0740317432b6bd2b028d34e400834cad99f620c67dac428a5"),
    "norms sf path": (0, "ccf65d2e5dc60b91bd15155fcf007dad1064998291bf8e22072111093b84dbca"),
    "decompose path": (0, "a71476c682bb57bb1277b1c336951050387e16af1afee06962134bb007f61036"),
    "verify lemma-a": (0, "e3b2213e0f6f8bf9d0e2a0e2761d9afc42d2cfc4bee4db30eecefd492ba6b671"),
    "verify split": (0, "c41d58d9d9c4c7e2eb6086f10e6dc838eb429a7af41bf27fbd3b37a955d49185"),
    "maximal generated": (0, "595c48837a4d0cd90d60186f0b83573644341672d6d40f834fa67252d1e32072"),
    "norms bmo-little smooth-bump": (0, "6875d82ba150ae7e3988d6deceb5d4a12d14196ad0a19a1a31712cb651ecc390"),
    "tau": (0, "3ba6d5ff7462f0f08550d9af775b10581484a8025952d95d6daa0c41621aab30"),
    "generate": (0, "5c1b6dce8965094ea945d5797736da0fb59392ffa97d599bed3be8b1945d42ac"),
    "demo": (2, "a4c59172494d6105537b9ce88e845e91b5dadc46ca36b86ea9f74a422d5a5366"),
    "verify lemma-b": (0, "09ad4431f76bbe62e807148df479e648b44a1979b3436c3b08174884327bcdce"),
    "verify abs-bmo": (0, "e35bb962bbed2b7eb4011dfa960e70f6b85120ea3610948a3be43f5d489a9721"),
}
PINNED_HELP_DIGESTS = {
    "": "c30e9ce7c7a874c0d441c64ca9cbc01c48f3764603d0e95c3cb078a40a586c0d",
    "generate": "76ba11eecb0335a5578a794a2ff36f4d20a3d8e463ee956a921bb8f38ee40a1c",
    "decompose": "24cbf95bf88d3425b91c25eb14c3eee3a3ca1ce903cf14b1b21ad95676d97b9f",
    "norms": "e9be647dfe27774985e47e47489c116cb010a448fcfe5202db06ff2da9c397e7",
    "maximal": "831dfaa8ef2c038aee070914577eb6099b610f49b89b95a5e45cb6ac8566f72a",
    "tau": "3bda5c908872d85701aa2e8b7a349a56d111a1b56ce742275e5c64436022e8f9",
    "verify": "ea192fce1f949bc2485b1860afe59489c4a8999afd68b14b7c8c33299c986512",
    "demo": "c2af102c00419801a7a174bb9315fd56e24cbde02e2034cc8326ceb6539ef4fc",
    "run": "5fcb4aa8c651b2ebd895634b45a9435d8962deb1f90d5c34ebf1ae812c034a93",
}


@pytest.mark.parametrize("name", PINNED_SPECS)
def test_run_spec_stdout_digests(tmp_path, capsys, name):
    f = _write_function(tmp_path, (1, 2), (3, 2), 12)
    spec = json.loads(json.dumps(dict(PINNED_SPECS[name], schema="experiment-v1"))
                      .replace('"f.json"', json.dumps(f)))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out = _main_stdout(capsys, ["run", "--spec", str(path)])
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED_SPEC_DIGESTS[name]


# argparse lays help out differently across Python versions; the digests
# were recorded with Python 3.11, the version CI runs.
@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="help digests are for Python 3.11")
@pytest.mark.parametrize("command", PINNED_HELP_DIGESTS)
def test_help_digests(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out = _main_stdout(capsys, [command, "--help"] if command else ["--help"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_HELP_DIGESTS[command]


# sha256 of stdout of flag invocations that the pinned specs do not reach,
# recorded before reports were written by `cli._dumps`.  An input is
# generators.random_uniform on the given grid with seed 21; `decompose`
# also writes its --output file, which must hold the same bytes.
PINNED_FLAG_RUNS = {
    "decompose (1,1)x(4,4)": (((1, 1), (4, 4)), ["decompose"]),
    "decompose (1,)x(10,)": (((1,), (10,)), ["decompose"]),
    "norms sf": (((1, 2), (3, 2)), ["norms", "sf"]),
    "norms bmo-dyadic": (((1, 1), (3, 3)), ["norms", "bmo-dyadic"]),
    "norms bmo-dyadic --exact": (((1, 1), (2, 2)), ["norms", "bmo-dyadic", "--exact"]),
    "norms bmo-dyadic --shift": (((1, 1), (3, 3)), ["norms", "bmo-dyadic", "--shift", "1,1"]),
    "norms bmo-little p1 dyadic": (((1, 1), (3, 3)),
                                   ["norms", "bmo-little", "--p", "1", "--rect-class", "dyadic"]),
    "norms bmo-little p2 aligned": (((1, 1), (3, 3)),
                                    ["norms", "bmo-little", "--p", "2", "--rect-class", "aligned"]),
    "verify abs-bmo (1,1)x(3,3)": (None, ["verify", "abs-bmo", "--config", json.dumps(
        {"grid": PINNED_GRID_64}), "--trials", "2", "--seed", "9"]),
    "norms sf --format csv": (((1, 1), (2, 2)), ["norms", "sf", "--format", "csv"]),
}
PINNED_FLAG_DIGESTS = {
    "decompose (1,1)x(4,4)": "a8ef99109e03c3d918ce173ea2fe135ef84d1d39e3763615bcd69025076a2abb",
    "decompose (1,)x(10,)": "f809cc768ddf20d06bea28f72bbbee45e2b5cbfd1cf5ad673955d34f6f70c870",
    "norms sf": "066468f14d66a394db1c138459b3be2fa8e6ddef0fdebae90b1c724435bce6cf",
    "norms bmo-dyadic": "72afab017a006c2f9e490a33d9e410692ffccf2af00c3f2eba38290e7a6ed461",
    "norms bmo-dyadic --exact": "ff3755ed2e65c27920a74bc67cc675d4cc7d3ea338eb556c4ac931bbf6cd92c4",
    "norms bmo-dyadic --shift": "363729b76832ecfdbca14c587888ecd1f70435b8a51442c7f8f9928603ef886e",
    "norms bmo-little p1 dyadic": "5bd2b7918a0c39c0d562c494a8783e3769df1142eefa7375f5c4ff14a2ad386c",
    "norms bmo-little p2 aligned": "cf8ae9469fd4f3a689f1f7f827db4aa22f0f15ca1a00c966479faf552966a781",
    "verify abs-bmo (1,1)x(3,3)": "38b7c5a0b17c3353fac3bf87682dc38690b75b51e8a7a5eca15317a3461ad903",
    "norms sf --format csv": "cd76b3aeff91f6cae40063f86464d124b579930e4a8753d8af9e2a8efea619dd",
}


@pytest.mark.parametrize("name", PINNED_FLAG_RUNS)
def test_flag_stdout_digests(tmp_path, capsys, name):
    dims_depths, argv = PINNED_FLAG_RUNS[name]
    if dims_depths is not None:
        argv = [*argv, "--input", _write_function(tmp_path, *dims_depths, 21)]
    output = tmp_path / "out.json"
    if argv[0] == "decompose":
        argv = [*argv, "--output", str(output)]
    code, out = _main_stdout(capsys, argv)
    digests = {hashlib.sha256(out.encode()).hexdigest()}
    if argv[0] == "decompose":
        digests.add(hashlib.sha256(output.read_bytes()).hexdigest())
    assert (code, digests) == (0, {PINNED_FLAG_DIGESTS[name]})


_json_floats = st.floats() | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 5e-324])
_json_ints = st.integers(-2 ** 70, 2 ** 70)
_json_text = st.text() | st.sampled_from(['"\\/\b\f\n\r\t', "\x00\x1f\x7f", "é \u2028 \U0001f600"])
_json_values = st.recursive(
    st.none() | st.booleans() | _json_ints | _json_floats | _json_text
    | st.lists(_json_floats | _json_ints),
    lambda inner: st.lists(inner) | st.dictionaries(_json_text, inner),
    max_leaves=25)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_json_values)
def test_dumps_matches_json_dumps(value):
    from dyadichardy.cli import _dumps
    assert _dumps(value) + "\n" == json.dumps(value, indent=2, sort_keys=True) + "\n"
