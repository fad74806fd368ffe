"""Command-line surface: subcommands, exit codes, determinism, schema gate."""

import hashlib
import json
import random
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

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


def test_cap_cells_flag_exit_1(atom_path, capsys):
    # The oracle has one fixed cell cap: --cap-cells is no flag of any quantity.
    for quantity in ("sf", "h1", "bmo-little", "bmo-dyadic"):
        code, out = _main_stdout(capsys, ["norms", quantity, "--input", atom_path,
                                          "--cap-cells", "4"])
        assert (code, out) == (1, "")


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


def test_bmo_dyadic_exact_cell_cap_exit_3(tmp_path):
    # The oracle's one cap is 16 cells: a 32-cell grid exits 3 before any
    # work, and the error names the engine that runs there.
    f = tmp_path / "f32.json"
    assert run_cli(["generate", "--kind", "random-uniform",
                    "--grid", '{"factor_dims":[1],"depths":[5]}',
                    "--output", str(f)]).returncode == 0
    res = run_cli(["norms", "bmo-dyadic", "--input", str(f), "--exact"])
    assert (res.returncode, res.stdout) == (3, "")
    assert "cap" in res.stderr and "min-cut" in res.stderr


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


@pytest.mark.parametrize("flags", [
    ["--exact", "--cap", "0"], ["--exact", "--cap", "-1"], ["--exact", "--cap", "nan"],
    ["--cap", "0"], ["--cap", "nan"], ["--shift", "1,0", "--cap", "nan"],
], ids=["exact-0", "exact-negative", "exact-nan", "cut-0", "cut-nan", "shift-nan"])
def test_bmo_dyadic_non_positive_or_nan_cap_exit_1(tmp_path, capsys, flags):
    path = _write_function(tmp_path, (1, 1), (2, 2), 0)
    from dyadichardy import cli
    assert cli.main(["norms", "bmo-dyadic", "--input", path, *flags]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "size cap must be positive" in err


@pytest.mark.parametrize("exact", [[], ["--exact"]])
def test_bmo_dyadic_infinite_cap_is_no_cap(tmp_path, capsys, exact):
    path = _write_function(tmp_path, (1, 1), (2, 2), 0)
    base = ["norms", "bmo-dyadic", "--input", path, *exact]
    code, capped = _main_stdout(capsys, base + ["--cap", "inf"])
    assert code == 0
    assert capped == _main_stdout(capsys, base)[1]


@pytest.mark.parametrize("config, command", [
    ({"parameters": {"alpha": float("nan")}}, ["verify", "split", "--trials", "2"]),
    ({"parameters": {"alpha": float("nan")}}, ["demo"]),
    ({"parameters": {"alpha": float("inf")}}, ["demo"]),
    ({"parameters": {"delta": float("nan")}}, ["demo"]),
], ids=["split-alpha-nan", "demo-alpha-nan", "demo-alpha-inf", "demo-delta-nan"])
def test_non_finite_config_parameter_exit_1(tmp_path, capsys, config, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    from dyadichardy import cli
    assert cli.main([*command, "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "positive" in err


@pytest.mark.parametrize("check", ["lemma-a", "abs-bmo"])
def test_nan_parameter_exit_1_at_the_schema_gate(tmp_path, capsys, check):
    # NaN passes the schema's exclusiveMinimum; checks that read no alpha
    # would otherwise run and pass.  A spec meets the same gate.
    config, spec = tmp_path / "config.json", tmp_path / "spec.json"
    config.write_text(json.dumps({"parameters": {"alpha": float("nan")}}))
    spec.write_text(json.dumps({"schema": "experiment-v1", "command": "verify",
                                "subcommand": check, "parameters": {"alpha": float("nan")}}))
    from dyadichardy import cli
    for argv in (["verify", check, "--config", str(config), "--trials", "1"],
                 ["run", "--spec", str(spec)]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and "parameters.alpha" in err and "positive" in err


def test_infinite_cap_parameter_passes_the_schema_gate(tmp_path, capsys):
    f = _write_function(tmp_path, (1, 1), (2, 2), 0)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"schema": "experiment-v1", "command": "norms",
                                "subcommand": "bmo-dyadic", "inputs": {"f": {"path": f}},
                                "parameters": {"cap": float("inf")}}))
    code, out = _main_stdout(capsys, ["run", "--spec", str(spec)])
    assert (code, out) == _main_stdout(capsys, ["norms", "bmo-dyadic", "--input", f])
    assert code == 0


@pytest.mark.parametrize("flags", [["--delta", "nan"], ["--delta", "inf"],
                                   ["--delta", "0.5", "--tol", "nan"]],
                         ids=["delta-nan", "delta-inf", "tol-nan"])
def test_tau_non_finite_parameter_exit_1(tmp_path, capsys, flags):
    mask = tmp_path / "E.json"
    mask.write_text(json.dumps({"grid": {"factor_dims": [1], "depths": [2]}, "cells": [0]}))
    code, out = _main_stdout(capsys, ["tau", "--set", str(mask), *flags])
    assert code == 1
    assert out == ""


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
    config.write_text(json.dumps(dict(THEOREM_CONFIG, parameters={"horizon": 1, "trials": 3})))
    assert cli.main([*command, "--config", str(config)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--trials" in err and "parameters.trials" in err


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


STARTUP_PROBE = """
import contextlib, io, json, sys
def loaded():
    return sorted({"dyadichardy.cli", "jsonschema"} & set(sys.modules))
import dyadichardy
steps = [loaded()]
from dyadichardy import cli
def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv), out.getvalue()
code, _ = run(["norms", "h1", "--input", sys.argv[1]])
steps.append((code, loaded()))
code, out = run(["verify", "lemma-a", "--config", sys.argv[2]])
steps.append((code, loaded()))
print(json.dumps([steps, out]))
"""


def test_cli_start_up_loads_jsonschema_only_to_validate(tmp_path):
    # jsonschema takes about 0.1 s to import: the package and the commands
    # that read no config or spec run without it, in a fresh interpreter.
    f = _write_function(tmp_path, (1, 1), (2, 2), 0)
    config = json.dumps({"grid": PINNED_GRID_16, "parameters": {"trials": 2, "seed": 3}})
    res = subprocess.run([sys.executable, "-c", STARTUP_PROBE, f, config],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    steps, out = json.loads(res.stdout)
    assert steps == [[], [0, ["dyadichardy.cli"]], [0, ["dyadichardy.cli", "jsonschema"]]]
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SPEC_DIGESTS["verify lemma-a"][1]


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


def test_verify_config_seed_and_trials_match_their_flags(tmp_path, capsys):
    # A config's parameters.seed and parameters.trials run exactly what the
    # flags run, and a flag wins over the config.
    grid = {"factor_dims": [1, 1], "depths": [2, 2]}
    config, plain = tmp_path / "config.json", tmp_path / "plain.json"
    config.write_text(json.dumps({"grid": grid, "parameters": {"seed": 5, "trials": 3}}))
    plain.write_text(json.dumps({"grid": grid}))
    code, out = _main_stdout(capsys, ["verify", "abs-bmo", "--config", str(config)])
    assert (code, out) == _main_stdout(
        capsys, ["verify", "abs-bmo", "--config", str(plain), "--seed", "5", "--trials", "3"])
    assert code == 0 and len(out.splitlines()) == 4
    summary = json.loads(out.splitlines()[-1])["summary"]
    assert (summary["seed"], summary["trials"]) == (5, 3)
    flags = ["--seed", "6", "--trials", "2"]
    assert _main_stdout(capsys, ["verify", "abs-bmo", "--config", str(config), *flags]) == \
        _main_stdout(capsys, ["verify", "abs-bmo", "--config", str(plain), *flags])


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
    "kmax": 30, "p": 1, "restarts": 3, "cap": 0.25, "trials": 2,
    "seed": 3, "iter": 2, "shift": [1, 1], "horizon": 1, "generator": "l1-spike",
    "exact": True, "rect_class": "dyadic", "include_mean": True, "kind": "constant",
}
# Spec parameters the schema no longer has, with a value a spec once gave
# them: every command now refuses each at the schema gate.
REMOVED_PARAMETERS = {"cap_cells": 64}
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
    params[key] = {**PARAMETER_VALUES, **REMOVED_PARAMETERS}[key]
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


@pytest.mark.parametrize("key", _schema_parameters() + sorted(REMOVED_PARAMETERS))
@pytest.mark.parametrize("command, sub", SPEC_TARGETS)
def test_every_spec_parameter_is_honoured_or_rejected(tmp_path, capsys, command, sub, key):
    from dyadichardy import cli
    spec, argv = _spec_and_flags(tmp_path, command, sub, key)
    code = cli.main(["run", "--spec", spec])
    out, err = capsys.readouterr()
    if key in REMOVED_PARAMETERS:
        assert (code, out) == (1, "") and f"'{key}' was unexpected" in err
    elif code == 1:
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
    "norms": "711164804d3318fad4b669aaa60212d7c4c549bbf587d68308f506f7dfb91b65",
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


# A dict of number lists is written from one repr of all its numbers, as
# `decompose` writes 1 023 two-float lists on (1,)x(10,); a nan, an inf, a
# bool, a nested or an empty list, or a value that is not a list, in any of
# the dict's values sends the whole dict down the path one value at a time.
_rng = random.Random(0)
_TWO_FLOATS = {f"0:{k}": [_rng.uniform(-1, 1), _rng.uniform(-1, 1)] for k in range(1023)}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_json_values)
@example(_TWO_FLOATS)
@example({"a": [1, -0.0, 1e16, 5e-324, 2 ** 70], "b": [0.1], "c": [-3]})
@example({"a": [1.0, 2.0], "b": [float("nan")]})
@example({"a": [1.0], "b": [float("inf"), 2.0]})
@example({"a": [1.0], "b": [True]})
@example({"a": [1.0], "b": [[1.0]]})
@example({"a": [1.0], "b": []})
@example({"a": [1.0], "b": 2.0})
@example({"a": [1.0], "b": {"c": [2.0]}})
@example([[1.0, 2.0], [3.0]])
@example([1.5, -2, float("-inf")])
@example([0, False])
def test_dumps_matches_json_dumps(value):
    from dyadichardy.cli import _dumps
    assert _dumps(value) + "\n" == json.dumps(value, indent=2, sort_keys=True) + "\n"


# sha256 of stdout and the exit code of `generate` for every kind, with no
# --params and with the parameters below, recorded before the generator
# kinds were bound to their functions' signatures.
GENERATE_GRID = '{"factor_dims":[1,1],"depths":[3,3]}'
PINNED_GENERATE_RUNS = {
    "constant": ("constant", None),
    "haar-atom": ("haar-atom", None),
    "random-uniform": ("random-uniform", None),
    "smooth-bump": ("smooth-bump", None),
    "spike-sequence": ("spike-sequence", None),
    "h1-bounded-sequence": ("h1-bounded-sequence", None),
    "random-mask": ("random-mask", None),
    "cell-mask": ("cell-mask", None),
    "haar-atom rectangle": ("haar-atom", '{"rectangle": "0:1:(1)|1:2:(2)"}'),
    "cell-mask cells": ("cell-mask", '{"cells": [3, 5, 12]}'),
    "spike-sequence n=3": ("spike-sequence", '{"n": 3}'),
}
PINNED_GENERATE_DIGESTS = {
    "constant": "12655a9c5dbd803f6f77971ccf8357105d00fa9ffe6336eeaa902c70423f31c5",
    "haar-atom": "b7a74cc98a129579293d0d22b6e3be5cf60620a5ac4152adc88a1eb4775c68e6",
    "random-uniform": "fc0be0db25ca172fc2463e6fdf7a0429253092d989e1592394d8ea2985cbf42e",
    "smooth-bump": "945821736ad780f66cccc05e5bfde8465e862b8f791b22df066f24a416d1e478",
    "spike-sequence": "7d4c85a2047288dfe85e0bace3747d858eb234d811b683c0054b163752e27e12",
    "h1-bounded-sequence": "9777f402afa4d973c67a046376d74d23dd0d7f783e519ea3ea14759eb3f98da3",
    "random-mask": "4572a0775c0acef2676a6f331649cb858ba3387bdc1b2b9b4cd38a0246dbc425",
    "cell-mask": "b10a6cc342ca63a86cb4aada34455011153f81ffc2aa1958d0e479172b24c2d7",
    "haar-atom rectangle": "4cb0a3cac1af26350c721b5269f02f35358937188d855029a3a68ae2f185b683",
    "cell-mask cells": "13a13f40921f95eacd097712370c5a9082a6d0825f87e82d2b36255ea6ce3404",
    "spike-sequence n=3": "91f22a29c3a948e4f3d6ca0994388839f1a67a3c55b13f7ab86490440cd92209",
}
GENERATOR_KINDS = ["constant", "haar-atom", "random-uniform", "smooth-bump", "spike-sequence",
                   "h1-bounded-sequence", "random-mask", "cell-mask"]


@pytest.mark.parametrize("name", PINNED_GENERATE_RUNS)
def test_generate_stdout_digests(capsys, name):
    kind, params = PINNED_GENERATE_RUNS[name]
    argv = ["generate", "--kind", kind, "--grid", GENERATE_GRID]
    code, out = _main_stdout(capsys, argv + (["--params", params] if params else []))
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, PINNED_GENERATE_DIGESTS[name])


def _generate_exit(tmp_path, capsys, kind, params, route):
    """(exit code, stdout, stderr) of `generate` with `params`, through
    --params or through a `run --spec` input of that kind."""
    from dyadichardy import cli
    if route == "params":
        argv = ["generate", "--kind", kind, "--grid", GENERATE_GRID, "--params", json.dumps(params)]
    else:
        mask = kind in ("random-mask", "cell-mask")
        spec = {"schema": "experiment-v1", "command": "tau" if mask else "norms",
                "grid": json.loads(GENERATE_GRID),
                "inputs": {"E" if mask else "f": {"kind": kind, "params": params}}}
        spec.update({"parameters": {"delta": 0.5}} if mask else {"subcommand": "h1"})
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = ["run", "--spec", str(path)]
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("route", ["params", "spec"])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generate_unknown_parameter_exit_1(tmp_path, capsys, kind, route):
    code, out, err = _generate_exit(tmp_path, capsys, kind, {"centre": 0.1}, route)
    assert (code, out) == (1, "")
    assert "centre" in err


@pytest.mark.parametrize("route", ["params", "spec"])
@pytest.mark.parametrize("kind, params, message", [
    ("spike-sequence", {"n": 1.5}, "integer"),
    ("h1-bounded-sequence", {"n": 1.5}, "integer"),
    ("constant", {"value": float("nan")}, "finite"),
    ("spike-sequence", {"n": 1, "oscillation_growth": float("inf")}, "finite"),
    ("random-uniform", {"low": float("nan")}, "finite"),
    ("random-mask", {"density": float("nan")}, "finite"),
    ("spike-sequence", {"n": 1, "oscillation_growth": 1e308, "oscillation_scale": 1e10},
     "non-finite value"),
    ("random-uniform", {"low": -1e308, "high": 1e308}, "range"),
    ("constant", {"value": 10 ** 400}, "too large"),
    ("random-uniform", {"seed": 3}, "seed"),
    ("random-mask", {"seed": 3}, "seed"),
    ("haar-atom", {"rectangle": 5}, "rectangle key"),
])
def test_generate_bad_parameter_exit_1(tmp_path, capsys, kind, params, message, route):
    code, out, err = _generate_exit(tmp_path, capsys, kind, params, route)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("rectangle, message", [
    ("0:0:(0)|1:0:(0)", "factor count"),
    ("0:1:(0,0)", "2 coordinates"),
    ("0:2:(3)", "not Delta-eligible"),
])
def test_haar_atom_ineligible_rectangle_exit_1(capsys, rectangle, message):
    from dyadichardy import cli
    code = cli.main(["generate", "--kind", "haar-atom", "--grid", GRID_1D,
                     "--params", json.dumps({"rectangle": rectangle})])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert message in err


def test_generate_calls_the_module_name_at_call_time(monkeypatch):
    # A rebound module name (as a tracer installs) sees every generate call.
    from dyadichardy import ProductGrid, generators
    calls = []
    original = generators.constant
    monkeypatch.setattr(generators, "constant", lambda *a, **k: calls.append(1) or original(*a, **k))
    f = generators.generate("constant", ProductGrid((1,), (2,)), {"value": 2.0})
    assert calls == [1] and f.values.tolist() == [2.0, 2.0, 2.0, 2.0]


@pytest.mark.parametrize("trials", ["0", "-2"])
@pytest.mark.parametrize("check", ["lemma-a", "split", "lemma-b", "abs-bmo"])
def test_verify_fewer_than_one_trial_exit_1(capsys, check, trials):
    code, out = _main_stdout(capsys, ["verify", check, "--trials", trials])
    assert (code, out) == (1, "")


# Each norms option: its flags, and the quantities that take it.  `restarts`
# and `seed` are taken, unused, by bmo-dyadic alone.
NORMS_OPTIONS = {
    "exact": (["--exact"], {"bmo-dyadic"}),
    "restarts": (["--restarts", "3"], {"bmo-dyadic"}),
    "cap": (["--cap", "0.25"], {"bmo-dyadic"}),
    "shift": (["--shift", "1,1"], {"bmo-dyadic"}),
    "seed": (["--seed", "3"], {"bmo-dyadic"}),
    "p": (["--p", "1"], {"bmo-little"}),
    "rect_class": (["--rect-class", "dyadic"], {"bmo-little"}),
    "include_mean": (["--include-mean"], {"h1"}),
}


@pytest.mark.parametrize("quantity, key", [
    (quantity, key) for key, (_, takes) in NORMS_OPTIONS.items()
    for quantity in ("sf", "h1", "bmo-little", "bmo-dyadic") if quantity not in takes])
def test_norms_option_not_taken_exit_1(tmp_path, capsys, quantity, key):
    # A quantity refuses every option it does not read, as flag and as spec
    # key, and the error names both.
    from dyadichardy import cli
    flags, _ = NORMS_OPTIONS[key]
    path = _write_function(tmp_path, (1, 1), (2, 2), 0)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"schema": "experiment-v1", "command": "norms",
                                "subcommand": quantity, "inputs": {"f": {"path": path}},
                                "parameters": {key: PARAMETER_VALUES[key]}}))
    for argv in (["norms", quantity, "--input", path, *flags], ["run", "--spec", str(spec)]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert f"norms {quantity} does not take {flags[0]} (spec key parameters.{key})" in err


@pytest.mark.parametrize("key", ["horizon", "epsilon"])
@pytest.mark.parametrize("check", ["lemma-a", "split", "lemma-b", "abs-bmo"])
def test_randomized_check_refuses_theorem_config_keys(tmp_path, capsys, check, key):
    # The randomized checks read a config's grid and alpha only; the theorem
    # demo's other run-configuration keys exit 1, from a --config or a spec.
    from dyadichardy import cli
    config, spec = tmp_path / "config.json", tmp_path / "spec.json"
    config.write_text(json.dumps({"parameters": {key: PARAMETER_VALUES[key]}}))
    spec.write_text(json.dumps({"schema": "experiment-v1", "command": "verify",
                                "subcommand": check,
                                "parameters": {"trials": 1, key: PARAMETER_VALUES[key]}}))
    for argv in (["verify", check, "--config", str(config), "--trials", "1"],
                 ["run", "--spec", str(spec)]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"verify {check} does not take parameters.{key}" in err


@pytest.mark.parametrize("cells", [[1.5], [True], [-1], [4]],
                         ids=["float", "bool", "negative", "out-of-range"])
def test_cell_mask_bad_index_exit_1(tmp_path, capsys, cells):
    # On a 4-cell grid these marked cell 1, cell 1, cell 3 and raised an
    # IndexError; through generate, a --set file and a spec they now exit 1.
    from dyadichardy import cli
    grid = {"factor_dims": [1], "depths": [2]}
    mask, spec = tmp_path / "E.json", tmp_path / "spec.json"
    mask.write_text(json.dumps({"grid": grid, "cells": cells}))
    spec.write_text(json.dumps({"schema": "experiment-v1", "command": "tau", "grid": grid,
                                "inputs": {"E": {"kind": "cell-mask", "params": {"cells": cells}}},
                                "parameters": {"delta": 0.5}}))
    for argv in (["generate", "--kind", "cell-mask", "--grid", json.dumps(grid),
                  "--params", json.dumps({"cells": cells})],
                 ["tau", "--set", str(mask), "--delta", "0.5"],
                 ["run", "--spec", str(spec)]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and f"cell index {cells[0]!r}" in err
