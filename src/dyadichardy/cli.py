"""Command-line front end: generators, decomposition, norm engines, the
maximal/cutoff pipeline, and the inequality certification harness.

Exit codes: 0 pass, 1 usage/IO/schema error, 2 inequality or numerical
failure, 3 resource cap exceeded.  Reports are deterministic for a fixed
spec and seed; wall-clock metadata goes to stderr, never into a report.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import tempfile
import time
from importlib import resources

import jsonschema
import numpy as np

from .errors import ContractionError, GridError, ResourceCapError
from . import generators
from .grid import (
    GridFunction,
    OpenSetMask,
    ProductGrid,
    RectangleFamily,
    enumerate_rectangles,
)
from .martingale import decompose, decomposition_to_dict, reconstruct
from .maximal import TauParams, check_a1, iterate_maximal, tau_build
from .norms import (
    bmo_d_norm_cut,
    bmo_d_norm_exact,
    h1_norm,
    little_bmo_norm,
    shifted_packing,
    square_function,
)
from .verify import (
    TheoremRunConfig,
    check_abs_bmo,
    check_lemma_a,
    check_lemma_b,
    split_family,
)
from . import verify as verify_mod
from .windows import AlignedBox

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_CAP = 3

SCHEMA_NAME = "experiment-v1.schema.json"


# ---------------------------------------------------------------- I/O helpers

def _load_json_file(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _parse_grid(text: str) -> ProductGrid:
    """Grid from an inline JSON descriptor or a path to one."""
    text = text.strip()
    if text.startswith("{"):
        data = json.loads(text)
    else:
        data = _load_json_file(text)
    return ProductGrid.from_dict(data)


def _load_function(path: str) -> GridFunction:
    return GridFunction.from_dict(_load_json_file(path))


def _load_mask(path: str) -> OpenSetMask:
    return OpenSetMask.from_dict(_load_json_file(path))


def _jsonable(obj):
    """Recursively convert report objects to plain JSON-serializable data."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, OpenSetMask):
        return obj.to_dict()
    if isinstance(obj, GridFunction):
        return obj.to_dict()
    if isinstance(obj, AlignedBox):
        return {"starts": list(obj.starts), "sides": list(obj.sides)}
    if hasattr(obj, "key") and callable(obj.key):
        return obj.key()
    if hasattr(obj, "to_dict") and callable(obj.to_dict):
        return _jsonable(obj.to_dict())
    return obj


def _flatten_csv_rows(obj, prefix=""):
    """Tidy rows (key path, value) for CSV emission."""
    rows = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            rows.extend(_flatten_csv_rows(v, f"{prefix}.{k}" if prefix else str(k)))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            rows.extend(_flatten_csv_rows(v, f"{prefix}[{i}]"))
    else:
        rows.append((prefix, obj))
    return rows


def _emit(report, args) -> None:
    report = _jsonable(report)
    if getattr(args, "format", "json") == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key, value in _flatten_csv_rows(report):
            writer.writerow([key, value])
        text = buf.getvalue()
    else:
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    output = getattr(args, "output", None)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    print(json.dumps({"meta": {"timestamp": time.time()}}), file=sys.stderr)


def _emit_lines(trial_reports, summary, args) -> None:
    lines = [json.dumps(_jsonable(r), sort_keys=True) for r in trial_reports]
    lines.append(json.dumps({"summary": _jsonable(summary)}, sort_keys=True))
    text = "\n".join(lines) + "\n"
    output = getattr(args, "output", None)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    print(json.dumps({"meta": {"timestamp": time.time()}}), file=sys.stderr)


# ---------------------------------------------------------------- subcommands

def cmd_generate(args) -> int:
    grid = _parse_grid(args.grid)
    params = json.loads(args.params) if args.params else {}
    obj = generators.generate(args.kind, grid, params, seed=args.seed or 0)
    _emit(obj.to_dict(), args)
    return EXIT_OK


def cmd_decompose(args) -> int:
    f = _load_function(args.input)
    dec = decompose(f)
    report = decomposition_to_dict(dec)
    back = reconstruct(dec)
    report["reconstruction_max_error"] = float(
        np.abs(back.values - f.values).max()
    )
    _emit(report, args)
    return EXIT_OK


def cmd_norms(args) -> int:
    f = _load_function(args.input)
    if args.quantity == "sf":
        sf = square_function(f)
        _emit({"value": float(sf.integral()), "witness": sf.to_dict(),
               "mode": "exact", "diagnostics": {}}, args)
        return EXIT_OK
    if args.quantity == "h1":
        _emit({"value": h1_norm(f, include_mean=args.include_mean),
               "witness": None, "mode": "exact",
               "diagnostics": {"include_mean": args.include_mean}}, args)
        return EXIT_OK
    if args.quantity == "bmo-little":
        res = little_bmo_norm(f, p=args.p, rect_class=args.rect_class)
        _emit({"value": res.value, "witness": res.witness, "mode": "exact",
               "diagnostics": {"p": res.p, "rect_class": res.rect_class}}, args)
        return EXIT_OK
    # bmo-dyadic
    if args.shift is not None:
        if args.exact:
            raise GridError("--shift runs the min-cut engine; drop --exact")
        res = shifted_packing(f, args.shift, alpha=args.cap)
    elif args.exact:
        res = bmo_d_norm_exact(f, cap_cells=args.cap_cells, alpha=args.cap)
    else:
        res = bmo_d_norm_cut(f, alpha=args.cap)
    _emit({"value": res.value, "witness": res.witness, "mode": res.mode,
           "diagnostics": res.diagnostics}, args)
    return EXIT_OK


def cmd_maximal(args) -> int:
    f = _load_function(args.input)
    mf = iterate_maximal(f, args.iter)
    report = {"value": mf.to_dict(), "witness": None, "mode": "exact",
              "diagnostics": {"iterations": args.iter}}
    if args.check_a1:
        report["diagnostics"]["a1_constant"] = check_a1(mf)
    _emit(report, args)
    return EXIT_OK


def cmd_tau(args) -> int:
    E = _load_mask(args.set)
    params = TauParams(delta=args.delta, c=args.c, tol=args.tol, kmax=args.kmax)
    report = tau_build(E, params)
    _emit({
        "tau": report.tau,
        "m": report.m,
        "bmo_norm_measured": report.bmo_norm_measured,
        "support_measure": report.support_measure,
        "terms_used": report.terms_used,
        "contraction_ratios": report.contraction_ratios,
        "delta": report.delta,
        "c_used": report.c_used,
        "l2_ratio": report.l2_ratio,
        "chebyshev_c2": report.chebyshev_c2,
    }, args)
    return EXIT_OK


# ------------------------------------------------------------- verify runners

def _config_grid(config: dict, default: ProductGrid) -> ProductGrid:
    if "grid" in config:
        return ProductGrid.from_dict(config["grid"])
    return default


def _random_function(grid: ProductGrid, rng) -> GridFunction:
    return GridFunction(grid, rng.uniform(-1.0, 1.0, size=grid.shape))


def _random_subfamily(grid: ProductGrid, rng, keep=0.3, alpha=None, strict=False):
    members = []
    for rect in enumerate_rectangles(grid):
        if alpha is not None:
            m = rect.measure
            if (m >= alpha) if strict else (m > alpha):
                continue
        if rng.random() < keep:
            members.append(rect)
    return RectangleFamily(grid, members)


def _run_lemma_a(config, trials, seed):
    grid = _config_grid(config, ProductGrid((1, 1), (2, 2)))
    rng = np.random.default_rng(seed)
    reports = []
    for t in range(trials):
        f = _random_function(grid, rng)
        family = _random_subfamily(grid, rng)
        i = int(rng.integers(grid.d))
        rep = check_lemma_a(f, family, i).to_dict()
        rep["trial"] = t
        reports.append(rep)
    return reports, all(r["passed"] for r in reports)


def _run_split(config, trials, seed):
    grid = _config_grid(config, ProductGrid((1, 1), (3, 3)))
    alpha = config.get("parameters", {}).get("alpha", 0.25)
    rng = np.random.default_rng(seed)
    reports = []
    for t in range(trials):
        family = _random_subfamily(grid, rng, alpha=alpha, strict=True)
        res = split_family(family, alpha).to_dict()
        res["trial"] = t
        res["family_size"] = len(family)
        reports.append(res)
    return reports, all(r["covered"] for r in reports)


def _run_lemma_b(config, trials, seed):
    grid = _config_grid(config, ProductGrid((1, 1), (2, 2)))
    params = config.get("parameters", {})
    alpha = params.get("alpha", 0.25)
    rng = np.random.default_rng(seed)
    reports = []
    for t in range(trials):
        phi = generators.smooth_bump(
            grid,
            center=float(rng.uniform(0.3, 0.7)),
            width=float(rng.uniform(0.5, 1.0)),
        )
        b_vals = rng.uniform(-1.0, 1.0, size=grid.shape)
        b = GridFunction(grid, b_vals / max(np.abs(b_vals).max(), 1.0))
        omega = generators.random_mask(grid, seed=int(rng.integers(2 ** 31)))
        rep = check_lemma_b(phi, b, omega, alpha).to_dict()
        rep["trial"] = t
        reports.append(rep)
    return reports, all(r["passed"] for r in reports)


def _run_abs_bmo(config, trials, seed):
    grid = _config_grid(config, ProductGrid((1, 1), (2, 2)))
    rng = np.random.default_rng(seed)
    reports = []
    for t in range(trials):
        f = _random_function(grid, rng)
        g = _random_function(grid, rng)
        rep = check_abs_bmo(f, g).to_dict()
        rep["trial"] = t
        reports.append(rep)
    return reports, all(r["passed"] for r in reports)


def _theorem_config(config, seed=None) -> TheoremRunConfig:
    grid = _config_grid(config, ProductGrid((1, 1), (5, 5)))
    params = config.get("parameters", {})
    kwargs = {name: params[name] for name in
              ("epsilon", "eta", "alpha", "delta", "generator", "horizon", "seed") if name in params}
    if seed is not None:
        kwargs["seed"] = seed
    return TheoremRunConfig(grid=grid, **kwargs)


def _run_theorem(config, seed):
    run_config = _theorem_config(config, seed)
    report = verify_mod.theorem_demo(run_config)
    final = report["records"][-1]
    if run_config.generator == "h1-bounded":
        ok = final["gap"] < run_config.epsilon
    else:
        ok = final["gap"] >= 0.9 * abs(report["phi_at_x0"])
    return report["records"], ok, report


def cmd_verify(args) -> int:
    config = _load_json_file(args.config) if args.config else {}
    if args.check == "theorem":
        if args.trials is not None:
            raise GridError("the theorem demo runs once and takes no --trials "
                            "(spec key parameters.trials)")
        records, ok, full = _run_theorem(config, args.seed)
        summary = {k: v for k, v in full.items() if k != "records"}
        summary["passed"] = ok
        _emit_lines(records, summary, args)
        return EXIT_OK if ok else EXIT_FAIL
    runner = {
        "lemma-a": _run_lemma_a,
        "split": _run_split,
        "lemma-b": _run_lemma_b,
        "abs-bmo": _run_abs_bmo,
    }[args.check]
    trials = 20 if args.trials is None else args.trials
    reports, ok = runner(config, trials, args.seed or 0)
    summary = {"check": args.check, "trials": trials, "seed": args.seed or 0,
               "passed": ok}
    _emit_lines(reports, summary, args)
    return EXIT_OK if ok else EXIT_FAIL


@functools.cache
def _spec_validator():
    """The experiment schema's validator; the schema itself is checked once."""
    schema = json.loads(resources.files("dyadichardy").joinpath("schemas", SCHEMA_NAME).read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def cmd_run(args) -> int:
    spec = _load_json_file(args.spec)
    error = jsonschema.exceptions.best_match(_spec_validator().iter_errors(spec))
    if error is not None:
        print(f"error: spec failed schema validation: {error.message}", file=sys.stderr)
        return EXIT_USAGE
    temp_paths = []
    try:
        return _dispatch_spec(spec, temp_paths)
    finally:
        for path in temp_paths:
            os.unlink(path)


def _spec_input(spec: dict, name: str, grid: ProductGrid | None):
    entry = spec.get("inputs", {}).get(name)
    if entry is None:
        raise GridError(f"spec is missing input {name!r}")
    if "path" in entry:
        return _load_json_file(entry["path"])
    if grid is None:
        raise GridError("generator inputs need a grid in the spec")
    return generators.generate(
        entry["kind"], grid, entry.get("params"), seed=entry.get("seed", 0)
    ).to_dict()


def _dispatch_spec(spec: dict, temp_paths: list) -> int:
    """Translate a validated spec into the equivalent flag invocation.

    Inputs go through temporary JSON files, listed in `temp_paths` for the
    caller to remove once the dispatched command returns."""
    params = spec.get("parameters", {})
    out = spec.get("output", {})
    argv = [spec["command"]]
    if "subcommand" in spec:
        argv.append(spec["subcommand"])
    grid = ProductGrid.from_dict(spec["grid"]) if "grid" in spec else None

    def add_file(flag, data):
        tmp = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False, prefix="dyadichardy-"
        )
        temp_paths.append(tmp.name)
        json.dump(data, tmp)
        tmp.close()
        argv.extend([flag, tmp.name])

    command = spec["command"]
    if command == "generate":
        argv.extend(["--kind", params["kind"], "--grid", json.dumps(spec["grid"])])
    elif command in ("decompose", "norms", "maximal"):
        add_file("--input", _spec_input(spec, "f", grid))
    elif command == "tau":
        add_file("--set", _spec_input(spec, "E", grid))
    elif command in ("verify", "demo"):
        add_file("--config", {"grid": spec.get("grid"), "parameters": params} if grid
                 else {"parameters": params})
    flag_map = {
        "alpha": "--alpha", "delta": "--delta", "eta": "--eta",
        "epsilon": "--epsilon", "c": "--c", "p": "--p",
        "restarts": "--restarts", "cap_cells": "--cap-cells",
        "cap": "--cap", "trials": "--trials", "seed": "--seed",
        "iter": "--iter", "tol": "--tol", "kmax": "--kmax",
        "rect_class": "--rect-class",
    }
    skip = {"kind", "generator", "horizon"}
    if command in ("verify", "demo"):
        skip |= {"alpha", "delta", "eta", "epsilon"}
    for key, flag in flag_map.items():
        if key in params and key not in skip:
            argv.extend([flag, str(params[key])])
    for key in ("exact", "include_mean"):
        if params.get(key):
            argv.append("--" + key.replace("_", "-"))
    if "shift" in params:
        argv.extend(["--shift", ",".join(str(s) for s in params["shift"])])
    if "path" in out:
        argv.extend(["--output", out["path"]])
    if "format" in out:
        argv.extend(["--format", out["format"]])
    return main(argv)


# -------------------------------------------------------------------- parser

def _add_common(p):
    p.add_argument("--output", help="also write the report to this path")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--seed", type=int)  # None: 0, or the theorem config's seed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="dyadichardy",
        description="Dyadic product-grid Hardy space toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a built-in test function or mask")
    p.add_argument("--kind", required=True)
    p.add_argument("--grid", required=True, help="inline JSON descriptor or path")
    p.add_argument("--params", help="generator parameters as inline JSON")
    _add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("decompose", help="full martingale difference decomposition")
    p.add_argument("--input", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("norms", help="norm engines")
    p.add_argument("quantity", choices=["sf", "h1", "bmo-little", "bmo-dyadic"])
    p.add_argument("--input", required=True)
    p.add_argument("--exact", action="store_true",
                   help="bmo-dyadic by the bit-mask oracle (cell-capped; "
                        "default: the exact min-cut engine)")
    p.add_argument("--restarts", type=int, default=12,
                   help="accepted for compatibility and unused, like --seed here: "
                        "bmo-dyadic has no random engine")
    p.add_argument("--cap", type=float, help="rectangle size cap alpha")
    p.add_argument("--cap-cells", type=int,
                   help="exact-oracle cell cap override (applies only with --exact)")
    p.add_argument("--shift", type=lambda s: [int(x) for x in s.split(",")],
                   help="comma-separated whole-cell lattice shift per axis "
                        "(min-cut engine only)")
    p.add_argument("--p", type=int, choices=[1, 2], default=2)
    p.add_argument("--rect-class", choices=["dyadic", "aligned"], default="aligned")
    p.add_argument("--include-mean", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("maximal", help="strong maximal function iterates")
    p.add_argument("--input", required=True)
    p.add_argument("--iter", type=int, default=1)
    p.add_argument("--check-a1", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_maximal)

    p = sub.add_parser("tau", help="A1-weight cutoff construction")
    p.add_argument("--set", required=True, help="mask JSON for the set E")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c", type=float)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--kmax", type=int, default=60)
    _add_common(p)
    p.set_defaults(func=cmd_tau)

    for name, help_text in (
        ("verify", "certify an inequality over randomized trials"),
        ("demo", "alias for `verify theorem`"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "verify":
            p.add_argument("check",
                           choices=["lemma-a", "split", "lemma-b", "abs-bmo", "theorem"])
        else:
            p.set_defaults(check="theorem")
        p.add_argument("--config", help="run configuration JSON")
        p.add_argument("--trials", type=int)
        _add_common(p)
        p.set_defaults(func=cmd_verify)

    p = sub.add_parser("run", help="execute a schema-validated experiment spec")
    p.add_argument("--spec", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ContractionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (GridError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
