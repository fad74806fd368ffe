"""Command-line front end: generators, decomposition, norm engines, the
maximal/cutoff pipeline, and the inequality certification harness.

Exit codes: 0 pass, 1 usage/IO/schema error, 2 inequality or numerical
failure, 3 resource cap exceeded.  Reports are deterministic for a fixed
spec and seed; wall-clock metadata goes to stderr, never into a report.

Each command is one handler whose keyword parameters are both the flags it
takes and the spec parameters it honours: flags and `run --spec` build the
same objects and call the same handler.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import itertools
import json
import sys
import time
from importlib import resources
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ContractionError, GridError, ResourceCapError
from . import generators
from .grid import (
    GridFunction,
    OpenSetMask,
    ProductGrid,
    RectangleFamily,
    enumerate_rectangles,
    rectangles_in,
)
from .martingale import decompose, decomposition_to_dict, reconstruct
from .maximal import TauParams, check_a1 as a1_constant, iterate_maximal, tau_build
from .norms import (
    DEFAULT_EXACT_CAP,
    bmo_d_norm_cut,
    bmo_d_norm_exact,
    h1_norm,
    little_bmo_norm,
    shifted_packing,
    square_function,
)
from .verify import (
    CONFIG_KEYS,
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

def _load_json_file(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read_json(text: str):
    """JSON from an inline value or from the file it names."""
    text = text.strip()
    return json.loads(text) if text.startswith("{") else _load_json_file(text)


@functools.cache
def _spec_validator():
    """The experiment schema's validator, with jsonschema's `best_match`; the
    schema is checked once.  jsonschema is imported here, so only commands
    that read a config or a spec load it."""
    import jsonschema

    schema = json.loads(resources.files("dyadichardy").joinpath("schemas", SCHEMA_NAME).read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema), jsonschema.exceptions.best_match


def _validate(instance, what="config"):
    """`instance` if it is a valid spec or, for what="config", a valid run
    configuration (a spec's `grid` and `parameters` alone); else GridError.
    A NaN parameter passes the schema's bounds, so it is refused here."""
    validator, best_match = _spec_validator()
    if what == "config":
        props = validator.schema["properties"]
        validator = validator.evolve(schema={
            "type": "object", "additionalProperties": False,
            "properties": {key: props[key] for key in ("grid", "parameters")}})
    error = best_match(validator.iter_errors(instance))
    if error is not None:
        raise GridError(f"{what} failed schema validation: {error.message}")
    for key, value in instance.get("parameters", {}).items():
        if value != value:
            raise GridError(f"{what} failed schema validation: parameters.{key} is NaN; "
                            "it must be positive")
    return instance


# How each object a handler reads is built from its JSON form: the value of
# its flag (inline JSON or a path), or a spec's `inputs` entry.
_FROM_DICT = {
    "grid": ProductGrid.from_dict,
    "f": GridFunction.from_dict,
    "E": OpenSetMask.from_dict,
    "config": _validate,
}


def _jsonable(obj):
    """Plain JSON data from a report: one `tolist()` per array."""
    if obj is None or type(obj) in (str, int, float, bool):
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(obj) if set(map(type, obj)) <= {float, int} else [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, AlignedBox):
        return {"starts": list(obj.starts), "sides": list(obj.sides)}
    if hasattr(obj, "key") and callable(obj.key):
        return obj.key()
    if hasattr(obj, "to_dict") and callable(obj.to_dict):
        return _jsonable(obj.to_dict())
    return obj


def _number_lists(rows: list, pad: str):
    """`_dumps` of each row at indent `pad`, cut from one `repr` of all rows;
    None unless each row is a nonempty flat list of finite ints and floats."""
    if all(type(row) is list and row for row in rows) and set(
            map(type, itertools.chain.from_iterable(rows))) <= {float, int}:
        text = repr(rows)[2:-2]
        if "n" not in text:  # of a number's reprs only nan and inf have an n
            return ["[" + pad + row.replace(", ", "," + pad) + pad[:-2] + "]"
                    for row in text.split("], [")]


def _dumps(obj, level=0) -> str:
    """`json.dumps(obj, indent=2, sort_keys=True)` of plain JSON data, byte for
    byte; one `repr` writes a flat list of finite numbers, or a dict of such."""
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, dict) and obj:
        keys = sorted(obj)
        texts = (_number_lists([obj[k] for k in keys], pad + "  ")
                 or [_dumps(obj[k], level + 1) for k in keys])
        items = (encode_basestring_ascii(k) + ": " + v for k, v in zip(keys, texts))
        return "{" + pad + ("," + pad).join(items) + pad[:-2] + "}"
    if not isinstance(obj, list) or not obj:
        return json.dumps(obj)
    return (_number_lists([obj], pad) or [
        "[" + pad + ("," + pad).join(_dumps(v, level + 1) for v in obj) + pad[:-2] + "]"])[0]


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


def _emit(report, output=None, format="json") -> None:
    """Write a report to stdout and to `output`, and a timestamp to stderr.
    A list report (verify) is written as one JSON object per line."""
    report = _jsonable(report)
    if isinstance(report, list):
        text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in report)
    elif format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key, value in _flatten_csv_rows(report):
            writer.writerow([key, value])
        text = buf.getvalue()
    else:
        text = _dumps(report) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)
    print(json.dumps({"meta": {"timestamp": time.time()}}), file=sys.stderr)


# ---------------------------------------------------------------- subcommands
# `seed`, like --seed, is read by generate and the randomized verify checks;
# norms accepts it and `restarts` unused; the theorem demo, decompose,
# maximal and tau reject it.

def cmd_generate(*, kind, grid, params=None, seed=None):
    params = json.loads(params) if params else {}
    return generators.generate(kind, grid, params, seed=seed or 0).to_dict()


def cmd_decompose(*, f):
    dec = decompose(f)
    report = decomposition_to_dict(dec)
    back = reconstruct(dec)
    report["reconstruction_max_error"] = float(
        np.abs(back.values - f.values).max()
    )
    return report


def cmd_norms(quantity, *, f, exact=False, restarts=12, cap=None, cap_cells=DEFAULT_EXACT_CAP,
              shift=None, p=2, rect_class="aligned", include_mean=False, seed=None):
    """`restarts` is accepted and unused: no engine behind bmo-dyadic is random."""
    if quantity == "sf":
        sf = square_function(f)
        return {"value": float(sf.integral()), "witness": sf.to_dict(),
                "mode": "exact", "diagnostics": {}}
    if quantity == "h1":
        return {"value": h1_norm(f, include_mean=include_mean),
                "witness": None, "mode": "exact",
                "diagnostics": {"include_mean": include_mean}}
    if quantity == "bmo-little":
        res = little_bmo_norm(f, p=p, rect_class=rect_class)
        return {"value": res.value, "witness": res.witness, "mode": "exact",
                "diagnostics": {"p": res.p, "rect_class": res.rect_class}}
    if quantity != "bmo-dyadic":
        raise GridError(f"unknown norms quantity {quantity!r}")
    if shift is not None:
        if exact:
            raise GridError("--shift runs the min-cut engine; drop --exact")
        res = shifted_packing(f, shift, alpha=cap)
    elif exact:
        res = bmo_d_norm_exact(f, cap_cells=cap_cells, alpha=cap)
    else:
        res = bmo_d_norm_cut(f, alpha=cap)
    return {"value": res.value, "witness": res.witness, "mode": res.mode,
            "diagnostics": res.diagnostics}


def cmd_maximal(*, f, iter=1, check_a1=False):
    mf = iterate_maximal(f, iter)
    report = {"value": mf.to_dict(), "witness": None, "mode": "exact",
              "diagnostics": {"iterations": iter}}
    if check_a1:
        report["diagnostics"]["a1_constant"] = a1_constant(mf)
    return report


def cmd_tau(*, E, delta, c=None, tol=TauParams.tol, kmax=TauParams.kmax):
    return vars(tau_build(E, TauParams(delta=delta, c=c, tol=tol, kmax=kmax)))


# ------------------------------------------------------------- verify runners

def _config_grid(config: dict, default: ProductGrid) -> ProductGrid:
    if "grid" in config:
        return ProductGrid.from_dict(config["grid"])
    return default


def _random_function(grid: ProductGrid, rng) -> GridFunction:
    return GridFunction(grid, rng.uniform(-1.0, 1.0, size=grid.shape))


def _random_subfamily(grid: ProductGrid, rng, keep=0.3, alpha=None, strict=False):
    """One uniform draw per rectangle under the size cap, in canonical order."""
    passing = rectangles_in(enumerate_rectangles(grid), OpenSetMask.full(grid), alpha, strict)._mask
    mask = np.zeros_like(passing)
    mask[passing] = rng.random(int(np.count_nonzero(passing))) < keep
    return RectangleFamily._from_mask(grid, mask)


def _lemma_a_trial(grid, rng, alpha):
    f = _random_function(grid, rng)
    family = _random_subfamily(grid, rng)
    return check_lemma_a(f, family, int(rng.integers(grid.d))).to_dict()


def _split_trial(grid, rng, alpha):
    family = _random_subfamily(grid, rng, alpha=alpha, strict=True)
    return dict(split_family(family, alpha).to_dict(), family_size=len(family))


def _lemma_b_trial(grid, rng, alpha):
    phi = generators.smooth_bump(
        grid,
        center=float(rng.uniform(0.3, 0.7)),
        width=float(rng.uniform(0.5, 1.0)),
    )
    b_vals = rng.uniform(-1.0, 1.0, size=grid.shape)
    b = GridFunction(grid, b_vals / max(np.abs(b_vals).max(), 1.0))
    omega = generators.random_mask(grid, seed=int(rng.integers(2 ** 31)))
    return check_lemma_b(phi, b, omega, alpha).to_dict()


def _abs_bmo_trial(grid, rng, alpha):
    f = _random_function(grid, rng)
    g = _random_function(grid, rng)
    return check_abs_bmo(f, g).to_dict()


# check: (one randomized trial, default grid depth per factor, verdict key)
_CHECKS = {
    "lemma-a": (_lemma_a_trial, 2, "passed"),
    "split": (_split_trial, 3, "covered"),
    "lemma-b": (_lemma_b_trial, 2, "passed"),
    "abs-bmo": (_abs_bmo_trial, 2, "passed"),
}


def _theorem_config(config) -> TheoremRunConfig:
    grid = _config_grid(config, ProductGrid((1, 1), (5, 5)))
    params = config.get("parameters", {})
    return TheoremRunConfig(grid=grid, **{name: params[name] for name in CONFIG_KEYS
                                          if name in params})


def cmd_verify(check, *, config=None, trials=None, seed=None):
    """Report lines: one per trial (per horizon step for the theorem), then
    {"summary": ...}."""
    config = config or {}
    params = config.get("parameters", {})
    if check == "theorem":
        if trials is not None or "trials" in params:
            raise GridError("the theorem demo runs once and takes no --trials "
                            "(spec key parameters.trials)")
        if seed is not None or "seed" in params:
            raise GridError("the theorem demo draws no random numbers and takes no --seed "
                            "(spec key parameters.seed)")
        run_config = _theorem_config(config)
        report = verify_mod.theorem_demo(run_config)
        final = report["records"][-1]
        if run_config.generator == "h1-bounded":
            ok = final["gap"] < run_config.epsilon
        else:
            ok = final["gap"] >= 0.9 * abs(report["phi_at_x0"])
        summary = {k: v for k, v in report.items() if k != "records"}
        summary["passed"] = ok
        return [*report["records"], {"summary": summary}]
    run_trial, depth, verdict = _CHECKS[check]
    grid = _config_grid(config, ProductGrid((1, 1), (depth, depth)))
    alpha = params.get("alpha", 0.25)
    trials = params.get("trials", 20) if trials is None else trials
    seed = params.get("seed", 0) if seed is None else seed
    if trials < 1:
        raise GridError(f"{check} needs at least one trial, not {trials}")
    rng = np.random.default_rng(seed)
    reports = [dict(run_trial(grid, rng, alpha), trial=t) for t in range(trials)]
    summary = {"check": check, "trials": trials, "seed": seed,
               "passed": all(r[verdict] for r in reports)}
    return [*reports, {"summary": summary}]


COMMANDS = {
    "generate": cmd_generate,
    "decompose": cmd_decompose,
    "norms": cmd_norms,
    "maximal": cmd_maximal,
    "tau": cmd_tau,
    "verify": cmd_verify,
    "demo": functools.partial(cmd_verify, "theorem"),
}


# ------------------------------------------------------------------ run --spec

def _spec_input(name: str, entry: dict, grid: ProductGrid | None):
    """A spec input, read from its file or generated on the spec's grid,
    built by the same from_dict as the value of its flag."""
    if name not in _FROM_DICT:
        raise GridError(f"spec key inputs.{name} names no input")
    if "path" in entry:
        data = _load_json_file(entry["path"])
    elif grid is None:
        raise GridError("generator inputs need a grid in the spec")
    else:
        data = generators.generate(
            entry["kind"], grid, entry.get("params"), seed=entry.get("seed", 0)
        ).to_dict()
    return _FROM_DICT[name](data)


def _spec_call(spec):
    """The handler a spec names, its keyword arguments and output options.

    A key the handler does not take is an error, never silently dropped."""
    _validate(spec, "spec")
    command = spec["command"]
    handler = COMMANDS[command]
    grid = ProductGrid.from_dict(spec["grid"]) if "grid" in spec else None
    params = dict(spec.get("parameters", {}))
    named = []  # (spec key, handler parameter, value)
    if command in ("verify", "demo"):
        config = {"parameters": {k: params.pop(k) for k in CONFIG_KEYS if k in params}}
        if grid is not None:
            config["grid"] = spec["grid"]
        named.append(("grid", "config", config))
    elif command == "generate" and grid is not None:
        named.append(("grid", "grid", grid))
    named += [(f"parameters.{k}", k, v) for k, v in params.items()]
    named += [(f"inputs.{k}", k, _spec_input(k, entry, grid))
              for k, entry in spec.get("inputs", {}).items()]
    signature = inspect.signature(handler)
    kwargs = {}
    for key, name, value in named:
        if name not in signature.parameters or name in kwargs:
            raise GridError(f"{command} does not take the spec key {key}")
        kwargs[name] = value
    try:
        positional = [spec["subcommand"]] if "subcommand" in spec else []
        bound = signature.bind(*positional, **kwargs)
    except TypeError as exc:
        raise GridError(f"spec does not fit {command}: {exc}") from None
    output = spec.get("output", {})
    return handler, bound.arguments, {"output": output.get("path"),
                                      "format": output.get("format", "json")}


# -------------------------------------------------------------------- parser

def _add_common(p, seed=True):
    p.add_argument("--output", help="also write the report to this path")
    p.add_argument("--format", choices=["json", "csv"])
    if seed:
        p.add_argument("--seed", type=int)  # absent: 0; the theorem demo rejects it


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call.

    Only the flags given, by their full names, reach the namespace; the
    defaults are the handlers'.  `--input` and `--set` are stored under
    the spec's input names `f` and `E`."""
    parser = argparse.ArgumentParser(
        prog="dyadichardy",
        description="Dyadic product-grid Hardy space toolkit",
        argument_default=argparse.SUPPRESS,
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        return sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS,
                              allow_abbrev=False)

    p = command("generate", "emit a built-in test function or mask")
    p.add_argument("--kind", required=True)
    p.add_argument("--grid", required=True, help="inline JSON descriptor or path")
    p.add_argument("--params", help="generator parameters as inline JSON")
    _add_common(p)

    p = command("decompose", "full martingale difference decomposition")
    p.add_argument("--input", dest="f", metavar="INPUT", required=True)
    _add_common(p, seed=False)

    p = command("norms", "norm engines")
    p.add_argument("quantity", choices=["sf", "h1", "bmo-little", "bmo-dyadic"])
    p.add_argument("--input", dest="f", metavar="INPUT", required=True)
    p.add_argument("--exact", action="store_true",
                   help="bmo-dyadic by the bit-mask oracle (cell-capped; "
                        "default: the exact min-cut engine)")
    p.add_argument("--restarts", type=int,
                   help="accepted for compatibility and unused, like --seed here: "
                        "bmo-dyadic has no random engine")
    p.add_argument("--cap", type=float, help="rectangle size cap alpha")
    p.add_argument("--cap-cells", type=int,
                   help="exact-oracle cell cap override (applies only with --exact)")
    p.add_argument("--shift", type=lambda s: [int(x) for x in s.split(",")],
                   help="comma-separated whole-cell lattice shift per axis "
                        "(min-cut engine only)")
    p.add_argument("--p", type=int, choices=[1, 2])
    p.add_argument("--rect-class", choices=["dyadic", "aligned"])
    p.add_argument("--include-mean", action="store_true")
    _add_common(p)

    p = command("maximal", "strong maximal function iterates")
    p.add_argument("--input", dest="f", metavar="INPUT", required=True)
    p.add_argument("--iter", type=int)
    p.add_argument("--check-a1", action="store_true")
    _add_common(p, seed=False)

    p = command("tau", "A1-weight cutoff construction")
    p.add_argument("--set", dest="E", metavar="SET", required=True,
                   help="mask JSON for the set E")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--kmax", type=int)
    _add_common(p, seed=False)

    for name, help_text in (
        ("verify", "certify an inequality over randomized trials"),
        ("demo", "alias for `verify theorem`"),
    ):
        p = command(name, help_text)
        if name == "verify":
            p.add_argument("check", choices=[*_CHECKS, "theorem"])
        p.add_argument("--config", help="run configuration JSON")
        p.add_argument("--trials", type=int)
        _add_common(p)

    p = command("run", "execute a schema-validated experiment spec")
    p.add_argument("--spec", required=True)  # output options come from the spec

    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        command = args.pop("command")
        if command == "run":
            handler, args, out = _spec_call(_load_json_file(args["spec"]))
        else:
            handler = COMMANDS[command]
            out = {key: args.pop(key) for key in ("output", "format") if key in args}
            for name, from_dict in _FROM_DICT.items():
                if name in args:
                    args[name] = from_dict(_read_json(args[name]))
        report = handler(**args)
        _emit(report, **out)
        if isinstance(report, list) and not report[-1]["summary"]["passed"]:
            return EXIT_FAIL
        return EXIT_OK
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
