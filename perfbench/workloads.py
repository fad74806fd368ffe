"""The benchmark's three workloads.

Each workload is a closed loop with one caller: the next library call
starts only after the previous one returned.  ``setup`` turns the seed
into inputs (the library only ever sees those inputs), and ``items``
returns one pass: a fixed list of ``(label, call)`` pairs.  A call runs
one item and returns the list of its failed output checks, so a wrong
output is counted rather than aborting the run.  Every pass of a run
repeats the same inputs, so per-pass counts repeat exactly.

Why each workload exists, which layers it stresses and which it bypasses
is recorded in ``workloads.json`` next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np

REL_TOL = 1e-12


def _problem(ok, text):
    return [] if ok else [text]


def _tau_problems(tau, E, label=""):
    """Criterion 7's checks on a cutoff built on E: exactly 1 on E, in [0, 1]."""
    problems = _problem(bool(np.all(tau[E.cells] == 1.0)), f"tau = 1 on E{label}")
    problems += _problem(bool(np.all(tau >= 0.0) and np.all(tau <= 1.0 + 1e-14)),
                         f"0 <= tau <= 1{label}")
    return problems


class Workload:
    """Defaults for workloads that keep no per-pass totals and own no
    resources beyond their inputs."""

    def pass_stats(self, state):
        """Totals of the pass that just ran, keyed by per-layer metric name."""
        return {}

    def teardown(self, state):
        pass


# ------------------------------------------------------------------ haar_corpus

# The acceptance suite's Parseval grid pool: 16 to 4096 cells, d = 1, 2, 3.
PARSEVAL_POOL = [
    ((1,), (5,)), ((1,), (12,)), ((2,), (4,)), ((1, 1), (5, 5)),
    ((1, 2), (3, 2)), ((2, 1), (3, 3)), ((1, 1, 1), (3, 3, 3)),
    ((1, 1, 1), (2, 2, 2)), ((1, 1), (2, 2)), ((1, 1, 1), (4, 4, 4)),
]
# Three cycles of the pool: each grid appears once piecewise constant.
HAAR_ITEMS_PER_PASS = 3 * len(PARSEVAL_POOL)


class HaarCorpus(Workload):
    """One item: decompose -> Parseval check -> reconstruct -> h1_norm ->
    rectangle_energies, on one function of the seeded stream."""

    name = "haar_corpus"

    def setup(self, dh, seed, workdir):
        rng = np.random.default_rng(seed)
        functions = []
        for k in range(HAAR_ITEMS_PER_PASS):
            grid = dh.ProductGrid(*PARSEVAL_POOL[k % len(PARSEVAL_POOL)])
            sub_seed = int(rng.integers(2 ** 31))
            if k % 3 == 0:
                # Constant on cubes two levels above the finest cells, so the
                # two finest difference levels vanish and decompose prunes them.
                coarse = [side // 4 for side in grid.shape]
                vals = np.random.default_rng(sub_seed).uniform(-1.0, 1.0, coarse)
                for axis in range(vals.ndim):
                    vals = np.repeat(vals, 4, axis=axis)
                functions.append(dh.GridFunction(grid, vals))
            else:
                functions.append(dh.generators.random_uniform(grid, seed=sub_seed))
        order = rng.permutation(len(functions))
        return {"dh": dh, "functions": [functions[i] for i in order],
                "labels": [self._label(functions[i], i) for i in order]}

    @staticmethod
    def _label(f, k):
        grid = f.grid
        return (f"{grid.cell_count} cells {grid.factor_dims}x{grid.depths} "
                f"{'piecewise' if k % 3 == 0 else 'random'} #{k}")

    def items(self, state):
        dh = state["dh"]
        return [(label, lambda f=f: self._item(dh, f))
                for label, f in zip(state["labels"], state["functions"])]

    @staticmethod
    def _item(dh, f):
        dec = dh.decompose(f)
        pure = dec.pure_energy()
        total = pure + dec.hybrid_energy()
        l2 = f.l2_sq()
        problems = _problem(abs(total - l2) <= REL_TOL * l2, "parseval")
        back = dh.reconstruct(dec)
        err = float(np.abs(back.values - f.values).max())
        problems += _problem(err <= REL_TOL * f.linf(), "reconstruction")
        h1 = dh.h1_norm(f)
        problems += _problem(math.isfinite(h1) and h1 >= 0.0, "h1_norm")
        energies = dh.rectangle_energies(f)
        problems += _problem(
            abs(math.fsum(energies.values()) - pure) <= REL_TOL * l2, "energies")
        return problems


# ------------------------------------------------------------------ cutoff_demo

class CutoffDemo(Workload):
    """The paper's headline demonstration: both theorem_demo routes plus the
    criterion-7 tau_build delta sweep.  One item is one route, or the whole
    sweep: three items per pass."""

    name = "cutoff_demo"
    DELTAS = (0.5, 0.25, 0.125)
    EPSILON = 1e-2

    def setup(self, dh, seed, workdir):
        rng = np.random.default_rng(seed)
        grid64 = dh.ProductGrid((1, 1), (3, 3))
        # |E| = 1/16: a 2x2 block in one of the four corners.  The corners
        # are mirror images, so the seed changes the set, not the work.
        r0, c0 = (int(v) * 6 for v in rng.integers(2, size=2))
        cells = [(r0 + a) * 8 + c0 + b for a in (0, 1) for b in (0, 1)]
        E = dh.generators.cell_mask(grid64, cells)
        bounded = dh.TheoremRunConfig(
            grid=dh.ProductGrid((1, 1), (4, 4)), generator="h1-bounded",
            epsilon=self.EPSILON, horizon=6, search_restarts=2,
            seed=int(rng.integers(2 ** 31)))
        spike = dh.TheoremRunConfig(
            grid=dh.ProductGrid((1,), (9,)), generator="l1-spike",
            epsilon=self.EPSILON, horizon=7, search_restarts=2,
            seed=int(rng.integers(2 ** 31)))
        return {"dh": dh, "E": E, "bounded": bounded, "spike": spike}

    def items(self, state):
        dh = state["dh"]
        return [("theorem_h1_bounded", lambda: self._bounded(dh, state["bounded"])),
                ("theorem_l1_spike", lambda: self._spike(dh, state["spike"])),
                ("tau_build delta sweep", lambda: self._sweep(dh, state["E"]))]

    def _bounded(self, dh, config):
        rep = dh.theorem_demo(config)
        records = rep["records"]
        # The route's verdict (as `verify theorem` judges it) plus the facts
        # every record must satisfy: the H^1 bound and the split inequality
        # |int (f - f_n) phi| <= term_far + term_f_on_supp + term_fn_tau.
        problems = _problem(records[-1]["gap"] < self.EPSILON, "gap")
        problems += _problem(all(r["h1_f_n"] <= 1.0 + 1e-10 for r in records), "h1 bound")
        problems += _problem(
            all(r["gap"] <= r["split_bound"] * (1 + REL_TOL) + 1e-15 for r in records),
            "split inequality")
        return problems

    @staticmethod
    def _spike(dh, config):
        rep = dh.theorem_demo(config)
        records = rep["records"]
        gaps = [r["gap"] for r in records]
        h1s = [r["h1_f_n"] for r in records]
        problems = _problem(gaps[-1] >= 0.9 * abs(rep["phi_at_x0"]), "spike gap")
        problems += _problem(
            all(h1s[n + 1] / h1s[n] >= 2.0 for n in range(1, len(h1s) - 1)),
            "h1 growth")
        return problems

    def _sweep(self, dh, E):
        problems = []
        for delta in self.DELTAS:
            tau = dh.tau_build(E, dh.TauParams(delta=delta)).tau.values
            problems += _tau_problems(tau, E, f", delta {delta}")
        return problems


# ------------------------------------------------------------------ cli_certify

SMALL_GRIDS = [((1, 1), (2, 2)), ((1,), (4,)), ((1, 2), (2, 1)), ((2,), (2,)),
               ((1, 1, 1), (2, 1, 1))]  # 16 cells each: the exact oracle runs
VERIFY_GRIDS = [((1, 1), (2, 2)), ((1, 2), (2, 1)), ((1, 1), (3, 3)),
                ((1, 1, 1), (2, 1, 1))]
PACKING_PAIRS = 16
EXIT_OK, EXIT_CAP = 0, 3


class CliCertify(Workload):
    """An in-process CLI session: one item is one ``cli.main(argv)`` call
    with stdout and stderr captured.  Input JSON files are written during
    set-up into a directory the benchmark owns, and ``tempfile.tempdir``
    points there so leaked temporary files are counted and removed."""

    name = "cli_certify"

    def setup(self, dh, seed, workdir):
        rng = np.random.default_rng(seed)
        gen = dh.generators
        base = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        tmp = os.path.join(base, "tmp")
        os.mkdir(tmp)

        def sub():
            return int(rng.integers(2 ** 31))

        def write(name, data):
            path = os.path.join(base, name + ".json")
            with open(path, "w") as fh:
                json.dump(data, fh)
            return path

        def function(name, dims_depths):
            f = gen.random_uniform(dh.ProductGrid(*dims_depths), seed=sub())
            return write(name, f.to_dict()), f

        state = {"dh": dh, "base": base, "tmp": tmp, "inputs": {},
                 "saved_tempdir": tempfile.tempdir}
        inputs = state["inputs"]
        for k in range(PACKING_PAIRS):
            inputs[f"small{k}"] = function(f"small{k}", SMALL_GRIDS[k % len(SMALL_GRIDS)])
        inputs["big512"] = function("big512", ((1, 1, 1), (3, 3, 3)))
        inputs["big1024"] = function("big1024", ((1, 1), (5, 5)))
        inputs["dec256"] = function("dec256", ((1, 1), (4, 4)))
        inputs["dec512"] = function("dec512", ((2, 1), (3, 3)))
        inputs["dec1024"] = function("dec1024", ((1,), (10,)))
        for k, dims_depths in enumerate([((1, 1), (3, 3)), ((1, 2), (3, 2)),
                                         ((1, 1), (4, 4))] * 2):
            inputs[f"norm{k}"] = function(f"norm{k}", dims_depths)
        inputs["cap64"] = function("cap64", ((1, 1), (3, 3)))
        grid64 = dh.ProductGrid((1, 1), (3, 3))
        r0, c0 = (int(v) * 6 for v in rng.integers(2, size=2))
        E = gen.cell_mask(grid64, [(r0 + a) * 8 + c0 + b for a in (0, 1) for b in (0, 1)])
        state["E"] = E
        state["mask"] = write("mask64", E.to_dict())
        state["configs"] = [
            write(f"config{k}", {"grid": dh.ProductGrid(*dd).to_dict(),
                                 "parameters": {"alpha": 0.25}})
            for k, dd in enumerate(VERIFY_GRIDS)]
        grid_a = dh.ProductGrid(*VERIFY_GRIDS[0]).to_dict()
        grid_c = dh.ProductGrid(*VERIFY_GRIDS[2]).to_dict()
        specs = [
            {"command": "norms", "subcommand": "h1", "grid": grid64.to_dict(),
             "inputs": {"f": {"kind": "random-uniform", "seed": sub()}}},
            {"command": "norms", "subcommand": "sf",
             "inputs": {"f": {"path": inputs["norm1"][0]}}},
            {"command": "decompose", "inputs": {"f": {"path": inputs["dec256"][0]}}},
            {"command": "verify", "subcommand": "lemma-a", "grid": grid_a,
             "parameters": {"trials": 2, "seed": sub()}},
            {"command": "verify", "subcommand": "split", "grid": grid_c,
             "parameters": {"trials": 2, "seed": sub(), "alpha": 0.25}},
            {"command": "maximal", "grid": grid64.to_dict(),
             "inputs": {"f": {"kind": "random-uniform", "seed": sub()}},
             "parameters": {"iter": 1}},
            {"command": "norms", "subcommand": "bmo-little", "grid": grid64.to_dict(),
             "inputs": {"f": {"kind": "smooth-bump"}}, "parameters": {"p": 2}},
        ]
        state["specs"] = [write(f"spec{k}", dict(spec, schema="experiment-v1"))
                          for k, spec in enumerate(specs * 2)]
        state["search_seeds"] = [sub() for _ in range(PACKING_PAIRS + 4)]
        state["verify_seeds"] = [sub() for _ in range(4 * len(VERIFY_GRIDS))]
        tempfile.tempdir = tmp
        self._reset_pass(state)
        return state

    @staticmethod
    def _reset_pass(state):
        state["exact"] = {}
        state["sf"] = {}
        state["ratios"] = []
        state["stdout_bytes"] = 0

    def _invoke(self, state, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = state["dh"].cli.main(argv)
        text = out.getvalue()
        state["stdout_bytes"] += len(text.encode())
        return rc, text

    def _call(self, state, argv, check, expect=EXIT_OK):
        rc, text = self._invoke(state, argv)
        if rc != expect:
            return [f"exit {rc} (expected {expect})"]
        return check(text) if check else []

    def items(self, state):
        inputs = state["inputs"]
        seeds = iter(state["search_seeds"])
        vseeds = iter(state["verify_seeds"])
        out = []

        def add(label, argv, check, expect=EXIT_OK):
            out.append((label, lambda: self._call(state, argv, check, expect)))

        for k in range(PACKING_PAIRS):
            path, _ = inputs[f"small{k}"]
            add(f"bmo-dyadic exact small{k}",
                ["norms", "bmo-dyadic", "--input", path, "--exact"],
                lambda text, k=k: self._record_exact(state, k, text))
            add(f"bmo-dyadic search small{k}",
                ["norms", "bmo-dyadic", "--input", path, "--restarts", "4",
                 "--seed", str(next(seeds))],
                lambda text, k=k: self._check_search(state, k, text))
        for name in ("big512", "big1024"):
            path, f = inputs[name]
            add(f"bmo-dyadic search {name}",
                ["norms", "bmo-dyadic", "--input", path, "--restarts", "2",
                 "--seed", str(next(seeds))], self._check_value)
            shift = ",".join("1" for _ in f.grid.shape)
            add(f"bmo-dyadic shift {name}",
                ["norms", "bmo-dyadic", "--input", path, "--restarts", "2",
                 "--seed", str(next(seeds)), "--shift", shift], self._check_value)
        for name in ("dec256", "dec512", "dec1024"):
            path, _ = inputs[name]
            add(f"decompose {name}", ["decompose", "--input", path], self._check_decompose)
            add(f"decompose {name} --output",
                ["decompose", "--input", path,
                 "--output", os.path.join(state["base"], f"out-{name}.json")],
                self._check_decompose)
        for k in range(6):
            path, f = inputs[f"norm{k}"]
            add(f"norms sf norm{k}", ["norms", "sf", "--input", path],
                lambda text, k=k: self._record_sf(state, k, text))
            add(f"norms h1 norm{k}", ["norms", "h1", "--input", path],
                lambda text, k=k: self._check_h1(state, k, text))
            add(f"norms bmo-little p1 dyadic norm{k}",
                ["norms", "bmo-little", "--input", path, "--p", "1",
                 "--rect-class", "dyadic"], self._check_value)
            add(f"norms bmo-little p2 aligned norm{k}",
                ["norms", "bmo-little", "--input", path, "--p", "2",
                 "--rect-class", "aligned"], self._check_value)
        for k in (0, 2, 3, 5):
            path, f = inputs[f"norm{k}"]
            add(f"maximal --iter 2 norm{k}", ["maximal", "--input", path, "--iter", "2"],
                lambda text, f=f: self._check_maximal(f, text))
        for delta in ("0.5", "0.25"):
            add(f"tau delta {delta}", ["tau", "--set", state["mask"], "--delta", delta],
                lambda text: self._check_tau(state["E"], text))
        for check in ("lemma-a", "split", "lemma-b", "abs-bmo"):
            for k, config in enumerate(state["configs"]):
                add(f"verify {check} config{k}",
                    ["verify", check, "--config", config, "--trials", "2",
                     "--seed", str(next(vseeds))], self._check_verify)
        for k, spec in enumerate(state["specs"]):
            add(f"run --spec spec{k}", ["run", "--spec", spec], self._check_spec)
        add("bmo-dyadic exact over cap",
            ["norms", "bmo-dyadic", "--input", inputs["cap64"][0], "--exact"],
            None, expect=EXIT_CAP)
        return out

    # ---------------------------------------------------------------- checks

    @staticmethod
    def _value(text):
        value = json.loads(text)["value"]
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
            raise ValueError(f"bad value {value!r}")
        return float(value)

    def _check_value(self, text):
        self._value(text)
        return []

    def _record_exact(self, state, k, text):
        state["exact"][k] = self._value(text)
        return []

    def _check_search(self, state, k, text):
        search = self._value(text)
        exact = state["exact"].get(k)
        if exact is None:
            return ["no exact value to compare"]
        state["ratios"].append(search / exact if exact > 0 else 1.0)
        return _problem(search <= exact * (1 + REL_TOL), "search above exact")

    @staticmethod
    def _check_decompose(text):
        err = json.loads(text)["reconstruction_max_error"]
        return _problem(err <= REL_TOL, "reconstruction_max_error")

    def _record_sf(self, state, k, text):
        state["sf"][k] = self._value(text)
        return []

    def _check_h1(self, state, k, text):
        h1, sf = self._value(text), state["sf"].get(k)
        if sf is None:
            return ["no sf value to compare"]
        return _problem(abs(h1 - sf) <= REL_TOL * sf, "h1 differs from the sf integral")

    @staticmethod
    def _check_maximal(f, text):
        mf = np.asarray(json.loads(text)["value"]["values"]).reshape(f.grid.shape)
        return _problem(bool(np.all(mf >= np.abs(f.values) * (1 - REL_TOL))), "Mf < |f|")

    @staticmethod
    def _check_tau(E, text):
        tau = np.asarray(json.loads(text)["tau"]["values"]).reshape(E.grid.shape)
        return _tau_problems(tau, E)

    @staticmethod
    def _check_verify(text):
        summary = json.loads(text.strip().splitlines()[-1])["summary"]
        return _problem(summary["passed"] is True, "verify summary not passed")

    def _check_spec(self, text):
        try:
            report = json.loads(text)
        except json.JSONDecodeError:  # verify specs print one JSON object per line
            return self._check_verify(text)
        if "reconstruction_max_error" in report:
            return self._check_decompose(text)
        if isinstance(report["value"], dict):  # maximal: a grid function
            return _problem(bool(np.all(np.isfinite(report["value"]["values"]))),
                            "non-finite maximal function")
        self._value(text)
        return []

    # ----------------------------------------------------------- pass totals

    def pass_stats(self, state):
        leaked = [n for n in os.listdir(state["tmp"])
                  if n.startswith("dyadichardy-") and n.endswith(".json")]
        for name in leaked:
            os.remove(os.path.join(state["tmp"], name))
        ratios = state["ratios"]
        stats = {
            "cli.stdout_bytes": state["stdout_bytes"],
            "cli.tempfiles_leaked": len(leaked),
            "norms.search_exact_pairs": len(ratios),
            "norms.search_exact_ratio": min(ratios) if ratios else 0.0,
            "norms.search_underreports": sum(r < 1 - REL_TOL for r in ratios),
        }
        self._reset_pass(state)
        return stats

    def teardown(self, state):
        tempfile.tempdir = state["saved_tempdir"]


WORKLOADS = {w.name: w for w in (HaarCorpus(), CutoffDemo(), CliCertify())}
