"""Benchmark for dyadichardy: three closed-loop workloads, end-to-end
metrics from untraced runs and per-layer metrics from traced runs.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload haar_corpus --seed 0 --seconds 30 --trace 0

Run all three and print every end-to-end metric by name and unit:

    python3 perfbench/run.py --all --seed 0

The program is imported from ``src/`` of the checkout this file sits in,
never from an installed copy.  Metric names, units and per-workload
settings come from ``BENCHMARK.json`` and ``perfbench/workloads.json``.
Every time an untraced run reports is a ratio to a fixed reference: a
frozen copy of the program, ``perfbench/reference/dyadichardy_ref``.
The program and the copy run the same workload in two worker processes
that take turns of a few tens of milliseconds (``timeshare.py``), and
each item is timed by the time its worker ran.  A time metric is
reported as its nominal value (``reference`` in ``workloads.json``)
times the program's raw value over the copy's, both taken from the same
run; set-ups run in this process, each followed by the copy's, and
setup_s takes the median of those pairs' ratios.  The shared host this
was built on swings by up to 1.5x within seconds; the copy swings with
it, so the reported times keep the program's own changes and drop most
of the host's.  The nominal values are the copy's own medians on the host
the benchmark was tuned on.  The raw times of both are kept in the full
result.  Traced runs run the program alone, in this process.

Full results, and the spans of traced runs, are written under
``.perfbench_out/``; scratch files live under ``.perfbench_work/`` and
are removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import timeshare
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

REF_DIR = HERE / "reference"
REF_PACKAGE = "dyadichardy_ref"

SETUP_REPS = 5
# A run stops measuring after this many seconds at most (a traced run
# never starts a pass it expects to end past it), so it exits well inside
# the three-minute limit even on a slow commit.
RUN_BUDGET_S = 140.0
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import {modules}; print(time.perf_counter() - t)"
)


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad configuration)."""


# ----------------------------------------------------------------- set-up

def import_program():
    """Import dyadichardy from this checkout's src/ and nowhere else."""
    if not (SRC / "dyadichardy" / "__init__.py").is_file():
        raise BenchError(f"no dyadichardy package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dyadichardy
    import dyadichardy.cli  # noqa: F401  (cli_certify drives it; traced runs wrap it)

    if not Path(dyadichardy.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported dyadichardy from {dyadichardy.__file__}, not {SRC}")
    return dyadichardy


def import_reference():
    """Import the frozen copy of the program that untraced runs time
    alongside it.  It comes after src/ on sys.path and has its own
    package name, so it never stands in for the program."""
    sys.path.append(str(REF_DIR))
    import dyadichardy_ref
    import dyadichardy_ref.cli  # noqa: F401

    if not Path(dyadichardy_ref.__file__).resolve().is_relative_to(REF_DIR.resolve()):
        raise BenchError(f"imported the reference from {dyadichardy_ref.__file__}")
    return dyadichardy_ref


def cold_import_s(modules, path):
    """Seconds to import `modules` from `path` in a fresh interpreter,
    timed inside it."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE.format(modules=modules), str(path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def load_config():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(HERE / "workloads.json") as fh:
        doc = json.load(fh)
    return bench, doc


def git_sha():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp(workload, seed, seconds, trace):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# ----------------------------------------------------------------- passes

def one_pass(workload, state):
    """Run one pass; time each item and check its output."""
    labels, latencies, spans, failures = [], [], [], []
    cpu0 = time.process_time()
    for label, call in workload.items(state):
        labels.append(label)
        t0 = time.perf_counter()
        try:
            problems = call()
        except Exception:  # a raising item is a failed item; the run goes on
            problems = [traceback.format_exc(limit=3)]
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        spans.append((t0, t1))
        if problems:
            failures.append({"item": label, "problems": problems})
    return {"wall": sum(latencies), "cpu": time.process_time() - cpu0,
            "labels": labels, "latencies": latencies, "spans": spans,
            "failures": failures, "stats": workload.pass_stats(state)}


def worker(args):
    """One side of an untraced run: set up the program or the reference,
    report the pass labels, wait for the go on stdin, then run passes and
    report each until killed."""
    timeshare.die_with_parent()
    out = timeshare.channel()
    dh = import_reference() if args.worker == "reference" else import_program()
    workload = workloads.WORKLOADS[args.workload]
    state = workload.setup(dh, args.seed, args.workdir)
    try:
        out.write(json.dumps({"labels": [label for label, _ in workload.items(state)]}) + "\n")
        sys.stdin.readline()
        while True:
            p = one_pass(workload, state)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            out.write(json.dumps({"spans": p["spans"], "cpu": p["cpu"],
                                  "failures": p["failures"], "rss_mb": rss_mb}) + "\n")
    finally:
        workload.teardown(state)


def run_shared(args, workdir, min_items):
    """Run the program and the reference in workers that take turns, until
    `args.seconds` have passed and each finished a pass.  Return both
    workers' passes, with each item timed by the time its worker ran."""
    workers = []
    try:
        for role in ("program", "reference"):
            os.mkdir(os.path.join(workdir, role))
            workers.append(timeshare.Worker(role, [
                sys.executable, str(Path(__file__)), "--worker", role,
                "--workload", args.workload, "--seed", str(args.seed),
                "--workdir", os.path.join(workdir, role)], cwd=ROOT))
        timeshare.wait_ready(workers, timeout=120)
        prog, ref = workers

        def done():
            reports = prog.messages[1:]
            return (reports and len(ref.messages) > 1
                    and sum(len(m["spans"]) for m in reports) >= min_items)

        timeshare.share(workers, args.seconds, RUN_BUDGET_S, done)
        if not done():
            raise BenchError(f"no complete pass within {RUN_BUDGET_S:g} s")
    finally:
        for w in workers:
            w.close()
    result = []
    for w in workers:
        labels = w.messages[0]["labels"]
        passes = []
        for m in w.messages[1:]:
            latencies = [w.running_time(t0, t1) for t0, t1 in m["spans"]]
            passes.append({"wall": sum(latencies), "cpu": m["cpu"], "labels": labels,
                           "latencies": latencies, "failures": m["failures"],
                           "rss_mb": m["rss_mb"]})
        result.append(passes)
    return result


def run_traced(workload, state, tracer, seconds):
    """Alternate untraced and traced passes, so machine drift hits both
    alike, until `seconds` have elapsed."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        untraced.append(one_pass(workload, state))
        tracer.phase = len(traced)
        tracer.install()
        try:
            traced.append(one_pass(workload, state))
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + untraced[-1]["wall"] + traced[-1]["wall"] > RUN_BUDGET_S:
            return untraced, traced


def fresh_setup(workload, dh, seed, workdir, previous=None):
    if previous is not None:
        workload.teardown(previous)
    return workload.setup(dh, seed, workdir)


# ---------------------------------------------------------------- metrics

def harrell_davis_median(values):
    """The Harrell-Davis estimate of the median: a mean of all order
    statistics, the i-th of n weighted by the mass of Beta((n+1)/2,
    (n+1)/2) on [(i-1)/n, i/n].  It moves smoothly where the plain median
    of a few values jumps from one value to the next."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    a = (n + 1) / 2.0
    pdf = np.exp((a - 1.0) * (np.log(t) + np.log1p(-t) + 2 * np.log(2)))
    cdf = np.concatenate(([0.0], np.cumsum(pdf)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0.0, 1.0, len(cdf)), cdf)
    return float(np.diff(edges) @ x)


def pass_metrics(passes, tail_pct):
    """Raw time metrics of one side of a run.  The median item is taken
    over each item's median latency across passes: pooled latencies
    cluster by item, so their median would jump between clusters."""
    latencies = [x for p in passes for x in p["latencies"]]
    per_item = [statistics.median(p["latencies"][i] for p in passes)
                for i in range(len(passes[0]["latencies"]))]
    return {
        "run_s": statistics.median(p["wall"] for p in passes),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "item_p50_ms": 1e3 * harrell_davis_median(per_item),
        "item_tail_ms": 1e3 * float(np.percentile(latencies, tail_pct)),
    }


def end_to_end(program, reference, setups, nominal):
    """End-to-end metrics: each time metric is its nominal value times the
    program's raw value over the reference's, both from the same run.
    `setups` holds (program, reference) set-up seconds, paired in time."""
    metrics = {k: nominal[k] * program[k] / reference[k] for k in program}
    metrics["setup_s"] = nominal["setup_s"] * statistics.median(s / r for s, r in setups)
    return metrics


def per_layer(tracer, untraced, traced):
    """Per-pass layer metrics: counts from the first traced pass (every
    pass repeats the same inputs), self times averaged over traced passes."""
    summary = tracer.self_times()
    n = len(traced)

    def mean_self(match):
        return sum(s for ph in range(n) for name, (_, s) in summary[ph].items()
                   if match(name)) / n

    first = summary[0]
    metrics = {}
    for name in tracer.names:
        metrics[f"{name}.calls"] = first[name][0] if name in first else 0
        metrics[f"{name}.self_s"] = mean_self(lambda x, name=name: x == name)
    metrics["generators.self_s"] = mean_self(lambda x: x.startswith("generators."))
    metrics["generators.setup_self_s"] = sum(
        s for name, (_, s) in summary["setup"].items() if name.startswith("generators."))
    counts = dict(tracer.counters[0])
    for key in ("grid.rectangles_built", "martingale.coefficients_kept",
                "maximal.series_terms", "norms.search_seeds", "norms.masks_enumerated"):
        metrics[key] = counts.get(key, 0)
    eligible = counts.get("martingale.eligible_rectangles", 0)
    metrics["martingale.kept_ratio"] = (
        metrics["martingale.coefficients_kept"] / eligible if eligible else 0.0)
    for key in ("cli.stdout_bytes", "cli.tempfiles_leaked", "norms.search_exact_pairs",
                "norms.search_exact_ratio", "norms.search_underreports"):
        metrics[key] = traced[0]["stats"].get(key, 0)  # 0: workload has no such output
    traced_run = statistics.fmean(p["wall"] for p in traced)
    untraced_run = statistics.fmean(p["wall"] for p in untraced)
    metrics["trace.run_s"] = traced_run
    metrics["trace.untraced_run_s"] = untraced_run
    metrics["trace.overhead_s"] = traced_run - untraced_run
    metrics["trace.self_s_total"] = mean_self(lambda x: True)
    metrics["trace.spans"] = sum(c for c, _ in first.values())
    metrics["trace.observer_errors"] = counts.get("trace.observer_errors", 0)
    repeat = all(
        {k: c for k, (c, _) in summary[ph].items()} == {k: c for k, (c, _) in first.items()}
        and dict(tracer.counters[ph]) == counts and traced[ph]["stats"] == traced[0]["stats"]
        for ph in range(n))
    return metrics, repeat


# -------------------------------------------------------------------- run

def run_workload(args, bench, doc, dh, workdir):
    spec = doc["workloads"].get(args.workload)
    if spec is None or args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    tail_pct = spec["tail_percentile"]
    min_items = (math.ceil(10 / (1 - tail_pct / 100.0)) if tail_pct < 100
                 else spec["items_per_pass"])

    setups, state = [], None
    rdh = None if args.trace else import_reference()
    ref_imports = spec["imports"].replace("dyadichardy", REF_PACKAGE, 1)
    for _ in range(SETUP_REPS):
        import_s = cold_import_s(spec["imports"], SRC)
        t0 = time.perf_counter()
        state = fresh_setup(workload, dh, args.seed, workdir, state)
        program_s = import_s + time.perf_counter() - t0
        ref_s = None
        if rdh is not None:
            import_s = cold_import_s(ref_imports, REF_DIR)
            t0 = time.perf_counter()
            ref_state = workload.setup(rdh, args.seed, workdir)
            ref_s = import_s + time.perf_counter() - t0
            workload.teardown(ref_state)
        setups.append((program_s, ref_s))
    if len(workload.items(state)) != spec["items_per_pass"]:
        workload.teardown(state)
        raise BenchError(f"{args.workload} pass length differs from workloads.json")

    tracer = ref_passes = raw_ref = None
    try:
        if not args.trace:
            workload.teardown(state)
            state = None
            passes, ref_passes = run_shared(args, workdir, min_items)
            if any(p["failures"] for p in ref_passes):
                raise BenchError(f"the reference failed: {ref_passes[0]['failures'][:1]}")
            raw = pass_metrics(passes, tail_pct)
            raw_ref = pass_metrics(ref_passes, tail_pct)
            metrics = end_to_end(raw, raw_ref, setups, spec["reference"])
            raw["setup_s"] = statistics.median(s for s, _ in setups)
            raw_ref["setup_s"] = statistics.median(r for _, r in setups)
            metrics["peak_rss_mb"] = passes[-1]["rss_mb"]
            repeat = None
        else:
            tracer = Tracer(dh)
            tracer.install()  # set-up spans are recorded under phase "setup"
            try:
                state = fresh_setup(workload, dh, args.seed, workdir, state)
            finally:
                tracer.uninstall()
            untraced, traced = run_traced(workload, state, tracer, args.seconds)
            metrics, repeat = per_layer(tracer, untraced, traced)
            passes = untraced + traced
            raw = None
    finally:
        if state is not None:
            workload.teardown(state)

    attempted = sum(len(p["latencies"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    stamp = machine_stamp(args.workload, args.seed, args.seconds, args.trace)
    detail = {
        "stamp": stamp,
        "passes": len(passes),
        "items_per_pass": spec["items_per_pass"],
        "tail_percentile": tail_pct,
        "error_rate": len(failures) / attempted,
        "setup_s_program_reference": setups,
        "raw_metrics": raw,
        "reference_raw_metrics": raw_ref,
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_reference_wall_s": [p["wall"] for p in ref_passes or []],
        "item_median_ms": {
            label: 1e3 * statistics.median(p["latencies"][i] for p in passes)
            for i, label in enumerate(passes[0]["labels"])},
        "reference_item_median_ms": {
            label: 1e3 * statistics.median(p["latencies"][i] for p in ref_passes)
            for i, label in enumerate(ref_passes[0]["labels"])} if ref_passes else None,
        "counts_repeat_every_pass": repeat,
        "failures": failures[:20],
        "all_metrics": metrics,
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"result-{tag}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")

    for f in failures[:5]:
        print(f"perfbench: FAILED {f['item']}: {f['problems']}", file=sys.stderr)
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(f"{args.workload}: {len(passes)} passes, {attempted} items, "
          f"tail = p{tail_pct:g}, error_rate {detail['error_rate']:.4g} "
          f"({len(failures)} of {attempted} items failed)")
    for m in wanted:
        line = f"  {m['name']:<36} {metrics[m['name']]:.6g} {m['unit']}"
        if raw is not None and m["name"] in raw:
            line += f"  (raw {raw[m['name']]:.6g})"
        print(line)
    if raw is not None:
        print("  reference (raw, nominal): " + ", ".join(
            f"{k} {raw_ref[k]:.4g} {spec['reference'][k]:g}" for k in raw_ref))
    print(json.dumps(result))
    return 0


def run_all(args, bench):
    """Run every workload in its own process and print all end-to-end metrics."""
    rows, ok = [], True
    for spec in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", spec["name"], "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{spec['name']}: no result (exit {proc.returncode})")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        metrics = dict(res["metrics"])
        metrics["error_rate"] = {"value": res["failed"] / res["attempted"], "unit": "ratio"}
        rows.append((spec["name"], metrics))
    names = [m["name"] for m in bench["end_to_end"]] + ["error_rate"]
    print(f"{'metric':<14}{'unit':<7}" + "".join(f"{w:>14}" for w, _ in rows))
    for name in names:
        unit = rows[0][1][name]["unit"] if rows else ""
        print(f"{name:<14}{unit:<7}" + "".join(
            f"{m[name]['value']:>14.6g}" for _, m in rows))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Internal: the worker processes of an untraced run (see timeshare.py).
    parser.add_argument("--worker", choices=["program", "reference"], help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args)
    # On SIGTERM, unwind so the workers are killed and reaped and scratch
    # files removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    try:
        bench, doc = load_config()
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        if args.all:
            return run_all(args, bench)
        dh = import_program()
        WORK.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
        try:
            return run_workload(args, bench, doc, dh, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except (BenchError, timeshare.WorkerError, OSError, json.JSONDecodeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
