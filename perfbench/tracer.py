"""Outside-in tracer for the benchmark's traced runs.

It wraps public functions of the ``dyadichardy`` modules from the
benchmark's side: the library itself carries no tracing code.  Every
module namespace that binds a wrapped function gets the wrapper, because
``from .x import f`` copies the name into the importing module; that way
``a1_weight -> strong_maximal -> cover_max`` nest as parent and child
spans whichever namespace the caller used.

Spans are kept in memory as ``(name_id, start, end, parent, phase)``
tuples and written out once, when the run ends; ``phase`` separates the
traced set-up from the timed passes.  A layer's self time is
its spans' durations minus the parts covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name.  Names are "<layer>.<function>"; the
# layer is the dyadichardy module that defines the function.
TRACED_FUNCTIONS = {
    ("grid", "enumerate_rectangles"): "grid.enumerate_rectangles",
    ("grid", "slice_family"): "grid.slice_family",
    ("martingale", "decompose"): "martingale.decompose",
    ("martingale", "reconstruct"): "martingale.reconstruct",
    ("martingale", "level_difference"): "martingale.level_difference",
    ("martingale", "delta_R"): "martingale.delta_R",
    ("martingale", "decomposition_to_dict"): "martingale.decomposition_to_dict",
    ("norms", "square_function"): "norms.square_function",
    ("norms", "h1_norm"): "norms.h1_norm",
    ("norms", "rectangle_energies"): "norms.rectangle_energies",
    ("norms", "packing_energy"): "norms.packing_energy",
    ("norms", "little_bmo_norm"): "norms.little_bmo_norm",
    ("norms", "bmo_d_norm_exact"): "norms.bmo_d_norm_exact",
    ("norms", "bmo_d_norm_search"): "norms.bmo_d_norm_search",
    ("norms", "shifted_packing"): "norms.shifted_packing",
    ("maximal", "strong_maximal"): "maximal.strong_maximal",
    ("maximal", "iterate_maximal"): "maximal.iterate_maximal",
    ("maximal", "a1_weight"): "maximal.a1_weight",
    ("maximal", "tau_build"): "maximal.tau_build",
    ("windows", "window_sums"): "windows.window_sums",
    ("windows", "cover_max"): "windows.cover_max",
    ("verify", "theorem_demo"): "verify.theorem_demo",
    ("verify", "check_lemma_a"): "verify.check_lemma_a",
    ("verify", "check_lemma_b"): "verify.check_lemma_b",
    ("verify", "split_family"): "verify.split_family",
    ("verify", "check_abs_bmo"): "verify.check_abs_bmo",
    ("cli", "main"): "cli.main",
}
GENERATOR_FUNCTIONS = (
    "constant", "coarsest_rectangle", "haar_atom", "random_uniform",
    "smooth_bump", "spike_sequence", "spike_point_cell",
    "h1_bounded_sequence", "random_mask", "cell_mask", "generate",
)
# (module, class, method) -> span name.  The JSON round trip of the grid
# value types is reported together as grid.io.
TRACED_METHODS = {
    ("grid", "GridFunction", "to_dict"): "grid.io",
    ("grid", "GridFunction", "from_dict"): "grid.io",
    ("grid", "OpenSetMask", "to_dict"): "grid.io",
    ("grid", "OpenSetMask", "from_dict"): "grid.io",
    ("grid", "ProductGrid", "to_dict"): "grid.io",
    ("grid", "ProductGrid", "from_dict"): "grid.io",
    ("martingale", "Decomposition", "pure_energy"): "martingale.energy",
    ("martingale", "Decomposition", "hybrid_energy"): "martingale.energy",
}


_MISSING = object()


class Tracer:
    """Span recorder and counter set for one traced run."""

    def __init__(self, dh):
        self.dh = dh
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.stack = []
        self.counters = defaultdict(lambda: defaultdict(int))
        self.phase = "setup"
        self._restore = []

    # ------------------------------------------------------------ recording

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name, observe=None):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, tracer.phase)
            if observe is not None:
                try:
                    observe(result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The result no longer has the field a counter reads;
                    # the count stays short and the miss is counted instead.
                    tracer.counters[tracer.phase]["trace.observer_errors"] += 1
            return result

        return traced

    # ------------------------------------------------------------- counters

    def _observe_decompose(self, dec):
        self.counters[self.phase]["martingale.coefficients_kept"] += len(dec.pure)
        self.counters[self.phase]["martingale.eligible_rectangles"] += (
            self.dh.grid.eligible_rectangle_count(dec.grid)
        )

    def _observe_a1(self, result):
        self.counters[self.phase]["maximal.series_terms"] += result[1]["terms_used"]

    def _observe_search(self, result):
        self.counters[self.phase]["norms.search_seeds"] += result.diagnostics["seeds"]

    def _observe_exact(self, result):
        self.counters[self.phase]["norms.masks_enumerated"] += (
            result.diagnostics["masks_enumerated"])

    # --------------------------------------------------------- installation

    def _patch_class(self, cls, attr, value):
        self._restore.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, value)

    def _bind_everywhere(self, original, wrapper):
        """Point every dyadichardy namespace that binds `original` at `wrapper`."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "dyadichardy" or mod_name.startswith("dyadichardy.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, original))

    def install(self):
        dh = self.dh
        observers = {
            "martingale.decompose": self._observe_decompose,
            "maximal.a1_weight": self._observe_a1,
            "norms.bmo_d_norm_search": self._observe_search,
            "norms.bmo_d_norm_exact": self._observe_exact,
        }
        # A function or method that a later version of the program no longer
        # has is skipped: its metrics then read 0 instead of breaking the run.
        targets = [(getattr(dh, mod, None), attr, name, observers.get(name))
                   for (mod, attr), name in TRACED_FUNCTIONS.items()]
        targets += [(dh.generators, attr, f"generators.{attr}", None)
                    for attr in GENERATOR_FUNCTIONS]
        for module, attr, name, observe in targets:
            original = getattr(module, attr, None)
            if callable(original):
                self._bind_everywhere(original, self._wrap(original, name, observe))
        for (mod, cls_name, meth), name in TRACED_METHODS.items():
            cls = getattr(getattr(dh, mod, None), cls_name, None)
            raw = getattr(cls, "__dict__", {}).get(meth)
            if isinstance(raw, (classmethod, staticmethod)):
                self._patch_class(cls, meth, type(raw)(self._wrap(raw.__func__, name)))
            elif callable(raw):
                self._patch_class(cls, meth, self._wrap(raw, name))
        # DyadicRectangle constructions are counted at the class, not spanned:
        # a span per construction would swamp the run it measures.
        init = dh.grid.DyadicRectangle.__init__
        tracer = self

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            tracer.counters[tracer.phase]["grid.rectangles_built"] += 1
            init(obj, *args, **kwargs)

        self._patch_class(dh.grid.DyadicRectangle, "__init__", counting_init)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # ------------------------------------------------------------- analysis

    def self_times(self):
        """phase -> span name -> [calls, total self seconds]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for idx, (name_id, start, end, parent, phase) in enumerate(spans):
            entry = out[phase][self.names[name_id]]
            entry[0] += 1
            entry[1] += (end - start) - child[idx]
        return out

    def write(self, path):
        """Write all spans, gzipped: a JSON header with the name table, then
        one CSV line per span in start order."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names,
                                 "fields": ["name", "start", "end", "parent", "phase"]}))
            fh.write("\n")
            fh.writelines(
                f"{n},{start:.9f},{end:.9f},{parent},{phase}\n"
                for n, start, end, parent, phase in self.spans
            )
