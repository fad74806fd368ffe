"""Numerical certification of the slice inequality, the pigeonhole split,
the product bound for Delta-energies of phi*b, the max-of-bmo facts, and
the full weak-star convergence pipeline with its L^1 counterexample.

Every check computes both sides of its inequality by independent direct
summation and reports the slack; nothing is asserted symbolically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError
from . import generators
from .grid import (GridFunction, OpenSetMask, ProductGrid, RectangleFamily, _blocks,
                   _check_cap, _family_logs, _measure, slice_family)
from .maximal import TauParams, tau_build
from .norms import (
    _aligned_oscillations,
    _energy_blocks,
    _energy_table,
    _oscillations,
    bmo_d_norm_cut,
    h1_norm,
    little_bmo_norm,
    packing_energy,
)
from .windows import factor_gradient_l1max

PASS_TOL = 1e-10

# The run-configuration parameters of `TheoremRunConfig` that `verify` and
# `demo` read and the theorem demo reports.
CONFIG_KEYS = ("epsilon", "eta", "alpha", "delta", "generator", "horizon")


@dataclass
class InequalityReport:
    name: str
    lhs: float
    rhs: float
    hypotheses: dict = field(default_factory=dict)
    witness: dict = field(default_factory=dict)

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        ok = self.lhs <= self.rhs + PASS_TOL * max(1.0, abs(self.rhs))
        return ok and all(self.hypotheses.values())

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "hypotheses": dict(self.hypotheses),
            "passed": self.passed,
            "witness": self.witness,
        }


def _lemma_b_constant(grid: ProductGrid, bmo: float, alpha: float) -> float:
    """Lemma B's 2 d! (||b||_bmo^2 + alpha^{2/n}), the bound per unit of |Omega|."""
    return 2.0 * math.factorial(grid.d) * (bmo ** 2 + alpha ** (2.0 / grid.n))


def _family_energies(values: np.ndarray, grid: ProductGrid, mask: np.ndarray) -> np.ndarray:
    """Sum of ||Delta_R f||_2^2 over the R that a family table marks, left to
    right in family order; leading axes of `values` and `mask` are batch axes."""
    # Energies are >= 0, so adding 0.0 for an unmarked R changes no partial sum.
    flat = np.where(mask, _energy_table(values, grid), 0.0)
    return np.cumsum(flat.reshape(mask.shape[:mask.ndim - grid.d] + (-1,)), axis=-1)[..., -1]


def check_lemma_a(f: GridFunction, family: RectangleFamily, i: int) -> InequalityReport:
    """Family energy vs the slicewise bound in factor i.

    lhs = sum over R in the family of ||Delta_R f||_2^2; rhs integrates,
    over the factor-i variable, the energy of the sliced family applied
    to the sliced function.
    """
    grid = f.grid
    if grid.d < 2:
        raise GridError("the slice inequality needs d >= 2")
    if family.grid != grid:
        raise GridError("family grid does not match function grid")
    lhs = float(_family_energies(f.values, grid, family._mask))
    # Every slice at once: factor i's axes go in front, as one batch axis.
    n_i = grid.factor_dims[i]
    slices = np.moveaxis(f.values, grid.factor_axes(i), range(n_i))
    sliced = [slice_family(family, i, pos)._mask
              for pos in itertools.product(range(grid.axis_side(i)), repeat=n_i)]
    fcv = grid.factor_cell_volume(i)
    rhs = 0.0
    for energy in _family_energies(slices.reshape((-1,) + slices.shape[n_i:]), grid.reduce(i),
                                   np.stack(sliced)).tolist():
        rhs += fcv * energy
    return InequalityReport(
        name="lemma-a",
        lhs=lhs,
        rhs=rhs,
        hypotheses={"d >= 2": grid.d >= 2},
        witness={"factor": i, "family_size": len(family)},
    )


@dataclass
class SplitResult:
    families: tuple
    covered: bool
    uncovered: list
    exponents: tuple  # N_i per factor

    def to_dict(self) -> dict:
        return {
            "sizes": [len(fam) for fam in self.families],
            "covered": self.covered,
            "uncovered": [r.key() for r in self.uncovered],
            "exponents": list(self.exponents),
        }


def split_family(family: RectangleFamily, alpha: float) -> SplitResult:
    """Cover a family of rectangles with |R| < alpha by the d slice classes.

    F^i keeps the rectangles whose complementary measure |R'_i| is below
    alpha^{N_i}, N_i = (n - n_i)/n.  Comparisons run in log2 to keep the
    power-of-two measures exact.
    """
    grid = family.grid
    if grid.d < 2:
        raise GridError("the pigeonhole split needs d >= 2")
    _check_cap(alpha)
    n, log2_alpha, logs = grid.n, math.log2(alpha), _family_logs(grid)
    total = sum(logs)
    big = RectangleFamily._from_mask(grid, family._mask & ~(-total < log2_alpha))
    if len(big):
        raise GridError(f"rectangle {next(iter(big)).key()} has |R| >= alpha")
    exponents = tuple((n - grid.factor_dims[i]) / n for i in range(grid.d))
    # |R'_i| < alpha^{N_i}  <=>  n * log2|R'_i| < (n - n_i) * log2(alpha)
    hits = [family._mask & (n * (logs[i] - total) < (n - grid.factor_dims[i]) * log2_alpha)
            for i in range(grid.d)]
    uncovered = RectangleFamily._from_mask(grid, family._mask & ~np.logical_or.reduce(hits))
    return SplitResult(
        families=tuple(RectangleFamily._from_mask(grid, hit) for hit in hits),
        covered=not len(uncovered),
        uncovered=list(uncovered),
        exponents=exponents,
    )


def check_lemma_b(
    phi: GridFunction,
    b: GridFunction,
    mask: OpenSetMask,
    alpha: float,
) -> InequalityReport:
    """Capped packing energy of phi*b against 2 d! (||b||_bmo^2 + alpha^{2/n}) |Omega|."""
    grid = phi.grid
    tol = 1e-12
    hypotheses = {
        "sup phi <= 1": phi.linf() <= 1.0 + tol,
        "sup b <= 1": b.linf() <= 1.0 + tol,
        "alpha < 1": alpha < 1.0,
        "|Omega| > 0": mask.measure > 0,
    }
    for i in range(grid.d):
        hypotheses[f"grad_{i} phi <= 1"] = factor_gradient_l1max(phi, i) <= 1.0 + tol
    product = phi * b
    lhs = packing_energy(product, mask, alpha=alpha)
    bmo_b = little_bmo_norm(b, p=2, rect_class="aligned").value
    rhs = _lemma_b_constant(grid, bmo_b, alpha) * mask.measure
    return InequalityReport(
        name="lemma-b",
        lhs=float(lhs),
        rhs=float(rhs),
        hypotheses=hypotheses,
        witness={
            "alpha": alpha,
            "bmo_b": bmo_b,
            "omega_measure": mask.measure,
            "d_factorial": math.factorial(grid.d),
        },
    )


def check_lemma_b_base(
    phi: GridFunction, b: GridFunction, alpha: float
) -> InequalityReport:
    """d=1 in-proof decomposition: for every dyadic cube Q0 with |Q0| <= alpha,
    the packed energy inside Q0 equals the L^2 oscillation over Q0 and is
    bounded by 2(||b||_bmo^2 + alpha^{2/n}) |Q0|."""
    _check_cap(alpha)
    grid = phi.grid
    if grid.d != 1:
        raise GridError("the base-case check is one-parameter only")
    product = phi * b
    energies = [e for _, e in _energy_blocks(product.values, grid)]
    bmo_b = little_bmo_norm(b, p=2, rect_class="aligned").value
    worst = None
    identity_gap = 0.0
    n1 = grid.factor_dims[0]
    for j in range(grid.depths[0] + 1):
        measure = _measure(grid, (j,))
        if measure > alpha:
            continue
        # Per level-j cube, the energies of the rectangles inside it (levels
        # j and finer), in canonical order, then summed left to right.
        sides = (2 ** j,) * n1
        cubes = 2 ** (n1 * j)
        inside = [_blocks(e, sides).reshape(cubes, -1) for e in energies[j:]]
        packed = np.cumsum(np.hstack([np.zeros((cubes, 1))] + inside), axis=1)[:, -1]
        # The L^2 oscillation over Q, times |Q|, cube by cube in C order.
        osc = _oscillations(_blocks(product.values, sides), n1, 2).ravel() * measure
        identity_gap = max(identity_gap, float(np.abs(packed - osc).max()))
        bound = _lemma_b_constant(grid, bmo_b, alpha) * measure
        k = int(np.argmax(osc - bound))
        if worst is None or osc[k] - bound > worst[0] - worst[1]:
            coords = tuple(int(c) for c in np.unravel_index(k, sides))
            worst = (float(osc[k]), bound, j, coords)
    if worst is None:
        raise GridError("alpha admits no dyadic cube; increase it")
    return InequalityReport(
        name="lemma-b-base",
        lhs=worst[0],
        rhs=worst[1],
        hypotheses={"packing = oscillation identity": identity_gap <= 1e-10},
        witness={
            "identity_gap": identity_gap,
            "level": worst[2],
            "coords": list(worst[3]),
            "bmo_b": bmo_b,
        },
    )


def check_abs_bmo(f: GridFunction, g: GridFunction) -> InequalityReport:
    """Oscillation of |f| vs f per aligned rectangle, and the max-function
    bmo bound via max{f,g} = (|f-g| + f + g)/2.

    The factor-2 comparison is asserted; the factor-1 pass rate is only
    reported (the mean-vs-best-constant question).
    """
    grid = f.grid
    vals, g_vals = f.values.astype(np.float64), g.values.astype(np.float64)
    # f, |f|, max{f,g}, g, |f-g|: one oscillation pass for all five.
    stack = np.stack([vals, np.abs(vals), np.maximum(vals, g_vals), g_vals,
                      (f - g).abs().values.astype(np.float64)])
    worst = (0.0, 0.0)
    factor1_pass = 0
    boxes = 0
    norms = np.full(len(stack), -1.0)  # the p = 1 aligned little bmo of each
    for _, osc in _aligned_oscillations(stack, grid):
        osc_f, osc_abs = osc[:2]
        boxes += osc_f.size
        factor1_pass += int(np.count_nonzero(osc_abs <= osc_f + PASS_TOL))
        norms = np.maximum(norms, osc.reshape(len(stack), -1).max(axis=1))
        # The first box of largest excess, kept only when strictly above the
        # excess of the worst box of an earlier shape.
        k = int(np.argmax(osc_abs - 2.0 * osc_f))
        if osc_abs.flat[k] - 2.0 * osc_f.flat[k] > worst[0] - worst[1]:
            worst = (float(osc_abs.flat[k]), 2.0 * float(osc_f.flat[k]))
    n_f, _, n_max, n_g, n_diff = norms.tolist()
    max_bound = (n_f + n_g + n_diff) / 2.0
    return InequalityReport(
        name="abs-bmo",
        lhs=worst[0],
        rhs=worst[1],
        hypotheses={"max-identity bound": n_max <= max_bound + PASS_TOL * max(1.0, max_bound)},
        witness={
            "factor1_pass_rate": factor1_pass / boxes,
            "boxes": boxes,
            "max_bmo": n_max,
            "max_bound": max_bound,
        },
    )


@dataclass
class TheoremRunConfig:
    """Knobs for the weak-star convergence demonstration.

    The demo draws no random numbers: `seed` and `search_restarts` are
    accepted and read by nothing, until the benchmark stops passing them."""

    grid: ProductGrid
    epsilon: float = 1e-2
    eta: float = 5e-3
    alpha: float = 0.05
    delta: float = 0.7
    generator: str = "h1-bounded"
    horizon: int = 8
    seed: int = 0
    search_restarts: int = 4

    def __post_init__(self):
        for name in ("epsilon", "eta", "alpha", "delta"):
            if not 0 < getattr(self, name) < math.inf:
                raise GridError(f"{name} must be finite and positive")
        if self.generator not in ("h1-bounded", "l1-spike"):
            raise GridError(f"unknown sequence generator {self.generator!r}")


def theorem_demo(config: TheoremRunConfig) -> dict:
    """Run the convergence (or counterexample) pipeline and report everything.

    For each n the record carries the pairing gap, the bad set E_n, the
    cutoff tau built on it, and the three error terms of the split
    |int (f - f_n) phi| <= |int (f-f_n) phi (1-tau)| + int_{supp tau} |f phi|
    + |int f_n phi tau|.
    """
    grid = config.grid
    phi = generators.smooth_bump(grid, gradient_bound=config.generator != "l1-spike")
    phi_support = OpenSetMask(grid, phi.values != 0.0)
    records = []
    x0 = generators.spike_point_cell(grid)
    phi_x0 = float(phi.values[x0])
    cutoffs = {}  # one tau_build per distinct E_n, keyed by its cell bytes
    for n in range(config.horizon + 1):
        if config.generator == "h1-bounded":
            f_n, f = generators.h1_bounded_sequence(grid, n)
        else:
            f_n = generators.spike_sequence(grid, n)
            f = GridFunction.constant(grid, 0.0)
        pair_n = float((f_n * phi).integral())
        pair_f = float((f * phi).integral())
        gap = abs(pair_n - pair_f)
        bad = (np.abs(f_n.values - f.values) > config.eta) & phi_support.cells
        e_n = OpenSetMask(grid, bad)
        record = {
            "n": n,
            "pairing_f_n": pair_n,
            "pairing_f": pair_f,
            "gap": gap,
            "E_n_measure": e_n.measure,
            "E_n_small": e_n.measure < config.eta,
            "h1_f_n": h1_norm(f_n),
        }
        if not e_n.is_empty:
            key = e_n.cells.tobytes()
            if key not in cutoffs:
                cutoffs[key] = tau_build(e_n, TauParams(delta=config.delta))
            report = cutoffs[key]
            tau = report.tau
            record["tau_support"] = report.support_measure
            record["tau_bmo"] = report.bmo_norm_measured
        else:
            tau = GridFunction.constant(grid, 0.0)
            record["tau_support"] = 0.0
            record["tau_bmo"] = 0.0
        diff = f - f_n
        one_minus_tau = GridFunction(grid, 1.0 - tau.values)
        record["term_far"] = abs(float((diff * phi * one_minus_tau).integral()))
        supp_tau = tau.values > 0
        record["term_f_on_supp"] = float(
            (np.abs(f.values * phi.values) * supp_tau).sum() * grid.cell_volume
        )
        record["term_fn_tau"] = abs(float((f_n * phi * tau).integral()))
        record["split_bound"] = (
            record["term_far"] + record["term_f_on_supp"] + record["term_fn_tau"]
        )
        records.append((record, tau))
    final, final_tau = records[-1]
    phi_tau = phi * final_tau
    bmo_phi = little_bmo_norm(phi, p=2, rect_class="aligned").value
    case_small = _lemma_b_constant(grid, bmo_phi, config.alpha)
    case_large = final["tau_support"] / config.alpha
    return {
        "config": {"grid": grid.to_dict(), **{k: getattr(config, k) for k in CONFIG_KEYS}},
        "phi_at_x0": phi_x0,
        "records": [r for r, _ in records],
        "phi_tau_bmo": bmo_d_norm_cut(phi_tau).value,
        "case_small_omega_bound": case_small,
        "case_large_omega_bound": case_large,
    }
