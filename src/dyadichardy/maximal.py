"""Strong maximal function, its iterates, the A1 weight m, and the cutoff tau.

The maximal operator takes averages of |f| over grid-aligned products of
per-factor cubes (any integer cell side, any in-domain position); the
same rectangle class as the little-bmo norm.  The fast path uses that a
max over windows commutes with per-factor cover maxima: for each side of
a cube factor, and for each run of sides of a one-axis factor (all of them
on small grids), it takes exact window sums, takes the last factor's best
mean over all intervals containing a cell, and folds the earlier factors
back to cells, later factors first (`windows`).  Work is O(cells x windows
per cell) with bounded temporaries.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractionError, GridError
from .grid import GridFunction, OpenSetMask
from .windows import cover_max, iter_window_sums, last_factor_max, run_cover_max


def strong_maximal(f: GridFunction) -> GridFunction:
    """Mf(x): max over aligned rectangles containing x of the average of |f|."""
    grid = f.grid
    a = np.abs(f.values.astype(np.float64))
    # later factors first: counted from the end, a factor's axes are then its grid axes
    folds = [(i, [x - a.ndim for x in grid.factor_axes(i)]) for i in range(grid.d - 2, -1, -1)]
    out, n = np.full(a.shape, -np.inf), grid.factor_dims[-1]
    for shape, count, sums, outside in iter_window_sums(a, grid):
        avg = last_factor_max(sums, count, outside, n)
        for i, axes in folds:
            for axis in axes:  # a one-axis factor's run of sides folds in one call
                avg = (run_cover_max(avg, int(shape[i][0]), axis) if isinstance(shape[i], np.ndarray)
                       else cover_max(avg, shape[i], axis))
        np.maximum(out, avg, out=out)
    return GridFunction(grid, out)


def _maximal_iterates(f: GridFunction):
    """Yield (M^(k) f, strong_maximal calls made so far) for k = 0, 1, 2, ...

    strong_maximal is a pure function, so once an iterate equals its
    predecessor bit for bit, every later iterate is that same array: the
    stream then yields it again and calls strong_maximal no more.
    """
    calls = 0
    g = f
    yield g, calls
    while True:
        nxt = strong_maximal(g)
        calls += 1
        if nxt.values.dtype == g.values.dtype and nxt.values.tobytes() == g.values.tobytes():
            yield from itertools.repeat((nxt, calls))
        yield nxt, calls
        g = nxt


def iterate_maximal(f: GridFunction, k: int) -> GridFunction:
    """k-fold iterate M^(k) f; k=0 is the identity."""
    if k < 0:
        raise GridError("iteration count must be >= 0")
    g, _ = next(itertools.islice(_maximal_iterates(f), k, None))
    return g


@dataclass(frozen=True)
class TauParams:
    """Parameters of the A1-weight series and the log cutoff."""

    delta: float
    c: float | None = None  # None: chosen adaptively from measured contraction
    tol: float = 1e-8
    kmax: int = 60
    q: float = 0.9

    def __post_init__(self):
        if not 0 < self.delta < math.inf:
            raise GridError("delta must be finite and positive")
        if self.c is not None and not 0 < self.c < 1:
            raise GridError("series ratio c must lie in (0,1)")
        if not 0 < self.tol < math.inf or self.kmax < 1:
            raise GridError("tol must be finite and positive and kmax >= 1")
        if not 0 < self.q < 1:
            raise GridError("contraction target q must lie in (0,1)")


@dataclass
class TauReport:
    """The cutoff tau, the weight it came from, and measured certificates."""

    tau: GridFunction
    m: GridFunction
    bmo_norm_measured: float
    support_measure: float
    terms_used: int
    contraction_ratios: list
    delta: float
    c_used: float
    l2_ratio: float  # ||m||_2 / |E|^{1/2}
    chebyshev_c2: float  # |supp tau| / (e^{2/delta} |E|)


def a1_weight(E: OpenSetMask, params: TauParams):
    """Truncated series K^{-1} sum_k c^k M^(k) chi_E, renormalized over used terms.

    Returns (m, diagnostics).  m = 1 on E exactly (the numerator and K
    accumulate bitwise-identical term sequences there); 0 < m <= 1 up to
    rounding everywhere.  diagnostics["maximal_calls"] counts the
    strong_maximal calls run, which stop at a fixed point of the iterates.
    """
    grid = E.grid
    if E.is_empty:
        raise GridError("A1 weight needs |E| > 0")
    chi = E.cells.astype(np.float64)
    stream = _maximal_iterates(GridFunction(grid, chi))
    _, calls = next(stream)  # M^(0) chi = chi, before any call
    iterates = [chi]
    l2s = [float(np.sqrt((chi * chi).sum() * grid.cell_volume))]
    linfs = [1.0]
    ratios = []
    adaptive = params.c is None
    c = 0.5 if adaptive else params.c
    violations = 0
    k = 0
    while True:
        if c ** k * linfs[-1] < params.tol or k >= params.kmax:
            break
        gf, calls = next(stream)
        g = gf.values
        iterates.append(g)
        l2 = float(np.sqrt((g * g).sum() * grid.cell_volume))
        ratio = l2 / l2s[-1]
        ratios.append(ratio)
        l2s.append(l2)
        linfs.append(float(g.max()))
        if adaptive:
            while c * ratio > params.q:
                c /= 2.0
        elif c * ratio > params.q:
            violations += 1
            if violations >= 3:
                raise ContractionError(
                    f"series ratio c={c} fails the contraction target q={params.q} "
                    f"(measured L2 ratio {ratio:.4g}); lower c"
                )
        k += 1
    acc = np.zeros(grid.shape)
    K = 0.0
    ck = 1.0
    for g in iterates:
        acc += ck * g
        K += ck
        ck *= c
    m = acc / K
    diagnostics = {
        "terms_used": len(iterates),
        "c": c,
        "contraction_ratios": ratios,
        "l2_norms": l2s,
        "linf_norms": linfs,
        "m_l2": float(np.sqrt((m * m).sum() * grid.cell_volume)),
        "E_measure": E.measure,
        "maximal_calls": calls,
    }
    return GridFunction(grid, m), diagnostics


def tau_build(E: OpenSetMask, params: TauParams) -> TauReport:
    """The bmo cutoff tau = max(0, 1 + delta log m) built on E."""
    from .norms import little_bmo_norm

    grid = E.grid
    m, diag = a1_weight(E, params)
    tau_vals = np.maximum(0.0, 1.0 + params.delta * np.log(m.values))
    tau = GridFunction(grid, tau_vals)
    support_measure = float((tau_vals > 0).sum()) * grid.cell_volume
    bmo = little_bmo_norm(tau, p=2, rect_class="aligned").value
    return TauReport(
        tau=tau,
        m=m,
        bmo_norm_measured=bmo,
        support_measure=support_measure,
        terms_used=diag["terms_used"],
        contraction_ratios=diag["contraction_ratios"],
        delta=params.delta,
        c_used=diag["c"],
        l2_ratio=diag["m_l2"] / math.sqrt(E.measure),
        chebyshev_c2=support_measure / (math.exp(2.0 / params.delta) * E.measure),
    )


def check_a1(w: GridFunction) -> float:
    """Empirical A1 constant max_x Mw(x)/w(x)."""
    if (w.values <= 0).any():
        raise GridError("A1 check requires a strictly positive weight")
    mw = strong_maximal(w)
    return float((mw.values / w.values).max())
