"""Dyadic product-grid Hardy-space toolkit.

Martingale difference calculus on finite dyadic product grids, square
function / H^1 / bmo / product-BMO packing norms, strong maximal
function and A1-weight cutoffs, and numerical certification of the
inequalities they satisfy.
"""

from .errors import ContractionError, GridError, ResourceCapError
from .grid import (
    DyadicCube,
    DyadicRectangle,
    GridFunction,
    OpenSetMask,
    ProductGrid,
    RectangleFamily,
    eligible_rectangle_count,
    enumerate_rectangles,
    rectangles_in,
    slice_family,
    slice_mask,
)
from .martingale import (
    Decomposition,
    HaarCoefficient,
    decompose,
    decomposition_from_dict,
    decomposition_to_dict,
    delta_R,
    expectation,
    reconstruct,
)
from .norms import (
    OscResult,
    PackingResult,
    bmo_d_norm_cut,
    bmo_d_norm_exact,
    bmo_d_norm_search,
    h1_norm,
    little_bmo_norm,
    packing_energy,
    rectangle_energies,
    shifted_packing,
    square_function,
)
from .maximal import (
    TauParams,
    TauReport,
    a1_weight,
    check_a1,
    iterate_maximal,
    strong_maximal,
    strong_maximal_naive,
    tau_build,
)
from .verify import (
    InequalityReport,
    SplitResult,
    TheoremRunConfig,
    check_abs_bmo,
    check_lemma_a,
    check_lemma_b,
    check_lemma_b_base,
    split_family,
    theorem_demo,
)
from . import generators

__version__ = "1.0.0"

__all__ = [
    "ContractionError", "GridError", "ResourceCapError",
    "DyadicCube", "DyadicRectangle", "GridFunction", "OpenSetMask",
    "ProductGrid", "RectangleFamily", "eligible_rectangle_count",
    "enumerate_rectangles", "rectangles_in", "slice_family", "slice_mask",
    "Decomposition", "HaarCoefficient", "decompose",
    "decomposition_from_dict", "decomposition_to_dict", "delta_R",
    "expectation", "reconstruct",
    "OscResult", "PackingResult", "bmo_d_norm_cut", "bmo_d_norm_exact",
    "bmo_d_norm_search", "h1_norm", "little_bmo_norm",
    "packing_energy", "rectangle_energies", "shifted_packing", "square_function",
    "TauParams", "TauReport", "a1_weight", "check_a1", "iterate_maximal",
    "strong_maximal", "strong_maximal_naive", "tau_build",
    "InequalityReport", "SplitResult", "TheoremRunConfig", "check_abs_bmo",
    "check_lemma_a", "check_lemma_b", "check_lemma_b_base", "split_family",
    "theorem_demo",
    "generators",
]
