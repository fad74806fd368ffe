"""Exception types shared across the package."""


class GridError(ValueError):
    """Invalid geometry: bad grid parameters, mismatched grids, bad indices."""


class ResourceCapError(RuntimeError):
    """An enumeration would exceed its configured size cap."""


class ContractionError(RuntimeError):
    """The iterated-maximal-function series failed to contract.

    Raised only when the series ratio `c` was fixed by the caller; the
    adaptive path lowers `c` instead.
    """
