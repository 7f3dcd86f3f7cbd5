"""Standard-form conic problems and symmetric-matrix vectorization.

Problems are stored in the canonical operator-splitting form

    minimize   (1/2) z'Pz + c'z
    subject to A z + s = b,   s in K,

where K is a product of a zero cone, a nonnegative orthant and a list of
positive-semidefinite cones.  PSD blocks are stored in scaled
lower-triangular vectorization (off-diagonals multiplied by sqrt(2)) so the
trace inner product of two symmetric matrices equals the Euclidean dot
product of their vectorizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .dynamics import _check_count

SQRT2 = float(np.sqrt(2.0))


def vec_dim(side: int) -> int:
    """Length of the scaled vectorization of a ``side x side`` symmetric matrix."""
    return side * (side + 1) // 2


@lru_cache(maxsize=None)
def sym_gather(side: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather map from a vectorization back to the full ``side x side`` matrix,
    read-only: the one table of the vectorization's layout.

    Returns ``(index, scale)``, both ``side x side``: entry (i, j) of the
    matrix is ``vec[index[i, j]] / scale[i, j]``.
    """
    rows, cols = np.tril_indices(side)
    index = np.empty((side, side), dtype=int)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    scale = np.where(rows == cols, 1.0, SQRT2)[index]
    index.setflags(write=False)
    scale.setflags(write=False)
    return index, scale


@dataclass(frozen=True)
class ConeDims:
    """Dimensions of the product cone, in the fixed order zero / nonneg / PSD:
    ints, not bools, ``zero`` and ``nonneg`` at least 0 and PSD sides at least 1."""

    zero: int = 0
    nonneg: int = 0
    psd: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "zero", _check_count(self.zero, "zero", 0))
        object.__setattr__(self, "nonneg", _check_count(self.nonneg, "nonneg", 0))
        object.__setattr__(self, "psd", tuple(_check_count(s, "a PSD side") for s in self.psd))

    @property
    def total(self) -> int:
        return self.zero + self.nonneg + sum(vec_dim(s) for s in self.psd)


@dataclass
class ConicProblem:
    """A quadratic-objective conic program in slack form.

    ``P`` left out (None) is stored as the empty ``n x n`` CSC matrix: a
    linear objective.  ``objective_constant`` is the constant dropped when
    the objective was put in standard form; the solver adds it back in
    ``SolveResult.objective``.
    """

    c: np.ndarray
    A: sp.csc_matrix
    b: np.ndarray
    cones: ConeDims
    P: sp.csc_matrix | None = None
    objective_constant: float = 0.0

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.b = np.asarray(self.b, dtype=float)
        if not sp.issparse(self.A) or self.A.format != "csc":
            self.A = sp.csc_matrix(self.A)
        if self.P is None:
            self.P = sp.csc_matrix((self.c.size, self.c.size))
        elif not sp.issparse(self.P) or self.P.format != "csc":
            self.P = sp.csc_matrix(self.P)
        if self.P.shape != (self.c.size, self.c.size):
            raise ValueError("P must be square with the dimension of c")
        if self.A.shape != (self.b.size, self.c.size):
            raise ValueError(
                f"A has shape {self.A.shape}, expected ({self.b.size}, {self.c.size})"
            )
        if self.cones.total != self.b.size:
            raise ValueError(
                f"cone dimensions sum to {self.cones.total}, but b has length {self.b.size}"
            )

    @property
    def num_vars(self) -> int:
        return self.c.size

    @property
    def num_rows(self) -> int:
        return self.b.size
