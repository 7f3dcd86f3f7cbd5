"""Charge extraction from the first lifted matrix of a relaxation solution.

The implementable charge vector is the dominant-eigenpair (Frobenius-nearest
rank-one) factor of the lifted matrix.  The eigenvector sign is inherently
ambiguous: charge products are sign-invariant but the applied charges are
not, so the sign is chosen for continuity against the previously applied
charges, falling back to making the largest-magnitude component nonnegative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _check_positive


@dataclass(frozen=True)
class RecoveredCharges:
    """Charges recovered from a lifted matrix, with rank diagnostics.

    ``rank_ratio`` is the dominant eigenvalue over the trace, in [0, 1]; it
    equals 1 exactly when the input is rank one, i.e. when the relaxation was
    tight at this stage.
    """

    charges: np.ndarray
    rank_ratio: float


def recover(lifted: np.ndarray, previous: np.ndarray | None = None) -> RecoveredCharges:
    """Frobenius-nearest rank-one charge factor of a (nearly) PSD matrix.

    Small negative eigenvalues from solver tolerance are clamped to zero.
    The eigenpairs come from ``np.linalg.eigh``, which raises ``LinAlgError``
    on a matrix it cannot decompose.
    """
    mat = np.asarray(lifted, dtype=float)
    if not np.isfinite(mat).all():
        raise ValueError("lifted matrix contains non-finite entries")
    eigvals, eigvecs = np.linalg.eigh(0.5 * (mat + mat.T))
    np.maximum(eigvals, 0.0, out=eigvals)
    dominant = float(eigvals[-1])
    charges = math.sqrt(dominant) * eigvecs[:, -1]

    flip = False
    if previous is not None:
        previous = np.asarray(previous, dtype=float)
        alignment = float(charges @ previous)
        if alignment < 0:
            flip = True
        elif alignment == 0.0:
            previous = None  # fall through to the default rule
    if previous is None:
        lead = int(np.abs(charges).argmax())
        flip = charges[lead] < 0
    if flip:
        charges = -charges

    trace = float(eigvals.sum())
    ratio = 1.0 if trace <= 0.0 else min(dominant / trace, 1.0)
    return RecoveredCharges(charges=charges, rank_ratio=ratio)


def saturate(charges: np.ndarray, limit: float) -> tuple[np.ndarray, bool]:
    """Clamp each charge to [-limit, +limit]; flags whether anything clipped."""
    limit = _check_positive(limit, "saturation_limit")
    charges = np.asarray(charges, dtype=float)
    clipped = np.minimum(np.maximum(charges, -limit), limit)  # np.clip, without its wrapper
    return clipped, bool((clipped != charges).any())
