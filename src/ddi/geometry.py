"""Real-vector formalism for states and effects.

A system of formalism dimension ``l`` lives in R^l.  The all-ones vector
``u`` acts as the unit effect: states are the vectors with ``u . s = 1``
and pure states additionally satisfy ``|s|^2 = 1``.  Intersecting the
state hyperplane with the cone ``f(v) = |v|^2 - (u . v)^2 <= 0`` gives a
ball centered at ``u/l`` whose radius within the hyperplane is
``sqrt(1 - 1/l)``; pure states sit on its surface and every admissible
state set is contained in it.  The cone functional and the
ball-membership test live in :mod:`ddi.verify`, and the quantum
embedding, which maps density matrices and effects into this formalism,
in :mod:`ddi.embedding`.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import InvalidDimensionError, InvalidInputError

#: Default absolute tolerance for validation checks.
DEFAULT_TOL = 1e-9


def unit_effect(l: int) -> np.ndarray:
    """Return the all-ones unit effect of length ``l``.

    Parameters
    ----------
    l : int
        Formalism dimension, at least 2.
    """
    if not isinstance(l, (int, np.integer)) or l < 2:
        raise InvalidDimensionError(f"formalism dimension must be an int >= 2, got {l!r}")
    return np.ones(int(l))


def ball_radius(l: int) -> float:
    """Radius of the state ball within the hyperplane."""
    if l < 2:
        raise InvalidDimensionError(f"formalism dimension must be >= 2, got {l}")
    return float(np.sqrt(1.0 - 1.0 / l))


def pseudoinverse(a: np.ndarray, rank_tol: float = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values below ``rank_tol`` times the largest are treated as
    zero.  Satisfies the four Penrose identities to rounding accuracy.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0 or not np.all(np.isfinite(a)):
        raise InvalidInputError("pseudoinverse requires a finite 2-d array")
    return np.linalg.pinv(a, rcond=rank_tol)


@lru_cache
def hyperplane_basis(l: int) -> np.ndarray:
    """Orthonormal basis of the subspace of R^l orthogonal to the all-ones vector.

    Returns an ``(l, l-1)`` matrix with orthonormal columns, each summing
    to zero.  Column ``k`` is the Helmert vector with ``k+1`` leading
    ones followed by ``-(k+1)``, normalized.  The construction is
    deterministic, so it doubles as the canonical gauge.  Each ``l`` is
    built once and the same read-only array is returned on every call.
    """
    if l < 2:
        raise InvalidDimensionError(f"formalism dimension must be >= 2, got {l}")
    cols = np.zeros((l, l - 1))
    for k in range(1, l):
        cols[:k, k - 1] = 1.0
        cols[k, k - 1] = -float(k)
        cols[:, k - 1] /= np.sqrt(k * (k + 1.0))
    cols.setflags(write=False)
    return cols
