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

from .errors import InvalidInputError

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
        raise InvalidInputError(f"formalism dimension must be an int >= 2, got {l!r}")
    return np.ones(int(l))


def ball_radius(l: int) -> float:
    """Radius of the state ball within the hyperplane."""
    if l < 2:
        raise InvalidInputError(f"formalism dimension must be >= 2, got {l}")
    return float(np.sqrt(1.0 - 1.0 / l))


def pseudoinverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values of at most ``DEFAULT_TOL`` times the largest are
    zeroed.  Satisfies the four Penrose identities to rounding accuracy.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0 or not np.all(np.isfinite(a)):
        raise InvalidInputError("pseudoinverse requires a finite 2-d array")
    return np.linalg.pinv(a, rcond=DEFAULT_TOL)


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
        raise InvalidInputError(f"formalism dimension must be >= 2, got {l}")
    cols = np.zeros((l, l - 1))
    for k in range(1, l):
        cols[:k, k - 1] = 1.0
        cols[k, k - 1] = -float(k)
        cols[:, k - 1] /= np.sqrt(k * (k + 1.0))
    cols.setflags(write=False)
    return cols


def _whole_number(value) -> int | None:
    """``value`` as an int when it is a whole, finite number, else None.

    ``2.0`` and ``np.int64(2)`` read as 2; ``True``, ``"3"``, ``2.5``,
    ``NaN`` and ``1e999`` do not.
    """
    # is_integer is false for nan and inf; a NumPy bool is no np.integer
    if isinstance(value, np.integer) or isinstance(value, float) and value.is_integer():
        value = int(value)
    return value if type(value) is int else None  # bool is a subclass of int


def _read_layout(obj, kind: str, sizes: tuple[str, ...], arrays: tuple[str, ...]) -> list:
    """Each size of a parsed JSON layout as an int, then each array as floats.

    Sizes must be whole, finite numbers (``2.0`` reads as 2; ``true``, ``"3"``,
    ``2.5``, ``NaN`` and ``1e999`` do not) and arrays rectangular and numeric;
    otherwise, or on a missing key, :class:`InvalidInputError` is raised.
    """
    malformed = f"malformed {kind} object: "
    keys = (*sizes, *arrays)
    if not isinstance(obj, dict) or not all(key in obj for key in keys):
        raise InvalidInputError(f"{malformed}need a JSON object with keys {', '.join(keys)}")
    read = []
    for key in sizes:
        size = _whole_number(obj[key])
        if size is None:
            raise InvalidInputError(
                f"{malformed}{key} must be a whole number, got {obj[key]!r:.40}")
        read.append(size)
    for key in arrays:
        try:
            array = np.asarray(obj[key])
        except ValueError as exc:  # ragged
            raise InvalidInputError(f"{malformed}{key}: {exc}") from exc
        if array.dtype.kind not in "iuf":  # strings, nulls, integers beyond 64 bits
            raise InvalidInputError(f"{malformed}{key} must be a numeric array")
        read.append(array.astype(float, copy=False))
    return read
