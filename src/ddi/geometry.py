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
        Formalism dimension, a whole number at least 2.
    """
    return np.ones(_size(l, "formalism dimension", 2))


def ball_radius(l: int) -> float:
    """Radius of the state ball within the hyperplane."""
    return float(np.sqrt(1.0 - 1.0 / _size(l, "formalism dimension", 2)))


def pseudoinverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse with a relative singular-value cutoff.

    Singular values of at most ``DEFAULT_TOL`` times the largest are
    zeroed.  Satisfies the four Penrose identities to rounding accuracy.
    """
    a = _array(a, "matrix")
    if a.ndim != 2 or a.size == 0 or not np.all(np.isfinite(a)):
        raise InvalidInputError("pseudoinverse requires a finite 2-d array")
    return np.linalg.pinv(a, rcond=DEFAULT_TOL)


def hyperplane_basis(l: int) -> np.ndarray:
    """Orthonormal basis of the subspace of R^l orthogonal to the all-ones vector.

    Returns an ``(l, l-1)`` matrix with orthonormal columns, each summing
    to zero.  Column ``k`` is the Helmert vector with ``k+1`` leading
    ones followed by ``-(k+1)``, normalized.  The construction is
    deterministic, so it doubles as the canonical gauge.  Each ``l`` is
    built once and the same read-only array is returned on every call.
    """
    return _helmert_basis(_size(l, "formalism dimension", 2))


@lru_cache
def _helmert_basis(l: int) -> np.ndarray:
    cols = np.zeros((l, l - 1))
    for k in range(1, l):
        cols[:k, k - 1] = 1.0
        cols[k, k - 1] = -float(k)
        cols[:, k - 1] /= np.sqrt(k * (k + 1.0))
    cols.setflags(write=False)
    return cols


def _size(value, what: str, minimum: int) -> int:
    """``value`` as an int when it is a whole, finite number >= ``minimum``.

    ``3.0`` and ``np.int64(3)`` read as 3; ``True``, ``"3"``, ``2.5``,
    NaN, ``1e999`` and a value below ``minimum`` raise
    :class:`InvalidInputError`, whose message starts with ``what``.
    """
    # is_integer is false for nan and inf; a NumPy bool is no np.integer
    if isinstance(value, np.integer) or (
            isinstance(value, (float, np.floating)) and value.is_integer()):
        value = int(value)
    # bool is a subclass of int
    if type(value) is not int or value < minimum:
        raise InvalidInputError(f"{what} must be a whole number >= {minimum}, got {value!r:.40}")
    return value


def _array(value, what: str) -> np.ndarray:
    """``value`` as a float array, converted only from an integer one.

    Ragged input, strings, nulls, bools, complex numbers and integers beyond
    64 bits raise :class:`InvalidInputError`, whose message starts with ``what``.
    """
    try:
        array = np.asarray(value)
    except ValueError as exc:  # ragged
        raise InvalidInputError(f"{what} must be a rectangular array: {exc}") from exc
    if array.dtype.kind not in "iuf":
        raise InvalidInputError(f"{what} must be a real numeric array, got dtype {array.dtype}")
    return array.astype(float, copy=False)


def _read_layout(obj, kind: str, sizes: tuple[str, ...], arrays: tuple[str, ...]) -> list:
    """Each size of a parsed JSON layout as an int, then each array as floats.

    Sizes are read by :func:`_size`, at least 1, and arrays by
    :func:`_array`; a refused value or a missing key raises
    :class:`InvalidInputError`.
    """
    malformed = f"malformed {kind} object: "
    keys = (*sizes, *arrays)
    if not isinstance(obj, dict) or not all(key in obj for key in keys):
        raise InvalidInputError(f"{malformed}need a JSON object with keys {', '.join(keys)}")
    return ([_size(obj[key], malformed + key, 1) for key in sizes]
            + [_array(obj[key], malformed + key) for key in arrays])
