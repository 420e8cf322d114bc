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

import math
import numbers
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
    if a.ndim != 2 or a.size == 0:
        raise InvalidInputError("pseudoinverse requires a nonempty 2-d array")
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


def _shown(value) -> str:
    """``repr(value)`` cut to 40 characters for a message.

    An int of more than 128 bits, too long for 40 digits, is shown by its
    bit length: Python refuses to print one of more than 4300 digits.  A
    value whose ``repr`` raises, such as a list holding such an int, is
    shown by its type.
    """
    if isinstance(value, int) and value.bit_length() > 128:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    try:
        return f"{value!r:.40}"
    except Exception:
        return f"a {type(value).__name__} that cannot be printed"


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
        raise InvalidInputError(f"{what} must be a whole number >= {minimum}, got {_shown(value)}")
    return value


def _real(value, what: str, rule: str = "a real number") -> float:
    """``value`` as a float when it is a real number.

    ``True``, ``"1e-9"``, ``None`` and complex numbers raise
    :class:`InvalidInputError`, whose message is ``what`` must be
    ``rule``.  NaN and negative values pass, for the caller's comparisons
    to refuse; an int beyond the float range reads as an infinity.
    """
    # a float, the usual tolerance, passes on one type test
    if type(value) is float:
        return value
    # bool is a subclass of int; a NumPy bool is no numbers.Real
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InvalidInputError(f"{what} must be {rule}, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _array(value, what: str, dtype: type = float) -> np.ndarray:
    """``value`` as a finite float array, converted only from an integer one.

    With ``dtype=complex``, as a finite complex array, converted from a
    real one too.  Ragged input, strings, nulls, bools, integers beyond 64
    bits, complex numbers for a float array, and NaN or infinite entries
    raise :class:`InvalidInputError`, whose message starts with ``what``.
    """
    try:
        array = np.asarray(value)
    except ValueError as exc:  # ragged
        raise InvalidInputError(f"{what} must be a rectangular array: {exc}") from exc
    if array.dtype.kind not in ("iufc" if dtype is complex else "iuf"):
        kind = "numeric" if dtype is complex else "real numeric"
        raise InvalidInputError(f"{what} must be a {kind} array, got dtype {array.dtype}")
    array = array.astype(dtype, copy=False)
    # unlike dot and the ufuncs, vdot does not warn when the sum of squares
    # overflows or meets a non-finite entry; only then does isfinite look
    # (abs, as the sum of a complex array is complex)
    if not math.isfinite(abs(np.vdot(array, array))) and not np.isfinite(array).all():
        raise InvalidInputError(f"{what} entries must be finite")
    return array


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
