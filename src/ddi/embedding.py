"""Quantum embedding: density matrices and effects as real vectors.

Quantum systems of Hilbert dimension ``d`` embed in the real-vector
formalism of :mod:`ddi.geometry` with ``l = d * d``.  A density matrix
``rho`` maps to

    s = u/l + alpha * T(rho - eye(d)/d),    alpha = sqrt((d+1)/d),

where ``T`` pairs an orthonormal basis of traceless Hermitian operators
(Hilbert-Schmidt inner product) with an orthonormal basis of the
subspace of R^l orthogonal to ``u``.  An effect ``E`` maps to

    m = (tr(E)/d) * u + (1/alpha) * T(E - (tr(E)/d) * eye(d)),

which preserves the Born rule exactly: ``m . s = tr(E rho)``.  The scale
``alpha`` is the unique positive choice placing pure density matrices on
the surface of the ball.  Squared norm is then an affine function of
purity, ``|s|^2 = 1/l + alpha^2 * (tr(rho^2) - 1/d)``, not purity
itself; the two agree exactly at purity one.  For ``d = 2`` the embedded
state set fills the whole ball, for ``d >= 3`` it is a strict subset.

Both bases of ``T`` are gauge choices.  The ones below (generalized
Gell-Mann operators and a Helmert-style hyperplane basis) are fixed and
deterministic; any other orthonormal pair gives the same geometry, so
the embedding uses this pair only.  States and effects both go through
one real matrix per dimension, built once from the two bases and
cached, with ``alpha`` folded into its ``T`` rows.  Its product with an
operator read as interleaved (re, im) floats gives, in one matmul,
``alpha * T`` of the operator's traceless part, the operator's trace,
and the entries of ``X - X^H`` that the Hermiticity check reads.  A
state is then that first part plus ``u/l``, and an effect that part
times ``1/alpha^2 = d/(d+1)`` plus ``(tr(E)/d) * u``.

``ddi embed`` imports this module when it runs, and :mod:`ddi` on first
use of one of its names, so the inference path does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InvalidInputError
from .geometry import DEFAULT_TOL, _array, _read_layout, _real, _shown, _size, hyperplane_basis


def traceless_hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of traceless Hermitian ``d x d`` matrices.

    Generalized Gell-Mann construction: for every index pair ``j < k``
    one symmetric and one antisymmetric matrix, then ``d - 1`` diagonal
    matrices.  Orthonormal under ``<X, Y> = tr(X Y)``; returns an array
    of shape ``(d*d - 1, d, d)``.  Each ``d`` is built once and the same
    read-only array is returned on every call.
    """
    return _gell_mann_basis(_size(d, "Hilbert dimension", 2))


@lru_cache
def _gell_mann_basis(d: int) -> np.ndarray:
    basis = np.zeros((d * d - 1, d, d), dtype=complex)
    idx = 0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for j in range(d):
        for k in range(j + 1, d):
            basis[idx, j, k] = inv_sqrt2
            basis[idx, k, j] = inv_sqrt2
            idx += 1
    for j in range(d):
        for k in range(j + 1, d):
            basis[idx, j, k] = -1j * inv_sqrt2
            basis[idx, k, j] = 1j * inv_sqrt2
            idx += 1
    for m in range(1, d):
        scale = 1.0 / np.sqrt(m * (m + 1.0))
        for i in range(m):
            basis[idx, i, i] = scale
        basis[idx, m, m] = -m * scale
        idx += 1
    basis.setflags(write=False)
    return basis


@dataclass(frozen=True, eq=False)
class StateEmbedding:
    """Quantum embedding of Hilbert dimension ``d`` in the fixed gauge.

    :meth:`for_dimension` returns one shared instance per ``d``.  States
    and effects both go through one real matrix, :attr:`operator_map`,
    built from the two bases on first use and cached.

    Attributes
    ----------
    d : int
        Hilbert dimension.
    operator_basis : ndarray, shape (d*d - 1, d, d)
        :func:`traceless_hermitian_basis` of ``d``, read-only.
    tangent_basis : ndarray, shape (d*d, d*d - 1)
        :func:`hyperplane_basis` of ``d*d``, read-only.
    """

    d: int

    def __post_init__(self):
        object.__setattr__(self, "d", _size(self.d, "Hilbert dimension", 2))

    @property
    def operator_basis(self) -> np.ndarray:
        return traceless_hermitian_basis(self.d)

    @property
    def tangent_basis(self) -> np.ndarray:
        return hyperplane_basis(self.l)

    @property
    def l(self) -> int:
        return self.d * self.d

    @cached_property
    def alpha(self) -> float:
        return float(np.sqrt((self.d + 1.0) / self.d))

    @cached_property
    def operator_map(self) -> np.ndarray:
        """Read-only ``(l + 2 + d*(d+1), 2*l)`` matrix checking and mapping an operator.

        ``x`` is the C-ordered ``d x d`` complex matrix ``X`` read as
        interleaved (re, im) floats.  The product ``operator_map @ x``
        holds, in order:

        - ``alpha * T(X) = alpha * tangent_basis @ [Re tr(B_k X)]_k``
          over the operator basis ``B_k`` (the first ``l`` rows), with
          the scale folded into the map so that no call multiplies by
          it.  Row ``k`` of the operator part is ``conj(B_k).T`` read the
          same way, since ``Re tr(B X) = sum Re(B.T) Re(X) - Im(B.T) Im(X)``;
        - ``Re tr X`` and ``Im tr X``;
        - ``(X - X^H)[i, j]`` for ``i <= j`` as (re, im) pairs.  Each
          row holds two coefficients of +-1 (on the diagonal, a 2 for
          the imaginary part and none for the real part, which is zero),
          so each entry is rounded once, as the direct subtraction is,
          and the entries below the diagonal only repeat these moduli.
        """
        d, l = self.d, self.l
        pairing = self.operator_basis.transpose(0, 2, 1).conj()
        pairing = np.ascontiguousarray(pairing, dtype=complex).view(float)
        rows = np.zeros((l + 2 + d * (d + 1), 2 * l))
        rows[:l] = self.alpha * (self.tangent_basis @ pairing.reshape(l - 1, 2 * l))
        diagonal = 2 * (d + 1) * np.arange(d)
        rows[l, diagonal] = 1.0
        rows[l + 1, diagonal + 1] = 1.0
        i, j = np.triu_indices(d)
        upper, lower = 2 * (i * d + j), 2 * (j * d + i)
        re = l + 2 + 2 * np.arange(len(i))
        rows[re, upper] += 1.0
        rows[re, lower] -= 1.0
        rows[re + 1, upper + 1] += 1.0
        rows[re + 1, lower + 1] += 1.0
        rows.setflags(write=False)
        return rows

    @classmethod
    def for_dimension(cls, d: int) -> "StateEmbedding":
        """Return the embedding for Hilbert dimension ``d``.

        Every call for the same ``d`` returns one shared instance, whose
        cached map is built once.
        """
        return _shared_embedding(_size(d, "Hilbert dimension", 2))


_shared_embedding = lru_cache(StateEmbedding)


def _embed_parts(op: np.ndarray, embedding: StateEmbedding, tol: float) -> np.ndarray:
    """Check a Hermitian operator ``X``; return ``operator_map @ X``.

    The first ``l`` entries of the result are ``alpha * T(X)``, the next
    two ``Re tr X`` and ``Im tr X``.  One product with
    :attr:`StateEmbedding.operator_map` gives the map, the trace and the
    Hermiticity deviation; the reader has refused a non-finite entry,
    which would make ``0 * inf`` in the product warn.
    """
    d = embedding.d
    tol = _real(tol, "tol")
    # contiguous, so that its real and imaginary parts view as one float vector
    a = np.ascontiguousarray(_array(op, "operator", complex))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError("operator must be a square matrix")
    if a.shape[0] != d:
        raise InvalidInputError(f"operator has dimension {a.shape[0]}, expected {d}")
    y = embedding.operator_map @ a.view(float).ravel()
    deviation = y[d * d + 2:]
    # Every modulus is within tol when the squares sum to at most
    # (tol/2)^2, so each is taken only when they do not.  Below 1e-150 the
    # squares could underflow, so such a tol (or one not positive, or NaN)
    # always takes each modulus, and a NaN tol fails that comparison.
    if not (tol >= 1e-150 and np.vdot(deviation, deviation) <= 0.25 * tol * tol):
        if not np.hypot(deviation[0::2], deviation[1::2]).max() <= tol:
            raise InvalidInputError("operator is not Hermitian within tolerance")
    return y


def embed_density(rho: np.ndarray, embedding: StateEmbedding,
                  tol: float = DEFAULT_TOL) -> np.ndarray:
    """Embed a density matrix as a state vector in R^(d*d).

    Parameters
    ----------
    rho : ndarray, shape (d, d)
        Hermitian matrix with unit trace.  Positivity is not enforced,
        so quasi-states pass through unchanged.
    embedding : StateEmbedding
        Basis pairing returned by :meth:`StateEmbedding.for_dimension`.
    tol : float
        Absolute tolerance for the Hermiticity and trace checks.  A NaN
        tolerance passes neither.

    Returns
    -------
    ndarray
        Vector on the state hyperplane; unit norm exactly when ``rho``
        is pure.
    """
    y = _embed_parts(rho, embedding, tol)
    l = embedding.d * embedding.d
    trace_re, trace_im = float(y[l]), float(y[l + 1])
    if not math.hypot(trace_re - 1.0, trace_im) <= tol:
        raise InvalidInputError(
            f"density matrix must have unit trace, got {complex(trace_re, trace_im)}")
    return y[:l] + 1.0 / l


def embed_effect(effect: np.ndarray, embedding: StateEmbedding,
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    """Embed a Hermitian effect operator as a vector in R^(d*d).

    The unit effect ``eye(d)`` maps to the all-ones vector and the zero
    operator maps to zero.  For any density matrix ``rho`` the pairing
    ``embed_effect(E) . embed_density(rho)`` equals ``tr(E rho)``.
    Operators outside ``0 <= E <= eye(d)`` are accepted; only
    Hermiticity is required.
    """
    y = _embed_parts(effect, embedding, tol)
    d = embedding.d
    l = d * d
    return y[:l] * (d / (d + 1.0)) + float(y[l]) / d


def hermitian_from_dict(obj: dict) -> np.ndarray:
    """Parse ``{"d": int, "re": [[...]], "im": [[...]]}`` into a complex matrix.

    The layout reader refuses a non-finite part; embedding the matrix
    checks that it is Hermitian.
    """
    d, re, im = _read_layout(obj, "operator", ("d",), ("re", "im"))
    if re.shape != (d, d) or im.shape != (d, d):
        raise InvalidInputError(f"operator parts must be {_shown(d)} x {_shown(d)} matrices, "
                                f"got {re.shape} and {im.shape}")
    a = np.empty((d, d), dtype=complex)
    a.real, a.imag = re, im
    return a


def hermitian_to_dict(a: np.ndarray) -> dict:
    """Serialize a square complex matrix as ``{"d", "re", "im"}``."""
    a = _array(a, "operator", complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError("operator must be a square matrix")
    return {
        "d": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }
