"""Real-vector formalism for states, effects, and quantum embeddings.

A system of formalism dimension ``l`` lives in R^l.  The all-ones vector
``u`` acts as the unit effect: states are the vectors with ``u . s = 1``
and pure states additionally satisfy ``|s|^2 = 1``.  Intersecting the
state hyperplane with the cone ``f(v) = |v|^2 - (u . v)^2 <= 0`` gives a
ball centered at ``u/l`` whose radius within the hyperplane is
``sqrt(1 - 1/l)``; pure states sit on its surface and every admissible
state set is contained in it.

Quantum systems of Hilbert dimension ``d`` embed with ``l = d * d``.  A
density matrix ``rho`` maps to

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

Both bases of ``T`` are gauge choices.  The defaults below (generalized
Gell-Mann operators and a Helmert-style hyperplane basis) are fixed and
deterministic; any other orthonormal pair gives the same geometry.
States and effects both go through one real matrix per embedding, built
once from the two bases and cached.  Its product with an operator read
as interleaved (re, im) floats gives, in one matmul, ``T`` of the
operator's traceless part, the operator's trace, and the entries of
``X - X^H`` that the Hermiticity check reads.  Embeddings in the default
bases are built once per dimension and shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidInputError,
    NotNormalizedError,
)

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


def cone_functional(v: np.ndarray) -> float:
    """Evaluate ``f(v) = |v|^2 - (u . v)^2``.

    Nonpositive values mark the cone whose hyperplane section is the
    state ball.  On the hyperplane ``u . v = 1`` this reduces to
    ``|v|^2 - 1``.
    """
    v = np.asarray(v, dtype=float)
    total = float(v.sum())
    return float(v @ v) - total * total


def ball_membership(s: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Check that ``s`` lies on the state hyperplane and inside the ball.

    Both conditions are tested with absolute tolerance ``tol``:
    ``|u . s - 1| <= tol`` and ``f(s) <= tol``.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.size < 2 or not np.all(np.isfinite(s)):
        raise InvalidInputError("state must be a finite vector of length >= 2")
    on_plane = abs(float(s.sum()) - 1.0) <= tol
    return on_plane and cone_functional(s) <= tol


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


@lru_cache
def traceless_hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of traceless Hermitian ``d x d`` matrices.

    Generalized Gell-Mann construction: for every index pair ``j < k``
    one symmetric and one antisymmetric matrix, then ``d - 1`` diagonal
    matrices.  Orthonormal under ``<X, Y> = tr(X Y)``; returns an array
    of shape ``(d*d - 1, d, d)``.  Each ``d`` is built once and the same
    read-only array is returned on every call.
    """
    if d < 2:
        raise InvalidDimensionError(f"Hilbert dimension must be >= 2, got {d}")
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


def _square_operator(a: np.ndarray, d: int | None) -> np.ndarray:
    """Return ``a`` as a C-ordered complex matrix after checking its shape."""
    a = np.ascontiguousarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError("operator must be a square matrix")
    if d is not None and a.shape[0] != d:
        raise InvalidInputError(f"operator has dimension {a.shape[0]}, expected {d}")
    return a


def _require_hermitian(a: np.ndarray, d: int | None, tol: float) -> np.ndarray:
    """Return ``a`` as a C-ordered complex matrix after checking it is Hermitian."""
    a = _square_operator(a, d)
    if not np.isfinite(a).all():
        raise InvalidInputError("operator entries must be finite")
    if np.abs(a - a.conj().T).max() > tol:
        raise InvalidInputError("operator is not Hermitian within tolerance")
    return a


@dataclass(frozen=True)
class StateEmbedding:
    """Pairing of operator and vector bases defining the quantum embedding.

    States and effects both go through one real matrix,
    :attr:`operator_map`, built from the two bases on first use and
    cached.  Both bases are copied and made read-only on construction, so
    later writes to the caller's arrays reach neither the bases nor the
    cached map.

    Attributes
    ----------
    d : int
        Hilbert dimension.
    operator_basis : ndarray, shape (d*d - 1, d, d)
        Orthonormal traceless Hermitian operators.
    tangent_basis : ndarray, shape (d*d, d*d - 1)
        Orthonormal columns spanning the complement of the all-ones vector.
    """

    d: int
    operator_basis: np.ndarray
    tangent_basis: np.ndarray

    def __post_init__(self):
        for name in ("operator_basis", "tangent_basis"):
            basis = np.array(getattr(self, name))
            basis.setflags(write=False)
            object.__setattr__(self, name, basis)

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

        - ``T(X) = tangent_basis @ [Re tr(B_k X)]_k`` over the operator
          basis ``B_k`` (``l`` rows, :attr:`real_map`).  Row ``k`` of the
          operator part is ``conj(B_k).T`` read the same way, since
          ``Re tr(B X) = sum Re(B.T) Re(X) - Im(B.T) Im(X)``;
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
        rows[:l] = self.tangent_basis @ pairing.reshape(l - 1, 2 * l)
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

    @property
    def real_map(self) -> np.ndarray:
        """Read-only ``(l, 2*l)`` matrix ``L`` with ``L @ x = T(X)``.

        A view of the first ``l`` rows of :attr:`operator_map`.
        """
        return self.operator_map[:self.l]

    @classmethod
    def for_dimension(cls, d: int, operator_basis: np.ndarray | None = None,
                      tangent_basis: np.ndarray | None = None,
                      tol: float = DEFAULT_TOL) -> "StateEmbedding":
        """Build the embedding for Hilbert dimension ``d``.

        With both bases left at their defaults, every call for the same
        ``d`` returns one shared instance, whose cached map is built once.
        Custom bases may be supplied to change gauge; they are validated
        for orthonormality, tracelessness, and orthogonality to the
        all-ones vector, and give a new instance.
        """
        if not isinstance(d, (int, np.integer)) or d < 2:
            raise InvalidDimensionError(f"Hilbert dimension must be an int >= 2, got {d!r}")
        d = int(d)
        if operator_basis is None and tangent_basis is None:
            return _default_embedding(d)
        l = d * d
        if operator_basis is None:
            operator_basis = traceless_hermitian_basis(d)
        else:
            operator_basis = np.asarray(operator_basis, dtype=complex)
            if operator_basis.shape != (l - 1, d, d):
                raise InvalidInputError(
                    f"operator basis must have shape {(l - 1, d, d)}")
            for b in operator_basis:
                _require_hermitian(b, d, tol)
                if abs(np.trace(b)) > tol:
                    raise InvalidInputError("operator basis must be traceless")
            gram = np.einsum("aij,bji->ab", operator_basis, operator_basis)
            if np.abs(gram - np.eye(l - 1)).max() > tol:
                raise InvalidInputError("operator basis must be orthonormal")
        if tangent_basis is None:
            tangent_basis = hyperplane_basis(l)
        else:
            tangent_basis = np.asarray(tangent_basis, dtype=float)
            if tangent_basis.shape != (l, l - 1):
                raise InvalidInputError(f"tangent basis must have shape {(l, l - 1)}")
            if np.abs(tangent_basis.T @ tangent_basis - np.eye(l - 1)).max() > tol:
                raise InvalidInputError("tangent basis must be orthonormal")
            if np.abs(tangent_basis.sum(axis=0)).max() > tol:
                raise InvalidInputError("tangent basis must be orthogonal to the all-ones vector")
        return cls(d=d, operator_basis=operator_basis, tangent_basis=tangent_basis)


@lru_cache
def _default_embedding(d: int) -> StateEmbedding:
    return StateEmbedding(d, traceless_hermitian_basis(d), hyperplane_basis(d * d))


def _embed_parts(op: np.ndarray, embedding: StateEmbedding,
                 tol: float) -> tuple[np.ndarray, float, float]:
    """Check a Hermitian operator ``X``; return ``T(X)``, ``Re tr X``, ``Im tr X``.

    One product with :attr:`StateEmbedding.operator_map` gives the map,
    the trace and the Hermiticity deviation.  Its entries must be finite
    before it runs, or ``0 * inf`` in the product would warn.  ``vdot``
    is the screen because, unlike ``dot`` and ``matmul``, it does not
    warn when the sum of squares of large finite entries overflows; only
    then, or with a non-finite entry, does ``isfinite`` have to look.
    """
    a = _square_operator(op, embedding.d)
    x = a.view(float).ravel()
    if not math.isfinite(np.vdot(x, x)) and not np.isfinite(x).all():
        raise InvalidInputError("operator entries must be finite")
    y = embedding.operator_map @ x
    l = embedding.l
    deviation = y[l + 2:]
    # Every modulus is within tol when the squares sum to at most
    # (tol/2)^2, so each is taken only when they do not.  Below 1e-150 the
    # squares could underflow, so such a tol (or one not positive) always
    # takes each modulus.
    if not (tol >= 1e-150 and np.vdot(deviation, deviation) <= 0.25 * tol * tol):
        if np.hypot(deviation[0::2], deviation[1::2]).max() > tol:
            raise InvalidInputError("operator is not Hermitian within tolerance")
    return y[:l], float(y[l]), float(y[l + 1])


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
        Absolute tolerance for the Hermiticity and trace checks.

    Returns
    -------
    ndarray
        Vector on the state hyperplane; unit norm exactly when ``rho``
        is pure.
    """
    tangent, trace_re, trace_im = _embed_parts(rho, embedding, tol)
    if math.hypot(trace_re - 1.0, trace_im) > tol:
        raise NotNormalizedError(
            f"density matrix must have unit trace, got {complex(trace_re, trace_im)}")
    return embedding.alpha * tangent + 1.0 / embedding.l


def embed_effect(effect: np.ndarray, embedding: StateEmbedding,
                 tol: float = DEFAULT_TOL) -> np.ndarray:
    """Embed a Hermitian effect operator as a vector in R^(d*d).

    The unit effect ``eye(d)`` maps to the all-ones vector and the zero
    operator maps to zero.  For any density matrix ``rho`` the pairing
    ``embed_effect(E) . embed_density(rho)`` equals ``tr(E rho)``.
    Operators outside ``0 <= E <= eye(d)`` are accepted; only
    Hermiticity is required.
    """
    tangent, trace, _ = _embed_parts(effect, embedding, tol)
    return tangent / embedding.alpha + trace / embedding.d


def hermitian_from_dict(obj: dict, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Parse ``{"d": int, "re": [[...]], "im": [[...]]}`` into a complex matrix."""
    try:
        d = int(obj["d"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed operator object: {exc}") from exc
    if re.shape != (d, d) or im.shape != (d, d):
        raise InvalidInputError(
            f"operator parts must be {d} x {d} matrices, got {re.shape} and {im.shape}")
    return _require_hermitian(re + 1j * im, d, tol)


def hermitian_to_dict(a: np.ndarray) -> dict:
    """Serialize a square complex matrix as ``{"d", "re", "im"}``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError("operator must be a square matrix")
    return {
        "d": int(a.shape[0]),
        "re": a.real.tolist(),
        "im": a.imag.tolist(),
    }
