"""Shared oracles and generators for the test suite.

Everything here is deliberately independent of the package internals:
densities are built from raw matrix algebra, and the enclosing-ellipse
oracle is a direct parameter search, so tests compare two routes to the
same quantity.
"""

import numpy as np
from scipy.optimize import minimize

from ddi import InvalidInputError, NotNormalizedError

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def random_density(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_pure_density(d, rng):
    psi = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_hermitian(d, rng):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


def embed_density_einsum(rho, embedding):
    """Reference state embedding: one einsum against the operator basis."""
    coeffs = np.einsum("kij,ji->k", embedding.operator_basis, rho).real
    l = embedding.l
    return np.ones(l) / l + embedding.alpha * (embedding.tangent_basis @ coeffs)


def embed_effect_einsum(effect, embedding):
    """Reference effect embedding: one einsum against the operator basis."""
    trace = float(np.trace(effect).real)
    coeffs = np.einsum("kij,ji->k", embedding.operator_basis, effect).real
    l = embedding.l
    return (trace / embedding.d) * np.ones(l) + (embedding.tangent_basis @ coeffs) / embedding.alpha


def embedding_rejection(op, tol, unit_trace):
    """The error class embedding ``op`` must raise, or None: its checks written out.

    Entries must be finite, ``max |X - X^H|`` at most ``tol`` and, for a
    density matrix, ``|tr X - 1|`` at most ``tol``, tested in that order.
    """
    op = np.asarray(op, dtype=complex)
    if not np.isfinite(op).all() or np.abs(op - op.conj().T).max() > tol:
        return InvalidInputError
    if unit_trace and abs(np.trace(op) - 1.0) > tol:
        return NotNormalizedError
    return None


def flat_cloud(seed, e):
    """20 mixtures of 3 vertices in 4 outcomes, row 0 lifted off their plane by e."""
    rng = np.random.default_rng(seed)
    vertices = rng.dirichlet(np.ones(4), 3)
    points = rng.dirichlet(np.ones(3), 20) @ vertices
    points[0] += e * np.array([1.0, -1.0, 1.0, -1.0])
    return points


def bloch_qubit(b):
    b = np.asarray(b, dtype=float)
    rho = np.eye(2, dtype=complex) / 2
    for k in range(3):
        rho += b[k] * PAULIS[k] / 2
    return rho


def enclosing_ellipse_bruteforce(vertices, starts=6, seed=0):
    """Minimum-area ellipse containing 2-d points, by parameter search.

    Parametrizes (y - c)^T H (y - c) <= 1 with H = L L^T lower
    triangular and minimizes -log det H under the containment
    constraints, from several starts.  Returns (center, H).

    The search runs in whitened coordinates y = W^-1 (x - mu), with mu
    the centroid and W the Cholesky factor of the point scatter, and the
    result is mapped back by c = mu + W c_y, H = W^-T H_y W^-1.  This is
    exact because the minimum-area ellipse commutes with invertible
    affine maps.  It matters because on a flat point set the raw (c, L)
    parameters are badly scaled: the area moves only to second order in
    the center, so SLSQP meets its ftol while the center is still loose.
    Whitened points have unit scatter, where the search is well scaled.
    """
    vertices = np.asarray(vertices, dtype=float)
    mu = vertices.mean(axis=0)
    centered = vertices - mu
    if np.linalg.matrix_rank(centered) < 2:
        raise ValueError("points are collinear: their scatter is singular, "
                         "so no ellipse of finite area encloses them")
    whiten = np.linalg.cholesky(centered.T @ centered / len(vertices))
    unwhiten = np.linalg.inv(whiten)
    white = centered @ unwhiten.T
    rng = np.random.default_rng(seed)
    spread = np.linalg.norm(white, axis=1).max()

    def unpack(z):
        c = z[:2]
        low = np.array([[z[2], 0.0], [z[3], z[4]]])
        return c, low @ low.T

    def unwhitened(z):
        c, quad = unpack(z)
        return mu + whiten @ c, unwhiten.T @ quad @ unwhiten

    def slack(points, c, quad):
        diff = points - c
        return 1.0 - np.einsum("ij,jk,ik->i", diff, quad, diff)

    def objective(z):
        _, quad = unpack(z)
        sign, logdet = np.linalg.slogdet(quad)
        return -logdet if sign > 0 else 1e9

    best = None
    for k in range(starts):
        jitter = 0.3 * spread * rng.standard_normal(2) if k else np.zeros(2)
        z0 = np.array([*jitter, 1.0 / spread, 0.0, 1.0 / spread])
        res = minimize(objective, z0, method="SLSQP",
                       constraints=[{"type": "ineq",
                                     "fun": lambda z: slack(white, *unpack(z))}],
                       options={"maxiter": 400, "ftol": 1e-14})
        # checked in the caller's coordinates, so round-off in the map back counts
        if res.success and slack(vertices, *unwhitened(res.x)).min() > -1e-9:
            if best is None or res.fun < best.fun:
                best = res
    assert best is not None, "oracle failed to find an enclosing ellipse"
    return unwhitened(best.x)


def triangle_area(points2d):
    a, b, c = np.asarray(points2d, dtype=float)
    return 0.5 * abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def chart_coordinates(cloud):
    """The cloud's chart coordinates, unwhitened."""
    return (cloud.points - cloud.base) @ cloud.chart


def whitened_lift(x):
    """Points ``x`` lifted to ``(x_i, 1)`` and whitened by a thin QR, as ``mvee`` does.

    The ellipsoid's weights and every leverage are affine-invariant, so
    they are the same on these coordinates, whose uniform scatter is the
    identity: a flat cloud's thin direction is as well scaled as the
    others, where in the raw chart a dense solve loses it.
    """
    m = len(x)
    return np.sqrt(m) * np.linalg.qr(np.hstack([np.ones((m, 1)), x]))[0]


def duality_gap_dense(cloud, weights):
    """Relative duality gap at ``weights``, from one dense solve on whitened points."""
    lifted = whitened_lift(chart_coordinates(cloud))
    dim = lifted.shape[1]
    scatter = lifted.T @ (weights[:, None] * lifted)
    leverage = np.einsum("ij,ji->i", lifted, np.linalg.solve(scatter, lifted.T))
    return max(leverage.max() / dim - 1.0, 1.0 - leverage[weights > 0].min() / dim)


def khachiyan_weights_dense(x, eps, max_iter):
    """Reference ellipsoid iteration: uniform start, full solve every step.

    The toward/away/drop step rule of the production solver, without its
    Newton steps on the support's face: the lifted scatter is rebuilt and
    solved against every point at each step, O(m d^2) per step, and
    convergence stays linear.  It reaches the same optimum by a different
    route.  Like the solver, it runs on :func:`whitened_lift` points.
    Returns ``(weights, gap, iterations, converged)``.
    """
    m, d = x.shape
    dim = d + 1
    lifted = whitened_lift(x)
    u = np.full(m, 1.0 / m)
    gap = np.inf
    for iteration in range(max_iter + 1):
        scatter = lifted.T @ (u[:, None] * lifted)
        leverage = np.einsum("ij,ji->i", lifted, np.linalg.solve(scatter, lifted.T))
        j_up = int(np.argmax(leverage))
        up = float(leverage[j_up])
        masked = np.where(u > 0.0, leverage, np.inf)
        j_down = int(np.argmin(masked))
        down = float(leverage[j_down])
        gap = max(up / dim - 1.0, 1.0 - down / dim)
        if gap <= eps:
            return u, gap, iteration, True
        if iteration == max_iter:
            break
        if up / dim - 1.0 >= 1.0 - down / dim:
            j, lever = j_up, up
            step = (lever - dim) / (dim * (lever - 1.0))
        else:
            j, lever = j_down, down
            bound = -u[j] / (1.0 - u[j])
            denom = dim * (lever - 1.0)
            step = bound if denom <= 0.0 else max((lever - dim) / denom, bound)
        u = (1.0 - step) * u
        u[j] += step
        np.clip(u, 0.0, None, out=u)
        u /= u.sum()
    return u, gap, max_iter, False


def mvee_dense(cloud, eps, max_iter=10 ** 6):
    """``(center, shape)`` of the cloud's ellipsoid by the reference iteration."""
    x = chart_coordinates(cloud)
    weights, _, _, converged = khachiyan_weights_dense(x, eps, max_iter)
    assert converged, "reference iteration did not converge"
    center_x = weights @ x
    shape = x.shape[1] * (x.T @ (weights[:, None] * x) - np.outer(center_x, center_x))
    return cloud.base + cloud.chart @ center_x, (shape + shape.T) / 2.0
