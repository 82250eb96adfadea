"""Dense reference computations that the tests compare the package against.

The package computes spectra from data matrices as eigenproblems
(``spectra.blocks``) solved by ``spectra.block_esds``, and compresses the
data before forming a Gram.  These oracles take the long way instead: the
ESD of an explicit symmetric matrix, the Gram that ``spectra.blocks``
splits and its ESD solved from a Gram handed over whole, a sample
covariance summed one column at a time, the compression C S C^T of a full
sample covariance along a validated row-orthonormal frame, swap gaps from
two full p-by-p sample covariances, and the resolvent trace of the Laguerre
tridiagonal model from its bidiagonal factor, solved whole.

The law's quadrature oracles (``quad_cdf``, ``quad_stieltjes``, ``quad_mass``,
``quad_moment``) integrate with scipy's adaptive ``quad`` and their own
edge-regular substitution, independently of the package's fixed
Gauss-Legendre rule.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from mplab import matcore, spectra
from mplab.matcore import DomainError, InvalidInputError, Spectrum
from mplab.mp_law import MPLaw

# Row-orthonormality tolerance for frames.
ORTH_TOL = 1e-10


def as_frame(c) -> np.ndarray:
    """Validate a q-by-p matrix with orthonormal rows (q <= p)."""
    a = np.asarray(c, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] > a.shape[1]:
        raise InvalidInputError(f"frame must be q-by-p with q <= p, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("frame has non-finite entries")
    gram = a @ a.T
    if np.max(np.abs(gram - np.eye(a.shape[0]))) > ORTH_TOL:
        raise DomainError("frame rows are not orthonormal within tolerance")
    return a


def esd(m, psd: bool = False) -> Spectrum:
    """Eigenvalue distribution of a symmetric matrix.

    With ``psd=True`` tiny negative eigenvalues (roundoff from a Gram-type
    construction) are clamped to zero; genuine negativity raises.
    """
    spec = matcore.eigh(m, want_vectors=False)
    if psd:
        return Spectrum(eigenvalues=matcore.clamp_psd_eigenvalues(spec.eigenvalues))
    return spec


def gram(x) -> tuple[np.ndarray, int]:
    """The Gram whose blocks ``spectra.blocks`` solves, and p, as one product.

    X X^T / n when p <= n.  When p > n, R R^T / n for the r nonzero rows R of
    X if r < n, else X^T X / n: each shares the nonzero eigenvalues of X X^T / n.
    """
    a = np.asarray(x, dtype=np.float64)
    p, n = a.shape
    if p > n:
        nonzero = a.any(axis=1)
        a = a[nonzero] if np.count_nonzero(nonzero) < n else a.T
    return a @ a.T / n, p


def gram_blocks(g, p: int) -> tuple[list[np.ndarray], int, np.ndarray]:
    """The problem (blocks, p, read_off) of a validated k-by-k Gram of a p-by-p sample covariance.

    Each connected block of g's off-diagonal pattern, as ``spectra._blocks``
    finds it, and the diagonal entries of its isolated coordinates.
    """
    a = matcore.as_square(g)
    if a.shape[0] > p:
        raise DomainError(f"a {a.shape[0]}-by-{a.shape[0]} Gram has no sample covariance of dimension {p}")
    isolated, blocks = spectra._blocks(a)
    return [a[np.ix_(b, b)] for b in blocks], p, np.diagonal(a)[isolated]


def gram_esd(g, p: int) -> Spectrum:
    """ESD of a p-by-p sample covariance from its k-by-k Gram, solved block by block."""
    (e,) = spectra.block_esds([gram_blocks(g, p)])
    return e


def same_problem(a, b) -> bool:
    """Whether two problems (blocks, p, read_off) hold the same bits."""
    return (a[1] == b[1] and [m.tobytes() for m in a[0]] == [m.tobytes() for m in b[0]]
            and np.asarray(a[2], dtype=np.float64).tobytes() == np.asarray(b[2], dtype=np.float64).tobytes())


def column_outer_sum(x, n: int | None = None) -> np.ndarray:
    """X X^T / n as the sum, in column order, of each column's outer product.

    n defaults to X's column count.  Each outer product covers the column's
    nonzero rows only, so adding it never meets a zero factor.
    """
    a = np.asarray(x, dtype=np.float64)
    s = np.zeros((a.shape[0], a.shape[0]))
    for col in a.T:
        rows = np.flatnonzero(col)
        s[np.ix_(rows, rows)] += np.outer(col[rows], col[rows])
    return s / (a.shape[1] if n is None else n)


def projected_covariance(frame, m) -> np.ndarray:
    """Compression C m C^T of a symmetric matrix along a row-orthonormal frame."""
    c = as_frame(frame)
    a = matcore.as_symmetric(m)
    if c.shape[1] != a.shape[0]:
        raise DomainError(f"frame width {c.shape[1]} != matrix dimension {a.shape[0]}")
    return matcore.as_symmetric(c @ a @ c.T)


def dense_traces(x, zs) -> tuple[complex, ...]:
    """(1/p) tr(X X^T / n - z I)^{-1} at each z: the p-by-p sample covariance, solved whole."""
    spec = matcore.eigh(spectra.sample_covariance(x), want_vectors=False)
    return tuple(matcore.resolvent_trace(spec, z) for z in zs)


def swap_gaps_dense(x, zmat, zs) -> tuple[complex, ...]:
    """Swap gaps with no offsets: each side's p-by-p sample covariance, solved whole."""
    return tuple(tx - tz for tx, tz in zip(dense_traces(x, zs), dense_traces(zmat, zs)))


def laguerre_trace(c2, s2, p: int, n: int, z: complex) -> complex:
    """(1/p) tr(S - z I)^{-1} for S with the spectrum of B B^T / n and p - m zeros.

    B is the m-by-m lower bidiagonal with diagonal sqrt(c2) and subdiagonal
    sqrt(s2), formed densely; B B^T / n is solved whole by ``eigh``.
    """
    c2, s2 = np.asarray(c2, dtype=np.float64), np.asarray(s2, dtype=np.float64)
    m = c2.size
    b = np.diag(np.sqrt(c2)) + np.diag(np.sqrt(s2), -1)
    vals = matcore.eigh(b @ b.T / n, want_vectors=False).eigenvalues
    return matcore.resolvent_trace(Spectrum(np.concatenate([np.zeros(p - m), vals])), z)


def laguerre_gram(c2, s2, n: int) -> np.ndarray:
    """The tridiagonal B B^T / n of the Laguerre bidiagonal B, entry by entry.

    Diagonal (c2_k + s2_{k-1}) / n and off-diagonal sqrt(c2_k s2_k) / n, each
    rounded once, placed by ``np.diag``: the same bits as the model's Gram.
    """
    c2, s2 = np.asarray(c2, dtype=np.float64), np.asarray(s2, dtype=np.float64)
    off = np.sqrt(c2[:-1] * s2) / n
    return np.diag((c2 + np.concatenate(([0.0], s2))) / n) + np.diag(off, 1) + np.diag(off, -1)


# Tolerances and subdivision limit of the law's adaptive quadratures.
QUAD_EPS = 1e-13
QUAD_LIMIT = 400


def _theta_quad(law: MPLaw, f, theta_hi: float) -> float:
    """Adaptive quadrature of f over [0, theta_hi] in x = a + 4 sqrt(rho) sin^2(theta).

    For rho near 1 the lower edge a is tiny and a 1/x factor turns over
    within theta ~ sqrt(a / (b - a)) of the origin, and its tail reaches to
    pi / 2, so the subdivision is seeded at the layer and at every factor of
    8 above it.
    """
    width = 4.0 * np.sqrt(law.rho)
    t = float(np.arcsin(min(1.0, np.sqrt(law.a / width)))) if law.a > 0 else 0.0
    pts = []
    while 0.0 < t < theta_hi:
        pts.append(t)
        t *= 8.0
    val, _err = quad(f, 0.0, theta_hi, epsabs=QUAD_EPS, epsrel=QUAD_EPS,
                     limit=QUAD_LIMIT, points=pts or None)
    return val


def _dF(law: MPLaw, theta: float) -> tuple[float, float]:
    """dF/dtheta of the law's continuous part, and x(theta)."""
    width = 4.0 * np.sqrt(law.rho)
    s2 = np.sin(theta) ** 2
    x = law.a + width * s2
    return width * width / (np.pi * law.rho) * s2 * (1.0 - s2) / x, x


def quad_cdf(law: MPLaw, x: float) -> float:
    """F(x) for a <= x <= b: the atom plus the continuous mass below x."""
    ratio = min(1.0, max(0.0, (x - law.a) / (4.0 * np.sqrt(law.rho))))
    theta = float(np.arcsin(np.sqrt(ratio)))
    return law.atom0 + _theta_quad(law, lambda t: _dF(law, t)[0], theta)


def quad_stieltjes(law: MPLaw, z: complex) -> complex:
    """m(z) = int dF(x) / (x - z), as two real quadratures plus the atom term."""
    def part(take):
        def f(t):
            w, x = _dF(law, t)
            return take(w / (x - z))
        return _theta_quad(law, f, np.pi / 2.0)

    m = complex(part(lambda v: v.real), part(lambda v: v.imag))
    return m + law.atom0 / (0.0 - z)


def quad_mass(law: MPLaw) -> float:
    """Continuous mass from ``law.density`` evaluated at x(theta), times dx/dtheta."""
    width = 4.0 * np.sqrt(law.rho)

    def f(t):
        return law.density(law.a + width * np.sin(t) ** 2) * width * np.sin(2.0 * t)

    return _theta_quad(law, f, np.pi / 2.0)


def quad_moment(law: MPLaw, k: int) -> float:
    """int x^k dF(x), the atom at zero included."""
    def f(t):
        weight, x = _dF(law, t)
        return weight * x**k

    return (law.atom0 if k == 0 else 0.0) + _theta_quad(law, f, np.pi / 2.0)
