"""Independent oracles used by the test suite.

Each deliberately takes a different numerical route than the library:
hand-rolled Gaussian elimination instead of the eigenvalue path for
determinants, adaptive quadrature and single-panel Gauss-Legendre
tensor rules instead of the library's composite Gauss-Legendre source
rule for integrals, a singular value decomposition of a whole matrix
(a square Nystrom matrix for the field operator's spectrum) instead of
the library's split into two centrosymmetric halves, the
Fresnel-limit prolate spheroidal spectrum for the shape of that
spectrum, and Richardson extrapolation of discrete-array values, which
share none of the continuous reference's quadrature, for its limit.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from capmimo.physics import SystemConfig, green_offset


def logdet_by_row_reduction(M: np.ndarray) -> float:
    """log |det M| via Gaussian elimination with partial pivoting.

    Pure-python pivoting over a copied matrix; no LAPACK factorization,
    no eigenvalues.
    """
    A = np.array(M, dtype=np.complex128, copy=True)
    n = A.shape[0]
    log_abs = 0.0
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(A[col:, col])))
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
        p = A[col, col]
        if p == 0:
            raise ZeroDivisionError("singular matrix in row reduction")
        log_abs += float(np.log(abs(p)))
        for row in range(col + 1, n):
            A[row, col:] -= (A[row, col] / p) * A[col, col:]
    return log_abs


def gauss_legendre_nodes(n: int, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped from [-1, 1] to [0, length]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) * (length / 2.0), w * (length / 2.0)


def composite_gauss_legendre(length: float, n: int,
                             panel: int = 16) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n // panel equal Gauss-Legendre panels on [0, length]."""
    if n % panel:
        raise ValueError(f"node count {n} is not a multiple of {panel}")
    t, w = np.polynomial.legendre.leggauss(panel)
    panels = n // panel
    h = length / panels
    nodes = (h * np.arange(panels)[:, None] + 0.5 * h * (t[None, :] + 1.0)).ravel()
    return nodes, np.tile(0.5 * h * w, panels)


def nystrom_spectrum_svd(cfg: SystemConfig, nodes: int) -> np.ndarray:
    """Unit-power field-operator eigenvalues from an n-node Nystrom matrix.

    The same composite Gauss-Legendre rule on both apertures gives the
    square matrix sqrt(w_i) G(x_i - x_j) sqrt(w_j); its squared singular
    values, from ``np.linalg.svd``, approximate the operator's spectrum.
    No Gram matrix and no Hermitian eigensolver is involved.
    """
    x, w = composite_gauss_legendre(cfg.aperture_m, nodes)
    root_w = np.sqrt(w)
    a = root_w[:, None] * green_offset(x[:, None] - x[None, :], cfg) * root_w[None, :]
    return np.linalg.svd(a, compute_uv=False) ** 2


def full_matrix_spectrum(cfg: SystemConfig, rx_points: np.ndarray, tx_points: np.ndarray,
                         rx_weights: np.ndarray | None = None,
                         tx_weights: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """Squared singular values and squared Frobenius norm of a whole weighted matrix.

    A = sqrt(w_r) G(r_i - s_k) sqrt(w_s), unit weights where None, every
    entry evaluated and the full matrix passed to ``np.linalg.svd``: no
    symmetry of the grids is used. Squared singular values nonincreasing.
    """
    a = green_offset(np.subtract.outer(rx_points, tx_points), cfg)
    if rx_weights is not None:
        a = np.sqrt(rx_weights)[:, None] * a
    if tx_weights is not None:
        a = a * np.sqrt(tx_weights)[None, :]
    return np.linalg.svd(a, compute_uv=False) ** 2, float(np.sum(a.real**2 + a.imag**2))


@lru_cache(maxsize=8)
def converged_operator_spectrum(cfg: SystemConfig, nodes: int = 512) -> np.ndarray:
    """Field-operator eigenvalues at power P, checked at n against 2n nodes.

    Gauss-Legendre Nystrom converges exponentially for this analytic
    kernel (Bornemann, Math. Comp. 79, 2010); the two solves must agree
    eigenvalue by eigenvalue within 1e-12 of the largest, or this raises.
    Returns the 2n solve, nonincreasing.
    """
    coarse = nystrom_spectrum_svd(cfg, nodes)
    fine = nystrom_spectrum_svd(cfg, 2 * nodes)
    worst = float(np.max(np.abs(fine[:nodes] - coarse))) / float(fine[0])
    if not worst <= 1e-12:
        raise AssertionError(f"Nystrom oracle at d={cfg.distance_m}: n and 2n differ "
                             f"by {worst:.2e} of the largest eigenvalue")
    spectrum = cfg.power_density * fine
    spectrum.setflags(write=False)
    return spectrum


def mi_continuous_oracle(cfg: SystemConfig, nodes: int = 512) -> float:
    """log det(1 + T / (n0/2)) from the Nystrom spectrum converged at n vs 2n nodes, in nats."""
    spectrum = converged_operator_spectrum(cfg, nodes)
    return float(np.sum(np.log1p((2.0 / cfg.noise_density) * spectrum)))


def kernel_value_quad(r: float, r_prime: float, cfg: SystemConfig) -> complex:
    """Adaptive-quadrature evaluation of the field-autocorrelation integrand."""

    def integrand(s: float, part: str) -> float:
        v = complex(green_offset(r - s, cfg)) * complex(green_offset(r_prime - s, cfg)).conjugate()
        return v.real if part == "re" else v.imag

    kwargs = dict(limit=800, epsabs=1e-12, epsrel=1e-12)
    re_v, _ = quad(integrand, 0.0, cfg.aperture_m, args=("re",), **kwargs)
    im_v, _ = quad(integrand, 0.0, cfg.aperture_m, args=("im",), **kwargs)
    return cfg.power_density * complex(re_v, im_v)


def total_power_quad(cfg: SystemConfig) -> float:
    """iint |G(r-s)|^2 dr ds over [0,l]^2 reduced to one adaptive integral.

    The integrand depends only on x = r - s, so the square collapses to
    int_{-l}^{l} |G(x)|^2 (l - |x|) dx: a route entirely unlike the
    library's tensor midpoint rule.
    """
    l = cfg.aperture_m

    def integrand(x: float) -> float:
        g = complex(green_offset(x, cfg))
        return (g.real**2 + g.imag**2) * (l - abs(x))

    val, _ = quad(integrand, -l, l, limit=800, epsabs=1e-13, epsrel=1e-13)
    return cfg.power_density * val


def diagonal_power_quad(r: float, cfg: SystemConfig) -> float:
    """Adaptive-quadrature kernel_value(r, r): received power at one position."""

    def integrand(s: float) -> float:
        g = complex(green_offset(r - s, cfg))
        return g.real**2 + g.imag**2

    val, _ = quad(integrand, 0.0, cfg.aperture_m, limit=400, epsabs=1e-13, epsrel=1e-13)
    return cfg.power_density * val


def fresnel_bandwidth(cfg: SystemConfig) -> float:
    """Slepian bandwidth c = k l^2 / (4 d) of the Fresnel-limit field operator.

    With the paraxial phase G(x) ~ exp(-j k x^2 / (2d)), the kernel
    int_0^l G(r - s) conj(G(r' - s)) ds becomes, after a unitary diagonal
    phase and the substitution r = l (1 + u) / 2, a constant times the
    time-frequency limiting kernel sin(c (u - v)) / (pi (u - v)) on
    [-1, 1]. Its trace 2c/pi equals the rule l^2 / (d * wavelength).
    """
    k = 2.0 * math.pi / cfg.wavelength_m
    return k * cfg.aperture_m**2 / (4.0 * cfg.distance_m)


def prolate_concentration_spectrum(c: float, nodes: int = 64) -> np.ndarray:
    """Eigenvalues, descending, of the time-frequency limiting operator.

    Gauss-Legendre Nystrom on the sinc kernel sin(c (u - v)) / (pi (u - v))
    over [-1, 1], symmetrized with the square-root weights; these are the
    prolate spheroidal concentration eigenvalues of Slepian & Pollak (1961).
    No propagation coefficient and no library spectral code is involved.
    """
    u, w = np.polynomial.legendre.leggauss(nodes)
    root_w = np.sqrt(w)
    kernel = (c / math.pi) * np.sinc((c / math.pi) * (u[:, None] - u[None, :]))
    return np.linalg.eigvalsh(root_w[:, None] * kernel * root_w[None, :])[::-1]


def richardson_step(values, power: int) -> np.ndarray:
    """One Richardson step over values at m, 2m, 4m, ...: their m^-power error term removed.

    Entry i is (2^power v[i+1] - v[i]) / (2^power - 1), from rungs i and
    i + 1; one entry fewer than ``values``. The midpoint rule's error
    expands in even powers of 1 / m, and a Fredholm determinant taken
    with it inherits that expansion (Bornemann, Math. Comp. 79, 2010), so
    power 2 and then 4 leave an m^-6 error.
    """
    v = np.asarray(values, dtype=float)
    factor = 2.0**power
    return (factor * v[1:] - v[:-1]) / (factor - 1.0)
