"""Converged values that the benchmark checks the program's outputs against.

Everything here is independent of ``capmimo``: the propagation formula is
re-derived below, and every integral uses composite Gauss-Legendre panels
instead of the program's midpoint rule. For the analytic kernels of this
problem Gauss-Legendre Nystrom converges exponentially (Bornemann, "On the
numerical evaluation of Fredholm determinants", Math. Comp. 79, 2010), so
a solve at n nodes and one at 2n nodes that agree to ``AGREE_REL`` are taken
as the exact answer.

Geometry: transmit and receive segments [0, l] on parallel lines a
distance d apart; the field at r from a point source at s depends only on
the axial offset x = r - s.
"""

from __future__ import annotations

import math

import numpy as np

Z0_OHMS = 120.0 * math.pi
PANEL_NODES = 16
# node count per aperture of the Nystrom solve (checked against twice as many)
BASE_NODES = 512
# the inner source integral of the discrete-rx kernel is an m x n matrix, so
# it affords more nodes; receive antennas off the nodes need them at small d
INNER_NODES = 1024
# the n and 2n solves must agree this closely, or the reference is refused
AGREE_REL = 1e-12
# the 1-D trace integral is cheap, so it gets far more nodes
TRACE_NODES = 4096


class NotConvergedError(RuntimeError):
    """The n and 2n solves of a converged reference disagree."""


def green(x, wavelength: float, distance: float) -> np.ndarray:
    """z-polarized free-space dyadic entry for a source-observer offset (d, 0, x).

    G = j Z0 / (2 lam R) * exp(j k R) * [d^2/R^2 + (j/(kR) - 1/(kR)^2) (d^2 - 2 x^2)/R^2]
    with R^2 = x^2 + d^2 and k = 2 pi / lam.
    """
    x = np.asarray(x, dtype=np.float64)
    k = 2.0 * math.pi / wavelength
    rr = x * x + distance * distance
    r = np.sqrt(rr)
    kr = k * r
    radiating = distance * distance / rr
    near = (distance * distance - 2.0 * x * x) / rr
    factor = radiating + (1j / kr - 1.0 / (kr * kr)) * near
    return 1j * Z0_OHMS / (2.0 * wavelength * r) * np.exp(1j * kr) * factor


def composite_gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of n // PANEL_NODES equal Gauss-Legendre panels on [a, b]."""
    if n % PANEL_NODES:
        raise ValueError(f"node count {n} is not a multiple of {PANEL_NODES}")
    t, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    panels = n // PANEL_NODES
    h = (b - a) / panels
    left = a + h * np.arange(panels)
    nodes = (left[:, None] + 0.5 * h * (t[None, :] + 1.0)).ravel()
    weights = np.tile(0.5 * h * w, panels)
    return nodes, weights


def antenna_positions(length: float, m: int) -> np.ndarray:
    """m evenly spaced antennas, the first half a spacing in from the edge."""
    return (np.arange(m, dtype=np.float64) + 0.5) * (length / m)


def _agreed(fn, n: int, what: str):
    """Evaluate fn at n and 2n nodes; return the finer value if the two agree."""
    coarse = np.asarray(fn(n), dtype=np.float64)
    fine = np.asarray(fn(2 * n), dtype=np.float64)
    scale = np.maximum(np.abs(fine), np.finfo(np.float64).tiny)
    worst = float(np.max(np.abs(fine - coarse) / scale))
    if not worst <= AGREE_REL:
        raise NotConvergedError(f"{what}: n and 2n solves differ by {worst:.3e} relative")
    return fine


class Geometry:
    """Converged quantities for one (wavelength, aperture, distance).

    Power and noise only rescale the answers, so the singular values and
    integrals below are computed once per geometry and shared by every
    (P, n0) pair.
    """

    def __init__(self, wavelength: float, aperture: float, distance: float):
        self.wavelength = wavelength
        self.aperture = aperture
        self.distance = distance
        self.unit_trace = float(_agreed(self._trace, TRACE_NODES, "trace"))
        self._operator_sq = None

    def _g(self, x):
        return green(x, self.wavelength, self.distance)

    def _trace(self, n: int) -> float:
        # iint |G(r - s)|^2 dr ds over [0, l]^2 = 2 int_0^l |G(x)|^2 (l - x) dx
        x, w = composite_gauss_legendre(0.0, self.aperture, n)
        g = self._g(x)
        return 2.0 * float(np.sum(w * (g.real**2 + g.imag**2) * (self.aperture - x)))

    def _operator_spectrum(self, n: int) -> np.ndarray:
        x, w = composite_gauss_legendre(0.0, self.aperture, n)
        sw = np.sqrt(w)
        m = sw[:, None] * self._g(x[:, None] - x[None, :]) * sw[None, :]
        return np.linalg.svd(m, compute_uv=False) ** 2

    def operator_sq(self) -> np.ndarray:
        """Unit-power eigenvalues of the field operator, nonincreasing."""
        if self._operator_sq is None:
            n = BASE_NODES
            # eigenvalue by eigenvalue, relative to the largest: the tail below
            # roundoff carries no information and no weight in the MI
            coarse = self._operator_spectrum(n)
            fine = self._operator_spectrum(2 * n)
            top = max(float(fine[0]), np.finfo(np.float64).tiny)
            worst = float(np.max(np.abs(fine[:n] - coarse))) / top
            if not worst <= AGREE_REL:
                raise NotConvergedError(
                    f"operator spectrum at d={self.distance}: n and 2n differ by {worst:.3e} of the largest")
            self._operator_sq = fine
        return self._operator_sq

    def mi_continuous(self, power: float, noise: float) -> float:
        """log det(1 + T / (n0 / 2)) of the continuous operator, in nats."""
        return float(np.sum(np.log1p((2.0 * power / noise) * self.operator_sq())))

    def mi_discrete_rx(self, m: int, power: float, noise: float) -> float:
        """m receive antennas, continuous transmitter, SNR-matched noise."""
        r = antenna_positions(self.aperture, m)

        def parts(n: int) -> np.ndarray:
            s, w = composite_gauss_legendre(0.0, self.aperture, n)
            a = self._g(r[:, None] - s[None, :]) * np.sqrt(w)[None, :]
            diag_sum = float(np.sum(a.real**2 + a.imag**2))
            sq = np.linalg.svd(a, compute_uv=False) ** 2
            n_rx = noise * diag_sum / self.unit_trace
            return np.array([np.sum(np.log1p((2.0 * power / n_rx) * sq))])

        return float(_agreed(parts, INNER_NODES, f"discrete rx m={m} at d={self.distance}")[0])

    def mi_discrete_trx(self, m1: int, m2: int, power: float, noise: float) -> float:
        """m1 transmit and m2 receive antennas, SNR-matched noise."""
        h = self._g(antenna_positions(self.aperture, m2)[:, None]
                    - antenna_positions(self.aperture, m1)[None, :])
        n_trx = noise * float(np.sum(h.real**2 + h.imag**2)) / self.unit_trace
        sq = np.linalg.svd(h, compute_uv=False) ** 2
        return float(np.sum(np.log1p((2.0 * power / n_trx) * sq)))
