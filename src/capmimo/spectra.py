"""Quadrature grids and the one spectral path shared by every model.

Every mutual-information value in the package is the same computation:
the squared singular values of the two centrosymmetric halves of a
weighted propagation matrix (``centrosymmetric_spectrum``), followed by
``logdet_from_eigenvalues``, the only ``sum log(1 + s*lambda)`` in the
package. The models differ only in the two grids and in which side
carries its quadrature weights. The continuous operator samples a
composite Gauss-Legendre reference grid against the Gauss-Legendre
source grid, A = sqrt(w_r) G sqrt(w_s). The discrete receiver samples
its antennas (the midpoint layout, which is the physical array and
carries no weight) against the source grid, G sqrt(w_s); the discrete
transceiver samples antennas on both sides with weight 1.

G(x) is even and every grid is mirror-symmetric about l/2, so each of
these matrices is centrosymmetric, J A J = A with J the exchange
matrix. An orthogonal change of basis on both sides turns A into
diag(B+, B-), two blocks of half the size built from its top rows
(Cantoni & Butler, Linear Algebra Appl. 13, 1976); only those rows are
evaluated.

Every grid is a lattice of equal panels that repeat one node pattern:
the midpoint layout is m one-node panels, a Gauss-Legendre rule of 16k
nodes is k sixteen-node panels. So r_i - s_k is an integer multiple of
l / lcm(P_rx, P_tx), for panel counts P, plus the offset of a pair of
pattern nodes, and a matrix holds few distinct offsets.
``assemble_channel_matrix`` evaluates G once per distinct (multiple,
pattern pair) into a table and gathers the matrix from it; where that
table would be as large as the matrix (panels of unequal size, panel
counts whose lcm is far above both) it evaluates every entry directly,
in row blocks.

The spectrum of a propagation matrix collapses past the spatial degrees
of freedom, so each block is first sketched by a randomized range finder
(Halko, Martinsson & Tropp, SIAM Review 53, 2011) whose width comes from
the geometry's mode count, about (l / pi) hypot(k l / sqrt(l^2 + d^2),
(5/4) ln(1e12) / d). The sketch is kept only when the residual it
leaves is below 1e-12 of the block's Frobenius norm, which bounds every
value it drops; otherwise the width doubles, and from 0.4 of the
block's smaller side on the block gets a full SVD. Every SVD runs on
the tall side of its matrix. The cost is O(p q k) for k retained modes
instead of O(p q min(p, q)).

``assemble_kernel_matrix``, ``gram_from_channel`` and
``hermitian_eigenvalues`` are the kernel-matrix API: the sampled field
autocorrelation K = P A A^H and its eigenvalues. Kernel matrices are
plain complex ndarrays that satisfy, by construction, K[i, j] ==
conj(K[j, i]) entrywise-exactly with an exactly real diagonal;
``validate_hermitian`` enforces this contract on any externally
supplied matrix. Every matrix of propagation coefficients is checked
against the machine's physical memory (``check_matrix_size``) before it
is allocated.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .physics import (
    GREEN_BLOCK_ENTRIES,
    PANEL_NODES,
    SystemConfig,
    gauss_legendre,
    green_offset,
    midpoints,
    resolve_inner_points,
)

# bytes per entry of the evaluated top half while its spectrum is taken: the
# complex matrix with the gather index or green_offset's row-block
# temporaries, then the same matrix holding both split blocks with a copy of
# one block or the sketch's factors (tracemalloc peak at most 28.9 on antenna
# and Nystrom matrices of 1200-1601 rows, d = 0.03-10 m, gathered or
# evaluated directly; the widest sketch, at d = 0.1 m, sets it)
BYTES_PER_ENTRY = 30

# bytes per entry of one green_offset row block of min(rows * cols,
# GREEN_BLOCK_ENTRIES) entries: its offsets, temporaries and result
# (tracemalloc peak 112 per entry plus about 2 kB of array headers, on blocks
# of 100-65536 entries). The block does not shrink with the matrix, so on
# small matrices it outweighs BYTES_PER_ENTRY: the spectrum of 100 antennas
# against the source rule at d = 0.03 m peaks at 128 B per evaluated entry
BLOCK_BYTES_PER_ENTRY = 112

# relative Frobenius residual below which a block's sketch stands in for
# its full SVD; columns added to the a-priori mode count; residual columns
# formed at once
SKETCH_TOL = 1e-12
SKETCH_OVERSAMPLING = 16
RESIDUAL_CHUNK = 128

# ``hermitian_eigenvalues`` clamps eigenvalues in [-CLAMP_REL * lambda_max, 0) to zero
CLAMP_REL = 1e-12


class PSDViolationError(ValueError):
    """An eigenvalue fell below the negative tolerance band: matrix not PSD."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes r_i and weights w_i of an m-point quadrature rule on (0, length).

    The nodes are a lattice of ``panels`` equal panels, each holding the
    same ``pattern`` of k node offsets in panel widths: r_i = (i // k +
    pattern[i % k]) * length / panels, up to rounding. A rule whose panels
    differ is one panel whose pattern is every node. ``weight`` is the
    mean weight length / m; the midpoint rule has every weight equal to it.
    """

    points: np.ndarray = field(compare=False)
    length: float
    m: int
    weights: np.ndarray = field(compare=False)
    panels: int
    pattern: np.ndarray = field(compare=False)

    @property
    def weight(self) -> float:
        return self.length / self.m


def midpoint_grid(length: float, m: int) -> QuadratureGrid:
    """Build the m-point midpoint grid r_i = (i - 0.5) * l / m on (0, length).

    This is the evenly spaced antenna layout of the discrete models
    (spacing length/m, first element at half a spacing from the edge),
    and the equal-weight midpoint rule on that layout: m one-node panels.
    """
    if m < 1:
        raise ValueError(f"grid size m must be >= 1, got {m}")
    if not length > 0:
        raise ValueError(f"grid length must be positive, got {length}")
    pts = midpoints(length, m)
    pts.setflags(write=False)
    return QuadratureGrid(points=pts, length=length, m=m,
                          weights=np.broadcast_to(length / m, (m,)), panels=m,
                          pattern=np.broadcast_to(0.5, (1,)))


def gauss_legendre_grid(length: float, n: int) -> QuadratureGrid:
    """The n-node composite Gauss-Legendre rule on (0, length): source and reference grids.

    n a multiple of PANEL_NODES gives n / PANEL_NODES equal panels;
    otherwise the panels differ in size and the grid is one panel.
    """
    if not length > 0:
        raise ValueError(f"grid length must be positive, got {length}")
    pts, weights = gauss_legendre(length, n)
    panels = 1 if n % PANEL_NODES else n // PANEL_NODES
    pattern = pts[:n // panels] * (panels / length)
    pattern.setflags(write=False)
    return QuadratureGrid(points=pts, length=length, m=n, weights=weights, panels=panels,
                          pattern=pattern)


def matrix_bytes(rows: int, cols: int) -> int:
    """The memory guard's estimate for a rows x cols matrix: its entries plus one row block."""
    return (BYTES_PER_ENTRY * rows * cols
            + BLOCK_BYTES_PER_ENTRY * min(rows * cols, GREEN_BLOCK_ENTRIES))


def check_matrix_size(rows: int, cols: int) -> None:
    """Fail fast when a rows x cols complex matrix cannot be evaluated in physical memory.

    The estimate is ``matrix_bytes``; raises a one-line ValueError before
    anything is allocated. Skipped where the platform does not report its
    physical memory.
    """
    need = matrix_bytes(rows, cols)
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    if need > have:
        raise ValueError(
            f"a {rows} x {cols} complex matrix needs about {need / 2**30:.3g} GiB, "
            f"more than the {have / 2**30:.3g} GiB of physical memory; "
            f"lower ref_m, inner_points, the antenna counts or l / min(wavelength, d)")


def _hermitize_in_place(K: np.ndarray) -> np.ndarray:
    # mirror the upper triangle so K[j,i] == conj(K[i,j]) bitwise, real diagonal
    iu = np.triu_indices(K.shape[0], k=1)
    K[(iu[1], iu[0])] = K[iu].conj()
    np.fill_diagonal(K, K.diagonal().real)
    return K


def assemble_kernel_matrix(grid: QuadratureGrid, cfg: SystemConfig,
                           inner_points: int | None = None) -> np.ndarray:
    """Sampled field-autocorrelation matrix K[i, j] = kernel_value(r_i, r_j).

    The channel from the n-node Gauss-Legendre source grid to ``grid``,
    weighted by the source weights, A[i, k] = G(r_i - s_k) sqrt(w_k),
    gives K = P * A A^H with exact Hermitian symmetry. Cost O(m^2 n).
    """
    source = gauss_legendre_grid(cfg.aperture_m, resolve_inner_points(cfg, inner_points))
    A = assemble_channel_matrix(grid, source, cfg)
    A *= np.sqrt(source.weights)
    return gram_from_channel(A, cfg.power_density)


def assemble_channel_matrix(rx_grid: QuadratureGrid, tx_grid: QuadratureGrid,
                            cfg: SystemConfig, rows: int | None = None) -> np.ndarray:
    """Point-to-point gain matrix H[i, k] = G(r_i - s_k), shape (rows, m_tx).

    ``rows`` keeps the first receive nodes only (all of them when None).
    On two grids of one length l, r_i - s_k is D l / lcm(P_rx, P_tx) for
    an integer lattice difference D, plus the offset of a pair of
    pattern nodes. G is evaluated once per (D, pattern pair) into a table,
    and H is gathered from it by one integer index, row part minus column
    part. Where that table would hold at least as many entries as H
    (unequal panels, an lcm far above both panel counts, or grids of
    different lengths), every entry is evaluated directly instead.
    """
    rows = rx_grid.m if rows is None else rows
    if not 0 < rows <= rx_grid.m:
        raise ValueError(f"rows must lie in [1, {rx_grid.m}], got {rows}")
    check_matrix_size(rows, tx_grid.m)
    k_rx, k_tx = rx_grid.pattern.size, tx_grid.pattern.size
    lcm = math.lcm(rx_grid.panels, tx_grid.panels)
    step_rx, step_tx = lcm // rx_grid.panels, lcm // tx_grid.panels
    low, high = -(tx_grid.panels - 1) * step_tx, (rows - 1) // k_rx * step_rx
    pairs = k_rx * k_tx
    if rx_grid.length != tx_grid.length or (high - low + 1) * pairs >= rows * tx_grid.m:
        return _green_matrix(rx_grid.points[:rows], tx_grid.points, cfg)
    # table[D - low, a * k_tx + b] = G(D l / lcm + rx pattern node a - tx pattern node b)
    l = rx_grid.length
    pattern_offsets = (tx_grid.pattern * (l / tx_grid.panels))[None, :] \
        - (rx_grid.pattern * (l / rx_grid.panels))[:, None]
    table = _green_matrix(np.arange(low, high + 1) * (l / lcm), pattern_offsets.ravel(), cfg)
    i, k = np.arange(rows), np.arange(tx_grid.m)
    row_part = (i // k_rx * step_rx - low) * pairs + i % k_rx * k_tx
    col_part = k // k_tx * step_tx * pairs - k % k_tx
    return table.ravel()[row_part[:, None] - col_part]


def _green_matrix(r: np.ndarray, s: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """G(r_i - s_k) for every pair, in row blocks of at most GREEN_BLOCK_ENTRIES entries."""
    out = np.empty((r.size, s.size), dtype=np.complex128)
    step = max(1, GREEN_BLOCK_ENTRIES // s.size)
    for start in range(0, r.size, step):
        out[start:start + step] = green_offset(r[start:start + step, None] - s[None, :], cfg)
    return out


def centrosymmetric_spectrum(rx_grid: QuadratureGrid, tx_grid: QuadratureGrid,
                             cfg: SystemConfig, weigh_rx: bool = False,
                             weigh_tx: bool = False) -> tuple[np.ndarray, float]:
    """Squared singular values and ||A||_F^2 of A = sqrt(w_r) G(r_i - s_k) sqrt(w_s).

    Each side carries its grid weights when ``weigh_rx`` / ``weigh_tx``
    is set and unit weights otherwise; both grids must be mirror-symmetric
    about l/2. Only the top ceil(p/2) rows [L c R] of the p x q matrix
    are evaluated (c is the middle column when q is odd). A's singular
    values are those of B- = L - R J and B+ = [L + R J, sqrt(2) c], whose
    middle row (when p is odd) is divided by sqrt(2). Returns the
    min(p, q) squared singular values, nonincreasing and read-only, and
    ||A||_F^2 = ||B+||_F^2 + ||B-||_F^2.

    Each block's values come from ``_block_spectrum``: a sketch
    ceil(N / 2) + SKETCH_OVERSAMPLING columns wide, N the geometry's mode
    count ``_mode_count``, accepted only when its residual certifies it.
    Every value is then at most SKETCH_TOL^2 ||A||_F^2 below the exact
    one, and log det(I + s A A^H) at most s SKETCH_TOL^2 ||A||_F^2 low.
    The blocks are written over the evaluated rows, so no second matrix
    of their size is allocated.
    """
    p, q = rx_grid.m, tx_grid.m
    top, half = -(-p // 2), q // 2
    T = assemble_channel_matrix(rx_grid, tx_grid, cfg, rows=top)
    if weigh_tx:
        T *= np.sqrt(tx_grid.weights)
    if weigh_rx:
        T *= np.sqrt(rx_grid.weights[:top])[:, None]
    # B+ overwrites T's left columns and B- J (B- with its columns reversed:
    # the same singular values) its right ones, a few rows at a time
    step = max(1, GREEN_BLOCK_ENTRIES // q)
    for start in range(0, top, step):
        left, right = T[start:start + step, :half], T[start:start + step, q - half:]
        diff = left - right[:, ::-1]
        left += right[:, ::-1]
        right[:, ::-1] = diff
    T[:, half:q - half] *= math.sqrt(2.0)  # the middle column c when q is odd
    plus, minus = T[:, :q - half], T[:p // 2, q - half:]
    if p % 2:
        plus[-1] /= math.sqrt(2.0)
    width = math.ceil(_mode_count(cfg) / 2) + SKETCH_OVERSAMPLING
    norms = [_squared_norm(B) for B in (plus, minus)]
    values = np.sort(np.concatenate([_block_spectrum(B, norm, width)
                                     for B, norm in zip((plus, minus), norms)]))[::-1]
    values.setflags(write=False)
    return values, norms[0] + norms[1]


def _squared_norm(B: np.ndarray) -> float:
    """||B||_F^2 of a block whose rows are contiguous, without copying it."""
    parts = B.view(np.float64)  # real and imaginary parts side by side
    return float(np.einsum("ij,ij->", parts, parts))


def _mode_count(cfg: SystemConfig) -> float:
    """A-priori count of the modes between the apertures that carry more than SKETCH_TOL.

    N = (l / pi) hypot(k l / sqrt(l^2 + d^2), (5/4) ln(1 / tau) / d),
    with tau = SKETCH_TOL: a band of spatial frequencies |kx| <= K holds
    l K / pi modes over the aperture. Frequencies up to k l / sqrt(l^2 +
    d^2) propagate across it. A wave with kx > k is evanescent, with
    kz = i kappa and kx^2 = k^2 + kappa^2, and decays like exp(-kappa d),
    which reaches tau at kappa = ln(1 / tau) / d; so the band edge is the
    hypot of the propagating edge and that kappa, not their sum. The
    factor 5/4 covers the slower decay of the near-field terms at k d < 1.
    Over 54 geometries (wavelengths 0.01, 0.04 and 0.3 m, apertures 0.5,
    1 and 2 m, distances 0.03-10 m; the blocks of 2n x n Nystrom matrices,
    n the node rule) ceil(N / 2) + SKETCH_OVERSAMPLING is at least 11
    columns above the measured need, the fewest singular values whose
    dropped tail stays below tau^2 ||B||_F^2.
    """
    l, d = cfg.aperture_m, cfg.distance_m
    evanescent = 1.25 * math.log(1.0 / SKETCH_TOL) / d
    return l / math.pi * math.hypot(cfg.wavenumber * l / math.hypot(l, d), evanescent)


def _phases(rows: int, cols: int) -> np.ndarray:
    """Deterministic rows x cols sketch matrix exp(2 pi i u), u uniform on [0, 1).

    u is the splitmix64 hash of the entry's index, so every call draws the
    same matrix without ``numpy.random``.
    """
    z = np.arange(1, rows * cols + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    u = (z ^ (z >> np.uint64(31))) >> np.uint64(11)
    return np.exp((2.0 * math.pi * 2.0**-53) * 1j * u).reshape(rows, cols)


def _block_spectrum(B: np.ndarray, norm: float, width: int) -> np.ndarray:
    """Squared singular values of B, certified from a sketch of ``width`` columns.

    With Q an orthonormal basis of B Omega and C = Q^H B, the residual
    R = B - Q C is formed in column chunks; when ||R||_F^2 <= tau^2 norm
    (tau = SKETCH_TOL, norm = ||B||_F^2) C's squared singular values are
    returned, padded with zeros to min(B.shape). Otherwise the width
    doubles. Once five times the width reaches twice min(B.shape) the
    full SVD of B runs instead: on 80 x 400 to 1000 x 500 blocks (numpy
    2.4 with OpenBLAS 0.3.31, 2 cores) a sketch of 0.4 min(B.shape)
    columns took 0.6-0.7 of the full SVD's time, and one of 0.5
    min(B.shape) columns 0.8-1.0. Every SVD, of B or of C, is taken on
    the tall side, of M.T when M is wide: the singular values are the
    same, and numpy's SVD of a wide C-ordered matrix takes about twice as
    long as that of its transpose.

    The residual certifies the result: sigma_i(C) <= sigma_i(B) and
    sum_i (sigma_i(B)^2 - sigma_i(C)^2) = ||R||_F^2, so each returned
    value is at most tau^2 ||B||_F^2 below the exact one, and a sum of
    log(1 + s lambda) at most s tau^2 ||B||_F^2 below the exact sum. The
    random draw only decides how often the full SVD runs.
    """
    n = min(B.shape)
    while 5 * width < 2 * n:
        Q = np.linalg.qr(B @ _phases(B.shape[1], width))[0]
        C = Q.conj().T @ B
        residual = 0.0
        for j in range(0, B.shape[1], RESIDUAL_CHUNK):
            R = B[:, j:j + RESIDUAL_CHUNK] - Q @ C[:, j:j + RESIDUAL_CHUNK]
            residual += float(np.vdot(R, R).real)
        if residual <= SKETCH_TOL**2 * norm:
            out = np.zeros(n)
            out[:width] = _singular_values(C) ** 2
            return out
        width *= 2
    return _singular_values(B) ** 2


def _singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values of M from the SVD of its tall side (M.T when M is wide)."""
    return np.linalg.svd(M.T if M.shape[0] < M.shape[1] else M, compute_uv=False)


def gram_from_channel(H: np.ndarray, weight: float) -> np.ndarray:
    """Weighted Gram matrix weight * H H^H with exact Hermitian symmetry."""
    check_matrix_size(H.shape[0], H.shape[0])
    K = weight * (H @ H.conj().T)
    return _hermitize_in_place(K)


def validate_hermitian(K: np.ndarray) -> None:
    """Reject matrices violating the entrywise-exact Hermitian contract."""
    K = np.asarray(K)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"kernel matrix must be square, got shape {K.shape}")
    if not np.array_equal(K, K.conj().T):
        raise ValueError("matrix is not exactly Hermitian")


@dataclass(frozen=True)
class SpectralResult:
    """Nonincreasing real spectrum plus clamping diagnostics.

    clamped_count reports eigenvalues that were materially negative
    (beyond eigensolver roundoff, dim * eps * lambda_max) yet inside the
    clamp tolerance and were raised to zero; roundoff-level negatives are
    zeroed silently. All reported eigenvalues are >= 0.
    """

    eigenvalues: np.ndarray = field(compare=False)
    clamped_count: int


def hermitian_eigenvalues(K: np.ndarray) -> SpectralResult:
    """Eigenvalues of a Hermitian PSD matrix, sorted nonincreasing.

    Eigenvalues in [-CLAMP_REL * lambda_max, 0) are clamped to zero;
    anything below that band raises PSDViolationError. The returned sum
    of eigenvalues matches the matrix trace up to the clamped mass.
    """
    validate_hermitian(K)
    ev = np.linalg.eigvalsh(np.asarray(K, dtype=np.complex128))[::-1]
    lam_max = max(float(ev[0]), 0.0)
    floor = CLAMP_REL * lam_max
    worst = float(ev[-1])
    if worst < -floor:
        raise PSDViolationError(
            f"eigenvalue {worst:.6e} below -{CLAMP_REL:.1e} * lambda_max = {-floor:.6e}")
    # negatives within dim*eps*lambda_max are indistinguishable from zero
    roundoff = K.shape[0] * np.finfo(np.float64).eps * lam_max
    clamped = int(np.sum((ev < -roundoff) & (ev < 0.0)))
    ev = np.maximum(ev, 0.0)
    ev.setflags(write=False)
    return SpectralResult(eigenvalues=ev, clamped_count=clamped)


def logdet_from_eigenvalues(eigenvalues: np.ndarray, scale: float) -> float:
    """sum_k log(1 + scale * lambda_k): log det(I + scale * K) from K's spectrum.

    Nondecreasing in scale; zero at scale = 0.
    """
    if scale < 0:
        raise ValueError(f"scale must be >= 0, got {scale}")
    return float(np.sum(np.log1p(scale * eigenvalues)))
