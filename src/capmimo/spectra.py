"""The one spectral path shared by every model, over two quadrature grids.

Every mutual-information value in the package is the same computation:
the squared singular values of the two centrosymmetric halves of a
weighted propagation matrix (``centrosymmetric_spectrum``), followed by
``logdet_from_eigenvalues``, the only ``sum log(1 + s*lambda)`` in the
package. The models differ only in their two grids, ``physics``'s
``QuadratureGrid``s, and each grid carries its own weights: a
Gauss-Legendre rule its quadrature weights, a midpoint grid (the
antennas of the physical array) none, so every matrix is
A = sqrt(w_r) G sqrt(w_s) with w = 1 on antennas. The
continuous operator samples a Gauss-Legendre reference grid against
the Gauss-Legendre source grid, the discrete receiver its antennas
against the source grid, and the discrete transceiver antennas on both.

G(x) is even and every grid is mirror-symmetric about l/2, so each of
these matrices is centrosymmetric, J A J = A with J the exchange
matrix. An orthogonal change of basis on both sides turns A into
diag(B+, B-), two blocks of half the size built from its top rows
(Cantoni & Butler, Linear Algebra Appl. 13, 1976); only those rows are
evaluated.

Every grid is a lattice of equal panels that repeat the first panel's
nodes: the midpoint layout is m one-node panels, a Gauss-Legendre rule
its own (one of every node where they differ). So r_i - s_k is an
integer multiple of l / lcm(P_rx, P_tx), for panel counts P, plus the
offset of two first-panel nodes, and a matrix holds few distinct
offsets. G is evaluated once per distinct (multiple, node pair) into a
table, with the grid weights folded in, and the matrix is a (panel,
node, panel, node) view of that table (``_lattice``). Where that table
would be as large as the matrix (panels of unequal size, panel counts
whose lcm is far above both) every entry is evaluated directly, in row
blocks, and the view reads those rows as one-node panels; ``solve_plan``
decides which from the node and panel counts alone. Either way
``assemble_channel_matrix`` copies the matrix out of the view, times
the phase exp(i k d) common to every entry that ``green_offset`` leaves
out, and ``centrosymmetric_spectrum``, whose values do not depend on that
phase, forms its two blocks from the view and its column mirror a piece
at a time, each piece no larger than the block's sketch: at most
BLOCK_CHUNK rows for the sketch, half as many columns for the check of
its residual, which is subtracted in the piece itself.

The spectrum of a propagation matrix collapses past the spatial degrees
of freedom, so each block is first sketched by a randomized range finder
(Halko, Martinsson & Tropp, SIAM Review 53, 2011), whose basis LAPACK's
QR forms in the sketch's own storage and whose width comes from the
geometry's mode count, about (l / pi) hypot(k l / sqrt(l^2 + d^2),
(5/4) ln(1e12) / d). The sketch is kept only when the residual it
leaves is below 1e-12 of the block's Frobenius norm, which bounds every
value it drops; otherwise the width doubles, and from 0.4 of the
block's smaller side on the block gets a full SVD. Every SVD runs on
the tall side of its matrix. The cost is O(p q k) for k retained modes
instead of O(p q min(p, q)). A solve whose a-priori sketch work is below
SERIAL_WORK runs with the BLAS on one thread, where a second one buys
little, so its values do not depend on the host's thread count; a
larger one keeps the BLAS's own threads. Idle BLAS worker threads
sleep almost at once (``capmimo.BLAS_THREAD_TIMEOUT``), so they no
longer spin between small calls.

``assemble_kernel_matrix``, ``gram_from_channel`` and
``hermitian_eigenvalues`` are the kernel-matrix API: the sampled field
autocorrelation K = P A A^H and its eigenvalues. Kernel matrices are
plain complex ndarrays that satisfy, by construction, K[i, j] ==
conj(K[j, i]) entrywise-exactly with an exactly real diagonal;
``validate_hermitian`` enforces this contract on any externally
supplied matrix. Every matrix of propagation coefficients is charged by
its ``solve_plan`` (``physics.check_arrays``) before anything is allocated.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .physics import (
    QuadratureGrid,
    SystemConfig,
    check_arrays,
    distance_phase,
    gauss_legendre_grid,
    green_block_rows,
    green_offset,
    green_offset_arrays,
    resolve_inner_points,
)

# relative Frobenius residual below which a block's sketch stands in for
# its full SVD; columns added to the a-priori mode count; the most rows of a
# block formed at once by the sketch (the check of its residual forms at most
# half as many columns at once), fewer where that piece would outgrow the sketch
SKETCH_TOL = 1e-12
SKETCH_OVERSAMPLING = 16
BLOCK_CHUNK = 128

# a-priori sketch work top * q * width below which a spectrum runs on one BLAS
# thread (the default sweeps' solves reach 8.8e7); see ``centrosymmetric_spectrum``
SERIAL_WORK = 2**27

# setter and getter of the BLAS thread count, by the names the BLAS numpy links may export
_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

# LAPACK's zgeqrf and zungqr and the BLAS's zgemm, of 64-bit integers, as numpy 2
# and numpy 1 wheels name them
_SKETCH_SYMBOLS = (("scipy_zgeqrf_64_", "scipy_zungqr_64_", "scipy_zgemm_64_"),
                   ("zgeqrf_64_", "zungqr_64_", "zgemm_64_"))

# ``hermitian_eigenvalues`` clamps eigenvalues in [-CLAMP_REL * lambda_max, 0) to zero
CLAMP_REL = 1e-12


class PSDViolationError(ValueError):
    """An eigenvalue fell below the negative tolerance band: matrix not PSD."""


class SolvePlan(NamedTuple):
    """What ``_lattice`` evaluates for the top ``rows`` rows of a rows x cols matrix: ``table``,
    (1, rows, cols) when ``direct``, else (count, k_rx, k_tx), G at lattice differences low ..
    low + count - 1 (in units of l / lcm) for each pair of first-panel nodes."""

    rows: int
    cols: int
    direct: bool
    table: tuple[int, int, int]
    low: int
    lcm: int

    def phases(self) -> tuple:
        """The arrays alive at each phase's peak in ``centrosymmetric_spectrum``: the table with
        one ``_green_matrix`` block; with B+ whole, its SVD's copy and LAPACK's workspace (64 per
        row and column; 70-100 seen). No sketch (``_sketch_spectrum``) holds more than the last:
        the widest, under 0.4 min(m, n) columns, holds fewer than 0.8 m n entries in Y and
        Omega and no more in a piece, where B+ and its copy hold 2 m n."""
        c16, (count, k_rx, k_tx) = np.complex128, self.table
        rows, cols = (self.rows, self.cols) if self.direct else (count, k_rx * k_tx)
        k_rx, k_tx = (1, 1) if self.direct else (k_rx, k_tx)
        m, n, table = self.rows, self.cols - self.cols // 2, ("table", self.table, c16)
        return ((table, *green_offset_arrays((min(rows, green_block_rows(cols)), cols))),
                (table, ("B+", (m + k_rx - 1, n + k_tx - 1), c16), ("SVD's copy", (m, n), c16),
                 ("SVD's workspace", (m + n, 64), c16)))

    def check(self, *phases) -> int:
        """``check_arrays`` of ``phases`` (its own by default), named as its matrix."""
        return check_arrays(f"a {self.rows} x {self.cols} complex matrix",
                            *(phases or self.phases()))


def solve_plan(rx: tuple[int, int], tx: tuple[int, int], rows: int,
               same_length: bool) -> SolvePlan:
    """The plan of the top ``rows`` rows between (m, panels) receive and transmit sides; pure.
    A side of unequal panels is one panel of every node. The rows are evaluated directly
    where the lengths differ or the table would be as large."""
    (p, panels_rx), (q, panels_tx) = ((m, k if m % k == 0 else 1) for m, k in (rx, tx))
    k_rx, k_tx, lcm = p // panels_rx, q // panels_tx, math.lcm(panels_rx, panels_tx)
    low = -(panels_tx - 1) * (lcm // panels_tx)
    count = (rows - 1) // k_rx * (lcm // panels_rx) - low + 1
    if same_length and count * k_rx * k_tx < rows * q:
        return SolvePlan(rows, q, False, (count, k_rx, k_tx), low, lcm)
    return SolvePlan(rows, q, True, (1, rows, q), 0, 1)


def _grid_plan(rx_grid: QuadratureGrid, tx_grid: QuadratureGrid, rows: int) -> SolvePlan:
    return solve_plan((rx_grid.m, rx_grid.panels), (tx_grid.m, tx_grid.panels), rows,
                      rx_grid.length == tx_grid.length)


def _hermitize_in_place(K: np.ndarray) -> np.ndarray:
    # mirror the upper triangle so K[j,i] == conj(K[i,j]) bitwise, real diagonal
    iu = np.triu_indices(K.shape[0], k=1)
    K[(iu[1], iu[0])] = K[iu].conj()
    np.fill_diagonal(K, K.diagonal().real)
    return K


def assemble_kernel_matrix(grid: QuadratureGrid, cfg: SystemConfig,
                           inner_points: int | None = None) -> np.ndarray:
    """Sampled field-autocorrelation matrix K[i, j] = kernel_value(r_i, r_j).

    The channel A = G sqrt(w_s) from the n-node Gauss-Legendre source
    grid to an antenna ``grid`` gives K = P * A A^H with exact Hermitian
    symmetry. Cost O(m^2 n).
    """
    source = gauss_legendre_grid(cfg.aperture_m, resolve_inner_points(cfg, inner_points))
    return gram_from_channel(assemble_channel_matrix(grid, source, cfg), cfg.power_density)


def assemble_channel_matrix(rx_grid: QuadratureGrid, tx_grid: QuadratureGrid,
                            cfg: SystemConfig) -> np.ndarray:
    """A = sqrt(w_r) G(r_i - s_k) sqrt(w_s), shape (m_rx, m_tx), a fresh array; H = G on antennas.

    A is the view ``_lattice`` builds of the grids' ``solve_plan``, charged
    first, times ``distance_phase``, the factor the view leaves out. A
    table's view is copied out whole.
    """
    plan = _grid_plan(rx_grid, tx_grid, rx_grid.m)
    evaluation = plan.phases()[0]
    plan.check(evaluation, () if plan.direct else
               (evaluation[0], ("A", (plan.rows, plan.cols), np.complex128)))
    A = _lattice(plan, rx_grid, tx_grid, cfg).reshape(rx_grid.m, tx_grid.m)
    # a table view stays a read-only view of aliased entries where the
    # reshape need not copy (one-node panels on both sides)
    return np.multiply(A, distance_phase(cfg), out=A if A.flags.writeable else None)


def _lattice(plan: SolvePlan, rx_grid: QuadratureGrid, tx_grid: QuadratureGrid,
             cfg: SystemConfig) -> np.ndarray:
    """A = sqrt(w_r) G sqrt(w_s) as a (panel, node, panel, node) view V[I, a, K, b].

    Built as ``plan``, the grids' ``solve_plan``, says, over the panels that
    hold the first ``plan.rows`` receive nodes: node i = I k_rx + a, node k
    = K k_tx + b. The view of a table is read-only; a direct plan's rows are
    read as one-node panels, V[i, 0, k, 0] = A[i, k]. Each grid's weights
    are folded in once. G is ``green_offset``'s, without ``distance_phase``.
    """
    count, k_rx, k_tx = plan.table
    if plan.direct:  # table[0, i, k] = G(r_i - s_k)
        table = _green_matrix(rx_grid.points[:plan.rows], tx_grid.points, cfg)
    else:  # table[D - low, a, b] = G(D l / lcm + r_a - s_b), a and b nodes of the first panels
        node_offsets = tx_grid.points[None, :k_tx] - rx_grid.points[:k_rx, None]
        differences = np.arange(plan.low, plan.low + count) * (rx_grid.length / plan.lcm)
        table = _green_matrix(differences, node_offsets.ravel(), cfg)
    table = table.reshape(plan.table)
    if tx_grid.weights is not None:
        table *= np.sqrt(tx_grid.weights[:k_tx])
    if rx_grid.weights is not None:
        table *= np.sqrt(rx_grid.weights[:k_rx])[:, None]
    if plan.direct:
        return table.reshape(plan.rows, 1, k_tx, 1)
    step_rx, step_tx = plan.lcm // rx_grid.panels, plan.lcm // tx_grid.panels
    # D - low = I step_rx + (P_tx - 1 - K) step_tx: windows[j, a, b, w] = table[j + w, a, b]
    windows = np.lib.stride_tricks.sliding_window_view(table, 1 - plan.low, axis=0)
    return windows[::step_rx, :, :, ::-step_tx].transpose(0, 1, 3, 2)


def _green_matrix(r: np.ndarray, s: np.ndarray, cfg: SystemConfig) -> np.ndarray:
    """G(r_i - s_k) for every pair, in row blocks of GREEN_BLOCK_ENTRIES entries or one row."""
    out = np.empty((r.size, s.size), dtype=np.complex128)
    step = green_block_rows(s.size)
    for start in range(0, r.size, step):
        out[start:start + step] = green_offset(r[start:start + step, None] - s[None, :], cfg)
    return out


class _SplitBlock:
    """B+ (op np.add) or B- (np.subtract) of a centrosymmetric matrix, formed on demand.

    B[i, k] = op(H[i, k], H[i, q - 1 - k]) from the lattice view of H and
    its column mirror; B+ keeps the middle column q // 2 as sqrt(2) c and
    divides the middle row p // 2 by sqrt(2). Indexing B with a row range
    and a column range copies only that part out of the view, into a
    fresh array the caller owns.
    """

    def __init__(self, lattice: np.ndarray, op, shape: tuple[int, int], p: int, q: int):
        self.lattice, self.mirror, self.op = lattice, lattice[:, :, ::-1, ::-1], op
        self.shape, self.middle = shape, (p // 2, q // 2)

    def __getitem__(self, key: tuple[slice, slice]) -> np.ndarray:
        rows, cols = key
        (r0, r1, _), (c0, c1, _) = rows.indices(self.shape[0]), cols.indices(self.shape[1])
        _, k_rx, _, k_tx = self.lattice.shape
        (I0, a0), (K0, b0) = divmod(r0, k_rx), divmod(c0, k_tx)
        I1, K1 = -(-r1 // k_rx), -(-c1 // k_tx)
        part = np.empty((I1 - I0, k_rx, K1 - K0, k_tx), dtype=np.complex128)
        np.copyto(part, self.lattice[I0:I1, :, K0:K1])
        # numpy adds a strided array into a contiguous one faster than two strided ones
        self.op(part, self.mirror[I0:I1, :, K0:K1], out=part)
        part = part.reshape((I1 - I0) * k_rx, (K1 - K0) * k_tx)
        part = part[a0:a0 + r1 - r0, b0:b0 + c1 - c0]
        row, col = self.middle
        if c0 <= col < c1:  # the middle column c appears in H and its mirror: c + c
            part[:, col - c0] *= math.sqrt(0.5)
        if r0 <= row < r1:
            part[row - r0] /= math.sqrt(2.0)
        return part


def centrosymmetric_spectrum(rx_grid: QuadratureGrid, tx_grid: QuadratureGrid,
                             cfg: SystemConfig) -> tuple[np.ndarray, float]:
    """Squared singular values and ||A||_F^2 of A = sqrt(w_r) G(r_i - s_k) sqrt(w_s).

    w = 1 on an antenna grid, as in ``assemble_channel_matrix``. Both
    grids must be mirror-symmetric about the same l/2, so grids of
    unequal length raise ValueError. Only the top ceil(p/2) rows [L c R]
    of the p x q matrix are evaluated (c is the middle column when q is
    odd). A's singular values are those of B- = L - R J and B+ = [L + R J, sqrt(2) c], whose
    middle row (when p is odd) is divided by sqrt(2). Returns the
    min(p, q) squared singular values, nonincreasing and read-only, and
    ||A||_F^2 = ||B+||_F^2 + ||B-||_F^2.

    Each block's values come from ``_block_spectrum``: a sketch
    ceil(N / 2) + SKETCH_OVERSAMPLING columns wide, N the geometry's mode
    count ``_mode_count``, accepted only when its residual certifies it.
    Every value is then at most SKETCH_TOL^2 ||A||_F^2 below the exact
    one, and log det(I + s A A^H) at most s SKETCH_TOL^2 ||A||_F^2 low.

    Both blocks are ``_SplitBlock``s over the view ``_lattice`` builds of
    the one plan charged here, formed a piece at a time, as its
    ``SolvePlan.phases`` list them.

    When the a-priori sketch work top * q * width is below SERIAL_WORK,
    both blocks are solved with the BLAS on one thread, and the count
    it had is restored afterwards (``_one_blas_thread``). On 2 cores
    (OpenBLAS 0.3.31) a second thread bought 0.9-1.25x wall on solves of
    0.02e9-0.18e9 work and 1.3-1.4x from 0.33e9 on; so the values of a
    small solve no longer depend on the host's thread count, and larger
    solves keep the BLAS's own threads. An idle worker thread sleeps
    almost at once (``capmimo.BLAS_THREAD_TIMEOUT``) instead of spinning
    on a second core between small calls. The setting is process-wide:
    solves run at the same time from several Python threads may see
    either count, and their values then differ only at roundoff, as
    they do across hosts.
    """
    if rx_grid.length != tx_grid.length:
        raise ValueError(f"grid lengths differ: {rx_grid.length} and {tx_grid.length}")
    p, q = rx_grid.m, tx_grid.m
    top, half = -(-p // 2), q // 2
    plan = _grid_plan(rx_grid, tx_grid, top)
    plan.check()
    lattice = _lattice(plan, rx_grid, tx_grid, cfg)
    plus = _SplitBlock(lattice, np.add, (top, q - half), p, q)
    minus = _SplitBlock(lattice, np.subtract, (p // 2, half), p, q)
    width = math.ceil(_mode_count(cfg) / 2) + SKETCH_OVERSAMPLING
    with _one_blas_thread(top * q * width < SERIAL_WORK):
        (plus_values, plus_norm), (minus_values, minus_norm) = (
            _block_spectrum(B, width) for B in (plus, minus))
    values = np.sort(np.concatenate([plus_values, minus_values]))[::-1]
    values.setflags(write=False)
    return values, plus_norm + minus_norm


@cache
def _blas_library() -> ctypes.CDLL:
    """numpy's linalg extension, through which dlsym resolves the BLAS it links."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


def _blas_functions(*candidates: tuple[str, ...]) -> tuple | None:
    """The functions of the first name tuple in ``candidates`` the linked BLAS exports, or None."""
    lib = _blas_library()
    for names in candidates:
        try:
            return tuple(getattr(lib, name) for name in names)
        except AttributeError:
            continue
    return None


@cache
def _thread_control():
    """The setter and getter of the thread count of the BLAS numpy links, or None.

    The first pair of ``_THREAD_SYMBOLS`` the BLAS exports is taken. MKL
    and Accelerate export none of them.
    """
    control = _blas_functions(*_THREAD_SYMBOLS)
    if control is not None:
        setter, getter = control
        setter.argtypes, setter.restype = [ctypes.c_int], None
        getter.argtypes, getter.restype = [], ctypes.c_int
    return control


@cache
def _sketch_routines():
    """The first triple of ``_SKETCH_SYMBOLS`` the BLAS numpy links exports, as functions,
    or None. zgemm takes its matrices and scalars as addresses and, after its
    arguments, the lengths of its two character arguments."""
    routines = _blas_functions(*_SKETCH_SYMBOLS)
    if routines is not None:
        geqrf, ungqr, gemm = routines
        n, a = ctypes.POINTER(ctypes.c_int64), np.ctypeslib.ndpointer(np.complex128, flags="F,W")
        geqrf.argtypes, geqrf.restype = [n, n, a, n, a, a, n, n], None
        ungqr.argtypes, ungqr.restype = [n, n, n, a, n, a, a, n, n], None
        op, ptr, length = ctypes.c_char_p, ctypes.c_void_p, ctypes.c_size_t
        gemm.argtypes = [op, op, n, n, n, ptr, ptr, n, ptr, n, ptr, ptr, n, length, length]
        gemm.restype = None
    return routines


def blas_threads() -> int | None:
    """The BLAS's thread count, or None where it cannot be set; 1 during a serial solve."""
    control = _thread_control()
    return None if control is None else control[1]()


def blas_thread_timeout() -> int | None:
    """The ``OPENBLAS_THREAD_TIMEOUT`` OpenBLAS read when it loaded (0 if unset), or None.

    None where the BLAS exports no ``openblas_thread_timeout``, as MKL
    and Accelerate do not.
    """
    found = _blas_functions(("openblas_thread_timeout",))
    if found is None:
        return None
    found[0].argtypes, found[0].restype = [], ctypes.c_int
    return found[0]()


def blas_settings() -> dict:
    """``blas_threads``, ``blas_thread_timeout``, SERIAL_WORK as ``serial_work`` and, as
    ``sketch_qr``, the name of the zgeqrf that forms each sketch's basis (None: numpy's QR)."""
    routines = _sketch_routines()
    return {"blas_threads": blas_threads(), "serial_work": SERIAL_WORK,
            "blas_thread_timeout": blas_thread_timeout(),
            "sketch_qr": None if routines is None else routines[0].__name__}


class _SerialSolves:
    """The serial solves running now and the BLAS thread count they replaced."""

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.previous = 0


_serial = _SerialSolves()


@contextmanager
def _one_blas_thread(serial: bool):
    """Run the body with the BLAS on one thread when ``serial`` and its count can be set.

    The first of overlapping serial bodies saves the count and sets one
    thread; the last to leave, however it leaves, restores the count, so
    overlapping solves from several Python threads leave it as they
    found it.
    """
    control = _thread_control() if serial else None
    if control is None:
        yield
        return
    setter, getter = control
    with _serial.lock:
        if not _serial.depth:
            _serial.previous = getter()
            setter(1)
        _serial.depth += 1
    try:
        yield
    finally:
        with _serial.lock:
            _serial.depth -= 1
            if not _serial.depth:
                setter(_serial.previous)


def _squared_norm(B: np.ndarray) -> float:
    """||B||_F^2 from its real and imaginary parts side by side; copies B if rows are strided."""
    if B.strides[-1] != B.itemsize:
        B = np.ascontiguousarray(B)
    parts = B.view(np.float64)
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
    """Deterministic rows x cols sketch matrix exp(2 pi i u / 1024), u uniform on 0..1023.

    u is the top ten bits of the splitmix64 hash of the entry's index, so
    every call draws the same matrix bitwise without ``numpy.random``:
    both blocks of a matrix and every matrix of one shape and width sketch
    with the same matrix, each drawing its own and freeing it once its
    rows are sketched. Entries are read from a table of the 1024 phases,
    a fifth to a third of the time of an exponential per entry (about
    50 ns each), which drawn for each sketch cost a 1600 x 800 solve at
    d = 1 m about 3 ms.
    """
    z = np.arange(1, rows * cols + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    table = np.exp((2.0 * math.pi / 1024) * 1j * np.arange(1024))
    return table[(z >> np.uint64(54)).astype(np.intp)].reshape(rows, cols)


def _block_spectrum(B: _SplitBlock, width: int) -> tuple[np.ndarray, float]:
    """Squared singular values and ||B||_F^2 of B, certified from a sketch of ``width`` columns.

    B's sketch (``_sketch_spectrum``) is kept when its residual certifies
    it; otherwise the width doubles. Once five times the width reaches
    twice min(B.shape) the full SVD of B, formed whole, runs instead: on
    80 x 400 to 1000 x 500 blocks (numpy 2.4 with OpenBLAS 0.3.31, 2
    cores) a sketch of 0.4 min(B.shape) columns took 0.6-0.7 of the full
    SVD's time, and one of 0.5 min(B.shape) columns 0.8-1.0. Every SVD, of
    B or of a sketch, is taken on the tall side, of M.T when M is wide:
    the singular values are the same, and numpy's SVD of a wide C-ordered
    matrix takes about twice as long as that of its transpose. The random
    draw only decides how often the full SVD runs.
    """
    m, n = B.shape
    while 5 * width < 2 * min(m, n):
        sketched = _sketch_spectrum(B, width)
        if sketched is not None:
            return sketched
        width *= 2
    B = B[:, :]
    return _singular_values(B) ** 2, _squared_norm(B)


def _sketch_spectrum(B: _SplitBlock, width: int) -> tuple[np.ndarray, float] | None:
    """B's squared singular values and ||B||_F^2 from a sketch of ``width`` columns, or None.

    B is read a piece at a time, each piece no larger than the sketch's
    own (m + n) width entries, and at most BLOCK_CHUNK rows or BLOCK_CHUNK
    // 2 columns. One pass over its rows forms a Fortran-ordered Y = B
    Omega and ||B||_F^2, Omega the n x width matrix ``_phases`` draws for
    this sketch. ``_conjugate_basis`` writes conj(Q) over Y, Q an
    orthonormal basis of Y's range: Q^H is its transpose. One pass over
    B's columns forms C = Q^H B and subtracts Q C in place from each
    piece, a fresh array (``_subtract_projection``), leaving the residual
    R = B - Q C. When ||R||_F^2 <= tau^2 ||B||_F^2 (tau = SKETCH_TOL) C's
    squared singular values are returned, padded with zeros to
    min(B.shape); otherwise, or when the residual is nan, None, and the
    sketch's factors are freed before B is sketched wider or formed whole.

    Arrays held, by phase. The row pass: Y, Omega and one piece of rows,
    each piece freed before the next is formed; Omega is freed before the
    basis step. The basis step: Y, LAPACK's tau (width entries) and its
    workspace (64 width entries). The column pass: conj(Q), C (width x n)
    and one piece of columns the solve owns, each freed before the next
    is formed. Where the BLAS numpy links exports none of
    ``_SKETCH_SYMBOLS``, numpy's QR forms the basis in a copy of Y of its
    own, and Q C is formed beside each piece and subtracted from it. None
    of these during C's SVD.

    The residual certifies the result: sigma_i(C) <= sigma_i(B) and
    sum_i (sigma_i(B)^2 - sigma_i(C)^2) = ||R||_F^2, so each returned
    value is at most tau^2 ||B||_F^2 below the exact one, and a sum of
    log(1 + s lambda) at most s tau^2 ||B||_F^2 below the exact sum.
    """
    m, n = B.shape
    entries = (m + n) * width
    chunk, piece = min(BLOCK_CHUNK, entries // n), min(BLOCK_CHUNK // 2, entries // m)
    omega = _phases(n, width)
    Y = np.empty((m, width), dtype=np.complex128, order="F")
    norm = 0.0
    for i in range(0, m, chunk):
        rows = B[i:i + chunk, :]
        np.matmul(rows, omega, out=Y[i:i + chunk])
        norm += _squared_norm(rows)
        del rows
    del omega
    Q_bar = _conjugate_basis(Y)
    del Y
    C = np.empty((width, n), dtype=np.complex128)
    residual = 0.0
    for j in range(0, n, piece):
        cols = B[:, j:j + piece]
        C_j = C[:, j:j + piece]
        np.matmul(Q_bar.T, cols, out=C_j)
        _subtract_projection(cols, Q_bar, C_j)
        residual += _squared_norm(cols)
        del cols
    del Q_bar
    if not residual <= SKETCH_TOL**2 * norm:
        return None
    values = np.zeros(min(m, n))
    values[:width] = _singular_values(C) ** 2
    return values, norm


def _subtract_projection(R: np.ndarray, Q_bar: np.ndarray, C_j: np.ndarray) -> None:
    """R -= Q C_j in R's own storage by one zgemm, Q = conj(Q_bar).

    R (m x w, rows of unit stride) and C_j (width x w, a column range of
    the C-ordered C) are read column-major as their transposes, so zgemm
    forms R^T = R^T - C_j^T Q_bar^H, with Q_bar Fortran-ordered. Where the
    BLAS numpy links exports none of ``_SKETCH_SYMBOLS``, Q C_j =
    conj(Q_bar conj(C_j)) is formed beside R and subtracted from it.
    """
    routines = _sketch_routines()
    if routines is None:
        Q_C = np.matmul(Q_bar, C_j.conj())
        R -= np.conjugate(Q_C, out=Q_C)
        return
    (m, w), k = R.shape, C_j.shape[0]
    if (Q_bar.shape != (m, k) or C_j.shape[1] != w or not Q_bar.flags.f_contiguous
            or R.strides[1] != R.itemsize or C_j.strides[1] != C_j.itemsize
            or not R.dtype == C_j.dtype == Q_bar.dtype == np.complex128):
        raise ValueError("zgemm reads complex128 factors, Q_bar Fortran-ordered and R and C_j "
                         "with rows of unit stride, of matching shapes")
    size, alpha, beta = ctypes.c_int64, np.array(-1.0 + 0j), np.array(1.0 + 0j)
    routines[2](b"N", b"C", size(w), size(m), size(k), alpha.ctypes.data, C_j.ctypes.data,
                size(C_j.strides[0] // C_j.itemsize), Q_bar.ctypes.data, size(m),
                beta.ctypes.data, R.ctypes.data, size(R.strides[0] // R.itemsize), 1, 1)


def _conjugate_basis(Y: np.ndarray) -> np.ndarray:
    """conj(Q) for the thin QR factorization Y = Q R of a Fortran-ordered Y, written over Y.

    LAPACK's zgeqrf and zungqr (``_sketch_routines``) run in Y's own storage,
    in LAPACK's own column blocks, with tau and a workspace of 64 entries
    per column, above LAPACK's block size. Where the BLAS numpy links
    exports none of ``_SKETCH_SYMBOLS``, numpy's reduced QR forms Q in a
    copy of its own.
    """
    if not Y.flags.f_contiguous:
        raise ValueError("a sketch's basis is formed only from a Fortran-ordered Y")
    routines = _sketch_routines()
    if routines is None:
        return np.conjugate(np.linalg.qr(Y)[0], out=Y)
    m, k = (ctypes.c_int64(size) for size in Y.shape)
    tau, work = np.empty(k.value, dtype=np.complex128), np.empty(64 * k.value, dtype=np.complex128)
    lwork, info = ctypes.c_int64(work.size), ctypes.c_int64()
    routines[0](m, k, Y, m, tau, work, lwork, info)
    if not info.value:
        routines[1](m, k, k, Y, m, tau, work, lwork, info)
    if info.value:
        raise np.linalg.LinAlgError(f"LAPACK's QR of a sketch failed: info {info.value}")
    return np.conjugate(Y, out=Y)


def _singular_values(M: np.ndarray) -> np.ndarray:
    """Singular values of M from the SVD of its tall side (M.T when M is wide)."""
    return np.linalg.svd(M.T if M.shape[0] < M.shape[1] else M, compute_uv=False)


def gram_from_channel(H: np.ndarray, weight: float) -> np.ndarray:
    """Weighted Gram matrix weight * H H^H with exact Hermitian symmetry."""
    (m, q), c16, upper = H.shape, np.complex128, (2, H.shape[0] * (H.shape[0] - 1) // 2)
    check_arrays(f"a {m} x {m} complex matrix", (("conj(H)", (m, q), c16), ("H H^H", (m, m), c16)),
                 (("K", (m, m), c16), ("upper triangle's indices", upper, np.intp),
                  ("its entries and their conjugates", upper, c16)))
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
    K = np.asarray(K, dtype=np.complex128)
    validate_hermitian(K)
    ev = np.linalg.eigvalsh(K)[::-1]
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

    Nondecreasing in scale; zero at scale = 0. A nan or infinite scale is refused.
    """
    if not 0 <= scale < math.inf:
        raise ValueError(f"scale must be finite and >= 0, got {scale}")
    return float(np.sum(np.log1p(scale * eigenvalues)))
