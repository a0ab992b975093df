"""Sweep drivers over antenna counts and distances, plus slope fitting.

Each sweep tabulates a discrete model against the continuous reference
at the same distance, one row per (distance, (m1, m2)) cell, through the
one loop ``_sweep``, which the command line's sweeps run too: before the
first reference solve, ``size_sweep``, which the command line also runs
before it prints, checks every antenna count and distance and sizes
every reference and cell against physical memory by
``models.model_sides``, the rule each model call solves by, so an
infeasible sweep raises instead of solving. Cells run one after another
in the calling thread, so every cell at one geometry reuses the cached
trace, and a grid's (m2, m1) cell the spectrum of its (m1, m2) cell. A
spectrum whose a-priori sketch work is below ``spectra.SERIAL_WORK`` is
solved with the BLAS on one thread, every other one on the BLAS's own
threads, so the default sweeps write the same bytes at every thread
count. The loop returns its rows sorted by (d, m1, m2), with the
reference it solved at each distance and the rows' symmetry gap.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .models import (
    MODEL_CONTINUOUS,
    MODEL_DISCRETE_RX,
    MODEL_DISCRETE_TRX,
    MiResult,
    mi_continuous,
    mi_discrete_rx,
    mi_discrete_trx,
    model_sides,
)
from .physics import SystemConfig, as_count

# rows whose gap is below this fraction of the reference have converged
# to the floating-point floor and carry no slope information
GAP_FLOOR_REL = 1e-12


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell: a discrete-model value against its continuous reference.

    ``m1`` is None when the transmitter stays continuous. Failed cells
    keep their keys and carry the failure in ``error`` with the value
    fields set to None.
    """

    scenario: str
    d_m: float
    m1: int | None
    m2: int
    ref_m: int
    mi_nats: float | None
    mi_ref_nats: float | None
    abs_gap: float | None
    n_used: float | None
    model_tag: str
    wall_time_s: float
    error: str | None = None

    @property
    def sampling_number(self) -> int:
        """The count that drives convergence: min of the two sides."""
        return self.m2 if self.m1 is None else min(self.m1, self.m2)


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares power law through (log m, log gap) points."""

    slope: float
    intercept: float
    r_squared: float
    m_range: tuple[int, int]


@dataclass(frozen=True)
class GridSweep:
    """Cartesian transceiver sweep plus its symmetry diagnostic.

    ``symmetry_gap`` is max |I(a, b) - I(b, a)| over mirrored cell pairs.
    It is 0.0 by construction: ``mi_discrete_trx`` solves both orders of a
    pair as one channel, whose transpose is the other's bitwise.
    """

    rows: tuple[SweepRow, ...]
    symmetry_gap: float


def _cell_row(scenario: str, d: float, m1: int | None, m2: int, ref: MiResult,
              compute: Callable[[], MiResult]) -> SweepRow:
    start = time.perf_counter()
    try:
        res = compute()
    except Exception as exc:  # failed cells are recorded, not dropped
        fields = dict(mi_nats=None, abs_gap=None, n_used=None, model_tag="error",
                      error=f"{type(exc).__name__}: {exc}")
    else:
        fields = dict(mi_nats=res.value_nats, abs_gap=abs(res.value_nats - ref.value_nats),
                      n_used=res.noise_used, model_tag=res.model_tag)
    return SweepRow(scenario=scenario, d_m=d, m1=m1, m2=m2, ref_m=ref.ref_m,
                    mi_ref_nats=ref.value_nats, wall_time_s=time.perf_counter() - start,
                    **fields)


def size_sweep(cfg: SystemConfig, distances: Sequence[float],
               cells: Sequence[tuple[int | None, int]], ref_m: int | None,
               inner_points: int | None = None) -> tuple[list, list]:
    """A sweep's up-front check: its checked cells and each distance's (scenario, reference sides).

    Every antenna count and distance is checked, then at each distance the reference and every
    cell (``mi_discrete_rx`` when m1 is None, else ``mi_discrete_trx``) sized by ``model_sides``.
    """
    cells = [tuple(None if m is None else as_count("antenna count", m, 1) for m in cell)
             for cell in cells]
    scenarios = []
    for cfg_d in [dataclasses.replace(cfg, distance_m=d) for d in distances]:
        scenarios.append((cfg_d, model_sides(cfg_d, MODEL_CONTINUOUS, ref_m=ref_m)))
        for m1, m2 in cells:
            tag = MODEL_DISCRETE_RX if m1 is None else MODEL_DISCRETE_TRX
            model_sides(cfg_d, tag, m1, m2, inner_points=inner_points)
    return cells, scenarios


def _sweep(scenario: str, cfg: SystemConfig, distances: Sequence[float],
           cells: Sequence[tuple[int | None, int]], ref_m: int | None,
           inner_points: int | None = None) -> tuple[list[SweepRow], dict, float]:
    """Rows sorted by (d, m1, m2), each distance's reference and the rows' symmetry gap.

    A cell is ``mi_discrete_rx(m2)`` when m1 is None, else
    ``mi_discrete_trx(m1, m2)``. ``size_sweep`` checks and sizes the whole
    sweep before the first reference solve. The continuous reference at
    each distance is then solved once, before that distance's cells run.
    The gap is ``GridSweep``'s.
    """
    if not distances or not cells:
        raise ValueError("distances and antenna counts must be nonempty")
    cells, scenarios = size_sweep(cfg, distances, cells, ref_m, inner_points)
    rows, references = [], {}
    for d, (cfg_d, _) in zip(distances, scenarios):
        ref = references[d] = mi_continuous(cfg_d, ref_m)
        rows.extend(_cell_row(scenario, d, m1, m2, ref,
                              lambda: mi_discrete_rx(m2, cfg_d, inner_points) if m1 is None
                              else mi_discrete_trx(m1, m2, cfg_d))
                    for m1, m2 in cells)
    nats = {(r.d_m, r.m1, r.m2): r.mi_nats for r in rows if r.mi_nats is not None}
    gap = max((abs(v - nats.get((d, m2, m1), v)) for (d, m1, m2), v in nats.items()), default=0.0)
    return sorted(rows, key=lambda r: (r.d_m, r.m1, r.m2)), references, gap


def sweep_receiver(cfg: SystemConfig, distances: Sequence[float],
                   m_values: Sequence[int], ref_m: int | None = None,
                   inner_points: int | None = None,
                   scenario: str = "receiver") -> list[SweepRow]:
    """Discretize the receiver only: one row per (distance, m) cell.

    The reference column is the continuous model at the same distance on
    the ref_m grid (computed once per distance, before the cells run);
    ``inner_points`` is the source rule of the discrete receiver only.
    """
    return _sweep(scenario, cfg, distances, [(None, m) for m in m_values], ref_m,
                  inner_points)[0]


def sweep_transceiver(cfg: SystemConfig, distances: Sequence[float],
                      m_values: Sequence[int], ref_m: int | None = None,
                      scenario: str = "transceiver") -> list[SweepRow]:
    """Discretize both sides with m1 = m2 = m: one row per (distance, m)."""
    return _sweep(scenario, cfg, distances, [(m, m) for m in m_values], ref_m)[0]


def sweep_grid(cfg: SystemConfig, d: float, m1_values: Sequence[int],
               m2_values: Sequence[int], ref_m: int | None = None,
               scenario: str = "grid") -> GridSweep:
    """Full Cartesian product of transmit and receive antenna counts at one d."""
    rows, _, symmetry_gap = _sweep(scenario, cfg, [d], [(m1, m2) for m1 in m1_values
                                                        for m2 in m2_values], ref_m)
    return GridSweep(rows=tuple(rows), symmetry_gap=symmetry_gap)


def fit_convergence_slope(rows: Sequence[SweepRow]) -> SlopeFit:
    """Fit log(abs_gap) against log(sampling number) by least squares.

    Error rows, zero gaps, and gaps below GAP_FLOOR_REL of the reference
    are excluded as uninformative. At least three usable points at
    distinct m are required.
    """
    usable = [r for r in rows
              if r.error is None and r.abs_gap is not None and r.abs_gap > 0.0
              and r.mi_ref_nats is not None
              and r.abs_gap >= GAP_FLOOR_REL * abs(r.mi_ref_nats)]
    ms = [r.sampling_number for r in usable]
    if len(set(ms)) < 3:
        raise ValueError(f"slope fit needs >= 3 usable rows at distinct m, got {len(set(ms))}")
    x = np.log(np.asarray(ms, dtype=np.float64))
    y = np.log(np.asarray([r.abs_gap for r in usable], dtype=np.float64))
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope=float(coef[0]), intercept=float(coef[1]),
                    r_squared=r_squared, m_range=(min(ms), max(ms)))
