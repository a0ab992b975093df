"""Sweep drivers over antenna counts and distances, plus slope fitting.

Each sweep tabulates a discrete model against the continuous reference
at the same distance, one row per cell. Cells run one after another in
the calling thread, so every cell at one geometry reuses the cached
reference trace and spectrum; matrix products and eigensolves use the
BLAS's own threads. Results are sorted by their keys before being
returned.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .models import MiResult, mi_continuous, mi_discrete_rx, mi_discrete_trx
from .physics import SystemConfig

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

    ``symmetry_gap`` is max |I(a, b) - I(b, a)| over mirrored cell pairs,
    reported rather than asserted.
    """

    rows: tuple[SweepRow, ...]
    symmetry_gap: float


def _check_lists(distances: Sequence[float], m_values: Sequence[int]) -> None:
    if not distances:
        raise ValueError("distances must be nonempty")
    if not m_values:
        raise ValueError("m_values must be nonempty")


def _cell_row(scenario: str, d: float, m1: int | None, m2: int, ref: MiResult,
              compute: Callable[[], MiResult]) -> SweepRow:
    start = time.perf_counter()
    try:
        res = compute()
    except Exception as exc:  # failed cells are recorded, not dropped
        return SweepRow(scenario=scenario, d_m=d, m1=m1, m2=m2, ref_m=ref.ref_m,
                        mi_nats=None, mi_ref_nats=ref.value_nats, abs_gap=None,
                        n_used=None, model_tag="error",
                        wall_time_s=time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    noise = res.noise_used if math.isfinite(res.noise_used) else None
    return SweepRow(scenario=scenario, d_m=d, m1=m1, m2=m2, ref_m=ref.ref_m,
                    mi_nats=res.value_nats, mi_ref_nats=ref.value_nats,
                    abs_gap=abs(res.value_nats - ref.value_nats), n_used=noise,
                    model_tag=res.model_tag, wall_time_s=elapsed)


def sweep_receiver(cfg: SystemConfig, distances: Sequence[float],
                   m_values: Sequence[int], ref_m: int | None = None,
                   inner_points: int | None = None,
                   scenario: str = "receiver") -> list[SweepRow]:
    """Discretize the receiver only: one row per (distance, m) cell.

    The reference column is the continuous model at the same distance on
    the ref_m grid (computed once per distance, before the cells run);
    ``inner_points`` is the source rule of the discrete receiver only.
    """
    _check_lists(distances, m_values)
    rows: list[SweepRow] = []
    for d in distances:
        cfg_d = dataclasses.replace(cfg, distance_m=d)
        ref = mi_continuous(cfg_d, ref_m)
        for m in m_values:
            rows.append(_cell_row(scenario, d, None, m, ref,
                                  lambda: mi_discrete_rx(m, cfg_d, inner_points)))
    rows.sort(key=lambda r: (r.d_m, r.m2))
    return rows


def sweep_transceiver(cfg: SystemConfig, distances: Sequence[float],
                      m_values: Sequence[int], ref_m: int | None = None,
                      scenario: str = "transceiver") -> list[SweepRow]:
    """Discretize both sides with m1 = m2 = m: one row per (distance, m)."""
    _check_lists(distances, m_values)
    rows: list[SweepRow] = []
    for d in distances:
        cfg_d = dataclasses.replace(cfg, distance_m=d)
        ref = mi_continuous(cfg_d, ref_m)
        for m in m_values:
            rows.append(_cell_row(scenario, d, m, m, ref,
                                  lambda: mi_discrete_trx(m, m, cfg_d)))
    rows.sort(key=lambda r: (r.d_m, r.m2))
    return rows


def sweep_grid(cfg: SystemConfig, d: float, m1_values: Sequence[int],
               m2_values: Sequence[int], ref_m: int | None = None,
               scenario: str = "grid") -> GridSweep:
    """Full Cartesian product of transmit and receive antenna counts at one d."""
    if not m1_values or not m2_values:
        raise ValueError("m1_values and m2_values must be nonempty")
    cfg_d = dataclasses.replace(cfg, distance_m=d)
    ref = mi_continuous(cfg_d, ref_m)
    rows = sorted((_cell_row(scenario, d, m1, m2, ref,
                             lambda: mi_discrete_trx(m1, m2, cfg_d))
                   for m1 in m1_values for m2 in m2_values),
                  key=lambda r: (r.m1, r.m2))
    by_key = {(r.m1, r.m2): r.mi_nats for r in rows if r.mi_nats is not None}
    sym = 0.0
    for (m1, m2), v in by_key.items():
        mirrored = by_key.get((m2, m1))
        if mirrored is not None:
            sym = max(sym, abs(v - mirrored))
    return GridSweep(rows=tuple(rows), symmetry_gap=sym)


def fit_convergence_slope(rows: Sequence[SweepRow], drop_head: int = 0) -> SlopeFit:
    """Fit log(abs_gap) against log(sampling number) by least squares.

    Error rows, zero gaps, and gaps below GAP_FLOOR_REL of the reference
    are excluded as uninformative; ``drop_head`` additionally discards
    the smallest-m points of a pre-asymptotic ladder. At least three
    usable points at distinct m are required.
    """
    usable = [r for r in rows
              if r.error is None and r.abs_gap is not None and r.abs_gap > 0.0
              and r.mi_ref_nats is not None
              and r.abs_gap >= GAP_FLOOR_REL * abs(r.mi_ref_nats)]
    usable.sort(key=lambda r: r.sampling_number)
    if drop_head:
        usable = usable[drop_head:]
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
