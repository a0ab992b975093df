"""Command-line entry point: scenario config, sweep execution, CSV emission.

Subcommands: sweep-receiver, sweep-transceiver, sweep-grid, dof, bounds.
Settings come from an optional ``key = value`` config file plus flags
(flags win); the fully resolved configuration is printed before any
computation runs.

Sweep output is an RFC-4180-style CSV with the fixed column set

    scenario,d_m,m1,m2,ref_m,mi_nats,mi_bits,mi_ref_nats,abs_gap,n_used,model_tag,wall_time_s

plus a JSON sidecar (same basename, .meta suffix) holding the resolved
config, tool version, environment (numpy, BLAS, CPU count, thread
settings), measured timings, slope fits and, per distance, the
reference's node counts and effective rank. The CSV itself
is byte-identical across reruns of the same resolved config on one
platform; per-cell wall times are therefore written as 0.0 placeholders
unless --timings is given (real timings always go to the sidecar).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .experiments import (
    SweepRow,
    fit_convergence_slope,
    sweep_grid,
    sweep_receiver,
    sweep_transceiver,
)
from .models import default_ref_m, dof_estimate, mi_continuous, noise_rx, resolve_ref_m
from .physics import SystemConfig, resolve_inner_points
from .spectra import midpoint_grid

CSV_COLUMNS = ("scenario", "d_m", "m1", "m2", "ref_m", "mi_nats", "mi_bits",
               "mi_ref_nats", "abs_gap", "n_used", "model_tag", "wall_time_s")

BOUNDS_COLUMNS = ("scenario", "d_m", "m", "n_rx", "scaled_gap", "gap_bound", "within_bound")

DOF_COLUMNS = ("scenario", "d_m", "ref_m", "threshold_rel", "eigen_count", "analytic_dof")

DEFAULT_M_LIST = (5, 10, 20, 40, 80, 100, 160)
DEFAULT_DISTANCES = (10.0, 1.0, 0.1)

# the commands whose discrete receiver takes inner_points source nodes
INNER_POINTS_COMMANDS = ("sweep-receiver", "bounds")


class ConfigError(ValueError):
    """Invalid, unknown, or missing run configuration."""


@dataclass
class RunConfig:
    """Fully resolved run settings; validated before any computation."""

    scenario: str
    wavelength: float = 0.04
    length: float = 2.0
    distance: float = 10.0
    distances: tuple[float, ...] = DEFAULT_DISTANCES
    power: float = 1.0
    noise: float = 2.0
    ref_m: int | None = None
    inner_points: int | None = None
    m_list: tuple[int, ...] = DEFAULT_M_LIST
    m1_list: tuple[int, ...] = DEFAULT_M_LIST
    m2_list: tuple[int, ...] = DEFAULT_M_LIST
    out: str | None = None
    keep_going: bool = False
    log_base: str = "e"
    timings: bool = False

    def system_config(self) -> SystemConfig:
        try:
            return SystemConfig(wavelength_m=self.wavelength, aperture_m=self.length,
                                distance_m=self.distance, power_density=self.power,
                                noise_density=self.noise)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def resolved_dict(self, command: str) -> dict:
        """The settings with every default filled in.

        The node-count defaults depend on the distance: each is given at
        its largest over the distances ``command`` runs at (every CSV row
        carries its own ref_m).
        """
        d = dataclasses.asdict(self)
        base = self.system_config()
        multi = command in ("sweep-receiver", "sweep-transceiver")
        cfgs = [dataclasses.replace(base, distance_m=x)
                for x in (self.distances if multi else (self.distance,))]
        if self.ref_m is None:
            d["ref_m"] = max(default_ref_m(cfg) for cfg in cfgs)
        if self.inner_points is None:
            d["inner_points"] = max(cfg.default_inner_points() for cfg in cfgs)
        return d


def _parse_list(raw: str, key: str, kind: type) -> tuple:
    """A nonempty comma-separated list of ``kind`` values (int or float)."""
    try:
        vals = tuple(kind(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"{key}: expected comma-separated {kind.__name__} values, "
                          f"got {raw!r}") from None
    if not vals:
        raise ConfigError(f"{key}: list must be nonempty")
    return vals


def _parse_bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


_FILE_PARSERS = {
    "scenario": str,
    "wavelength": float,
    "length": float,
    "distance": float,
    "distances": lambda v: _parse_list(v, "distances", float),
    "power": float,
    "noise": float,
    "ref_m": int,
    "inner_points": int,
    "m_list": lambda v: _parse_list(v, "m_list", int),
    "m1_list": lambda v: _parse_list(v, "m1_list", int),
    "m2_list": lambda v: _parse_list(v, "m2_list", int),
    "out": str,
    "keep_going": _parse_bool,
    "log_base": str,
    "timings": _parse_bool,
}


def _load_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment; unknown keys are fatal."""
    out: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FILE_PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            out[key] = _FILE_PARSERS[key](value)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: invalid value for {key}: {value!r}") from None
    return out


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capmimo",
        description="Mutual information of continuous vs discretized line apertures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("sweep-receiver", "discretize the receiver, sweep (distance, m)"),
            ("sweep-transceiver", "discretize both sides with m1 = m2 = m"),
            ("sweep-grid", "Cartesian (m1, m2) sweep at one distance"),
            ("dof", "significant-eigenvalue count vs the analytic rule"),
            ("bounds", "noise-rescaling gap vs its quadrature bound over an m ladder")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", help="output CSV path (sidecar written next to it)")
        p.add_argument("--scenario", help="scenario label for output rows")
        p.add_argument("--wavelength", type=float, help="carrier wavelength [m]")
        p.add_argument("--length", type=float, help="aperture length [m]")
        p.add_argument("--distance", type=float, help="single transceiver distance [m]")
        p.add_argument("--distances", help="comma list of distances [m] for sweeps")
        p.add_argument("--power", type=float, help="transmit power density")
        p.add_argument("--noise", type=float, help="receiver noise density")
        p.add_argument("--ref-m", type=int, dest="ref_m",
                       help="Gauss-Legendre nodes on the receive aperture of the "
                            "continuous reference (default: the node rule, at least 1600)")
        p.add_argument("--inner-points", type=int, dest="inner_points",
                       help="Gauss-Legendre source nodes of the discrete receiver, "
                            "sweep-receiver and bounds only (default: 16 per "
                            "min(wavelength, distance) along the aperture)")
        p.add_argument("--m-list", dest="m_list", help="comma list of antenna counts")
        p.add_argument("--m1-list", dest="m1_list", help="comma list of transmit counts")
        p.add_argument("--m2-list", dest="m2_list", help="comma list of receive counts")
        p.add_argument("--keep-going", action="store_true", default=None,
                       help="exit 0 even if some cells fail")
        p.add_argument("--log-base", choices=("e", "2"), dest="log_base",
                       help="base for values printed to stdout")
        p.add_argument("--timings", action="store_true", default=None,
                       help="write real per-cell wall times into the CSV "
                            "(forgoes byte-identical reruns)")
    return parser


def _check_counts(rc: RunConfig) -> None:
    """Fail fast on invalid physics values and node or antenna counts, before any solve."""
    cfg = rc.system_config()
    for key in ("m_list", "m1_list", "m2_list"):
        low = min(getattr(rc, key))
        if low < 1:
            raise ConfigError(f"{key}: antenna counts must be >= 1, got {low}")
    try:
        resolve_ref_m(cfg, rc.ref_m)
        resolve_inner_points(cfg, rc.inner_points)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_config(argv: list[str]) -> tuple[str, RunConfig]:
    """Resolve command + settings from flags and the optional config file."""
    args = _build_parser().parse_args(argv)
    settings: dict = {}
    if args.config:
        settings.update(_load_config_file(args.config))
    for key, parse in _FILE_PARSERS.items():
        value = getattr(args, key, None)
        if value is not None:  # list flags arrive as raw strings
            is_list = key in ("distances", "m_list", "m1_list", "m2_list")
            settings[key] = parse(value) if is_list else value
    settings.setdefault("scenario", args.command)
    if "inner_points" in settings and args.command not in INNER_POINTS_COMMANDS:
        raise ConfigError(f"inner_points is used only by {' and '.join(INNER_POINTS_COMMANDS)}, "
                          f"not by {args.command}")
    if settings.get("log_base") not in (None, "e", "2"):
        raise ConfigError(f"log_base must be 'e' or '2', got {settings['log_base']!r}")
    rc = RunConfig(**settings)
    _check_counts(rc)
    return args.command, rc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _row_record(row: SweepRow, timings: bool) -> list:
    bits = None if row.mi_nats is None else row.mi_nats / math.log(2.0)
    tag = row.model_tag if row.error is None else f"error:{row.error}"
    wall = row.wall_time_s if timings else 0.0
    return [row.scenario, row.d_m, row.m1, row.m2, row.ref_m, row.mi_nats, bits,
            row.mi_ref_nats, row.abs_gap, row.n_used, tag, wall]


def _write_csv(path: Path, columns: tuple[str, ...], records: list[list]) -> None:
    """The one CSV writer: header, then records formatted by ``_fmt``, '\\n' line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(v) for v in rec] for rec in records)
    path.write_text(buf.getvalue(), encoding="utf-8")


def write_rows_csv(rows: list[SweepRow], path: Path, timings: bool = False) -> None:
    """Sweep rows under the fixed CSV_COLUMNS header."""
    _write_csv(path, CSV_COLUMNS, [_row_record(row, timings) for row in rows])


def _environment() -> dict:
    """numpy and BLAS versions, CPU count and BLAS thread settings of this process."""
    try:  # numpy's configuration as a dict, where this numpy has it
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {"numpy": np.__version__, "blas": blas, "cpu_count": os.cpu_count(),
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def _reference_health(rows: list[SweepRow], rc: RunConfig) -> dict:
    """Per sweep distance: the reference's node counts and effective rank.

    The rank is the count of eigenvalues at or above 1e-3 and 1e-12 of
    the largest, read from the reference spectrum the sweep cached.
    """
    health = {}
    for d in sorted({r.d_m for r in rows}):
        ref = mi_continuous(dataclasses.replace(rc.system_config(), distance_m=d), rc.ref_m)
        ev = ref.eigenvalues
        top = float(ev[0]) if ev.size else 0.0
        counts = {key: int(np.sum(ev >= rel * top)) if top > 0.0 else 0
                  for key, rel in (("eigen_count_1e-3", 1e-3), ("eigen_count_1e-12", 1e-12))}
        health[repr(d)] = {"ref_m": ref.ref_m, "source_nodes": ref.inner_points, **counts}
    return health


def _write_outputs(command: str, rc: RunConfig, columns: tuple[str, ...],
                   records: list[list], meta: dict) -> bool:
    """Write rc.out as CSV plus its JSON sidecar (.meta suffix).

    Returns False, after a one-line message on stderr, when either file
    cannot be written.
    """
    out = Path(rc.out)
    payload = {"tool": "capmimo", "version": __version__, "command": command,
               "resolved_config": rc.resolved_dict(command),
               "environment": _environment(), **meta}
    try:
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out, columns, records)
        out.with_suffix(".meta").write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return False
    print(f"wrote {len(records)} rows to {out}")
    return True


def _print_resolved(command: str, rc: RunConfig) -> None:
    print(f"# capmimo {__version__} :: {command}")
    for key, value in sorted(rc.resolved_dict(command).items()):
        print(f"{key} = {value}")


def _stdout_mi(nats: float, rc: RunConfig) -> str:
    if rc.log_base == "2":
        return f"{nats / math.log(2.0):.6f} bits"
    return f"{nats:.6f} nats"


def _slope_fits_by_distance(rows: list[SweepRow]) -> dict:
    fits = {}
    for d in sorted({r.d_m for r in rows}):
        subset = [r for r in rows if r.d_m == d]
        try:
            fit = fit_convergence_slope(subset)
        except ValueError:
            continue
        fits[repr(d)] = {"slope": fit.slope, "intercept": fit.intercept,
                         "r_squared": fit.r_squared, "m_range": list(fit.m_range)}
    return fits


def _finish_sweep(rows: list[SweepRow], command: str, rc: RunConfig,
                  started: float, extra: dict | None = None) -> int:
    errors = [r for r in rows if r.error is not None]
    meta = {"rows": len(rows),
            "slope_fits": _slope_fits_by_distance(rows),
            "errors": [{"d_m": r.d_m, "m1": r.m1, "m2": r.m2, "error": r.error}
                       for r in errors],
            "timings": {"total_s": time.perf_counter() - started,
                        "cells_s": [r.wall_time_s for r in rows]},
            "references": _reference_health(rows, rc)}
    if extra:
        meta.update(extra)
    for d in sorted({r.d_m for r in rows}):
        refs = [r.mi_ref_nats for r in rows if r.d_m == d and r.mi_ref_nats is not None]
        if refs:
            print(f"d={d:g}: reference {_stdout_mi(refs[0], rc)}")
    records = [_row_record(row, rc.timings) for row in rows]
    if not _write_outputs(command, rc, CSV_COLUMNS, records, meta):
        return 1
    if errors:
        print(f"{len(errors)} cell(s) failed", file=sys.stderr)
        return 0 if rc.keep_going else 1
    return 0


def _run_dof(command: str, rc: RunConfig) -> int:
    cfg = rc.system_config()
    est = dof_estimate(cfg, rc.ref_m)
    print(f"eigen_count = {est.eigen_count} (threshold {est.threshold_rel:g} of largest)")
    print(f"analytic_dof = {est.analytic}")
    if rc.out is None:
        return 0
    ref_m = resolve_ref_m(cfg, rc.ref_m)
    records = [[rc.scenario, rc.distance, ref_m, est.threshold_rel, est.eigen_count,
                est.analytic]]
    meta = {"eigen_count": est.eigen_count, "analytic_dof": est.analytic}
    return 0 if _write_outputs(command, rc, DOF_COLUMNS, records, meta) else 1


def _run_bounds(command: str, rc: RunConfig) -> int:
    cfg = rc.system_config()
    results = []
    print(f"{'m':>8} {'n_rx':>18} {'scaled_gap':>14} {'gap_bound':>14} ok")
    for m in rc.m_list:
        control = noise_rx(midpoint_grid(cfg.aperture_m, m), cfg, rc.inner_points)
        ok = control.gap <= control.gap_bound
        results.append((m, control, ok))
        print(f"{m:>8} {control.n_value:>18.10e} {control.gap:>14.6e} "
              f"{control.gap_bound:>14.6e} {'yes' if ok else 'NO'}")
    if rc.out is not None:
        records = [[rc.scenario, rc.distance, m, c.n_value, c.gap, c.gap_bound, str(ok).lower()]
                   for m, c, ok in results]
        meta = {"gaps": {str(m): c.gap for m, c, _ in results},
                "bounds": {str(m): c.gap_bound for m, c, _ in results}}
        if not _write_outputs(command, rc, BOUNDS_COLUMNS, records, meta):
            return 1
    return 0 if all(ok for _, _, ok in results) else 1


def run(command: str, rc: RunConfig) -> int:
    """Execute one subcommand against a resolved RunConfig."""
    if command.startswith("sweep-") and rc.out is None:
        raise ConfigError(f"{command} requires --out (or out = ... in the config file)")
    _print_resolved(command, rc)
    started = time.perf_counter()
    cfg = rc.system_config()
    if command == "sweep-receiver":
        rows = sweep_receiver(cfg, rc.distances, rc.m_list, rc.ref_m,
                              rc.inner_points, scenario=rc.scenario)
        return _finish_sweep(rows, command, rc, started)
    if command == "sweep-transceiver":
        rows = sweep_transceiver(cfg, rc.distances, rc.m_list, rc.ref_m,
                                 scenario=rc.scenario)
        return _finish_sweep(rows, command, rc, started)
    if command == "sweep-grid":
        grid = sweep_grid(cfg, rc.distance, rc.m1_list, rc.m2_list, rc.ref_m,
                          scenario=rc.scenario)
        print(f"symmetry_gap = {grid.symmetry_gap!r}")
        return _finish_sweep(list(grid.rows), command, rc, started,
                             extra={"symmetry_gap": grid.symmetry_gap})
    if command == "dof":
        return _run_dof(command, rc)
    if command == "bounds":
        return _run_bounds(command, rc)
    raise ConfigError(f"unknown command {command!r}")


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        command, rc = parse_config(argv)
        return run(command, rc)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
