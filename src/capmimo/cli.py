"""Command-line entry point: scenario config, sweep execution, CSV emission.

Subcommands: sweep-receiver, sweep-transceiver, sweep-grid, dof, bounds.
Each setting is one ``RunConfig`` field, named as its config key and, with
``-`` for ``_``, as its ``--`` flag; one parser reads both, and only the
subcommands the field names as its readers accept it. Settings come from
an optional ``key = value`` config file plus flags (flags win), each
given at most once in either. They are resolved once, every default
filled in and the run sized by the library's own rules, and printed
before any computation runs; the sidecar reads that one resolution.
Each subcommand's body then prints its own lines and returns its table;
``run`` writes it once, to ``out`` when set, and exits 1 when the write
or the table failed (a failed sweep cell, a ``bounds`` gap above its bound).

Every table is an RFC-4180-style CSV; a sweep's has the fixed column set

    scenario,d_m,m1,m2,ref_m,mi_nats,mi_bits,mi_ref_nats,abs_gap,n_used,model_tag,wall_time_s

plus a JSON sidecar (same basename, .meta suffix) holding the resolved
config, tool version, environment (numpy, BLAS, CPU count, thread
settings) and, for a sweep, measured timings, the two geometry caches'
hits and misses over the process, slope fits and, per distance, the node
counts and effective rank (eigenvalues above 1e-3 and 1e-12 of the
largest) of the reference that ``experiments``' one sweep loop solved
there. The CSV itself is byte-identical across reruns of the same
resolved config on one platform, so its per-cell wall times are 0.0
placeholders; the real ones go to the sidecar.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .experiments import SweepRow, _sweep, fit_convergence_slope, size_sweep
from .models import (
    cache_counts,
    check_noise_rx_size,
    dof_estimate,
    noise_rx,
)
from .physics import (
    SystemConfig,
    as_count,
    midpoint_grid,
    resolve_inner_points,
)
from .spectra import blas_settings

CSV_COLUMNS = ("scenario", "d_m", "m1", "m2", "ref_m", "mi_nats", "mi_bits",
               "mi_ref_nats", "abs_gap", "n_used", "model_tag", "wall_time_s")

BOUNDS_COLUMNS = ("scenario", "d_m", "m", "n_rx", "scaled_gap", "gap_bound", "within_bound")

DOF_COLUMNS = ("scenario", "d_m", "ref_m", "threshold_rel", "eigen_count", "analytic_dof")

DEFAULT_M_LIST = (5, 10, 20, 40, 80, 100, 160)

# each subcommand with its help; a setting is read by all five unless its field names fewer
COMMANDS = {
    "sweep-receiver": "discretize the receiver, sweep (distance, m)",
    "sweep-transceiver": "discretize both sides with m1 = m2 = m",
    "sweep-grid": "Cartesian (m1, m2) sweep at one distance",
    "dof": "significant-eigenvalue count vs the analytic rule",
    "bounds": "noise-rescaling gap vs its quadrature bound over an m ladder",
}


class ConfigError(ValueError):
    """Invalid, unknown, or missing run configuration."""


def _parse_list(raw: str, kind: type) -> tuple:
    """A comma-separated list of distinct ``kind`` values (int or float), no entry empty."""
    tokens = [tok.strip() for tok in raw.split(",")]
    if not all(tokens):
        raise ValueError(f"empty entry in {raw!r}" if any(tokens) else "list must be nonempty")
    try:
        vals = tuple(kind(tok) for tok in tokens)
    except ValueError:
        raise ValueError(f"expected comma-separated {kind.__name__} values, "
                         f"got {raw!r}") from None
    if len(set(vals)) < len(vals):
        raise ValueError(f"repeated entry in {raw!r}")
    return vals


def _parse_counts(raw: str) -> tuple[int, ...]:
    """A nonempty comma-separated list of antenna counts, each >= 1."""
    return tuple(as_count("antenna counts", m, 1) for m in _parse_list(raw, int))


def _parse_bool(raw: str) -> bool:
    word = raw.strip().lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_out(raw: str) -> str:
    if Path(raw).suffix == ".meta":
        raise ValueError(f"{raw!r} ends in .meta: the CSV's .meta sidecar would overwrite it")
    if Path(raw).is_dir():
        raise ValueError(f"{raw!r} is a directory, not a CSV path")
    return raw


def _setting(parse: Callable[[str], object], help: str, default=dataclasses.MISSING,
             read_by: tuple[str, ...] = tuple(COMMANDS)):
    """One RunConfig field: its default, the parser of its flag and config value, its help
    and the subcommands that read it; every other subcommand refuses it."""
    return dataclasses.field(default=default, metadata=dict(parse=parse, help=help,
                                                            read_by=read_by))


@dataclass
class RunConfig:
    """Fully resolved run settings; validated before any computation.

    One field per setting: its name is the config key and, with ``-`` for
    ``_``, the ``--`` flag; its metadata holds the one parser of both
    (``_parse_bool`` makes the flag a switch), the help text and its readers.
    """

    scenario: str = _setting(str, "scenario label for output rows")
    wavelength: float = _setting(float, "carrier wavelength [m]", 0.04)
    length: float = _setting(float, "aperture length [m]", 2.0)
    distance: float = _setting(float, "single transceiver distance [m]", 10.0,
                               ("sweep-grid", "dof", "bounds"))
    distances: tuple[float, ...] = _setting(
        partial(_parse_list, kind=float), "comma list of distances [m] for sweeps",
        (10.0, 1.0, 0.1), ("sweep-receiver", "sweep-transceiver"))
    power: float = _setting(float, "transmit power density", 1.0)
    noise: float = _setting(float, "receiver noise density", 2.0)
    ref_m: int | None = _setting(
        int, "Gauss-Legendre nodes on the receive aperture of the continuous reference "
             "(default: the node rule, at least 1600)", None,
        ("sweep-receiver", "sweep-transceiver", "sweep-grid", "dof"))
    inner_points: int | None = _setting(
        int, "Gauss-Legendre source nodes of the discrete receiver (default: 16 per "
             "min(wavelength, distance) along the aperture)", None, ("sweep-receiver", "bounds"))
    m_list: tuple[int, ...] = _setting(
        _parse_counts, "comma list of antenna counts", DEFAULT_M_LIST,
        ("sweep-receiver", "sweep-transceiver", "bounds"))
    m1_list: tuple[int, ...] = _setting(_parse_counts, "comma list of transmit counts",
                                        DEFAULT_M_LIST, ("sweep-grid",))
    m2_list: tuple[int, ...] = _setting(_parse_counts, "comma list of receive counts",
                                        DEFAULT_M_LIST, ("sweep-grid",))
    out: str | None = _setting(_parse_out, "output CSV path (sidecar written next to it)",
                               None)
    keep_going: bool = _setting(_parse_bool, "exit 0 even if some cells fail", False,
                                ("sweep-receiver", "sweep-transceiver", "sweep-grid"))

    def system_config(self) -> SystemConfig:
        return SystemConfig(wavelength_m=self.wavelength, aperture_m=self.length,
                            distance_m=self.distance, power_density=self.power,
                            noise_density=self.noise)

    def sweep_plan(self, command: str) -> tuple[tuple[float, ...], list[tuple[int | None, int]]]:
        """The distances and (m1, m2) cells ``command`` runs, m1 None where the transmitter
        stays continuous: dof and bounds run no cell, at ``distance``."""
        if command == "sweep-grid":
            return (self.distance,), [(m1, m2) for m1 in self.m1_list for m2 in self.m2_list]
        if command not in ("sweep-receiver", "sweep-transceiver"):
            return (self.distance,), []
        return self.distances, [(None if command == "sweep-receiver" else m, m)
                                for m in self.m_list]

    def resolved_dict(self, command: str) -> dict:
        """The settings ``command`` reads, with every default filled in.

        Builds the scenario at every distance ``command`` runs at, so it
        raises ValueError on any invalid physics value or node count, and
        sizes the run by the library's own rules: a command that reads
        ref_m by ``experiments.size_sweep`` (every reference and cell), and
        ``bounds`` its largest step by ``models.check_noise_rx_size``. The
        node counts are each given at their largest over those distances
        (every CSV row carries its own ref_m). ``run`` calls it once.
        """
        d = {name: getattr(self, name) for name, f in _SETTINGS.items()
             if command in f.metadata["read_by"]}
        base = self.system_config()
        distances, cells = self.sweep_plan(command)
        cfgs = [dataclasses.replace(base, distance_m=x) for x in distances]
        if "ref_m" in d:  # a command that reads ref_m solves the reference at each distance
            scenarios = size_sweep(base, distances, cells, self.ref_m, self.inner_points)[1]
            d["ref_m"] = max(rx[0] for _, (rx, _) in scenarios)
        if "inner_points" in d:
            d["inner_points"] = max(resolve_inner_points(cfg, self.inner_points) for cfg in cfgs)
        if command == "bounds":
            check_noise_rx_size(base, max(self.m_list), d["inner_points"])
        return d


_SETTINGS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _parse(name: str, raw: str):
    """A flag string or config value, read by its setting's parser."""
    try:
        return _SETTINGS[name].metadata["parse"](raw)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _load_config_file(path: str) -> dict:
    """Parse ``key = value`` lines of UTF-8; unknown and repeated keys are fatal. '#' starts
    a comment at the start of a line or after whitespace, so ``run#2`` keeps its '#'."""
    out, seen = {}, {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: config key {key!r} repeats line {seen[key]}")
        seen[key] = lineno
        try:
            out[key] = _parse(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return out


class _Parser(argparse.ArgumentParser):
    """An argument parser, and the parser of each subcommand, that raises its mistakes.

    An unknown flag, a flag without its value or a missing subcommand
    becomes a ConfigError, reported in one line like every other setting
    error; ``--help`` still prints and exits 0.
    """

    def error(self, message: str):
        raise ConfigError(message)


class _Once(argparse.Action):
    """Store a flag's value (a switch's ``const``); a flag given twice is refused."""

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(self, "given more than once")
        setattr(namespace, self.dest, self.const if self.nargs == 0 else values)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="capmimo",
        description="Mutual information of continuous vs discretized line apertures.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", action=_Once, help="key = value config file")
        for f in _SETTINGS.values():
            # a switch passes "true" through the same parser as its config value
            switch = {"nargs": 0, "const": "true"} if f.metadata["parse"] is _parse_bool else {}
            # a setting this subcommand does not read still parses, to be refused
            # in one line, but --help does not list it
            helptext = f.metadata["help"] if name in f.metadata["read_by"] else argparse.SUPPRESS
            p.add_argument("--" + f.name.replace("_", "-"), action=_Once, help=helptext,
                           **switch)
    return parser


def parse_config(argv: list[str] | None) -> tuple[str, RunConfig]:
    """Resolve command + settings from flags (sys.argv[1:] when None) and the optional
    config file. Every setting is parsed and checked here; physics values and sizes are
    checked by ``RunConfig.resolved_dict``, which ``run`` calls before it prints."""
    args = _build_parser().parse_args(argv)
    settings = _load_config_file(args.config) if args.config else {}
    for name in _SETTINGS:
        raw = getattr(args, name)
        if raw is not None:
            settings[name] = _parse(name, raw)
    for name in settings:
        if args.command not in (read_by := _SETTINGS[name].metadata["read_by"]):
            readers = " and ".join(", ".join(read_by).rsplit(", ", 1))
            raise ConfigError(f"{name} is read only by {readers}, not by {args.command}")
    settings.setdefault("scenario", args.command)
    return args.command, RunConfig(**settings)


def _fmt(value) -> str:
    """A CSV field: empty for None, a float's repr (it round-trips), str of anything else."""
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def _row_record(row: SweepRow) -> list:
    """One CSV record; wall_time_s is the 0.0 placeholder that keeps reruns byte-identical."""
    bits = None if row.mi_nats is None else row.mi_nats / math.log(2.0)
    tag = row.model_tag if row.error is None else f"error:{row.error}"
    return [row.scenario, row.d_m, row.m1, row.m2, row.ref_m, row.mi_nats, bits,
            row.mi_ref_nats, row.abs_gap, row.n_used, tag, 0.0]


def _write_csv(path: Path, columns: tuple[str, ...], records: list[list]) -> None:
    """The one CSV writer: header, then records formatted by ``_fmt``, '\\n' line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(v) for v in rec] for rec in records)
    path.write_text(buf.getvalue(), encoding="utf-8")


def _environment() -> dict:
    """numpy and BLAS versions, CPU count and ``blas_settings`` of this process."""
    try:  # numpy's configuration as a dict, where this numpy has it
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {"numpy": np.__version__, "blas": blas, "cpu_count": os.cpu_count(),
            **blas_settings(),
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}}


def _write_outputs(command: str, resolved: dict, columns: tuple[str, ...],
                   records: list[list], meta: dict) -> bool:
    """Write the resolved ``out`` as CSV plus its JSON sidecar (.meta suffix).

    Returns False, after a one-line message on stderr, when either file
    cannot be written.
    """
    out = Path(resolved["out"])
    payload = {"tool": "capmimo", "version": __version__, "command": command,
               "resolved_config": resolved,
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


def _sweep_table(command: str, rc: RunConfig, resolved: dict) -> tuple:
    """Run ``command``'s sweep; print sweep-grid's symmetry gap, each distance's reference and
    the failed-cell count. A failed cell fails the table unless ``keep_going``."""
    started = time.perf_counter()
    rows, references, symmetry_gap = _sweep(rc.scenario, rc.system_config(),
                                            *rc.sweep_plan(command), rc.ref_m, rc.inner_points)
    symmetry = {"symmetry_gap": symmetry_gap} if command == "sweep-grid" else {}
    if symmetry:
        print(f"symmetry_gap = {symmetry_gap!r}")
    errors = [r for r in rows if r.error is not None]
    fits, refs = {}, {}
    for d, ref in sorted(references.items()):
        try:
            fit = fit_convergence_slope([r for r in rows if r.d_m == d])
        except ValueError:  # under three usable rows at this distance: no fit
            pass
        else:
            fits[repr(d)] = {"slope": fit.slope, "intercept": fit.intercept,
                             "r_squared": fit.r_squared, "m_range": list(fit.m_range)}
        refs[repr(d)] = {"ref_m": ref.ref_m, "source_nodes": ref.inner_points,
                         "eigen_count_1e-3": ref.eigen_count(1e-3),
                         "eigen_count_1e-12": ref.eigen_count(1e-12)}
        print(f"d={d:g}: reference {ref.value_nats:.6f} nats")
    if errors:
        print(f"{len(errors)} cell(s) failed", file=sys.stderr)
    meta = {"rows": len(rows), "slope_fits": fits, "references": refs,
            "errors": [{"d_m": r.d_m, "m1": r.m1, "m2": r.m2, "error": r.error}
                       for r in errors],
            "timings": {"total_s": time.perf_counter() - started,
                        "cells_s": [r.wall_time_s for r in rows]},
            "caches": cache_counts(), **symmetry}
    return CSV_COLUMNS, [_row_record(r) for r in rows], meta, bool(errors) and not rc.keep_going


def _dof_table(command: str, rc: RunConfig, resolved: dict) -> tuple:
    cfg = rc.system_config()
    est = dof_estimate(cfg, rc.ref_m)
    print(f"eigen_count = {est.eigen_count} (threshold {est.threshold_rel:g} of largest)")
    print(f"analytic_dof = {est.analytic}")
    records = [[rc.scenario, rc.distance, resolved["ref_m"],
                est.threshold_rel, est.eigen_count, est.analytic]]
    meta = {"eigen_count": est.eigen_count, "analytic_dof": est.analytic}
    return DOF_COLUMNS, records, meta, False


def _bounds_table(command: str, rc: RunConfig, resolved: dict) -> tuple:
    cfg = rc.system_config()
    results = []
    print(f"{'m':>8} {'n_rx':>18} {'scaled_gap':>14} {'gap_bound':>14} ok")
    for m in rc.m_list:
        control = noise_rx(midpoint_grid(cfg.aperture_m, m), cfg, rc.inner_points)
        ok = control.gap <= control.gap_bound
        results.append((m, control, ok))
        print(f"{m:>8} {control.n_value:>18.10e} {control.gap:>14.6e} "
              f"{control.gap_bound:>14.6e} {'yes' if ok else 'NO'}")
    records = [[rc.scenario, rc.distance, m, c.n_value, c.gap, c.gap_bound, str(ok).lower()]
               for m, c, ok in results]
    meta = {"gaps": {str(m): c.gap for m, c, _ in results},
            "bounds": {str(m): c.gap_bound for m, c, _ in results}}
    return BOUNDS_COLUMNS, records, meta, not all(ok for _, _, ok in results)


_TABLES = {"sweep-receiver": _sweep_table, "sweep-transceiver": _sweep_table,
           "sweep-grid": _sweep_table, "dof": _dof_table, "bounds": _bounds_table}


def run(command: str, rc: RunConfig) -> int:
    """Execute one subcommand: settings resolved and sized once, before any output, then its
    ``_TABLES`` body, whose table is written once, to ``out`` when set. Exit 1 if either failed."""
    resolved = rc.resolved_dict(command)
    if command.startswith("sweep-") and rc.out is None:
        raise ConfigError(f"{command} requires --out (or out = ... in the config file)")
    print(f"# capmimo {__version__} :: {command}")
    for key, value in sorted(resolved.items()):
        print(f"{key} = {value}")
    columns, records, meta, failed = _TABLES[command](command, rc, resolved)
    written = rc.out is None or _write_outputs(command, resolved, columns, records, meta)
    return 0 if written and not failed else 1


def main(argv: list[str] | None = None) -> int:
    try:
        command, rc = parse_config(argv)
        return run(command, rc)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
