"""The three benchmark workloads: inputs from a seed, and checks of their outputs.

Seed 0 reproduces the README defaults exactly. Other seeds move every
distance, or every SNR level, a little way off its default; they change
the inputs but not the amount of work. The spread is kept narrow on
purpose: the accuracy metrics depend on the geometry, and across the
decade-wide ranges a seed could draw they vary by far more than the
benchmark's bounds (``ref_abs_err_nats`` on ``array-grid`` changes
fifteen-fold between d = 2 m and d = 20 m).

Each workload returns a ``Check`` per run: how many cells or calls it
attempted, which failed, whether a correctness gate failed, and the
accuracy of the program's values against the converged reference.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from reference import Geometry

WAVELENGTH = 0.04
APERTURE = 2.0
REF_M = 1600
# the CLI's default power and noise densities
POWER, NOISE = 1.0, 2.0
RECEIVER_DISTANCES = (10.0, 1.0, 0.1)
RECEIVER_M = (5, 10, 20, 40, 80, 100, 160)
GRID_DISTANCE = 10.0
GRID_M = (100, 200, 400, 800, 1200)
# power-ladder: P = 1 with n0 = 2, 0.2, 0.02 at seed 0 (P/n0 = -3, 7, 17 dB)
POWER_SNR_DB = (10.0 * math.log10(0.5), 10.0 * math.log10(5.0), 10.0 * math.log10(50.0))
POWER_M_RX = (40, 100)
POWER_M_TRX = (100, 100)
# seeds other than 0 move each distance by up to this share, each SNR level
# by up to this many dB, and the power density by up to this factor
DISTANCE_JITTER = 0.01
SNR_JITTER_DB = 0.5
POWER_SPREAD = 2.0

CSV_COLUMNS = ["scenario", "d_m", "m1", "m2", "ref_m", "mi_nats", "mi_bits",
               "mi_ref_nats", "abs_gap", "n_used", "model_tag", "wall_time_s"]
# a program value further than this from the converged one is wrong, not inaccurate
WRONG_REL = 1e-3
# error metrics are reported as error + floor: once the program is converged
# its errors reach roundoff, where they vary more from seed to seed than any
# bound allows; the floors sit far below today's errors
FLOOR = {"ref_abs_err_nats": 1e-9, "mi_rel_err": 1e-8, "gap_rel_err": 1e-8}


def _jitter(rng: random.Random, value: float, share: float) -> float:
    return round(value * (1.0 + share * (2.0 * rng.random() - 1.0)), 9)


@dataclass
class Check:
    """Outcome of checking one workload run."""

    attempted: int
    failed: int = 0
    gates: list[str] = field(default_factory=list)
    # digest of the output file, compared across runs of one seed
    digest: str = ""
    errors: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.gates.append(message)


def _rel(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


class _Errors:
    """Worst errors of a run against the converged values."""

    def __init__(self):
        self.ref_abs = 0.0
        self.mi_rel = 0.0
        self.gap_rel = 0.0

    def add(self, check: Check, label: str, ref: float, ref_exact: float,
            value: float, exact: float, gap: float) -> None:
        self.ref_abs = max(self.ref_abs, abs(ref - ref_exact))
        self.mi_rel = max(self.mi_rel, _rel(value, exact))
        self.gap_rel = max(self.gap_rel, _rel(gap, abs(exact - ref_exact)))
        for what, got, want in (("reference", ref, ref_exact), ("value", value, exact)):
            if not (math.isfinite(got) and _rel(got, want) <= WRONG_REL):
                check.fail(f"{label}: {what} {got!r} is not within {WRONG_REL} of {want!r}")

    def store(self, check: Check) -> None:
        check.errors = {"ref_abs_err_nats": self.ref_abs + FLOOR["ref_abs_err_nats"],
                        "mi_rel_err": self.mi_rel + FLOOR["mi_rel_err"],
                        "gap_rel_err": self.gap_rel + FLOOR["gap_rel_err"]}


class CliWorkload:
    """A capmimo sweep run through its CLI; output is a CSV plus a .meta sidecar."""

    def argv(self, out: Path) -> list[str]:
        return [self.command, *self.flags, "--out", str(out)]

    def output_name(self) -> str:
        return "sweep.csv"

    def _read(self, out: Path, check: Check) -> list[dict]:
        try:
            with out.open(newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                rows = list(reader)
                header = reader.fieldnames
        except OSError as exc:
            check.fail(f"cannot read {out.name}: {exc}")
            return []
        if header != CSV_COLUMNS:
            check.fail(f"CSV header {header} is not the fixed column set")
            return []
        return rows

    def check(self, out: Path, status: int, exact: dict) -> Check:
        check = Check(attempted=len(self.cells()))
        if status != 0:
            check.fail(f"capmimo exited with status {status}")
        rows = self._read(out, check)
        meta = self._meta(out, check)
        seen = {}
        errors = _Errors()
        ref_errors = {}
        for row in rows:
            try:
                key = (float(row["d_m"]), int(row["m1"]) if row["m1"] else None, int(row["m2"]))
            except ValueError:
                check.fail(f"unparsable row {row}")
                continue
            seen[key] = row
            if row["model_tag"].startswith("error"):
                check.failed += 1
                continue
            try:
                mi, ref, gap = (float(row[c]) for c in ("mi_nats", "mi_ref_nats", "abs_gap"))
                bits, ref_m = float(row["mi_bits"]), int(row["ref_m"])
            except ValueError:
                check.fail(f"non-numeric values in row {key}")
                continue
            if ref_m != REF_M:
                check.fail(f"row {key} used ref_m {ref_m}, expected {REF_M}")
            if gap != abs(mi - ref) or bits != mi / math.log(2.0):
                check.fail(f"row {key}: abs_gap or mi_bits disagrees with mi_nats")
            if key not in exact:
                continue  # reported below as a cell the sweep did not ask for
            ref_exact, exact_value = exact[key]
            ref_errors[key[0]] = abs(ref - ref_exact)
            errors.add(check, f"row {key}", ref, ref_exact, mi, exact_value, gap)
        missing = set(self.cells()) - set(seen)
        extra = set(seen) - set(self.cells())
        if missing or extra:
            check.fail(f"CSV cells differ from the sweep: missing {sorted(missing, key=str)}, "
                       f"extra {sorted(extra, key=str)}")
            check.failed += len(missing)
        if meta is not None and meta.get("rows") != len(rows):
            check.fail(f".meta reports {meta.get('rows')} rows, the CSV has {len(rows)}")
        self.check_meta(meta, seen, check)
        check.notes["ref_abs_err_nats by distance"] = ref_errors
        errors.store(check)
        return check

    def _meta(self, out: Path, check: Check) -> dict | None:
        try:
            return json.loads(out.with_suffix(".meta").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            check.fail(f"no readable .meta sidecar: {exc}")
            return None

    def check_meta(self, meta: dict | None, rows: dict, check: Check) -> None:
        pass


class ReceiverLadder(CliWorkload):
    """``capmimo sweep-receiver``: 3 distances x 7 receive-antenna counts."""

    name = "receiver-ladder"
    command = "sweep-receiver"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.distances = (RECEIVER_DISTANCES if seed == 0 else
                          tuple(_jitter(rng, d, DISTANCE_JITTER) for d in RECEIVER_DISTANCES))
        self.flags = ["--distances", ",".join(repr(d) for d in self.distances),
                      "--m-list", ",".join(map(str, RECEIVER_M)), "--ref-m", str(REF_M)]

    def cells(self) -> list[tuple]:
        return [(d, None, m) for d in self.distances for m in RECEIVER_M]

    def converged(self) -> dict:
        exact = {}
        for d in self.distances:
            geo = Geometry(WAVELENGTH, APERTURE, d)
            ref = geo.mi_continuous(POWER, NOISE)
            for m in RECEIVER_M:
                exact[(d, None, m)] = (ref, geo.mi_discrete_rx(m, POWER, NOISE))
        return exact


class ArrayGrid(CliWorkload):
    """``capmimo sweep-grid``: 5 x 5 transmit/receive antenna counts at one distance."""

    name = "array-grid"
    command = "sweep-grid"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.distance = GRID_DISTANCE if seed == 0 else _jitter(rng, GRID_DISTANCE, DISTANCE_JITTER)
        m_list = ",".join(map(str, GRID_M))
        self.flags = ["--distance", repr(self.distance), "--m1-list", m_list, "--m2-list", m_list]

    def cells(self) -> list[tuple]:
        return [(self.distance, m1, m2) for m1 in GRID_M for m2 in GRID_M]

    def converged(self) -> dict:
        geo = Geometry(WAVELENGTH, APERTURE, self.distance)
        ref = geo.mi_continuous(POWER, NOISE)
        # G is even in the offset, so the (m2, m1) channel is the transpose of
        # the (m1, m2) one: same singular values, same noise rescaling
        exact = {}
        for m1, m2 in sorted({tuple(sorted(c[1:])) for c in self.cells()}):
            exact[(m1, m2)] = exact[(m2, m1)] = geo.mi_discrete_trx(m1, m2, POWER, NOISE)
        return {(d, m1, m2): (ref, exact[(m1, m2)]) for d, m1, m2 in self.cells()}

    def check_meta(self, meta: dict | None, rows: dict, check: Check) -> None:
        # the sidecar's symmetry_gap must be max |I(a, b) - I(b, a)| over the CSV
        values = {(m1, m2): float(r["mi_nats"]) for (_, m1, m2), r in rows.items()
                  if r["mi_nats"]}
        recomputed = max((abs(v - values[(b, a)]) for (a, b), v in values.items()
                          if (b, a) in values), default=0.0)
        got = None if meta is None else meta.get("symmetry_gap")
        if not isinstance(got, float) or got != recomputed:
            check.fail(f".meta symmetry_gap {got!r} is not the CSV's {recomputed!r}")
        check.notes["symmetry_gap"] = recomputed


class PowerLadder:
    """Library calls at the default geometry along one capacity-vs-SNR curve."""

    name = "power-ladder"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        if seed == 0:
            self.pairs = [(1.0, 2.0), (1.0, 0.2), (1.0, 0.02)]
        else:
            self.pairs = []
            for snr_db in POWER_SNR_DB:
                power = round(POWER_SPREAD ** (2.0 * rng.random() - 1.0), 9)
                snr = 10.0 ** ((snr_db + SNR_JITTER_DB * (2.0 * rng.random() - 1.0)) / 10.0)
                self.pairs.append((power, round(power / snr, 12)))

    def spec(self) -> dict:
        return {"pairs": self.pairs, "m_rx": list(POWER_M_RX), "m_trx": list(POWER_M_TRX)}

    def output_name(self) -> str:
        return "curve.json"

    def calls(self) -> list[tuple]:
        sizes = [("discrete_rx", (m,)) for m in POWER_M_RX] + [("discrete_trx", POWER_M_TRX)]
        return [(p, n, "continuous", None) for p, n in self.pairs] + [
            (p, n, model, size) for p, n in self.pairs for model, size in sizes]

    def converged(self) -> dict:
        geo = Geometry(WAVELENGTH, APERTURE, GRID_DISTANCE)
        exact = {}
        for p, n in self.pairs:
            exact[(p, n, "continuous", None)] = geo.mi_continuous(p, n)
            for m in POWER_M_RX:
                exact[(p, n, "discrete_rx", (m,))] = geo.mi_discrete_rx(m, p, n)
            exact[(p, n, "discrete_trx", POWER_M_TRX)] = geo.mi_discrete_trx(*POWER_M_TRX, p, n)
        return exact

    def check(self, out: Path, status: int, exact: dict) -> Check:
        check = Check(attempted=len(self.calls()))
        if status != 0:
            check.fail(f"workload process exited with status {status}")
        try:
            records = json.loads(out.read_text(encoding="utf-8"))["calls"]
        except (OSError, ValueError, KeyError) as exc:
            check.fail(f"no readable result: {exc}")
            return check
        values = {}
        for rec in records:
            size = None if rec["size"] is None else tuple(rec["size"])
            key = (rec["power"], rec["noise"], rec["model"], size)
            if "error" in rec or not isinstance(rec.get("mi_nats"), float):
                check.failed += 1
                continue
            values[key] = rec["mi_nats"]
        if len(records) != check.attempted or not set(values) <= set(exact):
            check.fail("result calls differ from the ones asked for")
        errors = _Errors()
        for p, n in self.pairs:
            cont_key = (p, n, "continuous", None)
            for key in exact:
                if key[:2] != (p, n) or key == cont_key:
                    continue
                if key in values and cont_key in values:
                    errors.add(check, str(key), values[cont_key], exact[cont_key],
                               values[key], exact[key], abs(values[key] - values[cont_key]))
        # MI must not decrease as P/n0 grows, for every model
        by_snr = sorted(self.pairs, key=lambda pn: pn[0] / pn[1])
        for model, size in {(k[2], k[3]) for k in exact}:
            curve = [values.get((p, n, model, size)) for p, n in by_snr]
            if None not in curve and any(b < a for a, b in zip(curve, curve[1:])):
                check.fail(f"{model} {size}: MI decreases with SNR: {curve}")
        errors.store(check)
        return check


WORKLOADS = {w.name: w for w in (ReceiverLadder, ArrayGrid, PowerLadder)}
