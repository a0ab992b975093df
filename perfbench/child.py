"""One workload process: the capmimo CLI or the power-ladder library calls.

    python3 child.py [--trace SPANS.json] cli <capmimo arguments...>
    python3 child.py [--trace SPANS.json] power-ladder SPEC.json OUT.json

With ``--trace`` the span recorder is installed before anything runs and
the per-layer metrics are written to SPANS.json when the workload ends.
``capmimo`` must be importable (run.py puts the checkout's ``src`` on
PYTHONPATH).
"""

from __future__ import annotations

import json
import math
import sys


def power_ladder(capmimo, spec: dict) -> dict:
    """One capacity-vs-SNR curve: each (P, n0) pair runs the four models.

    A call that raises is recorded with its error and the curve goes on,
    so one failure does not hide the others.
    """
    calls = []
    for power, noise in spec["pairs"]:
        cfg = capmimo.SystemConfig(power_density=power, noise_density=noise)
        jobs = [("continuous", None, lambda: capmimo.mi_continuous(cfg))]
        for m in spec["m_rx"]:
            jobs.append(("discrete_rx", [m], lambda m=m: capmimo.mi_discrete_rx(m, cfg)))
        m1, m2 = spec["m_trx"]
        jobs.append(("discrete_trx", [m1, m2], lambda: capmimo.mi_discrete_trx(m1, m2, cfg)))
        for model, size, job in jobs:
            record = {"power": power, "noise": noise, "model": model, "size": size}
            try:
                value = job().value_nats
            except Exception as exc:  # recorded per call, counted as failed by run.py
                record["error"] = f"{type(exc).__name__}: {exc}"
            else:
                record["mi_nats"] = value if math.isfinite(value) else repr(value)
            calls.append(record)
    return {"calls": calls}


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace"]:
        trace_out, argv = argv[1], argv[2:]
    import capmimo
    import capmimo.cli

    recorder = None
    if trace_out is not None:
        from spans import Recorder

        recorder = Recorder()
        recorder.install(capmimo)
    try:
        if argv[0] == "cli":
            status = capmimo.cli.main(argv[1:])
        elif argv[0] == "power-ladder":
            with open(argv[1], encoding="utf-8") as fh:
                spec = json.load(fh)
            result = power_ladder(capmimo, spec)
            with open(argv[2], "w", encoding="utf-8") as fh:
                json.dump(result, fh, indent=1, sort_keys=True)
                fh.write("\n")
            status = 0
        else:
            print(f"unknown mode {argv[0]!r}", file=sys.stderr)
            return 2
    finally:
        if recorder is not None:
            with open(trace_out, "w", encoding="utf-8") as fh:
                json.dump({"metrics": recorder.metrics(capmimo),
                           "absent": sorted(set(recorder.absent))}, fh, indent=1, sort_keys=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
