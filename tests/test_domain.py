"""A seeded sweep of the accepted input domain.

Each draw is a geometry (wavelength, aperture and distance log-uniform
over 1e-6 to 1e6 m, one in eight over the whole float range), a power and
a noise density (log-uniform over the whole float range, now and then
zero, a bool or a negative), and the counts of the three models, each an
int, a numpy int, a float, a bool, zero or a negative (log-uniform up to
about 3000 antennas or nodes). It passes through ``SystemConfig``,
``models.model_sides`` and the three models, and has exactly one outcome:

* a one-line ValueError, the same from the sizing rule (``SystemConfig``,
  the model's count checks and ``model_sides``) as from the call, so the
  call refused before it allocated anything the sizing had not charged;
* a solve too large for this test: its largest listed phase, of the
  plan ``model_sides`` charges or of the rule of the unit-power trace
  (which ``model_sides`` does not size), is above BUDGET, so it is sized
  and not solved (decided by the listed bytes, never by the draw);
* a finite value that keeps the invariants that hold by construction:
  no count is a bool; MI >= 0, and 0 at P = 0; nondecreasing in P / n0 (P doubled, n0
  halved); ``mi_discrete_trx(a, b) == mi_discrete_trx(b, a)``; and
  unchanged at roundoff under (P, n0) -> (alpha P, alpha n0).

Every warning is an error, so a draw that overflows or divides by zero
anywhere fails. The 1000 draws run in about 1.5 s on 2 vCPUs.
"""

import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

from capmimo import SystemConfig, mi_continuous, mi_discrete_rx, mi_discrete_trx, models, physics
from capmimo.models import MODEL_CONTINUOUS, MODEL_DISCRETE_RX, MODEL_DISCRETE_TRX

SEED = 1
DRAWS = 1000

# the most bytes a solved draw's largest phase may list: about those of a
# 960 x 960 antenna channel's spectrum (B+ with the full SVD's copy), or of
# a 104,857-node trace rule
BUDGET = 2**23

# alpha is a power of two, so (alpha P, alpha n0) gives (P, n0)'s value
# bitwise unless P, alpha P or P times an eigenvalue is subnormal; it may then
# differ by this much relative, or absolutely by 2 / n0 times the smallest
# subnormal, 1e-15 nats at the largest 2 / n0 (up to 1e-55 nats seen)
SCALE_RTOL, SCALE_ATOL = 1e-13, 1e-15


def _length(rng: random.Random) -> float:
    low, high = (-320, 308) if rng.random() < 0.125 else (-6, 6)
    return 10.0 ** rng.uniform(low, high)


def _density(rng: random.Random, zero: float):
    """Zero, a bool or a negative now and then, else log-uniform over the float range."""
    kind = rng.random()
    if kind < zero:
        return 0.0
    if kind < zero + 0.05:
        return rng.choice((True, np.True_, False))
    value = 10.0 ** rng.uniform(-320, 308)
    return -value if kind < zero + 0.1 else value


def _count(rng: random.Random, decades: float):
    value = round(10.0 ** rng.uniform(0.0, decades))
    kind = rng.choices(("int", "numpy", "float", "bool", "zero", "negative"),
                       weights=(8, 3, 1, 1, 1, 1))[0]
    return {"int": value, "numpy": np.int64(value), "float": value + rng.choice((0.0, 0.5)),
            "bool": rng.choice((True, np.True_)), "zero": 0, "negative": -value}[kind]


def _listed(phase) -> int:
    return sum(math.prod(shape) * np.dtype(dtype).itemsize for _, shape, dtype in phase)


def _size(plans, cfg, tag, counts, ref_m=None, inner_points=None) -> int:
    """The largest phase a model call lists: its plan's, as ``model_sides`` makes and charges
    it after the call's own count checks, or its trace rule's; or the sizing's ValueError."""
    m1 = m2 = None
    if tag == MODEL_DISCRETE_RX:
        m2 = physics.as_count("m", counts[0], 1)
        inner_points = physics.resolve_inner_points(cfg, inner_points)
    elif tag == MODEL_DISCRETE_TRX:
        m1, m2 = physics.as_count("m1", counts[0], 1), physics.as_count("m2", counts[1], 1)
    plans.clear()
    models.model_sides(cfg, tag, m1, m2, ref_m, inner_points)
    trace = physics.rule_arrays(cfg.default_inner_points())
    return max(_listed(trace), *map(_listed, plans[0].phases()))


def _outcome(plans, cfg, tag, call, counts, **sides):
    """None when refused, "sized" when above BUDGET, else ``call``'s MiResult."""
    try:
        listed = _size(plans, cfg, tag, counts, **sides)
    except ValueError as refused:
        message = str(refused)
        assert message and "\n" not in message, message
        with pytest.raises(ValueError) as raised:
            call(cfg)
        assert str(raised.value) == message
        return None
    return "sized" if listed > BUDGET else call(cfg)


def _variants(cfg: SystemConfig, alpha: float) -> list:
    """Configs of cfg with P doubled, n0 halved, and both times alpha, where accepted."""
    out = []
    for power, noise in ((2.0, 1.0), (1.0, 0.5), (alpha, alpha)):
        try:
            out.append(dataclasses.replace(cfg, power_density=cfg.power_density * power,
                                           noise_density=cfg.noise_density * noise))
        except ValueError as refused:
            assert "\n" not in str(refused)
            out.append(None)
    return out


def _check_invariants(cfg: SystemConfig, result, call, alpha: float) -> None:
    value = result.value_nats
    assert math.isfinite(value) and value >= 0.0, value
    if cfg.power_density == 0.0:
        assert value == 0.0, value
    more_power, less_noise, scaled = _variants(cfg, alpha)
    for higher in (more_power, less_noise):
        if higher is not None:
            assert call(higher).value_nats >= value
    if scaled is not None:
        assert call(scaled).value_nats == pytest.approx(value, rel=SCALE_RTOL, abs=SCALE_ATOL)


def test_seeded_input_domain(monkeypatch):
    rng = random.Random(SEED)
    plans, plan = [], models.solve_plan
    monkeypatch.setattr(models, "solve_plan", lambda *args: plans.append(plan(*args)) or plans[-1])
    outcomes = {"refused": 0, "sized": 0, "solved": 0}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(DRAWS):
            lam, l, d = _length(rng), _length(rng), _length(rng)
            power, noise = _density(rng, 0.15), _density(rng, 0.02)
            ref_m = None if rng.random() < 0.3 else _count(rng, 3.5)
            m, m1, m2 = _count(rng, 3.5), _count(rng, 3.5), _count(rng, 3.5)
            inner_points = None if rng.random() < 0.7 else _count(rng, 3.5)
            alpha = 2.0 ** rng.randint(-60, 60)
            try:
                cfg = SystemConfig(wavelength_m=lam, aperture_m=l, distance_m=d,
                                   power_density=power, noise_density=noise)
            except ValueError as refused:
                assert "\n" not in str(refused)
                outcomes["refused"] += 1
                continue
            models_of_draw = [
                (MODEL_CONTINUOUS, lambda c: mi_continuous(c, ref_m), (), dict(ref_m=ref_m)),
                (MODEL_DISCRETE_RX, lambda c: mi_discrete_rx(m, c, inner_points), (m,),
                 dict(inner_points=inner_points)),
                (MODEL_DISCRETE_TRX, lambda c: mi_discrete_trx(m1, m2, c), (m1, m2), {}),
            ]
            for tag, call, counts, sides in models_of_draw:
                result = _outcome(plans, cfg, tag, call, counts, **sides)
                if result is None or result == "sized":
                    outcomes["refused" if result is None else "sized"] += 1
                    continue
                outcomes["solved"] += 1
                assert not any(isinstance(count, (bool, np.bool_))
                               for count in (*counts, *sides.values())), (counts, sides)
                _check_invariants(cfg, result, call, alpha)
                if tag == MODEL_DISCRETE_TRX:
                    assert mi_discrete_trx(m2, m1, cfg) == result
    # the draw reaches every outcome, each often
    assert min(outcomes.values()) >= 100, outcomes
