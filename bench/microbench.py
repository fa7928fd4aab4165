"""Untraced micro-benchmarks of one coefficient multiplication per field kind.

Operands come from the workload seed: F_2(t) elements whose numerator
and denominator have t-degree 128, GF(16) elements, and F_5 elements.
Each figure is the median over repetitions of the mean time of one
raw-level `field.mul` call, in microseconds.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 15


def _fields():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from hklab.coeff import PrimeField, RationalFunctionField, make_extension

    return RationalFunctionField(PrimeField(2)), make_extension(2, 4), PrimeField(5)


def _fpt_operand(F, rng):
    num = rng.getrandbits(128) | 1 << 128
    den = rng.getrandbits(128) | 1 << 128
    return F.mul((num, 1), F.inv((den, 1)))


def _time_per_call(mul, pairs) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for a, b in pairs:
            mul(a, b)
        times.append((time.perf_counter() - t0) / len(pairs))
    return statistics.median(times) * 1e6


def coeff_mul_us(seed: int) -> dict:
    rng = random.Random(seed)
    fpt, gf, fp = _fields()
    operands = {
        "fpt": (fpt, lambda: _fpt_operand(fpt, rng), 100),
        "gf": (gf, lambda: tuple(rng.randrange(2) for _ in range(4)), 5000),
        "fp": (fp, lambda: rng.randrange(5), 50000),
    }
    out = {}
    for kind, (field, draw, count) in operands.items():
        pairs = [(draw(), draw()) for _ in range(count)]
        out[f"coeff.{kind}.mul_us"] = _time_per_call(field.mul, pairs)
    return out
