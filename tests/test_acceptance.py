"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here exactly as stated; nothing is deferred
to later calibration.

Criterion 1 (the alpha = 0 Monsky fiber tending to 3.5) is implemented
faithfully and is expected to FAIL: over GF(4) the alpha = 0 quartic
factors into four distinct planes,

    z * (z+x+y) * (z + w*x + w^2*y) * (z + w^2*x + w*y),   w^2 + w + 1 = 0,

so its Hilbert-Kunz multiplicity is 4 (one per plane), and the computed
lengths fit 4q^2 - 6q + 4 exactly for q = 2..128.  Two independent
computations (Buchberger/staircase and a brute-force multiplication-rank
oracle) agree on every sample.  See the decisions ledger for the full
analysis.
"""

import time
from fractions import Fraction

import pytest

from hklab import (
    FiberSpec,
    IdealPresentation,
    PolynomialRing,
    PrimeField,
    QuotientRingSpec,
    buchberger,
    hk_estimate,
    hk_function,
    hk_sweep,
    hs_function,
    hs_multiplicity,
    make_extension,
    modp_sweep,
    rsig_search,
    specialize_fiber,
    trace_discriminant,
)

from .oracles import macaulay_colength, poly_dict, random_zero_dim_ideals

FIBERS = [FiberSpec.generic(), FiberSpec.special(t=0), FiberSpec.special(t=1)]


def report(number: int, passed: bool, detail: str):
    print(f"CRITERION {number:>2}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def monsky_fiber_samples(monsky_family):
    """Samples for the three Monsky fibers: specials to e = 5, generic to e = 4.
    Values come with the wall-clock seconds each fiber took, so the
    runtime budgets are checked against the real computation."""
    out = {}
    for fiber, e_max in ((FiberSpec.special(t=0), 5), (FiberSpec.special(t=1), 5),
                         (FiberSpec.generic(), 4)):
        R, I = specialize_fiber(monsky_family, fiber)
        started = time.time()
        samples = hk_function(R, I, e_max)
        out[fiber.label] = (samples, time.time() - started)
    return out


@pytest.fixture(scope="module")
def monsky_sweep_e4(monsky_family):
    return hk_sweep(monsky_family, FIBERS, e_max=4)


def test_criterion_01_monsky_alpha_0(monsky_fiber_samples):
    samples, elapsed = monsky_fiber_samples["t=0"]
    value = samples[-1].normalized
    deviation = abs(value - Fraction(7, 2))
    assert elapsed <= 300
    report(
        1,
        deviation <= Fraction(1, 10),
        f"alpha=0 normalized(5) = {float(value):.6f} (exact {value}), "
        f"|value - 3.5| = {float(deviation):.6f} vs tolerance 0.1, {elapsed:.1f}s "
        "[the computed family tends to 4: the alpha=0 quartic splits into "
        "four planes over GF(4); see decisions ledger]",
    )


def test_criterion_02_monsky_alpha_1(monsky_fiber_samples):
    samples, _ = monsky_fiber_samples["t=1"]
    value = samples[-1].normalized
    target = Fraction(49, 16)  # 3 + 4^-2 with lambda in GF(4)
    deviation = abs(value - target)
    report(
        2,
        deviation <= Fraction(1, 10),
        f"alpha=1 normalized(5) = {float(value):.6f}, target 3.0625, "
        f"deviation {float(deviation):.6f} <= 0.1",
    )


def test_criterion_03_monsky_generic(monsky_fiber_samples):
    samples, elapsed = monsky_fiber_samples["generic"]
    devs = {s.e: abs(s.normalized - 3) for s in samples}
    strictly_decreasing = devs[2] > devs[3] > devs[4]
    final_ok = devs[4] <= Fraction(1, 4)
    assert elapsed <= 600
    report(
        3,
        strictly_decreasing and final_ok,
        f"generic deviations e=2..4: {[float(devs[e]) for e in (2, 3, 4)]} "
        f"strictly decreasing = {strictly_decreasing}, "
        f"|normalized(4) - 3| = {float(devs[4]):.6f} <= 0.25, {elapsed:.1f}s",
    )


def test_criterion_04_term_semicontinuity(monsky_sweep_e4):
    verdict = monsky_sweep_e4.verdicts["term_semicontinuity"]
    lengths = {r.label: [s.length for s in r.samples] for r in monsky_sweep_e4.rows}
    report(
        4,
        verdict.passed,
        f"generic lengths {lengths['generic']} <= min(specials) "
        f"{[min(a, b) for a, b in zip(lengths['t=0'], lengths['t=1'])]} for e <= 4",
    )


def test_criterion_05_hk_monotonicity(monsky_sweep_e4):
    verdict = monsky_sweep_e4.verdicts["hk_monotonicity"]
    estimates = {
        r.label: float(r.estimate.value) for r in monsky_sweep_e4.rows
    }
    report(
        5,
        verdict.passed,
        f"estimates {estimates}: generic <= special + combined error bounds",
    )


def test_criterion_06_exact_baselines():
    ok = True
    details = []
    for p in (2, 3, 5):
        ring = PolynomialRing(PrimeField(p), ("x", "y", "z"))
        R = QuotientRingSpec(ring)
        m = IdealPresentation(ring, ring.gens())
        samples = hk_function(R, m, 3)
        exact = all(s.length == s.q**3 for s in samples)
        ok = ok and exact
        details.append(f"p={p}: lengths {[s.length for s in samples]} == q^3 {exact}")
    ring3 = PolynomialRing(PrimeField(3), ("x", "y"))
    x, y = ring3.gens()
    samples = hk_function(QuotientRingSpec(ring3), IdealPresentation(ring3, (x**2, y**3)), 3)
    exact = all(s.length == 6 * s.q**2 for s in samples)
    ok = ok and exact
    details.append(f"F_3 (x^2,y^3): lengths {[s.length for s in samples]} == 6q^2 {exact}")
    report(6, ok, "; ".join(details))


def test_criterion_07_hilbert_samuel(monsky_family):
    R, I = specialize_fiber(monsky_family, FiberSpec.special(t=0))
    est = hs_multiplicity(hs_function(R, I, 6), R.dimension)
    ring = PolynomialRing(PrimeField(5), ("x", "y"))
    x, y = ring.gens()
    est_reg = hs_multiplicity(
        hs_function(QuotientRingSpec(ring), IdealPresentation(ring, (x, y)), 5), 2
    )
    report(
        7,
        est.multiplicity == 4 and est_reg.multiplicity == 1,
        f"Monsky fiber e(m) = {est.multiplicity} (target 4), "
        f"regular e((x,y)) = {est_reg.multiplicity} (target 1)",
    )


def test_criterion_08_rsig_regular():
    ring = PolynomialRing(PrimeField(2), ("x", "y"))
    x, y = ring.gens()
    result = rsig_search(QuotientRingSpec(ring), IdealPresentation(ring, (x, y)), e_max=2)
    report(
        8,
        result.minimum == 1,
        f"rsig(F_2[x,y], sop (x,y)) = {result.minimum} exactly (e_HK(m) = 1, "
        "e_HK(unit) = 0)",
    )


def test_criterion_09_discriminants():
    ring5 = PolynomialRing(PrimeField(5), ("x",))
    x5 = ring5.var("x")
    d5 = trace_discriminant(buchberger(IdealPresentation(ring5, (x5**2 - 1,))))
    ring2 = PolynomialRing(PrimeField(2), ("x",))
    x2 = ring2.var("x")
    char2_zero = all(
        trace_discriminant(buchberger(IdealPresentation(ring2, (x2**2 - a,)))) == 0
        for a in (ring2.domain(0), ring2.domain(1))
    )
    gf4 = make_extension(2, 2)
    ring4 = PolynomialRing(gf4, ("x",))
    x4 = ring4.var("x")
    s = gf4.element((0, 1))
    char2_zero = char2_zero and trace_discriminant(
        buchberger(IdealPresentation(ring4, (x4**2 - s,)))
    ) == gf4(0)
    report(
        9,
        d5 == ring5.domain(4) and char2_zero,
        f"disc(F_5[x]/(x^2-1)) = {d5} (target 4); char-2 x^2 - a presentations "
        f"all zero = {char2_zero}",
    )


def test_criterion_10_oracle_equivalence():
    started = time.time()
    agree = 0
    total = 0
    for field, ring, ideal, gb in random_zero_dim_ideals(20240810, 20):
        bounds = gb.staircase_bounds()
        gens_raw = [poly_dict(ring, g) for g in ideal.generators]
        mac = macaulay_colength(field, ring.nvars, gens_raw, bounds)
        total += 1
        if mac == gb.colength():
            agree += 1
    elapsed = time.time() - started
    report(
        10,
        agree == total and total >= 20 and elapsed <= 120,
        f"Macaulay oracle agreement {agree}/{total} (seed 20240810), "
        f"{elapsed:.1f}s <= 120s",
    )


def test_criterion_11_modp_sweep(monsky_z_family):
    result = modp_sweep(monsky_z_family, [3, 5, 7], e_max=2, assume_reduced=True)
    bound = result.overall_bound
    table_ok = len(result.rows) == 3 and all(len(r.samples) == 2 for r in result.rows)
    below = all(r.p_deltas[0] <= bound for r in result.rows)
    report(
        11,
        table_ok and bound is not None and below,
        f"mod-p table produced for p in (3,5,7), e in (1,2); common printed "
        f"bound max_p p*|n(p,2)-n(p,1)| = {float(bound):.6f}",
    )
