"""Parametric families of ideals over F_p[t_1..t_k] or Z, their fibers,
and the sweep drivers that exercise the semicontinuity, monotonicity,
uniform-bound, and reduction-mod-p statements on sampled fibers.

A family keeps its generators as the strings it was given, checked by
parsing them as polynomials in ambient + parameter variables over F_p,
or over Z for the integer base.  A fiber reads the same strings in its
own ring: at a parameter assignment (special fiber) each parameter reads
as its value, at the generic fiber (one parameter) as the transcendental
of F_p(t), and at a prime p (fiber of the Z-family) the integers read
mod p.  Evaluation at a point is a ring map, so reading the strings
there gives the family's polynomials evaluated at the point.

Verdicts are pure functions of the computed row tables, so a saved table
reproduces its verdict; sampled fibers give evidence for the statements,
never proofs, and every FAIL names its witnessing (fiber, e) pair.

The affine-family axioms themselves (equidimensionality conditions) are
not machine-checked; the computable proxies are finite colength and
primality to the origin per fiber, plus a warning when fiber dimensions
disagree.  Probes that lean on the uniform-convergence theorem require
`assume_reduced=True`, acknowledging the reduced-fibers hypothesis that
the code does not verify.  Results are immutable NamedTuples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .coeff import (
    MAX_CHARACTERISTIC,
    FieldElement,
    PrimeField,
    RationalFunctionField,
    is_prime,
)
from .errors import StructuralError, ValidationError
from .multiplicity import (
    HKEstimate,
    QuotientRingSpec,
    hk_estimate,
    hk_function,
    hs_function,
)
from .polyring import IdealPresentation, IntegerDomain, PolynomialRing


class FamilySpec:
    """A parametric defining ideal and family ideal over a base ring."""

    def __init__(self, base_kind, variables, defining, ideal, p=None, parameters=()):
        if base_kind not in ("param", "integers"):
            raise ValidationError(f"unknown family base kind {base_kind!r}")
        self.base_kind = base_kind
        self.variables = tuple(variables)
        self.parameters = tuple(parameters)
        if base_kind == "integers":
            if self.parameters:
                raise ValidationError("integer-base families take no parameters")
            self.p = None
            domain = IntegerDomain()
        else:
            if p is None:
                raise ValidationError("parameter-base families need a characteristic p")
            self.p = p
            domain = PrimeField(p)
        overlap = set(self.variables) & set(self.parameters)
        if overlap:
            raise ValidationError(f"parameters and variables overlap: {sorted(overlap)}")
        # the parse ring: ambient variables first, then parameters
        ring = PolynomialRing(domain, self.variables + self.parameters)
        self.defining_texts, self.defining = _parse_all(ring, defining, "defining")
        self.ideal_texts, self.ideal = _parse_all(ring, ideal, "ideal")
        if not self.ideal:
            raise ValidationError("family ideal needs at least one generator")
        for g in self.defining + self.ideal:
            if g.is_zero():
                raise ValidationError("zero generator in family")

    def __repr__(self):
        base = "ZZ" if self.base_kind == "integers" else f"GF({self.p})[{','.join(self.parameters)}]"
        return f"FamilySpec({base} -> vars {self.variables})"


def _parse_all(ring, gens, what):
    """(the generator strings, their polynomials in `ring`); each fiber
    parses the same strings again in its own ring."""
    texts = tuple(gens)
    for g in texts:
        if not isinstance(g, str):
            raise ValidationError(f"family {what!r} needs strings, got {g!r}")
    return texts, tuple(ring.parse(g) for g in texts)


class FiberSpec:
    """A point of the family base: SPECIAL values, GENERIC, or PRIME(p)."""

    def __init__(self, kind, assignments=None, prime=None):
        if kind not in ("special", "generic", "prime"):
            raise ValidationError(f"unknown fiber kind {kind!r}")
        self.kind = kind
        self.assignments = dict(assignments or {})
        self.prime = prime
        # the field of the FieldElement values; None when there are none
        fields = {v.field for v in self.assignments.values() if isinstance(v, FieldElement)}
        if len(fields) > 1:
            raise StructuralError("fiber values from different fields")
        self.field = fields.pop() if fields else None
        if kind == "prime":
            # the range first: trial division of a large number would not end
            if not (isinstance(prime, int) and 2 <= prime < MAX_CHARACTERISTIC
                    and is_prime(prime)):
                raise ValidationError(f"PRIME fiber needs a prime number below 2^31: {prime!r}")

    @classmethod
    def special(cls, **assignments) -> "FiberSpec":
        return cls("special", assignments=assignments)

    @classmethod
    def generic(cls) -> "FiberSpec":
        return cls("generic")

    @classmethod
    def at_prime(cls, p: int) -> "FiberSpec":
        return cls("prime", prime=p)

    @property
    def label(self) -> str:
        if self.kind == "generic":
            return "generic"
        if self.kind == "prime":
            return f"p={self.prime}"
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.assignments.items()))
        # values in GF(p^m), m > 1, name their field: t=s differs in GF(4) and GF(8)
        if self.field is not None and self.field.kind == "extension":
            inner += f"@{self.field!r}"
        return inner or "special"

    def __repr__(self):
        return f"FiberSpec({self.label})"


def specialize_fiber(F: FamilySpec, fiber: FiberSpec):
    """The family at a fiber's point, as (QuotientRingSpec,
    IdealPresentation) over the fiber field.

    The fiber ring parses the family's generator strings itself: over F_p
    at a prime, over F_p(t) at the generic point, where the parameter reads
    as the transcendental, and over the field of the values at a special
    point, where each parameter reads as its value.  Evaluation at a point
    is a ring map, so this is the family's polynomials taken at the point.
    Family-ideal generators that specialize to zero are dropped; a
    defining-ideal generator specializing to zero degenerates the fiber
    ring and is an error (dimension jumps would corrupt normalization).
    """
    values = None
    if F.base_kind == "integers":
        if fiber.kind != "prime":
            raise ValidationError("integer-base families only have PRIME fibers")
        target = PrimeField(fiber.prime)
    else:
        if fiber.kind == "prime":
            raise ValidationError("PRIME fibers require an integer-base family")
        if fiber.kind == "generic":
            if len(F.parameters) != 1:
                raise ValidationError(
                    "GENERIC fibers are supported for exactly one parameter"
                )
            target = RationalFunctionField(PrimeField(F.p), var=F.parameters[0])
        else:
            missing = set(F.parameters) - set(fiber.assignments)
            if missing:
                raise ValidationError(f"fiber assigns no value to {sorted(missing)}")
            extra = set(fiber.assignments) - set(F.parameters)
            if extra:
                raise ValidationError(f"fiber assigns unknown parameters {sorted(extra)}")
            target = fiber.field or PrimeField(F.p)
            if target.characteristic != F.p:
                raise ValidationError(
                    f"fiber field has characteristic {target.characteristic}, family has {F.p}"
                )
            values = {k: target(v).raw for k, v in fiber.assignments.items()}

    fiber_ring = PolynomialRing(target, F.variables)
    defining = []
    for text, g in zip(F.defining_texts, F.defining):
        s = fiber_ring.parse(text, values)
        if s.is_zero():
            raise ValidationError(
                f"degenerate fiber {fiber.label}: defining generator {g!r} specializes to zero"
            )
        defining.append(s)
    ideal_gens = [s for text in F.ideal_texts if (s := fiber_ring.parse(text, values))]
    if not ideal_gens:
        raise ValidationError(
            f"degenerate fiber {fiber.label}: every family-ideal generator specializes to zero"
        )
    return QuotientRingSpec(fiber_ring, defining), IdealPresentation(fiber_ring, ideal_gens)


class HKFiberRow(NamedTuple):
    label: str
    dimension: int
    samples: tuple  # HKSample
    estimate: HKEstimate


class HSFiberRow(NamedTuple):
    label: str
    dimension: int
    samples: tuple  # HSSample


class Verdict(NamedTuple):
    name: str
    passed: bool
    details: str
    witnesses: tuple = ()


class SweepResult(NamedTuple):
    rows: tuple  # HKFiberRow, in fiber order
    verdicts: dict
    warnings: tuple = ()
    hs_rows: tuple = ()  # HSFiberRow, when hs_lex or uniform ran
    c_hat: Fraction | None = None  # uniform-bound probe results, when uniform ran
    d_hat: Fraction | None = None

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())


def _require_one_generic(fibers):
    generics = [f for f in fibers if f.kind == "generic"]
    if len(generics) != 1:
        raise ValidationError(
            f"sweep needs exactly one GENERIC fiber, found {len(generics)}"
        )


def _require_unique_labels(fibers):
    labels = [f.label for f in fibers]
    if len(set(labels)) < len(labels):
        raise ValidationError(f"sweep fibers need distinct labels, got {labels}")


def hk_row(label: str, R: QuotientRingSpec, I: IdealPresentation, e_max: int) -> HKFiberRow:
    """Hilbert-Kunz row of a specialized fiber (R, I)."""
    samples = tuple(hk_function(R, I, e_max))
    est = hk_estimate(samples) if len(samples) >= 2 else None
    return HKFiberRow(label=label, dimension=R.dimension, samples=samples, estimate=est)


def _dimension_warnings(rows):
    dims = {row.label: row.dimension for row in rows}
    if len(set(dims.values())) > 1:
        return (f"fiber dimensions disagree: {dims}",)
    return ()


def _split_generic(rows, what: str):
    """(generic row, special rows) of a row table."""
    generic = next((r for r in rows if r.label == "generic"), None)
    if generic is None:
        raise ValidationError(f"{what} verdict needs a generic row")
    return generic, [r for r in rows if r.label != "generic"]


def _verdict(name: str, witnesses, pass_details: str, fail_prefix: str, index: str = "e"):
    """PASS with `pass_details` when there is no witness, else FAIL with
    details `fail_prefix` followed by every (fiber, index) witness."""
    listed = ", ".join(f"(fiber {l}, {index}={i})" for l, i in witnesses)
    details = fail_prefix + listed if witnesses else pass_details
    return Verdict(name=name, passed=not witnesses, details=details, witnesses=tuple(witnesses))


def verdict_term_semicontinuity(rows) -> Verdict:
    """PASS iff generic lengths are <= every special fiber's, term by term."""
    generic, specials = _split_generic(rows, "term semicontinuity")
    witnesses = [
        (row.label, gs.e)
        for row in specials
        for gs, ss in zip(generic.samples, row.samples)
        if gs.length > ss.length
    ]
    return _verdict(
        "term_semicontinuity", witnesses,
        "generic length <= special length for every sampled e",
        "generic length exceeds a special length at ",
    )


def verdict_hk_monotonicity(rows) -> Verdict:
    """PASS iff the generic estimate is <= each special estimate plus the
    combined empirical error bounds."""
    generic, specials = _split_generic(rows, "monotonicity")
    g = generic.estimate
    witnesses = [
        (row.label, row.samples[-1].e)
        for row in specials
        if g.value > row.estimate.value + g.error_bound + row.estimate.error_bound
    ]
    return _verdict(
        "hk_monotonicity", witnesses,
        "generic estimate <= special estimates within combined error bounds",
        "generic estimate exceeds special estimate + bounds at ",
    )


def verdict_hs_lex(rows) -> Verdict:
    """PASS iff the generic Hilbert-Samuel tuple is lex-<= every special one."""
    generic, specials = _split_generic(rows, "Hilbert-Samuel")
    gtuple = tuple(s.length for s in generic.samples)
    witnesses = []
    for row in specials:
        stuple = tuple(s.length for s in row.samples)
        if gtuple > stuple:  # tuple comparison is lexicographic
            # witness: first index where generic exceeds
            for i, (g, s) in enumerate(zip(gtuple, stuple)):
                if g != s:
                    witnesses.append((row.label, i + 1))
                    break
    return _verdict(
        "hs_lex_semicontinuity", witnesses,
        "generic Hilbert-Samuel tuple is lex-<= every special tuple",
        "generic Hilbert-Samuel tuple is lex-greater at ",
        index="n",
    )


def verdict_uniform_bounds(hk_rows, hs_rows):
    """Empirical probes for the uniform constants, as (verdict, C_hat, D_hat):

    C_hat = max over fibers and n of length / n^d (Hilbert-Samuel side),
    D_hat = max over fibers and e of p^e * |Delta_e| (Hilbert-Kunz side).

    PASS means both maxima exist and are finite on the sampled fibers; the
    constants themselves are existential in the underlying theory.
    """
    d_hat = Fraction(0)
    for row in hk_rows:
        d_hat = max(d_hat, row.estimate.d_hat)
    c_hat = Fraction(0)
    for row in hs_rows:
        d = row.dimension
        for s in row.samples:
            c_hat = max(c_hat, Fraction(s.length, s.n**d))
    verdict = Verdict(
        name="uniform_bounds_finite",
        passed=True,
        details=f"C_hat = {c_hat} (lengths/n^d), D_hat = {d_hat} (p^e * |Delta_e|)",
    )
    return verdict, c_hat, d_hat


HK_VERDICTS = {
    "term_semicontinuity": verdict_term_semicontinuity,
    "hk_monotonicity": verdict_hk_monotonicity,
}
HS_CHECKS = ("hs_lex", "uniform")
DEFAULT_CHECKS = ("term_semicontinuity", "hk_monotonicity")


def hk_sweep(F: FamilySpec, fibers, e_max: int, checks=DEFAULT_CHECKS, n_max: int | None = None,
             assume_reduced: bool = False) -> SweepResult:
    """Family sweep: one Hilbert-Kunz row table, one Hilbert-Samuel row
    table when `hs_lex` or `uniform` is among the checks (it needs
    `n_max`), and each requested verdict computed from those tables.

    Each fiber is specialized once, before any row, so a degenerate fiber
    fails before any row is computed; both rows of a fiber share its (R, I).

    Verdicts come out in the order: Hilbert-Kunz checks as listed, then
    `hs_lex_semicontinuity`, then `uniform_bounds_finite`.  The uniform
    probe leans on the uniform-convergence theorem and so requires
    `assume_reduced=True`.
    """
    checks = tuple(checks)
    for name in checks:
        if name not in (*HK_VERDICTS, *HS_CHECKS):
            raise ValidationError(f"unknown check {name!r}")
    fibers = tuple(fibers)
    _require_one_generic(fibers)
    _require_unique_labels(fibers)
    if "hk_monotonicity" in checks and e_max < 2:
        raise ValidationError("monotonicity check needs e_max >= 2 for estimates")
    if "uniform" in checks:
        if not assume_reduced:
            raise ValidationError(
                "uniform-bound probes rest on the reduced-fibers hypothesis; pass "
                "assume_reduced=True to acknowledge it"
            )
        if e_max < 2:
            raise ValidationError("uniform-bound probe needs e_max >= 2")
    need_hs = any(name in HS_CHECKS for name in checks)
    if need_hs and n_max is None:
        raise ValidationError("the hs_lex and uniform checks need n_max")

    specialized = [(fiber.label, *specialize_fiber(F, fiber)) for fiber in fibers]
    rows = tuple(hk_row(label, R, I, e_max) for label, R, I in specialized)
    hs_rows = tuple(
        HSFiberRow(label=label, dimension=R.dimension, samples=tuple(hs_function(R, I, n_max)))
        for label, R, I in specialized
    ) if need_hs else ()
    verdicts = {name: HK_VERDICTS[name](rows) for name in checks if name in HK_VERDICTS}
    if "hs_lex" in checks:
        verdicts["hs_lex_semicontinuity"] = verdict_hs_lex(hs_rows)
    c_hat = d_hat = None
    if "uniform" in checks:
        verdicts["uniform_bounds_finite"], c_hat, d_hat = verdict_uniform_bounds(rows, hs_rows)
    return SweepResult(
        rows=rows,
        verdicts=verdicts,
        warnings=_dimension_warnings(rows),
        hs_rows=hs_rows,
        c_hat=c_hat,
        d_hat=d_hat,
    )


class ModpRow(NamedTuple):
    """An HKFiberRow's fields, then the prime and its differences."""

    label: str
    dimension: int
    samples: tuple  # HKSample
    estimate: HKEstimate
    prime: int
    deltas: tuple  # |normalized(e+1) - normalized(e)| as Fractions

    @property
    def p_deltas(self) -> tuple:
        return tuple(self.prime * d for d in self.deltas)


class ModpResult(NamedTuple):
    rows: tuple
    per_e_bounds: tuple  # max_p of p*delta_p(e), for e = 1..e_max-1
    overall_bound: Fraction | None
    verdicts: dict
    warnings: tuple

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.verdicts.values())


def modp_sweep(F: FamilySpec, primes, e_max: int, assume_reduced: bool = False) -> ModpResult:
    """Reduction-mod-p table for an integer-base family.

    Reports delta_p(e) = |normalized(p, e+1) - normalized(p, e)| and the
    products p * delta_p(e); the uniform-convergence statement predicts a
    bound for the products across p at fixed e, so the table prints the
    observed maxima without asserting them against any rigorous constant.
    Degenerate primes are skipped with a warning.
    """
    if F.base_kind != "integers":
        raise ValidationError("mod-p sweeps need an integer-base family")
    if not assume_reduced:
        raise ValidationError(
            "mod-p sweeps rest on the reduced-fibers hypothesis; pass "
            "assume_reduced=True to acknowledge it"
        )
    if e_max < 2:
        raise ValidationError("mod-p sweeps need e_max >= 2 to form differences")
    primes = list(primes)
    if len(set(primes)) < len(primes):
        raise ValidationError(f"mod-p sweep lists a prime more than once: {primes}")

    rows = []
    warnings = []
    for p in primes:
        fiber = FiberSpec.at_prime(p)
        try:
            R, I = specialize_fiber(F, fiber)
        except ValidationError as err:
            warnings.append(f"prime {p} skipped: {err}")
            continue
        row = hk_row(fiber.label, R, I, e_max)
        deltas = tuple(
            abs(b.normalized - a.normalized) for a, b in zip(row.samples, row.samples[1:])
        )
        rows.append(ModpRow(*row, prime=p, deltas=deltas))
    rows = tuple(rows)
    warnings = tuple(warnings) + _dimension_warnings(rows)
    per_e = []
    for i in range(e_max - 1):
        per_e.append(max((row.p_deltas[i] for row in rows), default=None))
    overall = max((b for b in per_e if b is not None), default=None)
    passed = bool(rows) and len(rows) == len(primes)
    details = (
        f"observed common bound max_p p*delta = {overall}"
        if overall is not None
        else "no differences observed"
    )
    verdict = Verdict(
        name="modp_bounded",
        passed=passed and overall is not None,
        details=details,
        witnesses=tuple(warnings),
    )
    return ModpResult(
        rows=rows,
        per_e_bounds=tuple(per_e),
        overall_bound=overall,
        verdicts={"modp_bounded": verdict},
        warnings=warnings,
    )
