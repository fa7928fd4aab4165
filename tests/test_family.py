"""Family specialization and the sweep drivers."""

import random
from fractions import Fraction

import pytest

from hklab import (
    FamilySpec,
    FiberSpec,
    IdealPresentation,
    PolynomialRing,
    PrimeField,
    ValidationError,
    buchberger,
    frobenius_power,
    hk_sweep,
    make_extension,
    modp_sweep,
    specialize_fiber,
    verdict_hk_monotonicity,
    verdict_hs_lex,
    verdict_term_semicontinuity,
    verdict_uniform_bounds,
)
from hklab import family, multiplicity
from hklab.config import fibers as parse_fibers

FIBERS = [FiberSpec.generic(), FiberSpec.special(t=0), FiberSpec.special(t=1)]


def test_specialize_special_drops_vanishing_terms(monsky_family):
    R, I = specialize_fiber(monsky_family, FiberSpec.special(t=0))
    quartic = R.defining[0]
    assert len(quartic) == 4  # the t*x^2*y^2 term vanished
    assert R.dimension == 2
    assert [g for g in I.generators] == list(R.ring.gens())


def test_specialize_generic_keeps_parameter_as_transcendental(monsky_family):
    R, I = specialize_fiber(monsky_family, FiberSpec.generic())
    assert R.ring.domain.kind == "rational_function"
    assert len(R.defining[0]) == 5
    assert R.dimension == 2


def test_specialize_prime_reduces_coefficients(monsky_z_family):
    R, I = specialize_fiber(monsky_z_family, FiberSpec.at_prime(5))
    assert R.ring.domain == PrimeField(5)
    assert len(R.defining[0]) == 5  # all coefficients are 1 mod 5
    with pytest.raises(ValidationError):
        specialize_fiber(monsky_z_family, FiberSpec.generic())


def test_specialize_gf4_point(monsky_family):
    GF4 = make_extension(2, 2)
    s = GF4.element((0, 1))
    R, _ = specialize_fiber(monsky_family, FiberSpec.special(t=s))
    assert R.ring.domain == GF4
    assert len(R.defining[0]) == 5
    # a parameter named like the generator of GF(4) reads as its value there
    F = FamilySpec("param", ("x", "y"), (), ("x + s*y", "y^2"), p=2, parameters=("s",))
    _, I = specialize_fiber(F, FiberSpec.special(s=s + 1))
    assert I.generators[0] == I.ring.parse("x + (s + 1)*y")


def test_degenerate_fiber_is_rejected():
    F = FamilySpec("param", ("x", "y"), ("t*x",), ("x", "y"), p=2, parameters=("t",))
    with pytest.raises(ValidationError, match="degenerate"):
        specialize_fiber(F, FiberSpec.special(t=0))
    FZ = FamilySpec("integers", ("x", "y"), ("5*x + 5*y",), ("x", "y"))
    with pytest.raises(ValidationError, match="degenerate"):
        specialize_fiber(FZ, FiberSpec.at_prime(5))
    Fideal = FamilySpec("param", ("x", "y"), (), ("t*x", "t*y"), p=2, parameters=("t",))
    with pytest.raises(ValidationError, match="degenerate"):
        specialize_fiber(Fideal, FiberSpec.special(t=0))


def test_z_family_fibers_equal_the_generators_parsed_mod_p():
    # a subtraction, a repeated monomial and an integer power over Z
    gens = ("x^2 - 3*x*y + 2*x^2 - 7", "(x - y)^3")
    F = FamilySpec("integers", ("x", "y"), (), gens)
    for p in (2, 3, 5, 7):
        _, I = specialize_fiber(F, FiberSpec.at_prime(p))
        ring = PolynomialRing(PrimeField(p), ("x", "y"))
        assert I.generators == tuple(ring.parse(g) for g in gens), p
    with pytest.raises(ValidationError, match="'u'"):
        FamilySpec("integers", ("x", "y"), (), ("x + u",))


def test_family_generators_must_be_strings():
    # every fiber parses the family's generator strings in its own ring
    R5 = PolynomialRing(PrimeField(5), ("a", "b", "c"))
    with pytest.raises(ValidationError, match="needs strings"):
        FamilySpec("param", ("x", "y"), (), (R5.parse("3*a + c"), "y"), p=2, parameters=("t",))
    with pytest.raises(ValidationError, match="needs strings"):
        FamilySpec("integers", ("x", "y"), (7,), ("x", "y"))


def test_family_reads_iterators_of_generators_once():
    # an iterator gives the family of the same strings as a tuple
    F = FamilySpec("param", ("x", "y"), iter(["x*y"]), iter(["x", "y"]), p=2,
                   parameters=("t",))
    R, I = specialize_fiber(F, FiberSpec.special(t=1))
    assert (len(R.defining), len(I.generators)) == (1, 2)


@pytest.mark.parametrize("args, kwargs, message", [
    (("rational", ("x",), (), ("x",)), {}, "unknown family base kind"),
    (("integers", ("x",), (), ("x",)), {"parameters": ("t",)}, "take no parameters"),
    (("param", ("x",), (), ("x",)), {"parameters": ("t",)}, "need a characteristic p"),
    (("param", ("x", "t"), (), ("x",)), {"p": 2, "parameters": ("t",)}, "overlap"),
    (("param", ("x",), (), ()), {"p": 2, "parameters": ("t",)}, "at least one generator"),
    (("integers", ("x", "y"), (), ("x - x", "y")), {}, "zero generator in family"),
    (("param", ("x",), ("t - t",), ("x",)), {"p": 3, "parameters": ("t",)}, "zero generator"),
])
def test_family_spec_rejects_bad_input(args, kwargs, message):
    with pytest.raises(ValidationError, match=message):
        FamilySpec(*args, **kwargs)


def test_fiber_assignment_validation(monsky_family):
    with pytest.raises(ValidationError, match="no value"):
        specialize_fiber(monsky_family, FiberSpec.special())
    with pytest.raises(ValidationError, match="unknown parameters"):
        specialize_fiber(monsky_family, FiberSpec.special(t=0, u=1))
    F3 = PrimeField(3)
    with pytest.raises(ValidationError, match="characteristic"):
        specialize_fiber(monsky_family, FiberSpec.special(t=F3(1)))


def test_specialize_commutes_with_frobenius_power():
    rng = random.Random(11)
    F = FamilySpec(
        "param",
        ("x", "y"),
        (),
        ("x^2 + t*x*y", "y^3 + t^2*x"),
        p=3,
        parameters=("t",),
    )
    field = PrimeField(3)
    for fiber in (FiberSpec.special(t=0), FiberSpec.special(t=1), FiberSpec.special(t=2),
                  FiberSpec.generic()):
        R, I = specialize_fiber(F, fiber)
        q = 3 ** rng.choice((1, 2))
        specialized_then_bracketed = frobenius_power(I, q)
        # bracket the parametric generators (exponents are parameter-free),
        # then specialize
        bracketed = FamilySpec(
            "param",
            ("x", "y"),
            (),
            [g for g in (f"x^{2*q} + t^{q}*x^{q}*y^{q}", f"y^{3*q} + t^{2*q}*x^{q}")],
            p=3,
            parameters=("t",),
        )
        _, I2 = specialize_fiber(bracketed, fiber)
        assert set(specialized_then_bracketed.generators) == set(I2.generators)


def test_term_semicontinuity_on_monsky(monsky_family):
    result = hk_sweep(monsky_family, FIBERS, e_max=3, checks=("term_semicontinuity",))
    assert result.passed
    rows = {r.label: [s.length for s in r.samples] for r in result.rows}
    assert rows["generic"] == [8, 44, 188]
    assert rows["t=0"] == [8, 44, 212]
    assert rows["t=1"] == [8, 44, 196]
    # strict inequality appears from e = 3 on this family
    assert rows["generic"][2] < min(rows["t=0"][2], rows["t=1"][2])


def test_hk_monotonicity_on_monsky(monsky_family):
    result = hk_sweep(monsky_family, FIBERS, e_max=3, checks=("hk_monotonicity",))
    assert result.passed
    generic = next(r for r in result.rows if r.label == "generic")
    assert generic.estimate.value == Fraction(47, 16)


def test_sweep_requires_exactly_one_generic(monsky_family):
    with pytest.raises(ValidationError, match="GENERIC"):
        hk_sweep(monsky_family, [FiberSpec.special(t=0)], e_max=2,
                 checks=("term_semicontinuity",))
    with pytest.raises(ValidationError, match="GENERIC"):
        hk_sweep(monsky_family, [FiberSpec.generic(), FiberSpec.generic()], e_max=2)


def test_sweeps_reject_bad_input_before_computing(monsky_family, monsky_z_family,
                                                  monkeypatch):
    monkeypatch.setattr(family, "hk_function", None)  # any computation would fail
    with pytest.raises(ValidationError, match="unknown check"):
        hk_sweep(monsky_family, FIBERS, e_max=2, checks=("term_semicontinuty",))
    with pytest.raises(ValidationError, match="distinct labels"):
        hk_sweep(monsky_family, FIBERS + [FiberSpec.special(t=1)], e_max=2)
    with pytest.raises(ValidationError, match="more than once"):
        modp_sweep(monsky_z_family, [3, 3], e_max=2, assume_reduced=True)
    # a degenerate last fiber is found before the first row is computed
    vanishing = FamilySpec("param", ("x", "y"), ("t*x^3 + t*y^2",), ("x", "y"), p=2,
                           parameters=("t",))
    with pytest.raises(ValidationError, match="degenerate fiber"):
        hk_sweep(vanishing, FIBERS[:1] + [FiberSpec.special(t=1), FiberSpec.special(t=0)],
                 e_max=2)


def test_sweep_computes_each_row_table_once(monsky_family, monkeypatch):
    calls = {"hk_function": 0, "hs_function": 0, "specialize_fiber": 0}
    for name in calls:
        original = getattr(family, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(family, name, counted)
    checks = ("term_semicontinuity", "hk_monotonicity", "hs_lex", "uniform")
    result = hk_sweep(monsky_family, FIBERS, e_max=2, checks=checks, n_max=3,
                      assume_reduced=True)
    assert calls == {
        "hk_function": len(FIBERS), "hs_function": len(FIBERS), "specialize_fiber": len(FIBERS)
    }
    assert list(result.verdicts) == [
        "term_semicontinuity", "hk_monotonicity", "hs_lex_semicontinuity",
        "uniform_bounds_finite",
    ]
    # the uniform probe is a pure function of the two emitted tables
    assert verdict_uniform_bounds(result.rows, result.hs_rows) == (
        result.verdicts["uniform_bounds_finite"], result.c_hat, result.d_hat
    )


def test_constant_family_passes_with_equality():
    F = FamilySpec("param", ("x", "y"), (), ("x^2", "y^2"), p=2, parameters=("t",))
    fibers = [FiberSpec.generic(), FiberSpec.special(t=0), FiberSpec.special(t=1)]
    result = hk_sweep(F, fibers, e_max=3)
    assert result.passed
    lengths = {tuple(s.length for s in r.samples) for r in result.rows}
    assert len(lengths) == 1


def test_verdicts_are_pure_functions_of_rows(monsky_family):
    result = hk_sweep(monsky_family, FIBERS, e_max=3)
    again_sc = verdict_term_semicontinuity(result.rows)
    again_mono = verdict_hk_monotonicity(result.rows)
    assert again_sc == result.verdicts["term_semicontinuity"]
    assert again_mono == result.verdicts["hk_monotonicity"]


def test_verdict_fail_names_fiber_and_e():
    # doctored rows: generic longer than special at e = 2
    from hklab.family import HKFiberRow, HSFiberRow
    from hklab.multiplicity import HKEstimate, HKSample, HSSample

    def mk(label, lengths):
        samples = tuple(
            HKSample(e, 2**e, L, Fraction(L, 4**e)) for e, L in enumerate(lengths, 1)
        )
        est = HKEstimate(samples[-1].normalized, Fraction(0), Fraction(0), samples)
        return HKFiberRow(label, 2, samples, est)

    def mk_hs(label, lengths):
        return HSFiberRow(label, 2, tuple(HSSample(n, L) for n, L in enumerate(lengths, 1)))

    rows = (mk("generic", [8, 60]), mk("t=0", [8, 44]), mk("t=1", [9, 50]))
    verdict = verdict_term_semicontinuity(rows)
    assert not verdict.passed
    assert verdict.witnesses == (("t=0", 2), ("t=1", 2))
    assert verdict.details == (
        "generic length exceeds a special length at (fiber t=0, e=2), (fiber t=1, e=2)"
    )
    mono = verdict_hk_monotonicity(rows)
    assert not mono.passed and mono.witnesses == (("t=0", 2), ("t=1", 2))
    assert mono.details == (
        "generic estimate exceeds special estimate + bounds at (fiber t=0, e=2), (fiber t=1, e=2)"
    )
    hs_rows = (mk_hs("generic", [3, 7]), mk_hs("t=0", [3, 6]), mk_hs("t=1", [2, 9]))
    lex = verdict_hs_lex(hs_rows)
    assert not lex.passed and lex.witnesses == (("t=0", 2), ("t=1", 1))
    assert lex.details == (
        "generic Hilbert-Samuel tuple is lex-greater at (fiber t=0, n=2), (fiber t=1, n=1)"
    )


def test_hs_family_sweep_on_monsky(monsky_family):
    result = hk_sweep(monsky_family, FIBERS, e_max=1, checks=("hs_lex",), n_max=4)
    assert result.passed
    tuples = {r.label: tuple(s.length for s in r.samples) for r in result.hs_rows}
    # the quartic has degree 4: lengths below n = 4 cannot see the parameter
    assert len(set(tuples.values())) == 1
    assert verdict_hs_lex(result.hs_rows) == result.verdicts["hs_lex_semicontinuity"]


def test_hs_table_of_the_maximal_ideal_forms_no_power_of_it(monsky_family, monkeypatch):
    # the Monsky quartics are homogeneous, so each fiber's lengths come from
    # its defining basis plus one small basis that checks I = m
    calls = {"buchberger": 0, "ordinary_power": 0}
    for name in calls:
        def spy(*args, real=getattr(multiplicity, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(multiplicity, name, spy)

    def spied(checks):
        before = dict(calls)
        hk_sweep(monsky_family, FIBERS, e_max=1, checks=checks, n_max=6)
        return {name: calls[name] - before[name] for name in calls}

    without_hs, with_hs = spied(()), spied(("hs_lex",))
    assert with_hs["ordinary_power"] == 0
    assert with_hs["buchberger"] - without_hs["buchberger"] == len(FIBERS)


def test_hs_family_sweep_with_parameter_dependent_ideal():
    F = FamilySpec(
        "param", ("x", "y"), (), ("x^2", "y^2 + t*x*y"), p=2, parameters=("t",)
    )
    fibers = [FiberSpec.generic(), FiberSpec.special(t=0), FiberSpec.special(t=1)]
    result = hk_sweep(F, fibers, e_max=1, checks=("hs_lex",), n_max=3)
    assert result.passed


def test_modp_sweep_table(monsky_z_family):
    result = modp_sweep(monsky_z_family, [3, 5, 7], e_max=2, assume_reduced=True)
    assert result.passed
    assert result.overall_bound is not None
    by_p = {r.prime: r for r in result.rows}
    assert [s.length for s in by_p[3].samples] == [22, 238]
    # p * delta stays below the common printed bound for each prime
    for row in result.rows:
        assert row.p_deltas[0] <= result.overall_bound
    assert result.per_e_bounds[0] == result.overall_bound


def test_modp_p3_lengths_against_rank_oracle(monsky_z_family):
    from .oracles import bracket_colength_hypersurface, poly_dict

    result = modp_sweep(monsky_z_family, [3], e_max=2, assume_reduced=True)
    R, _ = specialize_fiber(monsky_z_family, FiberSpec.at_prime(3))
    raw = poly_dict(R.ring, R.defining[0])
    for s in result.rows[0].samples:
        assert s.length == bracket_colength_hypersurface(PrimeField(3), 3, raw, s.q)


def test_modp_requires_flag_and_integer_base(monsky_z_family, monsky_family):
    with pytest.raises(ValidationError, match="assume_reduced"):
        modp_sweep(monsky_z_family, [3], e_max=2)
    with pytest.raises(ValidationError, match="integer-base"):
        modp_sweep(monsky_family, [3], e_max=2, assume_reduced=True)
    with pytest.raises(ValidationError, match="e_max"):
        modp_sweep(monsky_z_family, [3], e_max=1, assume_reduced=True)


def test_modp_skips_degenerate_primes():
    F = FamilySpec("integers", ("x", "y"), ("x^2 + 7*y^2",), ("x", "y"))
    # at p = 7 the defining generator keeps x^2, fine; make one that dies at 7
    F2 = FamilySpec("integers", ("x", "y"), ("7*x^2 + 7*y^2",), ("x", "y"))
    result = modp_sweep(F2, [3, 7], e_max=2, assume_reduced=True)
    assert any("skipped" in w for w in result.warnings)
    assert len(result.rows) == 1
    assert not result.passed  # a requested prime is missing from the table


def test_regular_z_family_normalized_one(monsky_z_family):
    F = FamilySpec("integers", ("x", "y", "z"), (), ("x", "y", "z"))
    result = modp_sweep(F, [2, 3, 5], e_max=2, assume_reduced=True)
    for row in result.rows:
        assert all(s.normalized == 1 for s in row.samples)
        assert all(d == 0 for d in row.deltas)
    assert result.overall_bound == 0


def test_modp_fiber_at_2_matches_the_t1_special_fiber(monsky_z_family, monsky_family):
    # reducing the integer family mod 2 gives the same ring as the
    # parameter family at t = 1 (the x^2*y^2 coefficient is 1 mod 2)
    result = modp_sweep(monsky_z_family, [2], e_max=3, assume_reduced=True)
    z_lengths = [s.length for s in result.rows[0].samples]
    assert z_lengths[0] == 8 and result.rows[0].samples[0].normalized == 2
    from hklab import hk_function

    R, I = specialize_fiber(monsky_family, FiberSpec.special(t=1))
    t1_lengths = [s.length for s in hk_function(R, I, 3)]
    assert z_lengths == t1_lengths


def test_uniform_probe_on_regular_family():
    F = FamilySpec("param", ("x", "y", "z"), (), ("x", "y", "z"), p=2,
                   parameters=("t",))
    fibers = [FiberSpec.generic(), FiberSpec.special(t=0)]
    report = hk_sweep(F, fibers, e_max=3, checks=("uniform",), n_max=4, assume_reduced=True)
    assert report.d_hat == 0  # normalized samples are exactly constant
    # lengths are C(n+2, 3), so max length/n^3 is attained at n = 1
    assert report.c_hat == 1


def test_uniform_probe_single_fiber_reduces_to_its_estimates(monsky_family):
    result = hk_sweep(monsky_family, [FiberSpec.generic(), FiberSpec.special(t=0)], e_max=3,
                      checks=("uniform",), n_max=4, assume_reduced=True)
    hk_rows, hs_rows = result.rows[1:], result.hs_rows[1:]  # the t=0 fiber alone
    _, c_hat, d_hat = verdict_uniform_bounds(hk_rows, hs_rows)
    assert d_hat == hk_rows[0].estimate.d_hat
    row = hs_rows[0]
    assert c_hat == max(
        Fraction(s.length, s.n**row.dimension) for s in row.samples
    )


def test_uniform_bound_probe(monsky_family):
    report = hk_sweep(
        monsky_family, FIBERS, e_max=3, checks=("uniform",), n_max=4, assume_reduced=True
    )
    assert report.passed
    assert report.d_hat > 0
    assert report.c_hat >= 1
    with pytest.raises(ValidationError, match="assume_reduced"):
        hk_sweep(monsky_family, FIBERS, e_max=3, checks=("uniform",), n_max=4)


def test_parse_fibers_config(monsky_family):
    fibers = parse_fibers(
        monsky_family,
        [{"generic": True}, {"t": "0"}, {"t": "1"}, {"t": "s", "m": 2}, {"t": "s", "m": 3}],
    )
    labels = [f.label for f in fibers]
    assert labels == ["generic", "t=0", "t=1", "t=s@GF(2^2)", "t=s@GF(2^3)"]
    gf4_value = fibers[3].assignments["t"]
    assert gf4_value.field == make_extension(2, 2)
    with pytest.raises(ValidationError, match="unknown parameter"):
        parse_fibers(monsky_family, [{"u": "1"}])


def test_generic_lengths_below_special_on_random_families():
    """Headline property: for every sampled family and every exponent the
    generic fiber's length is <= each special fiber's."""
    rng = random.Random(60923)
    checked = 0
    while checked < 8:
        p = rng.choice((2, 3))
        mixed_mons = ("x*y", "x^2*y", "x*y^2", "x^2", "y^2", "x^3", "y^3")
        gens = []
        for var, deg in (("x", rng.randrange(2, 4)), ("y", rng.randrange(2, 4))):
            tail = rng.choice(mixed_mons)
            scale = rng.randrange(1, p)
            gens.append(f"{var}^{deg} + {scale}*t*{tail}")
        family = FamilySpec("param", ("x", "y"), (), gens, p=p, parameters=("t",))
        fibers = [FiberSpec.generic()] + [
            FiberSpec.special(t=c) for c in range(p)
        ]
        try:
            result = hk_sweep(family, fibers, e_max=2, checks=("term_semicontinuity",))
        except ValidationError:
            continue  # a fiber degenerated or lost finite colength; resample
        checked += 1
        assert result.passed, (gens, result.verdicts)


def test_prime_fiber_checks_the_range_before_primality():
    # 2^31 + 11 is prime but no characteristic; trial division of 2^61 - 1
    # would run for minutes
    for p in (2**31 + 11, 2**61 - 1, 1, 4, None):
        with pytest.raises(ValidationError, match="PRIME fiber"):
            FiberSpec.at_prime(p)
