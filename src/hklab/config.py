"""The JSON config files of the `hklab` command, read and checked.

Every field is read through `get`, which names the field when it is
missing or of the wrong kind, so a malformed config exits 2 before any
computation.  The readers build the parts that several subcommands
share.
"""

from __future__ import annotations

import json
from types import GenericAlias

from .coeff import (
    MAX_CHARACTERISTIC,
    ExtensionField,
    Field,
    PrimeField,
    RationalFunctionField,
    is_prime,
    make_extension,
)
from .errors import ValidationError
from .family import FamilySpec, FiberSpec
from .multiplicity import QuotientRingSpec
from .polyring import IdealPresentation, PolynomialRing, TermOrder

# the kinds a field can be asked for, as error messages name them
_KINDS = {
    bool: "a boolean",
    int: "an integer",
    str: "a string",
    str | int: "a string or an integer",
    list: "a list",
    dict: "an object",
    list[int]: "a list of integers",
    list[str]: "a list of strings",
    list[str | int]: "a list of strings and integers",
    list[dict]: "a list of objects",
}
_REQUIRED = object()


def _is(value, kind) -> bool:
    if isinstance(kind, GenericAlias):  # list[item]
        return isinstance(value, list) and all(_is(v, kind.__args__[0]) for v in value)
    # JSON true and false are Python ints, but never an integer field
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _check(value, kind, name: str):
    """`value` of the field `name` when it is of `kind`, a key of `_KINDS`;
    a ValidationError naming the field otherwise."""
    if not _is(value, kind):
        raise ValidationError(f"config field {name!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def get(obj: dict, key: str, kind, default=_REQUIRED):
    """`obj[key]` checked to be of `kind`; `default` when the key is
    absent, and a ValidationError naming the key if there is none."""
    if key not in obj:
        if default is _REQUIRED:
            raise ValidationError(f"config field {key!r} is missing")
        return default
    return _check(obj[key], kind, key)


def load(path: str) -> dict:
    """The JSON object in the file at `path`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}")
    except json.JSONDecodeError as err:
        raise ValidationError(f"config is not valid JSON ({err})")
    if not isinstance(cfg, dict):
        raise ValidationError(f"config must be a JSON object, got {type(cfg).__name__}")
    return cfg


def field(spec: dict) -> Field:
    """The field of a `field` object: `{"kind": "prime", "p": 2}`,
    `{"kind": "extension", "p": 2, "m": 4}` (or an explicit `modulus`) or
    `{"kind": "rational_function", "p": 2, "var": "t"}` (optional `m`)."""
    kind = get(spec, "kind", str)
    if kind == "prime":
        return PrimeField(get(spec, "p", int))
    if kind == "extension":
        p = get(spec, "p", int)
        if "modulus" in spec:
            return ExtensionField(p, tuple(get(spec, "modulus", list[int])))
        return make_extension(p, get(spec, "m", int))
    if kind == "rational_function":
        base = make_extension(get(spec, "p", int), get(spec, "m", int, 1))
        return RationalFunctionField(base, get(spec, "var", str, "t"))
    raise ValidationError(f"unknown field kind {kind!r}")


def ring(cfg: dict) -> PolynomialRing:
    """The ring of `field` and `vars`, with the optional `order` and `priority`."""
    domain = field(get(cfg, "field", dict))
    priority = cfg.get("priority")  # null, like an absent key, means none
    if priority is not None:
        _check(priority, list[int], "priority")
    order = TermOrder(get(cfg, "order", str, "degrevlex"), priority)
    variables = get(cfg, "vars", list[str])
    # a transcendental named like a variable could not be written in any polynomial
    if domain.kind == "rational_function" and domain.var in variables:
        raise ValidationError(f"config field 'var' is also a ring variable: {domain.var!r}")
    return PolynomialRing(domain, variables, order)


def _ideal(ring: PolynomialRing, gens: list, name: str) -> IdealPresentation:
    if not gens:
        raise ValidationError(f"config field {name!r} must be a nonempty list")
    return IdealPresentation(ring, tuple(ring.parse(s) for s in gens))


def ideal(ring: PolynomialRing, cfg: dict, key: str) -> IdealPresentation:
    """The ideal generated by `cfg[key]`, a nonempty list of polynomials."""
    return _ideal(ring, get(cfg, key, list[str]), key)


def ideals(ring: PolynomialRing, cfg: dict, key: str) -> list:
    """The ideals of the generator lists in `cfg[key]`; entry i is named `key[i]`."""
    return [
        _ideal(ring, _check(gens, list[str], f"{key}[{i}]"), f"{key}[{i}]")
        for i, gens in enumerate(get(cfg, key, list))
    ]


def quotient(ring: PolynomialRing, cfg: dict) -> QuotientRingSpec:
    """The quotient of `ring` by the optional `defining` polynomials."""
    defining = get(cfg, "defining", list[str], [])
    return QuotientRingSpec(ring, tuple(ring.parse(s) for s in defining))


def family(cfg: dict) -> FamilySpec:
    """The family of `vars`, `defining` and `ideal` over `base`, which is
    `{"kind": "param", "p": 2, "params": ["t"]}` or `{"kind": "integers"}`."""
    base = get(cfg, "base", dict)
    kind = get(base, "kind", str)
    variables = get(cfg, "vars", list[str])
    defining = get(cfg, "defining", list[str], [])
    generators = get(cfg, "ideal", list[str])
    if kind == "integers":
        return FamilySpec("integers", variables, defining, generators)
    if kind == "param":
        return FamilySpec("param", variables, defining, generators,
                          p=get(base, "p", int), parameters=get(base, "params", list[str], []))
    raise ValidationError(f"unknown base kind {kind!r}")


def fibers(F: FamilySpec, entries: list) -> list:
    """The fibers of the `fibers` objects: `{"generic": true}` and nothing
    else, or parameter values such as `{"t": "0"}` with an optional `m`
    for values in GF(p^m)."""
    out = []
    for entry in entries:
        if get(entry, "generic", bool, False):
            if len(entry) > 1:
                raise ValidationError(
                    f"config field 'fibers' has a generic entry with other keys: {entry!r}"
                )
            out.append(FiberSpec.generic())
            continue
        m = get(entry, "m", int, 1)
        domain = make_extension(F.p, m) if F.p is not None else None
        assignments = {}
        for key in entry:
            if key in ("generic", "m"):
                continue
            if key not in F.parameters:
                raise ValidationError(f"fiber assigns unknown parameter {key!r}")
            if domain is None:
                raise ValidationError("special fibers need a parameter-base family")
            assignments[key] = domain(get(entry, key, str | int))
        out.append(FiberSpec("special", assignments=assignments))
    return out


def primes(cfg: dict) -> list:
    """The `primes` of a mod-p sweep: a nonempty list of primes below 2^31."""
    ps = get(cfg, "primes", list[int])
    if not ps or not all(2 <= p < MAX_CHARACTERISTIC and is_prime(p) for p in ps):
        raise ValidationError(f"config field 'primes' must list primes below 2^31, got {ps!r}")
    return ps


def grid(ring: PolynomialRing, cfg: dict):
    """The optional rational-signature `grid` of field elements, given as
    integers or strings; None when absent."""
    if "grid" not in cfg:
        return None
    return [ring.domain(v) for v in get(cfg, "grid", list[str | int])]
