"""Command-line entry point.

Subcommands: groebner | hk | hs | rsig | csig | sweep | modp | disc.
Each takes a JSON config file and writes CSV/JSON artifacts into the
output directory; stdout carries a human-readable summary.

Exit codes: 0 success (all verdicts PASS), 1 a mathematical check FAILed,
2 validation/config error (including a config that is not a JSON object,
a missing, mistyped or unknown config field, which `config` names, an
unknown sweep check name, two sweep fibers with the same label, or a prime
listed twice for modp),
3 internal error.  Identical configs produce byte-identical artifacts.
The --threads flag is accepted for compatibility and ignored: every run
is sequential.

Sweep fibers are labeled by their assignments (`generic`, `t=0`); a value
from an extension field GF(p^m), m > 1, also names the field, as in
`t=s@GF(2^2)`.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

from . import config
from .errors import HKLabError, ValidationError
from .family import DEFAULT_CHECKS, hk_row, hk_sweep, modp_sweep
from .groebner import INFINITE, buchberger
from .multiplicity import csig_search, hs_function, hs_multiplicity, rsig_search
from .quotient import multiplication_matrix, trace_discriminant

D_HAT_NOTE = "empirical estimate from sampled differences, not a proven constant"
FAMILY_CAVEAT = (
    "affine-family axioms (equidimensionality conditions) are not verified; "
    "only computable proxies are checked: finite colength, primality to the "
    "origin, and per-fiber dimension agreement"
)


class RunConfig(NamedTuple):
    subcommand: str
    config_path: str
    out_dir: str = "."
    formats: tuple = ("csv", "json")
    assume_reduced: bool = False


def _dec(x) -> str:
    return f"{float(x):.12g}"


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _write_json(run: RunConfig, name: str, payload: dict) -> list:
    if "json" not in run.formats:
        return []
    path = os.path.join(run.out_dir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [path]


def _write_csv(run: RunConfig, name: str, header, rows) -> list:
    if "csv" not in run.formats:
        return []
    path = os.path.join(run.out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return [path]


def _sanitize(label: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in label) or "fiber"


def emit_plotdata(rows, out_dir: str, stem: str) -> list:
    """Plain-text (e, normalized) series per fiber row for external plotting."""
    if not rows:
        raise ValidationError("empty result: nothing to plot")
    paths = []
    for row in rows:
        path = os.path.join(out_dir, f"{stem}_plot_{_sanitize(row.label)}.dat")
        with open(path, "w", encoding="utf-8") as fh:
            for s in row.samples:
                fh.write(f"{s.e} {_dec(s.normalized)}\n")
        paths.append(path)
    return paths


HK_HEADER = (
    "fiber", "e", "q", "length", "normalized_num", "normalized_den",
    "normalized", "estimate", "d_hat", "error_bound", "verdict",
)


def _sample_cells(label, s) -> tuple:
    return (label, s.e, s.q, s.length, s.normalized.numerator,
            s.normalized.denominator, _dec(s.normalized))


def _hk_csv_rows(label, samples, estimate, verdict_text):
    rows = []
    for s in samples:
        if estimate and s.e == samples[-1].e:
            est, dh, eb = _dec(estimate.value), _dec(estimate.d_hat), _dec(estimate.error_bound)
        else:
            est = dh = eb = ""
        rows.append(_sample_cells(label, s) + (est, dh, eb, verdict_text))
    return rows


def _estimate_payload(est) -> dict:
    return {
        "value": _frac(est.value),
        "value_decimal": float(est.value),
        "d_hat": _frac(est.d_hat),
        "d_hat_note": D_HAT_NOTE,
        "error_bound": _frac(est.error_bound),
        "error_bound_decimal": float(est.error_bound),
    }


def _sample_payload(s) -> dict:
    return {
        "e": s.e,
        "q": s.q,
        "length": s.length,
        "normalized": _frac(s.normalized),
        "normalized_decimal": float(s.normalized),
    }


def _fiber_payload(row, **extra) -> dict:
    return {
        "fiber": row.label,
        "dimension": row.dimension,
        "samples": [_sample_payload(s) for s in row.samples],
        **extra,
    }


def _cmd_groebner(run: RunConfig, cfg: dict):
    ring = config.ring(cfg)
    matrix_of = config.get(cfg, "matrix_of", str, None)
    I = config.ideal(ring, cfg, "generators")
    config.reject_unread(cfg)
    G = buchberger(I)
    length = G.colength()
    payload = {
        "basis": [repr(g) for g in G.elements],
        "leading_monomials": [list(e) for e in G.leading_exponents()],
        "colength": "INFINITE" if length is INFINITE else length,
        "order": ring.order.kind,
    }
    if matrix_of is not None:
        if length is INFINITE:
            raise ValidationError("matrix_of needs a zero-dimensional ideal")
        M = multiplication_matrix(G, ring.parse(matrix_of))
        payload["matrix_of"] = matrix_of
        payload["matrix"] = [[repr(v) for v in row] for row in M]
    files = _write_json(run, "groebner.json", payload)
    print(f"reduced basis: {len(G.elements)} elements; colength {payload['colength']}")
    for g in G.elements:
        print(f"  {g}")
    return 0, files


def _cmd_hk(run: RunConfig, cfg: dict):
    ring = config.ring(cfg)
    e_max = config.get(cfg, "e_max", int)
    R = config.quotient(ring, cfg)
    I = config.ideal(ring, cfg, "ideal")
    config.reject_unread(cfg)
    row = hk_row("series", R, I, e_max)
    samples, est = row.samples, row.estimate
    files = _write_csv(run, "hk.csv", HK_HEADER, _hk_csv_rows("-", samples, est, ""))
    payload = {
        "dimension": R.dimension,
        "samples": [_sample_payload(s) for s in samples],
    }
    if est:
        payload["estimate"] = _estimate_payload(est)
    files += _write_json(run, "hk.json", payload)
    files += emit_plotdata([row], run.out_dir, "hk")
    print(f"dimension {R.dimension}")
    for s in samples:
        print(f"  e={s.e} q={s.q} length={s.length} normalized={_dec(s.normalized)}")
    if est:
        print(
            f"estimate {_dec(est.value)} (exact {_frac(est.value)}), "
            f"D_hat={_dec(est.d_hat)}, error_bound={_dec(est.error_bound)} [heuristic]"
        )
    return 0, files


def _cmd_hs(run: RunConfig, cfg: dict):
    ring = config.ring(cfg)
    n_max = config.get(cfg, "n_max", int)
    R = config.quotient(ring, cfg)
    I = config.ideal(ring, cfg, "ideal")
    config.reject_unread(cfg)
    samples = hs_function(R, I, n_max)
    payload = {
        "dimension": R.dimension,
        "samples": [{"n": s.n, "length": s.length} for s in samples],
    }
    try:
        est = hs_multiplicity(samples, R.dimension)
        payload["multiplicity"] = est.multiplicity
        payload["stabilization_window"] = list(est.window)
    except ValidationError as err:
        payload["multiplicity"] = None
        payload["diagnostic"] = str(err)
    files = _write_csv(
        run, "hs.csv", ("fiber", "n", "length", "verdict"),
        [("-", s.n, s.length, "") for s in samples],
    )
    files += _write_json(run, "hs.json", payload)
    print(f"dimension {R.dimension}; lengths {[s.length for s in samples]}")
    if payload.get("multiplicity") is not None:
        print(f"multiplicity {payload['multiplicity']} (window n={payload['stabilization_window']})")
    else:
        print(f"no stabilization: {payload['diagnostic']}")
    return 0, files


def _cmd_rsig(run: RunConfig, cfg: dict):
    ring = config.ring(cfg)
    grid = config.grid(ring, cfg)
    e_max = config.get(cfg, "e_max", int, 2)
    R = config.quotient(ring, cfg)
    sop = config.ideal(ring, cfg, "sop")
    config.reject_unread(cfg)
    result = rsig_search(R, sop, coefficient_grid=grid, e_max=e_max)
    rows = [
        (i, "|".join(repr(c) for c in r.coefficients), repr(r.u),
         _frac(r.ehk_x.value), _frac(r.ehk_xu.value), _frac(r.difference),
         _dec(r.difference))
        for i, r in enumerate(result.rows)
    ]
    files = _write_csv(
        run, "rsig.csv",
        ("candidate", "coefficients", "u", "ehk_x", "ehk_xu", "difference", "difference_decimal"),
        rows,
    )
    payload = {
        "socle_dimension": len(result.socle),
        "socle": [repr(s) for s in result.socle],
        "minimum": _frac(result.minimum),
        "minimum_decimal": float(result.minimum),
        "argmin_u": repr(result.argmin.u),
        "ehk_sop": _estimate_payload(result.rows[0].ehk_x),
        "note": "minimum over the sampled grid: an upper bound for the infimum",
    }
    files += _write_json(run, "rsig.json", payload)
    print(f"socle dimension {len(result.socle)}; {len(result.rows)} candidates")
    print(f"minimum difference {_dec(result.minimum)} at u = {result.argmin.u}")
    return 0, files


def _cmd_csig(run: RunConfig, cfg: dict):
    ring = config.ring(cfg)
    e_max = config.get(cfg, "e_max", int, 2)
    R = config.quotient(ring, cfg)
    sop = config.ideal(ring, cfg, "sop")
    candidates = config.ideals(ring, cfg, "candidates")
    config.reject_unread(cfg)
    result = csig_search(R, sop, candidates, e_max=e_max)
    rows = []
    for r in result.rows:
        rows.append(
            (r.index, repr(r.candidate), r.colength_x, r.colength_candidate,
             r.denominator,
             _frac(r.ratio) if r.ratio is not None else "",
             _dec(r.ratio) if r.ratio is not None else "",
             "skipped" if r.skipped else "")
        )
    files = _write_csv(
        run, "csig.csv",
        ("candidate", "generators", "colength_sop", "colength_candidate",
         "denominator", "ratio", "ratio_decimal", "status"),
        rows,
    )
    payload = {
        "minimum": _frac(result.minimum) if result.minimum is not None else None,
        "minimum_decimal": float(result.minimum) if result.minimum is not None else None,
        "warnings": list(result.warnings),
    }
    files += _write_json(run, "csig.json", payload)
    for w in result.warnings:
        print(f"warning: {w}")
    print(f"minimum ratio: {payload['minimum_decimal']}")
    return 0, files


def _verdict_payload(verdicts: dict) -> dict:
    return {
        name: {
            "passed": v.passed,
            "details": v.details,
            "witnesses": [list(w) if isinstance(w, tuple) else w for w in v.witnesses],
        }
        for name, v in verdicts.items()
    }


def _print_verdicts(verdicts: dict):
    for name, v in verdicts.items():
        print(f"check {name}: {'PASS' if v.passed else 'FAIL'} - {v.details}")


def _cmd_sweep(run: RunConfig, cfg: dict):
    F = config.family(cfg)
    fibers = config.fibers(F, config.get(cfg, "fibers", list[dict]))
    checks = tuple(config.get(cfg, "checks", list[str], DEFAULT_CHECKS))
    n_max = config.get(cfg, "n_max", int, None)
    e_max = config.get(cfg, "e_max", int)
    config.reject_unread(cfg)
    result = hk_sweep(
        F, fibers, e_max, checks=checks, n_max=n_max, assume_reduced=run.assume_reduced
    )
    verdicts = result.verdicts
    warnings = list(result.warnings)
    extra_payload = {}
    if "hs_lex" in checks:
        extra_payload["hs_rows"] = [
            {"fiber": r.label, "lengths": [s.length for s in r.samples]}
            for r in result.hs_rows
        ]
    if "uniform" in checks:
        extra_payload["uniform"] = {"c_hat": _frac(result.c_hat), "d_hat": _frac(result.d_hat)}

    csv_rows = []
    for row in result.rows:
        verdict_text = ";".join(
            f"{n}={'PASS' if v.passed else 'FAIL'}" for n, v in verdicts.items()
        )
        csv_rows.extend(_hk_csv_rows(row.label, row.samples, row.estimate, verdict_text))
    files = _write_csv(run, "sweep.csv", HK_HEADER, csv_rows)
    payload = {
        "fibers": [
            _fiber_payload(r, estimate=_estimate_payload(r.estimate) if r.estimate else None)
            for r in result.rows
        ],
        "verdicts": _verdict_payload(verdicts),
        "warnings": warnings,
        "caveat": FAMILY_CAVEAT,
        **extra_payload,
    }
    files += _write_json(run, "sweep.json", payload)
    files += emit_plotdata(result.rows, run.out_dir, "sweep")
    print(f"note: {FAMILY_CAVEAT}")
    for row in result.rows:
        print(f"fiber {row.label}: lengths {[s.length for s in row.samples]}")
    for w in warnings:
        print(f"warning: {w}")
    _print_verdicts(verdicts)
    return (0 if result.passed else 1), files


def _cmd_modp(run: RunConfig, cfg: dict):
    F = config.family(cfg)
    primes = config.primes(cfg)
    e_max = config.get(cfg, "e_max", int)
    config.reject_unread(cfg)
    result = modp_sweep(F, primes, e_max, assume_reduced=run.assume_reduced)
    csv_rows = []
    for row in result.rows:
        for i, s in enumerate(row.samples):
            delta = _dec(row.deltas[i - 1]) if i >= 1 else ""
            p_delta = _dec(row.p_deltas[i - 1]) if i >= 1 else ""
            csv_rows.append(_sample_cells(row.label, s) + (delta, p_delta))
    files = _write_csv(
        run, "modp.csv",
        ("fiber", "e", "q", "length", "normalized_num", "normalized_den",
         "normalized", "delta", "p_delta"),
        csv_rows,
    )
    payload = {
        "rows": [
            _fiber_payload(r, prime=r.prime, p_deltas=[_frac(d) for d in r.p_deltas])
            for r in result.rows
        ],
        "per_e_bounds": [None if b is None else _frac(b) for b in result.per_e_bounds],
        "overall_bound": _frac(result.overall_bound) if result.overall_bound is not None else None,
        "verdicts": _verdict_payload(result.verdicts),
        "warnings": list(result.warnings),
        "caveat": FAMILY_CAVEAT,
    }
    files += _write_json(run, "modp.json", payload)
    if result.rows:  # every prime skipped: the verdict fails, nothing to plot
        files += emit_plotdata(result.rows, run.out_dir, "modp")
    print(f"note: {FAMILY_CAVEAT}")
    for row in result.rows:
        print(f"{row.label}: lengths {[s.length for s in row.samples]}, "
              f"p*delta {[_dec(d) for d in row.p_deltas]}")
    for w in result.warnings:
        print(f"warning: {w}")
    print(f"common printed bound: {_dec(result.overall_bound) if result.overall_bound is not None else 'n/a'}")
    _print_verdicts(result.verdicts)
    return (0 if result.passed else 1), files


def _cmd_disc(run: RunConfig, cfg: dict):
    I = config.ideal(config.ring(cfg), cfg, "generators")
    config.reject_unread(cfg)
    G = buchberger(I)
    value = trace_discriminant(G)
    payload = {"discriminant": repr(value), "colength": G.colength()}
    files = _write_json(run, "disc.json", payload)
    print(f"trace discriminant: {value}")
    return 0, files


_DISPATCH = {
    "groebner": _cmd_groebner,
    "hk": _cmd_hk,
    "hs": _cmd_hs,
    "rsig": _cmd_rsig,
    "csig": _cmd_csig,
    "sweep": _cmd_sweep,
    "modp": _cmd_modp,
    "disc": _cmd_disc,
}


def run(run_config: RunConfig) -> int:
    """Execute one subcommand; returns the exit status (artifacts on disk)."""
    try:
        if run_config.subcommand not in _DISPATCH:
            raise ValidationError(f"unknown subcommand {run_config.subcommand!r}")
        os.makedirs(run_config.out_dir, exist_ok=True)
        cfg = config.load(run_config.config_path)
        code, files = _DISPATCH[run_config.subcommand](run_config, cfg)
        for path in files:
            print(f"wrote {path}")
        return code
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except HKLabError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return 3
    except Exception as err:  # noqa: BLE001 - exit-code contract wants 3 here
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hklab",
        description="Hilbert-Kunz / Hilbert-Samuel multiplicity laboratory",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _DISPATCH:
        sp = sub.add_parser(name)
        sp.add_argument("config", help="JSON config file")
        sp.add_argument("-o", "--out", default=".", help="output directory")
        sp.add_argument(
            "--format", nargs="+", choices=("csv", "json"), default=["csv", "json"]
        )
        sp.add_argument("--threads", type=int, default=1, help="ignored; runs are sequential")
        sp.add_argument("--assume-reduced", action="store_true")
    args = parser.parse_args(argv)
    run_config = RunConfig(
        subcommand=args.subcommand,
        config_path=args.config,
        out_dir=args.out,
        formats=tuple(args.format),
        assume_reduced=args.assume_reduced,
    )
    return run(run_config)


if __name__ == "__main__":
    sys.exit(main())
