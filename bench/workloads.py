"""The three benchmark workloads: seeded configs and pinned exact outputs.

A workload's seed permutes the order of fibers, primes or grid elements in
its config; it never changes the set of cells computed.  Outputs are
matched to pins by config position (the two GF(2^m) fibers of the sweep
share the label `t=s`), never by label.  `check()` returns one
(output id, ok) pair per checked output: every (fiber, e) Hilbert-Kunz
length, every (fiber, n) Hilbert-Samuel length, every verdict and every
pinned exact fraction.  A missing file or field fails the outputs it
should have held.
"""

from __future__ import annotations

import csv
import json
import os
import random
from collections import Counter
from dataclasses import dataclass
from math import comb
from typing import Callable

MONSKY = "z^4 + x*y*z^2 + (x^3+y^3)*z + t*x^2*y^2"

SWEEP_FIBERS = (
    {"generic": True},
    {"t": "0"},
    {"t": "1"},
    {"t": "s", "m": 2},
    {"t": "s", "m": 3},
)
SWEEP_E_MAX = 5
SWEEP_N_MAX = 8
SWEEP_HK = (
    (8, 44, 188, 764, 3068),  # generic fiber over F_2(t)
    tuple(4 * q * q - 6 * q + 4 for q in (2, 4, 8, 16, 32)),  # t = 0: four planes
    (8, 44, 196, 784, 3136),  # t = 1
    (8, 44, 188, 764, 3076),  # t = s in GF(4)
    (8, 44, 188, 772, 3088),  # t = s in GF(8)
)
SWEEP_HS = tuple(
    comb(n + 2, 3) - (comb(n - 2, 3) if n >= 2 else 0) for n in range(1, SWEEP_N_MAX + 1)
)
SWEEP_VERDICTS = (
    "term_semicontinuity",
    "hk_monotonicity",
    "hs_lex_semicontinuity",
    "uniform_bounds_finite",
)
SWEEP_FRACTIONS = {"c_hat": "25/16", "d_hat": "45/16"}

MODP_PRIMES = (2, 3, 5)
MODP_E_MAX = 3
MODP_HK = {2: (8, 44, 196), 3: (22, 238, 2182), 5: (70, 1870, 46870)}
MODP_OVERALL_BOUND = "3/2"

RSIG_E_MAX = 8
RSIG_MINIMUM = "43691/65536"
RSIG_EHK_SOP = "3/1"
RSIG_DIFFERENCES = Counter({"43691/65536": 31})


def _gf16_elements() -> list:
    """The 16 elements of GF(16) = F_2[s]/(s^4 + s + 1), as config strings."""
    out = []
    for bits in range(16):
        terms = [("1" if i == 0 else "s" if i == 1 else f"s^{i}")
                 for i in range(3, -1, -1) if bits >> i & 1]
        out.append(" + ".join(terms) or "0")
    return out


def _dig(obj, *path):
    """obj[path[0]][path[1]]..., or None when any step is missing."""
    for key in path:
        try:
            obj = obj[key]
        except (KeyError, IndexError, TypeError):
            return None
    return obj


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _load_csv(path) -> list:
    """Data rows as dicts keyed by the header, or [] when unreadable."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))
    except (OSError, csv.Error):
        return []


def _int(text):
    try:
        return int(text)
    except (TypeError, ValueError):
        return None


# -- sweep-generic -----------------------------------------------------------


def sweep_config(rng: random.Random) -> dict:
    fibers = list(SWEEP_FIBERS)
    rng.shuffle(fibers)
    return {
        "base": {"kind": "param", "p": 2, "params": ["t"]},
        "vars": ["x", "y", "z"],
        "defining": [MONSKY],
        "ideal": ["x", "y", "z"],
        "fibers": fibers,
        "e_max": SWEEP_E_MAX,
        "n_max": SWEEP_N_MAX,
        "checks": ["term_semicontinuity", "hk_monotonicity", "hs_lex", "uniform"],
    }


def sweep_check(cfg: dict, out_dir: str) -> list:
    payload = _load_json(os.path.join(out_dir, "sweep.json"))
    rows = _load_csv(os.path.join(out_dir, "sweep.csv"))
    results = []
    for pos, fiber in enumerate(cfg["fibers"]):
        pin = SWEEP_HK[SWEEP_FIBERS.index(fiber)]
        for i, want in enumerate(pin):
            e = i + 1
            sample = _dig(payload, "fibers", pos, "samples", i) or {}
            row = _dig(rows, pos * len(pin) + i) or {}
            ok = (
                sample.get("e") == e and sample.get("length") == want
                and _int(row.get("e")) == e and _int(row.get("length")) == want
            )
            results.append((f"hk[{pos}][e={e}]", ok))
        lengths = _dig(payload, "hs_rows", pos, "lengths")
        for i, want in enumerate(SWEEP_HS):
            results.append((f"hs[{pos}][n={i + 1}]", _dig(lengths, i) == want))
    for name in SWEEP_VERDICTS:
        results.append((f"verdict {name}", _dig(payload, "verdicts", name, "passed") is True))
    for name, want in SWEEP_FRACTIONS.items():
        results.append((f"uniform {name}", _dig(payload, "uniform", name) == want))
    return results


# -- modp-prime ----------------------------------------------------------------


def modp_config(rng: random.Random) -> dict:
    primes = list(MODP_PRIMES)
    rng.shuffle(primes)
    return {
        "base": {"kind": "integers"},
        "vars": ["x", "y", "z"],
        "defining": [MONSKY.replace("t*", "")],
        "ideal": ["x", "y", "z"],
        "primes": primes,
        "e_max": MODP_E_MAX,
    }


def modp_check(cfg: dict, out_dir: str) -> list:
    payload = _load_json(os.path.join(out_dir, "modp.json"))
    rows = _load_csv(os.path.join(out_dir, "modp.csv"))
    results = []
    for pos, p in enumerate(cfg["primes"]):
        for i, want in enumerate(MODP_HK[p]):
            e = i + 1
            sample = _dig(payload, "rows", pos, "samples", i) or {}
            row = _dig(rows, pos * MODP_E_MAX + i) or {}
            ok = (
                _dig(payload, "rows", pos, "prime") == p
                and sample.get("e") == e and sample.get("length") == want
                and _int(row.get("e")) == e and _int(row.get("length")) == want
            )
            results.append((f"hk[p={p}][e={e}]", ok))
    results.append(("verdict modp_bounded", _dig(payload, "verdicts", "modp_bounded", "passed") is True))
    results.append(("overall_bound", _dig(payload, "overall_bound") == MODP_OVERALL_BOUND))
    return results


# -- rsig-cubic ------------------------------------------------------------------


def rsig_config(rng: random.Random) -> dict:
    grid = _gf16_elements()
    rng.shuffle(grid)
    return {
        "field": {"kind": "extension", "p": 2, "m": 4},
        "vars": ["x", "y", "z", "w"],
        "defining": ["x*z - y^2", "x*w - y*z", "y*w - z^2"],
        "sop": ["x", "w"],
        "e_max": RSIG_E_MAX,
        "grid": grid,
    }


def rsig_check(cfg: dict, out_dir: str) -> list:
    payload = _load_json(os.path.join(out_dir, "rsig.json"))
    rows = _load_csv(os.path.join(out_dir, "rsig.csv"))
    results = [
        ("minimum", _dig(payload, "minimum") == RSIG_MINIMUM),
        ("ehk_sop", _dig(payload, "ehk_sop", "value") == RSIG_EHK_SOP),
    ]
    got = Counter(row.get("difference") for row in rows)
    missing = sum((RSIG_DIFFERENCES - got).values())
    extra = sum((got - RSIG_DIFFERENCES).values())
    wrong = max(missing, extra)
    total = sum(RSIG_DIFFERENCES.values())
    results += [(f"difference[{k}]", k >= wrong) for k in range(total)]
    return results


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    flags: tuple
    make_config: Callable[[random.Random], dict]
    check: Callable[[dict, str], list]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-generic", "sweep", ("--assume-reduced",), sweep_config, sweep_check),
        Workload("modp-prime", "modp", ("--assume-reduced",), modp_config, modp_check),
        Workload("rsig-cubic", "rsig", (), rsig_config, rsig_check),
    )
}
