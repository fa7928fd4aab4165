"""End-to-end CLI runs: exit codes, artifacts, determinism."""

import csv
import json
import os

import pytest

from hklab.cli import RunConfig, emit_plotdata, main, run
from hklab.coeff import PrimeField
from hklab.errors import ValidationError
from hklab.multiplicity import QuotientRingSpec
from hklab.polyring import IdealPresentation, PolynomialRing

from .oracles import classic_buchberger

MONSKY_SWEEP = {
    "base": {"kind": "param", "p": 2, "params": ["t"]},
    "vars": ["x", "y", "z"],
    "defining": ["z^4 + x*y*z^2 + (x^3+y^3)*z + t*x^2*y^2"],
    "ideal": ["x", "y", "z"],
    "fibers": [{"generic": True}, {"t": "0"}, {"t": "1"}],
    "e_max": 3,
}


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_hk_regular_ring(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        "hk.json",
        {
            "field": {"kind": "prime", "p": 2},
            "vars": ["x", "y", "z"],
            "ideal": ["x", "y", "z"],
            "e_max": 3,
        },
    )
    out = tmp_path / "out"
    code = run(RunConfig("hk", cfg, str(out)))
    assert code == 0
    rows = list(csv.DictReader(open(out / "hk.csv")))
    assert [int(r["length"]) for r in rows] == [8, 64, 512]
    assert all(r["normalized"] == "1" for r in rows)
    payload = json.load(open(out / "hk.json"))
    assert payload["estimate"]["value"] == "1/1"
    assert "not a proven constant" in payload["estimate"]["d_hat_note"]
    plot = (out / "hk_plot_series.dat").read_text().splitlines()
    assert plot == ["1 1", "2 1", "3 1"]


def test_hk_deep_staircase_exit_0(tmp_path):
    cfg = write_config(
        tmp_path,
        "deep.json",
        {
            "field": {"kind": "prime", "p": 2},
            "vars": ["x", "y"],
            "ideal": ["x^2", "x*y", "y^2"],
            "e_max": 10,
        },
    )
    out = tmp_path / "out"
    assert run(RunConfig("hk", cfg, str(out))) == 0
    rows = list(csv.DictReader(open(out / "hk.csv")))
    assert [int(r["length"]) for r in rows] == [3 * 4**e for e in range(1, 11)]


def test_hk_validation_exit_2(tmp_path):
    cfg = write_config(
        tmp_path,
        "bad.json",
        {
            "field": {"kind": "prime", "p": 2},
            "vars": ["x", "y"],
            "ideal": ["x", "y"],
            "e_max": 0,
        },
    )
    assert run(RunConfig("hk", cfg, str(tmp_path))) == 2


def test_malformed_config_exit_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run(RunConfig("hk", str(path), str(tmp_path))) == 2
    missing = write_config(tmp_path, "missing.json", {"vars": ["x"]})
    assert run(RunConfig("hk", missing, str(tmp_path))) == 2
    assert run(RunConfig("hk", str(tmp_path / "nope.json"), str(tmp_path))) == 2


HK_PLANE = {
    "field": {"kind": "prime", "p": 2},
    "vars": ["x", "y"],
    "ideal": ["x", "y"],
    "e_max": 2,
}
RSIG_PLANE = {"field": {"kind": "prime", "p": 2}, "vars": ["x", "y"], "sop": ["x", "y"]}
MODP_PLANE = {
    "base": {"kind": "integers"},
    "vars": ["x", "y"],
    "ideal": ["x", "y"],
    "primes": [2, 3],
    "e_max": 2,
}


@pytest.mark.parametrize("command, payload, name", [
    ("hk", dict(HK_PLANE, e_max="2"), "e_max"),
    ("hk", dict(HK_PLANE, e_max=2.5), "e_max"),
    ("hk", dict(HK_PLANE, e_max=True), "e_max"),
    ("hs", dict(HK_PLANE, n_max="3"), "n_max"),
    ("rsig", dict(RSIG_PLANE, e_max="2"), "e_max"),
    ("rsig", dict(RSIG_PLANE, grid=[0, 1.5]), "grid"),
    ("csig", dict(RSIG_PLANE, candidates=[["x", "y"]], e_max=2.0), "e_max"),
    ("sweep", dict(MONSKY_SWEEP, e_max="2"), "e_max"),
    ("sweep", dict(MONSKY_SWEEP, checks=["hs_lex"], n_max="3"), "n_max"),
    ("sweep", dict(MONSKY_SWEEP, fibers=[{"generic": True}, {"t": "s", "m": "2"}]), "m"),
    ("sweep", dict(MONSKY_SWEEP, fibers=[{"generic": True}, {"t": 1.5}]), "t"),
    ("modp", dict(MODP_PLANE, e_max="2"), "e_max"),
    ("modp", dict(MODP_PLANE, primes=[2, "3"]), "primes"),
    ("modp", dict(MODP_PLANE, primes=[2, 3.0]), "primes"),
    ("hk", dict(HK_PLANE, field={"kind": "prime"}), "p"),
    ("hk", dict(HK_PLANE, field={"kind": "rational_function"}), "p"),
    ("hk", dict(HK_PLANE, field={"kind": "extension", "p": 2, "m": "2"}), "m"),
    ("hk", dict(HK_PLANE, field={"kind": "rational_function", "p": 2, "m": "2"}), "m"),
    # a string where a list belongs used to run one generator per character
    ("hk", dict(HK_PLANE, vars=["x", "y", "z"], defining="xy", ideal=["x", "y", "z"]), "defining"),
    ("hk", dict(HK_PLANE, vars=["x", "y", "z"], ideal="xyz"), "ideal"),
    ("sweep", dict(MONSKY_SWEEP, defining="xy"), "defining"),
    ("modp", dict(MODP_PLANE, primes=5), "primes"),
    ("hk", dict(HK_PLANE, field={"kind": "extension", "p": 2, "modulus": [1, "1", 1]}), "modulus"),
    ("hk", dict(HK_PLANE, vars="xy"), "vars"),
    ("rsig", dict(RSIG_PLANE, sop="xy"), "sop"),
    ("rsig", dict(RSIG_PLANE, grid="01"), "grid"),
    ("csig", dict(RSIG_PLANE, candidates="xy"), "candidates"),
    ("sweep", dict(MONSKY_SWEEP, fibers="g"), "fibers"),
    ("sweep", dict(MONSKY_SWEEP, checks="uniform"), "checks"),
    ("sweep", dict(MONSKY_SWEEP, base={"kind": "param", "p": 2, "params": "t"}), "params"),
    # a non-string where a polynomial or a variable name belongs
    ("hk", dict(HK_PLANE, ideal=["x", 1]), "ideal"),
    ("hk", dict(HK_PLANE, defining=[3]), "defining"),
    ("hk", dict(HK_PLANE, vars=["x", 1]), "vars"),
    ("groebner", dict(HK_PLANE, generators=["x", 1]), "generators"),
    ("groebner", dict(HK_PLANE, generators=["x^2", "y^2"], matrix_of=5), "matrix_of"),
    ("rsig", dict(RSIG_PLANE, sop=["x", 2]), "sop"),
    ("csig", dict(RSIG_PLANE, candidates=[["x", "y"], ["x", 1]]), "candidates[1]"),
    ("modp", dict(MODP_PLANE, ideal=["x", "y", 7]), "ideal"),
    ("modp", dict(MODP_PLANE, defining=[7]), "defining"),
    ("modp", dict(MODP_PLANE, vars=["x", 1]), "vars"),
    ("sweep", dict(MONSKY_SWEEP, base={"kind": "param", "p": 2, "params": [1]}), "params"),
    ("hk", dict(HK_PLANE, priority=[0, "1"]), "priority"),
    ("hk", dict(HK_PLANE, priority=[0, 1.0]), "priority"),
    ("hk", dict(HK_PLANE, priority=5), "priority"),
    ("sweep", dict(MONSKY_SWEEP, base={"kind": "param", "p": "2", "params": ["t"]}), "p"),
    ("sweep", dict(MONSKY_SWEEP, base={"kind": "param", "p": 2.0, "params": ["t"]}), "p"),
    ("sweep", dict(MONSKY_SWEEP, base={"kind": "param", "p": True, "params": ["t"]}), "p"),
    ("hk", dict(HK_PLANE, order=5), "order"),
    ("hk", dict(HK_PLANE, order=["lex"]), "order"),
    # a transcendental that is no string, or that is also a ring variable, cannot be written
    ("hk", dict(HK_PLANE, field={"kind": "rational_function", "p": 2, "var": 5}), "var"),
    ("hk", dict(HK_PLANE, field={"kind": "rational_function", "p": 2, "var": ["t"]}), "var"),
    ("hk", dict(HK_PLANE, field={"kind": "rational_function", "p": 2, "var": "x"}), "var"),
    ("sweep", dict(MONSKY_SWEEP, fibers=[{"generic": "no"}, {"t": "0"}, {"t": "1"}]), "generic"),
    ("sweep", dict(MONSKY_SWEEP, fibers=[{"generic": True, "t": "1"}, {"t": "0"}]), "fibers"),
    # a key that no reader of its object reads, at any depth, is unknown
    ("rsig", dict(RSIG_PLANE, emax=5), "emax"),
    ("hk", dict(HK_PLANE, defning=["x*y"]), "defning"),
    ("hk", dict(HK_PLANE, field={"kind": "prime", "p": 2, "m": 3}), "m"),
    ("modp", dict(MODP_PLANE, base={"kind": "integers", "params": ["t"], "p": 7}), "params"),
])
def test_malformed_config_value_exit_2_names_the_field(tmp_path, capsys, command, payload, name):
    cfg = write_config(tmp_path, "bad.json", payload)
    assert run(RunConfig(command, cfg, str(tmp_path / "out"), assume_reduced=True)) == 2
    assert f"config field {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("field, variables", [
    ({"kind": "extension", "p": 2, "m": 2}, ["s", "x"]),  # s names the generator of GF(4)
    ({"kind": "rational_function", "p": 2, "m": 2, "var": "s"}, ["x", "y"]),
    ({"kind": "prime", "p": 2}, ["x", "x^2"]),
    ({"kind": "rational_function", "p": 2, "var": "2"}, ["x", "y"]),
], ids=["generator-as-variable", "generator-as-var", "power-as-variable", "integer-as-var"])
def test_a_name_that_an_expression_cannot_write_exit_2(tmp_path, capsys, field, variables):
    payload = {"field": field, "vars": variables, "generators": ["x"]}
    cfg = write_config(tmp_path, "names.json", payload)
    assert run(RunConfig("groebner", cfg, str(tmp_path / "out"))) == 2
    assert "cannot be written as a variable" in capsys.readouterr().err


@pytest.mark.parametrize("ideal", ["(" * 300 + "x" + ")" * 300, "-" * 5000 + "x"],
                         ids=["parentheses", "unary-minus"])
def test_deeply_nested_expression_exit_2(tmp_path, capsys, ideal):
    cfg = write_config(tmp_path, "deep.json", dict(HK_PLANE, ideal=[ideal, "y"]))
    assert run(RunConfig("hk", cfg, str(tmp_path / "out"))) == 2
    assert "nests too deeply" in capsys.readouterr().err


def test_unreadable_config_exit_2_names_the_path(tmp_path, capsys):
    folder = tmp_path / "folder.json"
    folder.mkdir()
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    for path in (folder, utf16):
        assert run(RunConfig("hk", str(path), str(tmp_path / "out"))) == 2
        assert f"cannot read config file {path}" in capsys.readouterr().err


@pytest.mark.parametrize("command, text", [
    ("sweep", "[1]"),
    ("modp", "[1]"),
    *[(command, text) for command in ("hk", "sweep", "modp", "groebner") for text in ("5", "null")],
    # a string would pass the `in` tests for required fields as substrings
    ("hk", '"field vars e_max"'),
])
def test_config_that_is_not_a_json_object_exit_2(tmp_path, capsys, command, text):
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    assert run(RunConfig(command, str(cfg), str(tmp_path / "out"), assume_reduced=True)) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_sweep_monsky_passes_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "sweep.json", MONSKY_SWEEP)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(RunConfig("sweep", cfg, str(out1))) == 0
    assert main(["sweep", cfg, "-o", str(out2), "--threads", "4"]) == 0  # accepted, ignored
    for name in ("sweep.csv", "sweep.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    payload = json.load(open(out1 / "sweep.json"))
    assert "seed" not in payload
    assert payload["verdicts"]["term_semicontinuity"]["passed"] is True
    assert payload["verdicts"]["hk_monotonicity"]["passed"] is True
    assert "not verified" in payload["caveat"]  # unchecked-hypotheses notice
    for label in ("generic", "t_0", "t_1"):
        assert (out1 / f"sweep_plot_{label}.dat").exists()


def test_sweep_with_hs_and_uniform_checks(tmp_path):
    cfg_payload = dict(MONSKY_SWEEP)
    cfg_payload["e_max"] = 2
    cfg_payload["n_max"] = 4
    cfg_payload["checks"] = [
        "term_semicontinuity", "hk_monotonicity", "hs_lex", "uniform"
    ]
    cfg = write_config(tmp_path, "sweep.json", cfg_payload)
    code = run(RunConfig("sweep", cfg, str(tmp_path / "out"), assume_reduced=True))
    assert code == 0
    payload = json.load(open(tmp_path / "out" / "sweep.json"))
    assert payload["verdicts"]["hs_lex_semicontinuity"]["passed"] is True
    assert payload["verdicts"]["uniform_bounds_finite"]["passed"] is True
    assert "uniform" in payload


def test_sweep_uniform_requires_flag(tmp_path):
    cfg_payload = dict(MONSKY_SWEEP)
    cfg_payload["e_max"] = 2
    cfg_payload["n_max"] = 3
    cfg_payload["checks"] = ["uniform"]
    cfg = write_config(tmp_path, "sweep.json", cfg_payload)
    assert run(RunConfig("sweep", cfg, str(tmp_path / "out"))) == 2


def test_sweep_unknown_check_exit_2(tmp_path):
    cfg_payload = dict(MONSKY_SWEEP)
    cfg_payload["checks"] = ["term_semicontinuty"]
    cfg = write_config(tmp_path, "sweep.json", cfg_payload)
    assert run(RunConfig("sweep", cfg, str(tmp_path / "out"))) == 2


def test_sweep_extension_fibers_get_distinct_labels_and_plot_files(tmp_path, capsys):
    cfg_payload = dict(MONSKY_SWEEP)
    cfg_payload["e_max"] = 2
    cfg_payload["fibers"] = [{"generic": True}, {"t": "s", "m": 2}, {"t": "s", "m": 3}]
    cfg = write_config(tmp_path, "sweep.json", cfg_payload)
    out = tmp_path / "out"
    assert run(RunConfig("sweep", cfg, str(out))) == 0
    payload = json.load(open(out / "sweep.json"))
    assert [f["fiber"] for f in payload["fibers"]] == ["generic", "t=s@GF(2^2)", "t=s@GF(2^3)"]
    written = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote")]
    assert len(written) == len(set(written)) == 2 + 3  # sweep.csv, sweep.json, 3 plots
    for label in ("generic", "t_s_GF_2_2_", "t_s_GF_2_3_"):
        assert (out / f"sweep_plot_{label}.dat").exists()


def test_sweep_and_modp_reject_repeats_exit_2(tmp_path):
    cfg_payload = dict(MONSKY_SWEEP)
    cfg_payload["fibers"] = [{"generic": True}, {"t": "1"}, {"t": "1"}]
    cfg = write_config(tmp_path, "sweep.json", cfg_payload)
    assert run(RunConfig("sweep", cfg, str(tmp_path / "out"))) == 2
    modp = write_config(
        tmp_path,
        "modp.json",
        {
            "base": {"kind": "integers"},
            "vars": ["x", "y"],
            "ideal": ["x", "y"],
            "primes": [3, 3],
            "e_max": 2,
        },
    )
    assert run(RunConfig("modp", modp, str(tmp_path / "out"), assume_reduced=True)) == 2


def test_modp_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        "modp.json",
        {
            "base": {"kind": "integers"},
            "vars": ["x", "y", "z"],
            "defining": ["z^4 + x*y*z^2 + (x^3+y^3)*z + x^2*y^2"],
            "ideal": ["x", "y", "z"],
            "primes": [3, 5],
            "e_max": 2,
        },
    )
    out = tmp_path / "out"
    assert run(RunConfig("modp", cfg, str(out), assume_reduced=True)) == 0
    payload = json.load(open(out / "modp.json"))
    assert payload["overall_bound"] is not None
    assert payload["verdicts"]["modp_bounded"]["passed"] is True
    # without the flag: validation error
    assert run(RunConfig("modp", cfg, str(out))) == 2


MODP_MONSKY = {
    "base": {"kind": "integers"},
    "vars": ["x", "y", "z"],
    "defining": ["z^4 + x*y*z^2 + (x^3+y^3)*z + x^2*y^2"],
    "ideal": ["x", "y", "z"],
    "primes": [2, 3, 5],
    "e_max": 3,
}
SWEEP_ALL_CHECKS = dict(
    MONSKY_SWEEP,
    fibers=MONSKY_SWEEP["fibers"] + [{"t": "s", "m": 2}],
    n_max=4,
    checks=["term_semicontinuity", "hk_monotonicity", "hs_lex", "uniform"],
)


@pytest.mark.parametrize("command, payload", [("sweep", SWEEP_ALL_CHECKS), ("modp", MODP_MONSKY)])
def test_artifacts_do_not_depend_on_the_colength_order(tmp_path, monkeypatch, command, payload):
    # lengths are counted on bases in QuotientRingSpec.colength_ring(); with
    # that pinned to the ring's own order every artifact must be the same
    cfg = write_config(tmp_path, "config.json", payload)
    chosen, own = tmp_path / "chosen", tmp_path / "own"
    choose = QuotientRingSpec.colength_ring
    moved = []

    def spy(R):
        ring = choose(R)
        moved.append(ring is not R.ring)
        return ring

    monkeypatch.setattr(QuotientRingSpec, "colength_ring", spy)
    assert run(RunConfig(command, cfg, str(chosen), assume_reduced=True)) == 0
    assert any(moved)  # the Monsky quartic is computed in Noether position
    monkeypatch.setattr(QuotientRingSpec, "colength_ring", lambda R: R.ring)
    assert run(RunConfig(command, cfg, str(own), assume_reduced=True)) == 0
    files = sorted(path.name for path in chosen.iterdir())
    assert files == sorted(path.name for path in own.iterdir())
    for name in files:
        assert (chosen / name).read_bytes() == (own / name).read_bytes(), name


def test_groebner_cli_with_matrix(tmp_path):
    cfg = write_config(
        tmp_path,
        "gb.json",
        {
            "field": {"kind": "prime", "p": 5},
            "vars": ["x"],
            "generators": ["x^2 - 3"],
            "matrix_of": "x",
        },
    )
    out = tmp_path / "out"
    assert run(RunConfig("groebner", cfg, str(out))) == 0
    payload = json.load(open(out / "groebner.json"))
    assert payload["colength"] == 2
    assert payload["matrix"] == [["0", "3"], ["1", "0"]]


def test_groebner_cli_basis_of_a_hypersurface_is_reduced(tmp_path):
    # the groebner artifact shows the reduced basis, never a minimal one
    generators = ["z^4 + x*y*z^2 + (x^3+y^3)*z + x^2*y^2", "x^25", "y^25", "z^25"]
    cfg = write_config(tmp_path, "gb.json", {"field": {"kind": "prime", "p": 5},
                                             "vars": ["x", "y", "z"], "generators": generators})
    out = tmp_path / "out"
    assert run(RunConfig("groebner", cfg, str(out))) == 0
    ring = PolynomialRing(PrimeField(5), ("x", "y", "z"))
    expected = classic_buchberger(IdealPresentation(ring, tuple(map(ring.parse, generators))))
    payload = json.load(open(out / "groebner.json"))
    assert payload["basis"] == [repr(g) for g in expected.elements]
    assert payload["colength"] == 1870


def test_disc_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        "disc.json",
        {"field": {"kind": "prime", "p": 5}, "vars": ["x"], "generators": ["x^2 - 1"]},
    )
    out = tmp_path / "out"
    assert run(RunConfig("disc", cfg, str(out))) == 0
    assert json.load(open(out / "disc.json"))["discriminant"] == "4"


def test_rsig_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        "rsig.json",
        {
            "field": {"kind": "prime", "p": 2},
            "vars": ["x", "y"],
            "sop": ["x", "y"],
            "e_max": 2,
        },
    )
    out = tmp_path / "out"
    assert run(RunConfig("rsig", cfg, str(out))) == 0
    payload = json.load(open(out / "rsig.json"))
    assert payload["minimum"] == "1/1"
    assert "upper bound" in payload["note"]


def test_csig_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        "csig.json",
        {
            "field": {"kind": "prime", "p": 2},
            "vars": ["x", "y"],
            "sop": ["x^2", "y^2"],
            "candidates": [["x^2", "y^2", "x*y"]],
            "e_max": 2,
        },
    )
    out = tmp_path / "out"
    assert run(RunConfig("csig", cfg, str(out))) == 0
    assert json.load(open(out / "csig.json"))["minimum"] == "1/1"


def test_hs_cli(tmp_path):
    cfg = write_config(
        tmp_path,
        "hs.json",
        {
            "field": {"kind": "prime", "p": 2},
            "vars": ["x", "y"],
            "ideal": ["x", "y"],
            "n_max": 5,
        },
    )
    out = tmp_path / "out"
    assert run(RunConfig("hs", cfg, str(out))) == 0
    payload = json.load(open(out / "hs.json"))
    assert payload["multiplicity"] == 1


def test_hs_cli_reports_non_stabilization(tmp_path):
    cfg = write_config(
        tmp_path,
        "hs.json",
        {
            "field": {"kind": "prime", "p": 2},
            "vars": ["x", "y"],
            "ideal": ["x", "y"],
            "n_max": 4,  # too short for three stable second differences
        },
    )
    out = tmp_path / "out"
    assert run(RunConfig("hs", cfg, str(out))) == 0
    payload = json.load(open(out / "hs.json"))
    assert payload["multiplicity"] is None
    assert payload["diagnostic"]  # too few samples for three stable differences


def test_sweep_term_check_only_at_e_max_1(tmp_path):
    cfg_payload = dict(MONSKY_SWEEP)
    cfg_payload["e_max"] = 1
    cfg_payload["checks"] = ["term_semicontinuity"]
    cfg = write_config(tmp_path, "sweep.json", cfg_payload)
    out = tmp_path / "out"
    assert run(RunConfig("sweep", cfg, str(out))) == 0
    payload = json.load(open(out / "sweep.json"))
    assert payload["verdicts"]["term_semicontinuity"]["passed"] is True
    assert payload["fibers"][0]["estimate"] is None
    # monotonicity needs two samples: requesting it at e_max = 1 is an error
    cfg_payload["checks"] = ["hk_monotonicity"]
    cfg2 = write_config(tmp_path, "sweep2.json", cfg_payload)
    assert run(RunConfig("sweep", cfg2, str(out))) == 2


def test_modp_rejects_non_prime(tmp_path):
    cfg = write_config(
        tmp_path,
        "modp.json",
        {
            "base": {"kind": "integers"},
            "vars": ["x", "y"],
            "ideal": ["x", "y"],
            "primes": [4],
            "e_max": 2,
        },
    )
    assert run(RunConfig("modp", cfg, str(tmp_path / "out"), assume_reduced=True)) == 2


def test_exit_code_1_on_failed_verdict(tmp_path, monkeypatch):
    # force a FAIL by doctoring the verdict function is intrusive; instead run
    # modp with a family that skips a requested prime (table incomplete)
    cfg = write_config(
        tmp_path,
        "modp.json",
        {
            "base": {"kind": "integers"},
            "vars": ["x", "y"],
            "defining": ["7*x^2 + 7*y^2"],
            "ideal": ["x", "y"],
            "primes": [3, 7],
            "e_max": 2,
        },
    )
    assert run(RunConfig("modp", cfg, str(tmp_path / "out"), assume_reduced=True)) == 1


def test_internal_error_exit_3(tmp_path):
    cfg = write_config(tmp_path, "weird.json", {"field": 17, "vars": 3, "ideal": [], "e_max": 1})
    code = run(RunConfig("hk", cfg, str(tmp_path / "out")))
    assert code in (2, 3)  # malformed shapes must not escape as tracebacks
    # a genuinely internal failure: unwritable output directory
    cfg2 = write_config(
        tmp_path,
        "ok.json",
        {
            "field": {"kind": "prime", "p": 2},
            "vars": ["x"],
            "ideal": ["x"],
            "e_max": 1,
        },
    )
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    assert run(RunConfig("hk", cfg2, str(blocked))) == 3


def test_emit_plotdata_empty_is_error(tmp_path):
    with pytest.raises(ValidationError):
        emit_plotdata([], str(tmp_path), "x")


def test_csv_format_flag(tmp_path):
    cfg = write_config(
        tmp_path,
        "hk.json",
        {
            "field": {"kind": "prime", "p": 3},
            "vars": ["x"],
            "ideal": ["x"],
            "e_max": 2,
        },
    )
    out = tmp_path / "csvonly"
    assert run(RunConfig("hk", cfg, str(out), formats=("csv",))) == 0
    assert (out / "hk.csv").exists()
    assert not (out / "hk.json").exists()
    out = tmp_path / "jsononly"
    assert main(["hk", cfg, "-o", str(out), "--format", "json"]) == 0
    assert (out / "hk.json").exists()
    assert not (out / "hk.csv").exists()


@pytest.mark.parametrize("command, payload, name", [
    ("modp", dict(MODP_PLANE, primes=[2**31 + 11]), "primes"),
    ("modp", dict(MODP_PLANE, primes=[2**61 - 1]), "primes"),
    ("modp", dict(MODP_PLANE, primes=[]), "primes"),
    ("hk", dict(HK_PLANE, vars=[]), "vars"),
    ("modp", dict(MODP_PLANE, vars=[], ideal=["2"]), "vars"),
    ("sweep", {"base": {"kind": "param", "p": 2, "params": ["t"]}, "vars": [], "ideal": ["t"],
               "fibers": [{"generic": True}, {"t": "1"}], "e_max": 2}, "vars"),
])
def test_bad_input_exits_2_naming_the_field_before_writing(tmp_path, capsys, command, payload,
                                                           name):
    cfg = write_config(tmp_path, "bad.json", payload)
    out = tmp_path / "out"
    assert run(RunConfig(command, cfg, str(out), assume_reduced=True)) == 2
    assert repr(name) in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, payload", [
    ("hk", dict(HK_PLANE, e_max=40)),
    ("groebner", dict(HK_PLANE, vars=["x"], generators=["x^2147483648"])),
])
def test_exponent_overflow_exits_2(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "big.json", payload)
    assert run(RunConfig(command, cfg, str(tmp_path / "out"))) == 2
    assert capsys.readouterr().err.startswith("error: monomial exponent overflow")


def test_modp_with_every_prime_skipped_exits_1_without_plot_files(tmp_path, capsys):
    cfg = write_config(tmp_path, "modp.json", dict(MODP_PLANE, defining=["6*x^2 + 6*y^3"]))
    out = tmp_path / "out"
    assert run(RunConfig("modp", cfg, str(out), assume_reduced=True)) == 1
    printed = capsys.readouterr().out
    assert printed.count("warning: prime") == 2
    assert "modp_bounded: FAIL" in printed
    assert sorted(p.name for p in out.iterdir()) == ["modp.csv", "modp.json"]
