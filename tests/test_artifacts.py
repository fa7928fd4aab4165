"""Golden artifacts: the benchmark configs at seed 1 write byte-identical files.

The configs are those of `bench/workloads.py` for seed 1, embedded here as
JSON.  Each run goes through `cli.run` in-process, with the flags the
benchmark passes, and every file it writes is pinned by its sha256.  A
change that means to alter an artifact updates its pin here and names it
in CHANGES.md.
"""

import hashlib
import json
import os

import pytest

from hklab.cli import RunConfig, run

CONFIGS = {
    "sweep": """{
        "base": {"kind": "param", "p": 2, "params": ["t"]},
        "vars": ["x", "y", "z"],
        "defining": ["z^4 + x*y*z^2 + (x^3+y^3)*z + t*x^2*y^2"],
        "ideal": ["x", "y", "z"],
        "fibers": [{"t": "1"}, {"t": "s", "m": 2}, {"t": "s", "m": 3},
                   {"generic": true}, {"t": "0"}],
        "e_max": 5, "n_max": 8,
        "checks": ["term_semicontinuity", "hk_monotonicity", "hs_lex", "uniform"]
    }""",
    "modp": """{
        "base": {"kind": "integers"},
        "vars": ["x", "y", "z"],
        "defining": ["z^4 + x*y*z^2 + (x^3+y^3)*z + x^2*y^2"],
        "ideal": ["x", "y", "z"],
        "primes": [3, 5, 2],
        "e_max": 3
    }""",
    "rsig": """{
        "field": {"kind": "extension", "p": 2, "m": 4},
        "vars": ["x", "y", "z", "w"],
        "defining": ["x*z - y^2", "x*w - y*z", "y*w - z^2"],
        "sop": ["x", "w"],
        "e_max": 8,
        "grid": ["s", "s^3 + s", "0", "s^3 + s^2 + s", "s^2 + s", "s^2 + 1", "s + 1",
                 "s^3", "s^2 + s + 1", "s^3 + s + 1", "s^3 + s^2 + s + 1", "1",
                 "s^3 + s^2", "s^3 + s^2 + 1", "s^3 + 1", "s^2"]
    }""",
}

ASSUME_REDUCED = {"sweep": True, "modp": True, "rsig": False}

SHA256 = {
    "sweep": {
        "sweep.csv": "668f5d4b0ebfdc793a0fa1dbeb7bc667be143c58e22c7904a282f6891aff4b9e",
        "sweep.json": "19690d8a501ba7bf13f388d7b32ee938ca66ee70bd21e72e9ee9e7196c3b3181",
        "sweep_plot_generic.dat":
            "af7c25448d2e29d86176a5d7e67bbfc516eb41c62419b1c511f55fb4e50b9750",
        "sweep_plot_t_0.dat": "0f0f8b65315ff7c556c8a576831da4a366c4710f2595b7c77172eb4748418f77",
        "sweep_plot_t_1.dat": "819f0ca62dbbc93d276bc5333f5628cbebdaef4c244b62d185133881daf31557",
        "sweep_plot_t_s_GF_2_2_.dat":
            "9c286e2b705e41c511962ca5538739b3794e3d0ad0dfb65f77c25d97296366c6",
        "sweep_plot_t_s_GF_2_3_.dat":
            "01cf57b014ecb9968d08e67f5ba2116966abc2238bb01eee962a81cd0b9025c6",
    },
    "modp": {
        "modp.csv": "c9bd925a2c0ffb9ed07ad7285e2e832dd64a7fe171468e0414995f174b1df351",
        "modp.json": "edeb093cf2f0ec44dae9b293e5a1600f82c1ee905875c147eb7aad3fbc069723",
        "modp_plot_p_2.dat": "c58b4e6b0330c813bfceb50ed24c56e0475a5dac9d8baf154a25db215463577d",
        "modp_plot_p_3.dat": "93322cfb1f3dfb232dd210d9bf1ce5984d011ac573be4b1ad6efb1fc6588d86a",
        "modp_plot_p_5.dat": "933871af7715c2cd6428cd4c019655776b63a092f8d2dda189a8fdef8212c831",
    },
    "rsig": {
        "rsig.csv": "9be9468af43717b7f6f99261c4dc4e13f026881a19066b1a84c448d7273125a3",
        "rsig.json": "ffc9d541168bc1981d77ab1ad3ab9eeeedf83ba6787159d40fcc3cc22e0d4727",
    },
}


@pytest.mark.parametrize("subcommand", sorted(CONFIGS))
def test_bench_configs_write_the_pinned_artifacts(subcommand, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(json.loads(CONFIGS[subcommand])))
    out = tmp_path / "out"
    code = run(RunConfig(subcommand, str(path), str(out),
                         assume_reduced=ASSUME_REDUCED[subcommand]))
    assert code == 0
    written = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(out))
    }
    assert written == SHA256[subcommand]
