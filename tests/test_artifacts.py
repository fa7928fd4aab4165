"""Golden artifacts: the benchmark configs at seed 1, and one small config
per subcommand, write byte-identical files.

The benchmark configs are those of `bench/workloads.py` for seed 1,
embedded here as JSON.  Each run goes through `cli.run` in-process, with
the flags the benchmark passes, and every file it writes is pinned by its
sha256, with the exit code for the small configs.  A change that means to
alter an artifact updates its pin here and names it in CHANGES.md.
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


# one small config per subcommand: (subcommand, config, --assume-reduced,
# exit code, sha256 of each file written)
SUBCOMMANDS = {
    # the t = 0 Monsky quartic over F_2
    "hk": ("hk", {
        "field": {"kind": "prime", "p": 2},
        "vars": ["x", "y", "z"],
        "defining": ["z^4 + x*y*z^2 + (x^3+y^3)*z"],
        "ideal": ["x", "y", "z"],
        "e_max": 4,
    }, False, 0, {
        "hk.csv": "385b500c87ab6b79dbddd3ab89a5211ac89711218d934ea60beca5579b4fc109",
        "hk.json": "af77f014580eaab452bcefad2d039de7b59d7ccc9a6f03ecf74a77820aae4890",
        "hk_plot_series.dat": "c552d8a99afee254693ae5a035f938ce9714370dd66fb2341abf558f0f97283c",
    }),
    "hs": ("hs", {
        "field": {"kind": "prime", "p": 3},
        "vars": ["x", "y"],
        "ideal": ["x^2", "y^3"],
        "n_max": 6,
    }, False, 0, {
        "hs.csv": "53c2854a771b90f72db1690f31205ba60d84c39c528d6027eb19ac41a7c41d01",
        "hs.json": "0ccd8e50454ff9b6ebd7d406397cefd3aea2f54cff19bfbaa249cf9db8c1ffce",
    }),
    # the twisted-cubic cone over GF(4) with I = m: lengths from the defining basis
    "hs-twisted-cubic": ("hs", {
        "field": {"kind": "extension", "p": 2, "m": 2},
        "vars": ["x", "y", "z", "w"],
        "defining": ["x*z - y^2", "x*w - y*z", "y*w - z^2"],
        "ideal": ["x", "y", "z", "w"],
        "n_max": 6,
    }, False, 0, {
        "hs.csv": "b13377d9d99488897cb06738cc0ffb40e6924662d7e2fcf02b9cd3b7025d1432",
        "hs.json": "f268aa746ce37a4c3316227ae4cca64c12ba9f4fb5e1cb8ef8c8a82101477447",
    }),
    "csig": ("csig", {
        "field": {"kind": "prime", "p": 2},
        "vars": ["x", "y"],
        "defining": ["x*y"],
        "sop": ["x + y"],
        "candidates": [["x + y", "x"], ["x + y", "x^2"], ["x + y"]],
        "e_max": 3,
    }, False, 0, {
        "csig.csv": "4c935e8e436f6498d4273b1c19e774dd287ad48a35d9009753f4cd6964c6c64b",
        "csig.json": "d5b3f6f9e3ad546d234062b803bbdcb78264f920a47b501146c676525912212c",
    }),
    "groebner-gf4": ("groebner", {
        "field": {"kind": "extension", "p": 2, "m": 2},
        "vars": ["x", "y"],
        "generators": ["x^2 + s*y", "y^3 + x*y"],
        "matrix_of": "x + s",
    }, False, 0, {
        "groebner.json": "8246f16e113faef72c2f9eb2af496ca1bd9c53c8c295297731a0c520282cc1a6",
    }),
    "groebner-f3t-lex": ("groebner", {
        "field": {"kind": "rational_function", "p": 3},
        "vars": ["x", "y"],
        "order": "lex",
        "generators": ["t*x^2 + y", "y^2 + (t+1)*x"],
    }, False, 0, {
        "groebner.json": "aca53b512fcc0f57414ce3be8867d457407b0e2ce34c94b1d68dd28628961483",
    }),
    "disc": ("disc", {
        "field": {"kind": "prime", "p": 5},
        "vars": ["x", "y"],
        "generators": ["x^3 + 2*x + 1", "y^2 - x"],
    }, False, 0, {
        "disc.json": "5d818ba9ce588cbadfc7c0736108e6d0f00e62e2f271e38bc2c2ebd06d7c9190",
    }),
    "rsig": ("rsig", {
        "field": {"kind": "extension", "p": 2, "m": 2},
        "vars": ["x", "y", "z"],
        "defining": ["x*z - y^2"],
        "sop": ["x", "z"],
        "e_max": 3,
    }, False, 0, {
        "rsig.csv": "177b35fa278d360e892f18188bd910fe70c65969b708fb0f8fa6fcec306a1921",
        "rsig.json": "0583f8788d614610568238f70348c0ae91156db519ddc42c139e669574d0e18d",
    }),
    # fibers at the generic point, t = 0, t = 1 and t = s + 1 in GF(9)
    "sweep": ("sweep", {
        "base": {"kind": "param", "p": 3, "params": ["t"]},
        "vars": ["x", "y"],
        "ideal": ["x^2 + t*y^2", "y^3"],
        "fibers": [{"generic": True}, {"t": "0"}, {"t": "1"}, {"t": "s + 1", "m": 2}],
        "e_max": 3,
        "n_max": 5,
        "checks": ["term_semicontinuity", "hk_monotonicity", "hs_lex", "uniform"],
    }, True, 0, {
        "sweep.csv": "d766f94c8060d1609cbae32cf4d7ae94dd2fb02a723b676209d44b7f624e481f",
        "sweep.json": "ac97f66d54d42326eb6d327992d366745d1b89221b1a79046adc6e41042bbfc1",
        "sweep_plot_generic.dat":
            "0413f49cb2efa03f70578f54b1ab39adb1fcf17ba61230af065786bdd771d77a",
        "sweep_plot_t_0.dat": "0413f49cb2efa03f70578f54b1ab39adb1fcf17ba61230af065786bdd771d77a",
        "sweep_plot_t_1.dat": "0413f49cb2efa03f70578f54b1ab39adb1fcf17ba61230af065786bdd771d77a",
        "sweep_plot_t_s___1_GF_3_2_.dat":
            "0413f49cb2efa03f70578f54b1ab39adb1fcf17ba61230af065786bdd771d77a",
    }),
    # the defining generator vanishes mod 7, so modp.json holds the warning "prime 7
    # skipped: degenerate fiber p=7: defining generator 7*y^3 + 7*x^2 specializes to zero"
    "modp": ("modp", {
        "base": {"kind": "integers"},
        "vars": ["x", "y"],
        "defining": ["7*x^2 + 7*y^3"],
        "ideal": ["x", "y"],
        "primes": [2, 3, 7],
        "e_max": 3,
    }, True, 1, {
        "modp.csv": "d873ecb6274692f4ef3c74038ee98db3fb7093205bafb3744226a7322ffbe2c9",
        "modp.json": "1d92b28543d030c75bb7f907e94714f822bd5886659df647827ab19d19bd936f",
        "modp_plot_p_2.dat": "447fd735132481072560bf1e0e097235c09020e5a1404ac5ae9712504e8f6677",
        "modp_plot_p_3.dat": "447fd735132481072560bf1e0e097235c09020e5a1404ac5ae9712504e8f6677",
    }),
}


def run_and_hash(subcommand, cfg: dict, tmp_path, assume_reduced):
    """(exit code, {file name: sha256}) of one in-process run."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = run(RunConfig(subcommand, str(path), str(out), assume_reduced=assume_reduced))
    written = {
        file: hashlib.sha256((out / file).read_bytes()).hexdigest()
        for file in sorted(os.listdir(out))
    }
    return code, written


@pytest.mark.parametrize("subcommand", sorted(CONFIGS))
def test_bench_configs_write_the_pinned_artifacts(subcommand, tmp_path, capsys):
    cfg = json.loads(CONFIGS[subcommand])
    assert run_and_hash(subcommand, cfg, tmp_path, ASSUME_REDUCED[subcommand]) == (
        0, SHA256[subcommand])


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_subcommands_write_the_pinned_artifacts(name, tmp_path, capsys):
    subcommand, cfg, assume_reduced, code, expected = SUBCOMMANDS[name]
    assert run_and_hash(subcommand, cfg, tmp_path, assume_reduced) == (code, expected)
