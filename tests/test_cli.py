"""End-to-end tests for the command-line interface (subprocess level)."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

INSTANCE_I = {
    "torus": {"d": 2, "N": 2, "A": [[0, 1], [1, 0]]},
    "module": {"V": "natural", "alpha": [0, 0], "twist": None, "flavor": "F"},
    "box": [3, 3],
    "seed": 11,
    "samples": 40,
}

INSTANCE_GG = {
    "torus": {"d": 2, "N": 2, "A": [[0, 1], [1, 0]]},
    "module": {
        "V": "natural",
        "alpha": [0, 0],
        "twist": {"modulus": 2, "exponents": [1, 0]},
        "flavor": "G_g",
    },
    "box": [3, 3],
    "seed": 5,
    "samples": 30,
}

INSTANCE_FG = {
    "torus": {"d": 2, "N": 2, "A": [[0, 1], [1, 0]]},
    "module": {
        "V": "natural",
        "alpha": [1, 0],
        "twist": {"modulus": 2, "exponents": [1, 0]},
        "flavor": "F_g",
    },
    "box": [3, 3],
    "seed": 5,
    "samples": 30,
    "beta_candidates": [["1/2", 0], [1, 1], [1, -1]],
}

CORRUPT = {
    "torus": {"d": 2, "N": 2, "A": [[0, 1], [1, 0]], "_corrupt_sigma": True},
    "box": [3, 3],
    "seed": 11,
    "samples": 40,
}


def write_config(tmp_path, cfg, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "qtorus.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_radical_json_and_text(tmp_path):
    cfg = write_config(tmp_path, INSTANCE_I)
    res = run_cli("radical", "--config", cfg)
    assert res.returncode == 0
    obj = json.loads(res.stdout)
    assert obj["basis"] == [[2, 0], [0, 2]]
    assert obj["diagonal"] is True
    assert obj["diagonal_orders"] == [2, 2]
    assert obj["index"] == 4

    res = run_cli("radical", "--config", cfg, "--text")
    assert res.returncode == 0
    assert "index in the full lattice: 4" in res.stdout


def test_radical_rejects_non_skew_matrix(tmp_path):
    cfg = write_config(tmp_path, {"torus": {"d": 2, "N": 3, "A": [[0, 1], [1, 0]]}})
    res = run_cli("radical", "--config", cfg)
    assert res.returncode == 2
    assert "skew" in res.stderr


def test_missing_config_file_is_usage_error(tmp_path):
    res = run_cli("radical", "--config", str(tmp_path / "nope.json"))
    assert res.returncode == 2


def test_verify_default_instance_passes(tmp_path):
    cfg = write_config(tmp_path, INSTANCE_I)
    res = run_cli("verify", "--config", cfg)
    assert res.returncode == 0
    lines = [json.loads(line) for line in res.stdout.splitlines()]
    summary = lines[-1]
    assert summary["check"] == "summary"
    assert summary["pass"] is True
    assert summary["failed"] == 0
    body = lines[:-1]
    assert all(r["pass"] for r in body)
    names = [r["check"] for r in body]
    assert names == sorted(names)


def test_verify_corrupted_sigma_fails_cocycle(tmp_path):
    cfg = write_config(tmp_path, CORRUPT)
    res = run_cli("verify", "--config", cfg, "--suite", "cocycle")
    assert res.returncode == 1
    lines = [json.loads(line) for line in res.stdout.splitlines()]
    failing = [r for r in lines[:-1] if not r["pass"]]
    assert failing
    assert any(r["check"] == "sigma_bicharacter" for r in failing)


def test_verify_skips_the_residue_enumeration_past_its_limit(tmp_path):
    # 47^3 = 103,823 residues: the brute-force radical check is skipped, not raised
    torus = {"d": 3, "N": 47, "A": [[0, 1, 0], [46, 0, 0], [0, 0, 0]]}
    cfg = write_config(tmp_path, {"torus": torus})
    res = run_cli("verify", "--config", cfg, "--suite", "cocycle")
    assert res.returncode == 0 and "Traceback" not in res.stderr
    rows = {r["check"]: r for r in map(json.loads, res.stdout.splitlines())}
    row = rows["radical_brute_force"]
    assert row["pass"] and row["samples"] == 0
    assert row["note"] == "skipped: N^d exceeds 100000 residues"
    assert rows["summary"]["failed"] == 0


def test_verify_lie_walks_the_residue_pairs_at_rank_four(tmp_path):
    # d = 4, N = 2: the copies check brackets the 2^4 x 2^4 residue pairs,
    # not the 7^4 x 7^4 window (5.76 M brackets)
    torus = {"d": 4, "N": 2, "A": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]}
    cfg = write_config(tmp_path, {"torus": torus})
    res = run_cli("verify", "--config", cfg, "--suite", "lie", "--samples", "8")
    assert res.returncode == 0 and res.stderr == ""
    rows = {r["check"]: r for r in map(json.loads, res.stdout.splitlines())}
    row = rows["torus_copies_commute"]
    assert row["pass"] and row["samples"] == 256


def test_verify_suite_selector_errors(tmp_path):
    cfg = write_config(tmp_path, INSTANCE_I)
    assert run_cli("verify", "--config", cfg, "--suite", ",").returncode == 2
    assert run_cli("verify", "--config", cfg, "--suite", "").returncode == 2
    assert run_cli("verify", "--config", cfg, "--suite", "bogus").returncode == 2


def test_verify_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, INSTANCE_I)
    first = run_cli("verify", "--config", cfg, "--suite", "cocycle,module")
    second = run_cli("verify", "--config", cfg, "--suite", "cocycle,module")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    reseeded = run_cli(
        "verify", "--config", cfg, "--suite", "cocycle,module", "--seed", "99"
    )
    assert reseeded.returncode == 0
    assert reseeded.stdout != first.stdout


def test_act_identity_eigenvalue_and_truncation(tmp_path):
    cfg = write_config(tmp_path, INSTANCE_I)
    one = {"M": 1, "coeffs": ["1/1"]}
    zero = {"M": 1, "coeffs": ["0/1"]}
    vec = json.dumps(
        {"box": [3, 3], "dim": 2, "entries": [{"n": [2, 1], "w": [one, zero]}]}
    )

    ident = json.dumps(
        {"der": {"inner": [], "witt": []}, "torus": [{"n": [0, 0], "c": one}]}
    )
    res = run_cli("act", "--config", cfg, "--element", ident, "--vector", vec)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["truncated"] is False
    assert out["entries"][0]["n"] == [2, 1]
    assert json.loads(json.dumps(out["entries"][0]["w"][0]))["coeffs"] == ["1/1"]

    # degree-zero Witt operator: scalar (u, n + alpha) = 2 at n = (2, 1)
    witt = json.dumps(
        {"der": {"inner": [], "witt": [{"r": [0, 0], "u": [one, zero]}]}, "torus": []}
    )
    res = run_cli("act", "--config", cfg, "--element", witt, "--vector", vec)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["entries"][0]["w"][0]["coeffs"] == ["2/1"]

    # pushing past the box edge truncates
    shift = json.dumps(
        {"der": {"inner": [], "witt": []}, "torus": [{"n": [2, 0], "c": one}]}
    )
    res = run_cli("act", "--config", cfg, "--element", shift, "--vector", vec)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["truncated"] is True
    assert out["entries"] == []

    res = run_cli("act", "--config", cfg, "--element", "{bad json", "--vector", vec)
    assert res.returncode == 2


def test_lambda_command(tmp_path):
    cfg = write_config(tmp_path, INSTANCE_I)
    res = run_cli("lambda", "--config", cfg, "--s", "1,0", "--n", "0,1")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["scalar"] is True
    assert out["value"]["coeffs"] == ["2/1"]

    # a point that starts with a minus sign is attached with "="
    res = run_cli("lambda", "--config", cfg, "--s=-1,0", "--n=0,-1")
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["s"] == [-1, 0] and out["n"] == [0, -1]

    res = run_cli("lambda", "--config", cfg, "--s", "1,0,0", "--n", "0,1")
    assert res.returncode == 2
    res = run_cli("lambda", "--config", cfg, "--s", "x,y", "--n", "0,1")
    assert res.returncode == 2


def test_iso_command(tmp_path):
    cfg = write_config(tmp_path, INSTANCE_GG)
    res = run_cli("iso", "--config", cfg)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["pass"] is True and out["defect"] == "0"

    plain = write_config(tmp_path, INSTANCE_I, "plain.json")
    res = run_cli("iso", "--config", plain)
    assert res.returncode == 2


def test_search_beta_command(tmp_path):
    cfg = write_config(tmp_path, INSTANCE_FG)
    res = run_cli("search-beta", "--config", cfg)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["found"] is True
    assert out["beta"] == ["1", "1"]
    assert out["delta"] == [0, -1]
    assert out["character"] == {"exponents": [1, 0], "modulus": 2}

    # candidates that never produce an integral shift: reported, not an error
    narrowed = dict(INSTANCE_FG)
    narrowed["beta_candidates"] = [["1/2", 0]]
    cfg2 = write_config(tmp_path, narrowed, "narrow.json")
    res = run_cli("search-beta", "--config", cfg2)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["found"] is False
    assert out["note"] == "not found within candidate set"

    missing = dict(INSTANCE_FG)
    del missing["beta_candidates"]
    cfg3 = write_config(tmp_path, missing, "missing.json")
    assert run_cli("search-beta", "--config", cfg3).returncode == 2
    cfg4 = write_config(tmp_path, _with(None, "beta_candidates", [5]), "flat.json")
    assert run_cli("search-beta", "--config", cfg4).returncode == 2
    # a row of the wrong length is refused wherever it stands, also after
    # the matching beta
    late = _with(None, "beta_candidates", [[1, 1], ["0", "-1", "1"]])
    res = run_cli("search-beta", "--config", write_config(tmp_path, late, "late.json"))
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == "error: beta candidates must have one entry per rank\n"


def test_irreducible_command(tmp_path):
    cfg = write_config(tmp_path, INSTANCE_I)
    res = run_cli("irreducible", "--config", cfg)
    assert res.returncode == 0
    out = json.loads(res.stdout)
    assert out["pass"] is True
    assert out["algebra_dim"] == out["end_dim"] == 4
    assert out["weight_ops_closed_form"] is True
    assert out["transports_bijective"] is True


def test_irreducible_decides_where_no_box_reaches_the_radical(tmp_path):
    # the radical is 30 Z^2, far outside the box of radius 3: the probe reads
    # the weight operators of (30, 0) and (0, 30) at the points that decide
    # them, and no option bounds where it reads
    cfg = write_config(tmp_path, {"torus": {"d": 2, "N": 30, "A": [[0, 1], [29, 0]]},
                                  "box": [3, 3]})
    res = run_cli("irreducible", "--config", cfg)
    assert res.returncode == 0 and res.stderr == ""
    out = json.loads(res.stdout)
    assert out["pass"] is True and out["algebra_dim"] == out["end_dim"] == 4
    assert run_cli("irreducible", "--config", cfg, "--inner-radius", "2").returncode == 2


def test_verify_section3_at_rank_16_lists_no_cube(tmp_path):
    # weight_op_bracket reads its expressions at the simplex grid |j| <= 2,
    # 153 points at rank 16; filtering the cube of 3**16 points for it took
    # 15-20 s on a 2-core machine
    d = 16
    A = [[0] * d for _ in range(d)]
    A[0][1] = A[1][0] = 1
    cfg = write_config(tmp_path, {"torus": {"d": d, "N": 2, "A": A},
                                  "module": {"V": "trivial", "alpha": [0] * d, "flavor": "F"},
                                  "box": [1] * d, "seed": 1, "samples": 20})
    t0 = time.monotonic()
    res = run_cli("verify", "--config", cfg, "--suite", "section3")
    elapsed = time.monotonic() - t0
    assert res.returncode == 0 and res.stderr == ""
    assert json.loads(res.stdout.splitlines()[-1])["failed"] == 0
    assert elapsed < 5, elapsed


@pytest.mark.parametrize(
    "cfg",
    [
        # (iii) at box 1
        {"torus": {"d": 3, "N": 4, "A": [[0, 1, 2], [3, 0, 0], [2, 0, 0]]},
         "module": {"V": "natural", "alpha": ["1/2", 0, "1/3"],
                    "twist": {"modulus": 4, "exponents": [3, 0, 0]}, "flavor": "G_g"},
         "box": [1, 1, 1], "seed": 5, "samples": 20},
        # radical rows (47,0,0), (0,47,0), (0,0,1): two of them far outside the box
        {"torus": {"d": 3, "N": 47, "A": [[0, 1, 0], [46, 0, 0], [0, 0, 0]]}, "samples": 4},
    ],
    ids=["iii-box-1", "N-47"],
)
def test_verify_decides_the_irreducibility_rows_whatever_the_box(tmp_path, cfg):
    res = run_cli("verify", "--config", write_config(tmp_path, cfg))
    assert res.returncode == 0 and res.stderr == ""
    rows = {r["check"]: r for r in map(json.loads, res.stdout.splitlines())}
    # natural(3) and natural(3) + natural(3): both algebras have dimension 9
    for name in ("irreducibility_evidence", "reducible_fixture_detected"):
        assert rows[name]["pass"] and rows[name]["samples"] == 9
    assert "note" not in rows["reducible_fixture_detected"]
    assert rows["irreducibility_evidence"]["note"] == "algebra of dimension 9 of 9"
    assert rows["summary"]["failed"] == 0


def test_structure_table_is_antisymmetric(tmp_path):
    cfg = write_config(tmp_path, INSTANCE_I)
    res = run_cli("structure", "--config", cfg)
    assert res.returncode == 0
    rows = [json.loads(line) for line in res.stdout.splitlines()]
    # 9 torus + 8 inner (radical excluded) + 2 degree-zero Witt generators
    assert len(rows) == 19 * 19
    table = {(r["x"], r["y"]): r["bracket"] for r in rows}
    # antisymmetry: [x,y] + [y,x] must serialize to negated coefficients
    import qtorus.semidirect as semi
    from qtorus.torus import TorusSpec as TS

    spec = TS.from_json(INSTANCE_I["torus"])
    for (x, y), br in table.items():
        a = semi.GElement.from_json(spec, br)
        b = semi.GElement.from_json(spec, table[(y, x)])
        assert (a + b).is_zero()
    # [D(e_i,0), D(e_j,0)] = 0
    assert table[("D(e0,0)", "D(e1,0)")] == {
        "der": {"inner": [], "witt": []},
        "torus": [],
    }


def test_verify_text_mode_lines(tmp_path):
    cfg = write_config(tmp_path, INSTANCE_I)
    res = run_cli("verify", "--config", cfg, "--suite", "cocycle", "--text")
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[-1].endswith("checks passed")
    assert all(line.startswith(("PASS", "FAIL")) for line in lines[:-1])


# -- golden output -----------------------------------------------------------------
#
# sha256 of stdout for fixed configs, recorded from an earlier release of the
# program, so that a refactor of the module action cannot change any report
# byte (pass/fail, defect witnesses, sample counts, search answer).

INSTANCE_II_TORUS = {"d": 2, "N": 3, "A": [[0, 1], [2, 0]]}
INSTANCE_III_TORUS = {"d": 3, "N": 4, "A": [[0, 1, 2], [3, 0, 0], [2, 0, 0]]}
MODULE_SUITES = "module,section3,section4,irreducibility"
_ONE = {"M": 1, "coeffs": ["1/1"]}
_HALF = {"M": 1, "coeffs": ["1/2"]}
_ZETA3 = {"M": 3, "coeffs": ["0/1", "1/1"]}

GOLDEN = {
    "verify-i-F": (
        {"torus": INSTANCE_I["torus"], "module": {"V": "natural", "flavor": "F"},
         "box": [3, 3], "seed": 3, "samples": 20},
        ["verify"],
        0,
        "01e66e9cece736adaee20da3bb3f26d09cf49d01b2c8b8c8b97e2a2cacfbcc4f",
    ),
    "verify-ii-Fg": (
        {"torus": INSTANCE_II_TORUS,
         "module": {"V": "sym:2", "alpha": ["1/2", 0],
                    "twist": {"modulus": 3, "exponents": [1, 0]}, "flavor": "F_g"},
         "box": [2, 2], "seed": 4, "samples": 20},
        ["verify", "--suite", MODULE_SUITES],
        0,
        "759dabb9312c0ddd73809a52930c5aaa957ae5926e1b1c7b4d84e4838b0c2e36",
    ),
    "verify-iii-Gg": (
        {"torus": INSTANCE_III_TORUS,
         "module": {"V": "natural", "alpha": ["1/2", 0, "1/3"],
                    "twist": {"modulus": 4, "exponents": [3, 0, 0]}, "flavor": "G_g"},
         "box": [2, 2, 2], "seed": 5, "samples": 20},
        ["verify", "--suite", MODULE_SUITES],
        0,
        "f92b42b44676f705f241870ea1d951b1356ea2e3c73e0b7a0ae7353d661aab9d",
    ),
    # nine failing rows: pins the first-defect witness of each failing check,
    # and the irreducibility note that names the failed part
    "verify-ii-Gg-corrupt": (
        {"torus": dict(INSTANCE_II_TORUS, _corrupt_sigma=True),
         "module": {"V": "sym:2", "alpha": [0, "1/3"],
                    "twist": {"modulus": 3, "exponents": [0, 2]}, "flavor": "G_g"},
         "box": [2, 2], "seed": 6, "samples": 20},
        ["verify", "--suite", MODULE_SUITES],
        1,
        "9f6f7b4d6c8a10f345ca90d9d9b16d40c683c2f82bf379e7e1d32c18989df82d",
    ),
    # fourteen failing rows across all six suites, the cocycle and lie ones included
    "verify-i-F-corrupt": (
        {"torus": dict(INSTANCE_I["torus"], _corrupt_sigma=True),
         "module": {"V": "natural", "flavor": "F"},
         "box": [3, 3], "seed": 7, "samples": 20},
        ["verify"],
        1,
        "d8a6bfec0a7b5546c69ac8ac1927e1e11bfe3df70a9da91739e40d55dfb2c239",
    ),
    "search-beta-iii": (
        {"torus": INSTANCE_III_TORUS,
         "module": {"V": "natural", "alpha": [0, 0, 0],
                    "twist": {"modulus": 4, "exponents": [3, 0, 0]}, "flavor": "F_g"},
         "box": [1, 1, 1], "beta_candidates": [["1/2", 0, 0], [0, -1, -1]]},
        ["search-beta"],
        0,
        "9baaf175e7f8f9faf8e8d52217e2661b65bc994c402feeba09885fcb026d7574",
    ),
    "act-ii-Fg": (
        {"torus": INSTANCE_II_TORUS,
         "module": {"V": "sym:2", "alpha": ["1/2", 0],
                    "twist": {"modulus": 3, "exponents": [1, 0]}, "flavor": "F_g"},
         "box": [2, 2]},
        ["act",
         "--element", json.dumps({
             "der": {"inner": [{"s": [1, 0], "c": _HALF}],
                     "witt": [{"r": [0, 3], "u": [_ONE, _ZETA3]}]},
             "torus": [{"n": [0, 1], "c": _ZETA3}]}),
         "--vector", json.dumps({
             "box": [2, 2], "dim": 3,
             "entries": [{"n": [1, -1], "w": [_ONE, _HALF, _ZETA3]},
                         {"n": [2, 0], "w": [_ZETA3, _ONE, _ONE]}]})],
        0,
        "3dad88192550e0f8d426fbda74c320244d569ba15e1f1fa27ae49615712d32d2",
    ),
    "iso-iii-Gg": (
        {"torus": INSTANCE_III_TORUS,
         "module": {"V": "natural", "alpha": ["1/2", 0, "1/3"],
                    "twist": {"modulus": 4, "exponents": [3, 0, 0]}, "flavor": "G_g"},
         "box": [2, 2, 2], "seed": 5},
        ["iso"],
        0,
        "36ed3ac0bfbb7bc1cf5e90308f4ff8bd2d82ece3ff563fd7e6eb18675dad1d0d",
    ),
    "irreducible-ii-Fg": (
        {"torus": INSTANCE_II_TORUS,
         "module": {"V": "sym:2", "alpha": ["1/2", 0],
                    "twist": {"modulus": 3, "exponents": [1, 0]}, "flavor": "F_g"},
         "box": [2, 2], "seed": 4},
        ["irreducible"],
        0,
        "c537f3119154a365bb5518aa5de85184ea249323806f961a549ce1977c884bab",
    ),
    "irreducible-ii-Gg-corrupt": (
        {"torus": dict(INSTANCE_II_TORUS, _corrupt_sigma=True),
         "module": {"V": "sym:2", "alpha": [0, "1/3"],
                    "twist": {"modulus": 3, "exponents": [0, 2]}, "flavor": "G_g"},
         "box": [2, 2], "seed": 6},
        ["irreducible"],
        1,
        "dbb6c6bfc70604a019c040682bb5a91fc4b073f1707ca6ae2d5bc4015eb37142",
    ),
    "lambda-ii-Fg": (
        {"torus": INSTANCE_II_TORUS,
         "module": {"V": "sym:2", "alpha": ["1/2", 0],
                    "twist": {"modulus": 3, "exponents": [1, 0]}, "flavor": "F_g"},
         "box": [2, 2], "seed": 4},
        ["lambda", "--s", "1,0", "--n", "0,1"],
        0,
        "17b73eabf873443f81b3d94505074970dfcde292e45cd72b369bc1abccc54439",
    ),
    # every bracket of two generators in the window: 56**2 rows on (iii)
    "structure-iii": (
        {"torus": INSTANCE_III_TORUS},
        ["structure", "--radius", "1"],
        0,
        "f1c07a3b1ed252a06fb85da79308dbe13049b904c3e2ccde34def2e7dc30e624",
    ),
    "structure-i-text": (
        {"torus": INSTANCE_I["torus"]},
        ["structure", "--radius", "2", "--text"],
        0,
        "0b0020d0d94cd2df822317ca57719a501366fcd9da72d95cf08b41a24c485c8b",
    ),
    "radical-iii": (
        {"torus": INSTANCE_III_TORUS},
        ["radical"],
        0,
        "63063b16d801bed4b2bf706115d1e0740c13f46bf79f834e0a8cadeda2ddee96",
    ),
    # a radical whose Hermite rows (7,0,0) and (0,0,7) fit no small box
    "radical-d3-N7-text": (
        {"torus": {"d": 3, "N": 7, "A": [[0, 1, 2], [6, 0, 0], [5, 0, 0]]}},
        ["radical", "--text"],
        0,
        "1b74df85e787cfea9b7585855b1596472413396ad320abc599fc68bc20dabdaa",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_stdout(tmp_path, name):
    cfg, args, code, digest = GOLDEN[name]
    path = write_config(tmp_path, cfg)
    res = run_cli(args[0], "--config", path, *args[1:])
    assert res.returncode == code, res.stderr
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def module_suites_stdout(tmp_path_factory):
    """verify --suite MODULE_SUITES's stdout on a golden config, once per
    config and box radius."""
    seen = {}

    def run(name, radius):
        if (name, radius) not in seen:
            cfg = dict(GOLDEN[name][0])
            cfg["box"] = [radius] * cfg["torus"]["d"]
            path = write_config(tmp_path_factory.mktemp("box"), cfg)
            seen[name, radius] = run_cli("verify", "--config", path, "--suite", MODULE_SUITES)
        return seen[name, radius]

    return run


@pytest.mark.parametrize("radius", [1, 2, 3, 5])
@pytest.mark.parametrize("name", ["verify-i-F-corrupt", "verify-ii-Gg-corrupt"])
def test_the_box_does_not_change_a_failing_verify_report(module_suites_stdout, name, radius):
    """The module suites read no degree box: on the corrupt-cocycle goldens,
    whose rows fail and print their witnesses, every radius gives the stdout
    of the golden config's own box."""
    own = GOLDEN[name][0]["box"][0]
    res, ref = module_suites_stdout(name, radius), module_suites_stdout(name, own)
    assert res.returncode == ref.returncode == 1 and res.stderr == ""
    assert res.stdout == ref.stdout


def _with(section, key, value):
    cfg = json.loads(json.dumps(INSTANCE_FG))
    (cfg if section is None else cfg[section])[key] = value
    return cfg


@pytest.mark.parametrize(
    "cfg",
    [
        _with(None, "seed", "x"),
        _with("torus", "N", 2.5),
        _with("torus", "A", 5),
        _with("torus", "A", [[0, "a"], ["b", 0]]),
        _with("module", "V", 3),
        _with("module", "alpha", ["1/0", 0]),
        _with("module", "twist", {"exponents": [1, 0]}),
        _with("module", "twist", {"modulus": "x", "exponents": [1, 0]}),
        _with(None, "samples", 1.5),
        _with(None, "box", [True, 1]),
    ],
    ids=["seed-str", "N-float", "A-int", "A-str", "V-int", "alpha-1/0", "twist-no-modulus",
         "twist-modulus-str", "samples-float", "box-bool"],
)
def test_malformed_config_is_usage_error(tmp_path, cfg):
    res = run_cli("verify", "--config", write_config(tmp_path, cfg), "--suite", "cocycle")
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1


_T10 = {"torus": [{"n": [1, 0], "c": _ONE}]}
_INNER_FLOAT = {"der": {"inner": [{"s": [1.7, 0], "c": _ONE}], "witt": []}}


@pytest.mark.parametrize(
    "element, entry, point, fields",
    [
        ({"torus": [{"n": [1, 0], "c": "1/0"}]}, _ONE, [0, 0], {}),
        ({"torus": [{"n": [1, 0], "c": {"M": 1, "coeffs": ["1/0"]}}]}, _ONE, [0, 0], {}),
        (_T10, "1/0", [0, 0], {}),
        ({"torus": [{"n": [1, 0], "c": {"M": 2.5, "coeffs": ["1/1"]}}]}, _ONE, [0, 0], {}),
        (_T10, {"zeta": [6.9, 5.5]}, [0, 0], {}),
        (_INNER_FLOAT, _ONE, [0, 0], {}),
        (_T10, _ONE, [0.5, 0], {}),
        (_T10, _ONE, [True, 0], {}),
        (_T10, _ONE, [0, 0], {"box": [3.9, 3]}),
        (_T10, _ONE, [0, 0], {"dim": 2.7}),
        (_T10, _ONE, [0, 0], {"dim": "2"}),
        (_T10, _ONE, [0, 0], {"truncated": "no"}),
    ],
    ids=["element-coefficient", "coeffs", "vector-entry", "float-conductor", "float-zeta",
         "float-degree", "float-point", "bool-point", "float-box", "float-dim", "str-dim",
         "str-truncated"],
)
def test_malformed_act_input_is_usage_error(tmp_path, element, entry, point, fields):
    cfg = write_config(tmp_path, INSTANCE_I)
    vec = {"box": [3, 3], "dim": 2, "entries": [{"n": point, "w": [entry, _ONE]}], **fields}
    res = run_cli(
        "act", "--config", cfg, "--element", json.dumps(element), "--vector", json.dumps(vec)
    )
    assert res.returncode == 2
    assert res.stderr.startswith("error: ") and len(res.stderr.splitlines()) == 1


def test_act_conductor_above_the_cap_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.delenv("QTORUS_MAX_CONDUCTOR", raising=False)
    cfg = write_config(
        tmp_path, {"torus": {"d": 1, "N": 1, "A": [[0]]}, "module": {"V": "trivial"}}
    )
    entry = {"M": 241, "coeffs": ["1/1"] + ["0/1"] * 239}
    vec = {"box": [3], "dim": 1, "entries": [{"n": [0], "w": [entry]}]}
    element = {"torus": [{"n": [0], "c": _ONE}]}
    res = run_cli(
        "act", "--config", cfg, "--element", json.dumps(element), "--vector", json.dumps(vec)
    )
    assert res.returncode == 2
    assert res.stderr == "error: conductor 241 exceeds QTORUS_MAX_CONDUCTOR=240\n"


@pytest.mark.parametrize("raw", ["abc", "0"])
@pytest.mark.parametrize("command", [["radical"], ["verify", "--suite", "cocycle"]])
def test_malformed_conductor_cap_is_usage_error(tmp_path, monkeypatch, raw, command):
    monkeypatch.setenv("QTORUS_MAX_CONDUCTOR", raw)
    cfg = write_config(tmp_path, INSTANCE_I)
    res = run_cli(command[0], "--config", cfg, *command[1:])
    assert res.returncode == 2 and res.stdout == ""
    assert res.stderr == (
        f"error: QTORUS_MAX_CONDUCTOR must be an integer of at least 1, got {raw!r}\n"
    )


# -- the irreducibility algebra dimensions and the rows that print them -------------

INSTANCE_III_GG = {
    "torus": INSTANCE_III_TORUS,
    "module": {"V": "natural", "alpha": ["1/2", 0, "1/3"],
               "twist": {"modulus": 4, "exponents": [3, 0, 0]}, "flavor": "G_g"},
    "box": [2, 2, 2],
    "seed": 1,
    "samples": 20,
}


@pytest.mark.parametrize("cfg", [INSTANCE_I, INSTANCE_III_GG], ids=["i", "iii"])
def test_irreducibility_algebra_dimensions_are_the_fields_of_its_rows(tmp_path, cfg):
    from types import SimpleNamespace

    from qtorus.cli import build_instance
    from qtorus.fmodule import ModuleSpec, TwistCharacter, irreducibility_evidence
    from qtorus.glmodules import direct_sum, natural

    spec, ms, _box, _seed, _ = build_instance(cfg, SimpleNamespace(seed=None, samples=None))
    rep = irreducibility_evidence(ms)
    assert rep["end_dim"] == ms.V.dim**2
    assert rep["pass"] and rep["algebra_dim"] == rep["end_dim"]
    fixture = ModuleSpec(
        spec, direct_sum(natural(spec.d), natural(spec.d)), ms.alpha,
        TwistCharacter.trivial(spec), "F",
    )
    red = irreducibility_evidence(fixture)
    # two equal blocks: the images generate one copy of the d x d matrices
    assert (red["algebra_dim"], red["end_dim"]) == (spec.d**2, 4 * spec.d**2)

    path = write_config(tmp_path, cfg)
    res = run_cli("irreducible", "--config", path)
    assert res.returncode == 0
    assert json.loads(res.stdout) == {
        "check": "irreducibility_evidence", "instance": ms.label(), **rep
    }
    res = run_cli("verify", "--config", path, "--suite", "irreducibility")
    assert res.returncode == 0
    rows = {r["check"]: r for r in map(json.loads, res.stdout.splitlines())}
    evidence = rows["irreducibility_evidence"]
    assert evidence["samples"] == rep["algebra_dim"]
    assert evidence["note"] == f"algebra of dimension {rep['algebra_dim']} of {rep['end_dim']}"
    assert rows["reducible_fixture_detected"]["samples"] == red["algebra_dim"]


def test_the_irreducibility_note_names_the_failed_part(tmp_path):
    """Under the corrupt cocycle of the verify-ii-Gg-corrupt golden the
    weight operators differ from their closed form, while V is irreducible:
    the row fails and its note names part (1), not the algebra's full
    dimension."""
    cfg, _args, _code, _digest = GOLDEN["verify-ii-Gg-corrupt"]
    path = write_config(tmp_path, cfg)
    res = run_cli("irreducible", "--config", path)
    rep = json.loads(res.stdout)
    assert res.returncode == 1 and rep["pass"] is False
    assert not rep["weight_ops_closed_form"] and rep["transports_bijective"]
    assert rep["algebra_dim"] == rep["end_dim"] == 9
    res = run_cli("verify", "--config", path, "--suite", "irreducibility")
    row = {r["check"]: r for r in map(json.loads, res.stdout.splitlines())}["irreducibility_evidence"]
    assert row["pass"] is False and row["samples"] == 9
    assert row["note"] == "part (1) failed: weight operators differ from their closed form"


def test_every_public_name_imports_from_the_package_on_demand():
    """The package re-exports its names lazily (PEP 562): importing it loads
    no layer, and each name in __all__ loads its own."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys, qtorus\n"
        "def layers(): return sorted(m for m in sys.modules if m.startswith('qtorus.'))\n"
        "assert layers() == [], layers()\n"
        "from qtorus import TorusSpec\n"
        "assert layers() == ['qtorus.cyclotomic', 'qtorus.errors', 'qtorus.lattice', 'qtorus.torus'], layers()\n"
        "for name in qtorus.__all__:\n"
        "    exec(f'from qtorus import {name}')\n"
        "    assert name in dir(qtorus), name\n"
        "try:\n"
        "    qtorus.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('qtorus.no_such_name resolved')\n"
        "from qtorus import *\n"
        "print(len(qtorus.__all__), act.__module__)\n"
    )
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == ["39", "qtorus.fmodule"]


def test_the_console_script_is_the_process_entry_point():
    text = (pathlib.Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
    scripts = text.split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert scripts.split() == ["qtorus", "=", '"qtorus.cli:run"']
    from qtorus import cli

    assert callable(cli.run)


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_that_closes_the_pipe_early_is_not_an_error(tmp_path, unbuffered):
    """structure on (iii) prints about 455 KB; a reader that closes after 100
    bytes makes the writes fail with a broken pipe, and the process still
    exits 0 with nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    path = write_config(tmp_path, {"torus": {"d": 3, "N": 4, "A": [[0, 1, 2], [3, 0, 0], [2, 0, 0]]}})
    proc = subprocess.Popen(
        [sys.executable, "-m", "qtorus.cli", "structure", "--config", path, "--radius", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    head = proc.stdout.read(100)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert len(head) == 100 and head.startswith(b'{"bracket": ')
    assert err == b""


def test_the_cli_imports_no_dataclasses():
    # compared with a bare interpreter, so that a site hook's imports do not count
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))

    def modules(stmt):
        code = f"import sys; {stmt}print(*sys.modules, sep='\\n')"
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        return set(res.stdout.split())

    loaded = modules("import qtorus.cli; ") - modules("")
    assert "qtorus.cli" in loaded
    # the check suites and what they seed from load only in the commands that run them
    assert not loaded & {"dataclasses", "inspect", "qtorus.checks", "hashlib", "random"}


def _run_fresh(tmp_path, cfg, *argv):
    """Run one command through main() in a fresh interpreter; its exit code
    and the set of qtorus modules it loaded, by their names in the package."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys\n"
        "from qtorus.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, *(m for m in sys.modules if m.startswith('qtorus.')), file=sys.stderr)\n"
    )
    args = [argv[0], "--config", write_config(tmp_path, cfg), *argv[1:]]
    res = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env
    )
    exit_code, *loaded = res.stderr.split()
    return int(exit_code), {name[len("qtorus."):] for name in loaded}


def test_search_radical_and_act_finish_without_loading_the_check_suites(tmp_path):
    one = {"M": 1, "coeffs": ["1/1"]}
    vec = json.dumps({"box": [3, 3], "dim": 2, "entries": [{"n": [2, 1], "w": [one, one]}]})
    elt = json.dumps({"der": {"inner": [], "witt": []}, "torus": [{"n": [1, 0], "c": one}]})
    for cfg, argv in [
        (INSTANCE_FG, ["search-beta"]),
        (INSTANCE_I, ["radical"]),
        (INSTANCE_I, ["act", "--element", elt, "--vector", vec]),
    ]:
        code, loaded = _run_fresh(tmp_path, cfg, *argv)
        assert code == 0 and "checks" not in loaded, argv
    # the commands that run a suite do load it
    code, loaded = _run_fresh(tmp_path, INSTANCE_GG, "iso")
    assert code == 0 and "checks" in loaded


def test_irreducible_finishes_without_loading_the_check_suites(tmp_path):
    code, loaded = _run_fresh(tmp_path, INSTANCE_I, "irreducible")
    assert code == 0 and "checks" not in loaded


_BASE = {"cli", "errors", "cyclotomic", "lattice", "torus"}
_ALGEBRA = {"algebra", "derivations", "semidirect"}
_MODULE = {"glmodules", "fmodule"}


@pytest.mark.parametrize(
    "argv, layers",
    [
        (["radical"], _BASE),
        (["structure"], _BASE | _ALGEBRA),
        (["search-beta"], _BASE | _ALGEBRA | _MODULE),
        (["verify", "--suite", "cocycle"], _BASE | _ALGEBRA | _MODULE | {"checks"}),
    ],
    ids=["radical", "structure", "search-beta", "verify"],
)
def test_each_command_loads_the_layers_it_runs_and_no_other(tmp_path, argv, layers):
    """radical runs the torus layer alone and structure the algebra layers;
    the module layers load in build_instance, and the check suites in the
    commands that run them."""
    assert _run_fresh(tmp_path, INSTANCE_FG, *argv) == (0, layers)


@pytest.mark.parametrize(
    "cfg, argv, expected",
    [
        (INSTANCE_I, ["radical"], 0),
        (CORRUPT, ["verify", "--suite", "cocycle"], 1),
        ({"torus": {"d": 2}}, ["radical"], 2),
        (None, ["radical"], 2),
    ],
    ids=["pass", "failed-check", "config-error", "no-config-argument"],
)
def test_a_process_freezes_its_heap_before_it_exits(tmp_path, cfg, argv, expected):
    """Whatever the exit path, the process entry point has frozen the heap by
    the time atexit handlers run, so the interpreter's final collections skip
    it; main() called in-process freezes nothing."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    hook = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
    )
    entries = {
        "run": "import runpy\nrunpy.run_module('qtorus.cli', run_name='__main__', alter_sys=True)\n",
        "main": "from qtorus.cli import main\nsys.exit(main(sys.argv[1:]))\n",
    }
    args = [*argv] if cfg is None else [argv[0], "--config", write_config(tmp_path, cfg), *argv[1:]]
    for entry, frozen in (("run", True), ("main", False)):
        res = subprocess.run(
            [sys.executable, "-c", hook + entries[entry], *args],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == expected, (entry, res.stderr)
        assert res.stderr.splitlines()[-1] == f"frozen {frozen}", (entry, res.stderr)
        assert "Traceback" not in res.stderr


def test_the_suite_help_lists_the_check_suites(capsys):
    from qtorus import checks, cli

    assert cli.SUITE_NAMES == checks.SUITE_NAMES
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "comma-separated suite names: " + ", ".join(checks.SUITE_NAMES) in help_text


def test_a_module_above_the_dimension_ceiling_is_a_fast_usage_error(tmp_path, capsys):
    from qtorus import cli

    cfg = {"torus": {"d": 3, "N": 4, "A": [[0, 1, 2], [3, 0, 0], [2, 0, 0]]},
           "module": {"V": "sym:99"}}
    path = write_config(tmp_path, cfg)
    start = time.perf_counter()
    assert cli.main(["search-beta", "--config", path]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == "error: module sym:99 has dimension 5050, above the ceiling of 32\n"
    res = run_cli("verify", "--config", path)
    assert res.returncode == 2 and res.stderr == err and res.stdout == ""


def test_a_rank_above_the_ceiling_is_a_fast_usage_error(tmp_path, capsys, monkeypatch):
    """d = 33 is refused by TorusSpec before any cyclotomic field is built
    (so before V), with exit 2 and one error line."""
    from qtorus import cli, cyclotomic

    d = 33
    cfg = {"torus": {"d": d, "N": 2, "A": [[0] * d for _ in range(d)]}, "module": {"V": "trivial"}}
    path = write_config(tmp_path, cfg)
    monkeypatch.setattr(cyclotomic, "_FIELDS", {})
    start = time.perf_counter()
    assert cli.main(["verify", "--config", path]) == 2
    assert time.perf_counter() - start < 1.0
    assert cyclotomic._FIELDS == {}
    err = capsys.readouterr().err
    assert err == "error: rank d = 33 is above the ceiling of 32\n"
    res = run_cli("verify", "--config", path)
    assert res.returncode == 2 and res.stderr == err and res.stdout == ""
