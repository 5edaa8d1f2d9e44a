"""Workload definitions: seeded config generation and the correctness gate.

Each workload turns a seed into one qtorus config plus the command line that
runs it, and knows how to grade that command's stdout.  The gate never asks
qtorus for the expected answer: the expected check names are listed here and
the expected search answer is derived from the instance by hand.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

# Instance (iii): d=3, N=4, A01=1, A02=2, A12=0 (full skew matrix mod 4).
INSTANCE_III = {"d": 3, "N": 4, "A": [[0, 1, 2], [3, 0, 0], [2, 0, 0]]}
# Instance (i): d=2, N=2, A01=1.  Used only for the tiny self-test inputs.
INSTANCE_I = {"d": 2, "N": 2, "A": [[0, 1], [1, 0]]}

SUITE_CHECKS = {
    "cocycle": (
        "sigma_bicharacter",
        "comm_factor_multiplicative",
        "comm_factor_alternating",
        "radical_brute_force",
    ),
    "lie": (
        "torus_associativity",
        "torus_commutation_rule",
        "torus_commutator_jacobi",
        "derivation_leibniz",
        "derivation_jacobi",
        "inner_action_is_commutator",
        "pair_jacobi",
        "torus_copies_commute",
        "center_detection",
        "untwisted_map_homomorphism",
    ),
    "module": (
        "gl_bracket_law",
        "gl_cyclicity_probe",
        "module_axiom",
        "weight_eigenvalue",
        "ideal_relations",
        "c2_product",
    ),
    "section3": (
        "inner_quadratic_relation",
        "zero_modes_commute",
        "zero_mode_ideal",
        "weight_op_bracket",
        "weight_op_constancy",
        "weight_shift",
    ),
    "section4": (
        "zero_mode_scalar",
        "zero_mode_recursion",
        "extract_twist_round_trip",
        "diagonal_intertwiner",
    ),
    "irreducibility": ("irreducibility_evidence", "reducible_fixture_detected"),
}

# delta values on (iii) whose expected character sigma(delta, -) has exponents
# (1, 0, 0) mod 4, which search-beta reaches as its 17th character (16
# rejected, 1 accepted); all four have two nonzero entries.  Drawing delta
# from this class varies the input with the seed but not the work done.
SEARCH_DELTAS_III = ((0, 1, 1), (0, 1, -1), (-1, -1, 0), (1, -1, 0))
SEARCH_DELTAS_I = ((0, 1),)

# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "algebra-iii": ("cocycle", "lie"),
    "module-iii": ("module", "section3", "section4", "irreducibility"),
    "search-iii": None,  # search-beta, not verify
}

# (box radius, samples) per workload on instance (iii): the smallest sizes
# that keep each workload's layer split, so that a run holds several
# processes and reports their median (see run.py).  algebra-iii cannot shrink:
# torus_copies_commute is exhaustive over a fixed window (343**2 gbracket
# calls on d=3) whatever the box, and it is most of that process.
SIZES = {"algebra-iii": (3, 200), "module-iii": (2, 20), "search-iii": (1, 200)}


def _instance(tiny: bool) -> dict:
    return dict(INSTANCE_I if tiny else INSTANCE_III)


def make_case(workload: str, seed: int, tiny: bool = False, corrupt_sigma: bool = False):
    """Return (config, cli_args_after_config, expected) for one seeded run.

    `tiny` swaps in instance (i) with 8 samples for the self-test;
    `corrupt_sigma` sets the library's deliberate cocycle-breaking flag so
    that the gate can be shown to fail."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    torus = _instance(tiny)
    if corrupt_sigma:
        torus["_corrupt_sigma"] = True
    d = torus["d"]
    box, samples = (3, 8) if tiny else SIZES[workload]
    cfg = {"torus": torus, "box": [box] * d, "seed": seed, "samples": samples}
    suites = WORKLOADS[workload]
    if workload == "algebra-iii":
        cfg["module"] = {"V": "natural"}
    elif workload == "module-iii":
        alpha = ["1/2", 0] if tiny else ["1/2", 0, "1/3"]
        twist = [1, 0] if tiny else [3, 0, 0]
        cfg["module"] = {
            "V": "natural",
            "alpha": alpha,
            "twist": {"modulus": torus["N"], "exponents": twist},
            "flavor": "G_g",
        }
    else:
        delta = random.Random(seed).choice(SEARCH_DELTAS_I if tiny else SEARCH_DELTAS_III)
        A, N = torus["A"], torus["N"]
        # the F_g twist that v(n) -> sigma(delta, n) v(n + delta) relabels away
        twist = [sum(A[r][c] * delta[c] for c in range(d)) % N for r in range(d)]
        cfg["module"] = {
            "V": "natural",
            "alpha": [0] * d,
            "twist": {"modulus": N, "exponents": twist},
            "flavor": "F_g",
        }
        cfg["beta_candidates"] = [["1/2"] + [0] * (d - 1), [-x for x in delta]]
        return cfg, ["search-beta"], {"delta": list(delta), "torus": torus}
    names = sorted(n for s in suites for n in SUITE_CHECKS[s])
    return cfg, ["verify", "--suite", ",".join(suites)], {"checks": names}


def _sigma_exponents(torus: dict, delta):
    """Exponents s_i (mod N) with sigma(delta, e_i) = zeta_N^{s_i}.

    sigma(n, m) = zeta_N^{sum_{j > i} A[j][i] n_j m_i} (the library's cocycle)."""
    A, N, d = torus["A"], torus["N"], torus["d"]
    return [sum(A[j][i] * delta[j] for j in range(i + 1, d)) % N for i in range(d)]


def grade(workload: str, expected: dict, exit_code: int, stdout: str):
    """Return (attempted, failed) for one command's output."""
    if workload == "search-iii":
        return 1, 0 if exit_code == 0 and _search_ok(expected, stdout) else 1
    names = expected["checks"]
    if exit_code != 0:
        return len(names), len(names)
    rows, summary = [], None
    try:
        for line in stdout.splitlines():
            row = json.loads(line)
            if row.get("check") == "summary":
                summary = row
            else:
                rows.append(row)
    except (json.JSONDecodeError, AttributeError):
        return len(names), len(names)
    seen = [r.get("check") for r in rows]
    failed = sum(1 for r in rows if r.get("pass") is not True or r.get("defect") != "0")
    # every expected check missing and every unexpected or repeated row is a failure
    failed += len(set(names) - set(seen)) + len(seen) - len(set(seen) & set(names))
    if not (summary and summary.get("pass") is True and summary.get("total") == len(names)):
        failed = max(failed, 1)
    return len(names), min(failed, len(names))


def _search_ok(expected: dict, stdout: str) -> bool:
    try:
        row = json.loads(stdout)
        delta = expected["delta"]
        if row.get("found") is not True or row.get("delta") != delta:
            return False
        if row.get("beta") != [str(-x) for x in delta]:
            return False
        M = int(row["character"]["modulus"])
        ks = [int(k) for k in row["character"]["exponents"]]
    except (json.JSONDecodeError, AttributeError, KeyError, TypeError, ValueError):
        return False
    N = expected["torus"]["N"]
    want = _sigma_exponents(expected["torus"], delta)
    # zeta_M^k == zeta_N^s  iff  k/M == s/N mod 1
    return len(ks) == len(want) and all(
        (Fraction(k, M) - Fraction(s, N)).denominator == 1 for k, s in zip(ks, want)
    )
