"""Acceptance criteria, one test per criterion, exact zero-tolerance checks.

Reference instances:
  (i)   d=2, N=2, upper entry A[0][1]=1
  (ii)  d=2, N=3, upper entry A[0][1]=1
  (iii) d=3, N=4, upper entries A[0][1]=1, A[0][2]=2, A[1][2]=0
Coefficient modules: natural, sym:2, ext:2, trivial.  Box radius 3,
200 seeded samples per check.  Each test prints one PASS/FAIL line.
"""

import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

from qtorus import checks
from qtorus.algebra import TorusElement, tmul
from qtorus.derivations import DerElement, dact
from qtorus.fmodule import (
    ModuleSpec,
    TwistCharacter,
    intertwiner_check,
    irreducibility_evidence,
    search_twist_equivalence,
)
from qtorus.glmodules import algebra_dim, direct_sum, natural, parse_module
from qtorus.semidirect import (
    GElement,
    gbracket,
    untwisted_homomorphism_defect,
    untwisted_spec,
)
from qtorus.torus import TorusSpec

from _gl_oracle import conjugated_sum

SEED = 20260819
SAMPLES = 200

INSTANCES = {
    "(i)": TorusSpec.from_upper(2, 2, {(0, 1): 1}),
    "(ii)": TorusSpec.from_upper(2, 3, {(0, 1): 1}),
    "(iii)": TorusSpec.from_upper(3, 4, {(0, 1): 1, (0, 2): 2, (1, 2): 0}),
}
MODULE_SELECTORS = ("natural", "sym:2", "ext:2", "trivial")


def plain_module(spec, selector="natural"):
    return ModuleSpec(
        spec,
        parse_module(spec.d, selector),
        [0] * spec.d,
        TwistCharacter.trivial(spec),
        "F",
    )


def sub_rng(label):
    h = hashlib.sha256(f"{SEED}:{label}".encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def conclude(num, ok, msg):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} — {msg}")
    assert ok, f"criterion {num} failed: {msg}"


def failing(reports):
    return [r["check"] for r in reports if not r["pass"]]


def test_criterion_01_cocycle_suite():
    worst = 0.0
    bad = []
    for name, spec in INSTANCES.items():
        t0 = time.monotonic()
        reports = checks.cocycle_suite(spec, SEED, SAMPLES)
        worst = max(worst, time.monotonic() - t0)
        bad += [f"{name}:{c}" for c in failing(reports)]
    conclude(
        1,
        not bad and worst < 5.0,
        f"cocycle suite zero defects on all instances, worst {worst:.2f}s < 5s"
        + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_02_algebra_suite():
    bad = []
    for name, spec in INSTANCES.items():
        reports = checks.lie_suite(spec, SEED, SAMPLES)
        wanted = {
            "torus_associativity",
            "torus_commutation_rule",
            "torus_commutator_jacobi",
        }
        got = {r["check"] for r in reports}
        if not wanted <= got:
            bad.append(f"{name}: missing {wanted - got}")
        bad += [f"{name}:{c}" for c in failing(reports) if c in wanted]
    conclude(
        2,
        not bad,
        "associativity, commutation rule, commutator Jacobi exact on all instances"
        + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_03_radical_vs_brute_force():
    t0 = time.monotonic()
    bad = []
    for name, spec in INSTANCES.items():
        rad = spec.radical()
        residues = set()
        for n in itertools.product(range(spec.N), repeat=spec.d):
            image = [
                sum(spec.A[r][c] * n[c] for c in range(spec.d)) % spec.N
                for r in range(spec.d)
            ]
            if all(x == 0 for x in image):
                residues.add(n)
        member = {
            n
            for n in itertools.product(range(spec.N), repeat=spec.d)
            if rad.contains(n)
        }
        if member != residues:
            bad.append(f"{name}: membership mismatch")
        if rad.index != spec.N**spec.d // len(residues):
            bad.append(f"{name}: index {rad.index}")
    elapsed = time.monotonic() - t0
    rad_i = INSTANCES["(i)"].radical()
    rad_ii = INSTANCES["(ii)"].radical()
    rad_iii = INSTANCES["(iii)"].radical()
    if not (rad_i.diagonal and tuple(rad_i.diagonal_orders) == (2, 2)):
        bad.append("(i): diagonal orders")
    if not (rad_ii.diagonal and tuple(rad_ii.diagonal_orders) == (3, 3)):
        bad.append("(ii): diagonal orders")
    if rad_iii.index != 16:
        bad.append(f"(iii): index {rad_iii.index} != 16")
    conclude(
        3,
        not bad and elapsed < 1.0,
        f"radical matches brute force; orders (2,2)/(3,3); (iii) index 16; "
        f"{elapsed:.3f}s < 1s" + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_04_derivation_suite():
    bad = []
    for name, spec in INSTANCES.items():
        rng = sub_rng(f"leibniz:{name}")
        rad = spec.radical()
        gens = []
        for i in range(spec.d):
            u = [1 if j == i else 0 for j in range(spec.d)]
            gens.append(DerElement.witt_term(spec, u, (0,) * spec.d))
            gens.append(DerElement.witt_term(spec, u, tuple(rad.basis[i % len(rad.basis)])))
        for _ in range(SAMPLES):
            a = TorusElement.monomial(
                spec, tuple(rng.randint(-3, 3) for _ in range(spec.d))
            )
            b = TorusElement.monomial(
                spec, tuple(rng.randint(-3, 3) for _ in range(spec.d))
            )
            s = tuple(rng.randint(-2, 2) for _ in range(spec.d))
            for x in gens + [DerElement.ad(spec, s)]:
                diff = dact(x, tmul(a, b)) - tmul(dact(x, a), b) - tmul(a, dact(x, b))
                if not diff.is_zero():
                    bad.append(f"{name}: Leibniz")
                    break
        reports = checks.lie_suite(spec, SEED, SAMPLES)
        for c in ("derivation_jacobi", "inner_action_is_commutator"):
            if c in failing(reports):
                bad.append(f"{name}:{c}")
    conclude(
        4,
        not bad,
        "Leibniz for every generator on 200 sampled products; bracket Jacobi; "
        "inner action = torus commutator" + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_05_semidirect_suite():
    bad = []
    for name, spec in INSTANCES.items():
        reports = checks.lie_suite(spec, SEED, SAMPLES)
        for c in ("pair_jacobi", "torus_copies_commute"):
            if c in failing(reports):
                bad.append(f"{name}:{c}")
    # comparison map, 100 sampled pairs, instances with diagonal radical
    for name in ("(i)", "(ii)"):
        spec = INSTANCES[name]
        model = untwisted_spec(spec.d)
        rad = spec.radical()
        rng = sub_rng(f"phi:{name}")

        def rand_untwisted():
            x0 = GElement.zero(model)
            coeffs = [rng.randint(-1, 1) for _ in rad.basis]
            r = tuple(
                sum(c * row[k] for c, row in zip(coeffs, rad.basis))
                for k in range(spec.d)
            )
            u = [Fraction(rng.randint(-2, 2)) for _ in range(spec.d)]
            x0 = x0 + GElement.from_der(DerElement.witt_term(model, u, r))
            coeffs = [rng.randint(-1, 1) for _ in rad.basis]
            s = tuple(
                sum(c * row[k] for c, row in zip(coeffs, rad.basis))
                for k in range(spec.d)
            )
            return x0 + GElement.from_torus(
                TorusElement.monomial(model, s, Fraction(rng.randint(-2, 2), 1))
            )

        for _ in range(100):
            diff = untwisted_homomorphism_defect(spec, rand_untwisted(), rand_untwisted())
            if not diff.is_zero():
                bad.append(f"{name}: comparison map")
                break
    conclude(
        5,
        not bad,
        "pair-bracket Jacobi; the two torus copies commute on every residue pair mod N; "
        "comparison map is a homomorphism on 100 pairs"
        + (f"; failing: {bad}" if bad else ""),
    )


def _rational_matrix(m):
    return [[c.as_rational() for c in row] for row in m]


def _rank(rows, ncols):
    rows = [list(r) for r in rows]
    rank, col = 0, 0
    nrows = len(rows)
    while rank < nrows and col < ncols:
        pivot = None
        for r in range(rank, nrows):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [x / pv for x in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def commutant_dimension(V):
    """Dimension of {X : X E_{ij} = E_{ij} X for all i,j}, by exact elimination.

    Equals 1 exactly when V is irreducible with scalar commutant; the
    reducible direct sum has a strictly larger commutant.  Independent oracle
    for the span-closure cyclicity probe."""
    dim = V.dim
    n2 = dim * dim
    rows = []
    for i in range(V.d):
        for j in range(V.d):
            M = _rational_matrix(V.E[i][j])
            for p in range(dim):
                for q in range(dim):
                    row = [Fraction(0)] * n2
                    for k in range(dim):
                        row[p * dim + k] += M[k][q]
                        row[k * dim + q] -= M[p][k]
                    if any(x != 0 for x in row):
                        rows.append(row)
    if not rows:
        return n2
    return n2 - _rank(rows, n2)


def test_criterion_06_gl_modules_with_subspace_oracle():
    bad = []
    for d in (2, 3):
        mods = [(sel, parse_module(d, sel)) for sel in MODULE_SELECTORS]
        mods.append(("natural+natural", direct_sum(natural(d), natural(d))))
        mods.append(("conjugated natural+natural", conjugated_sum(d)))
        for sel, V in mods:
            if V.dim > 6:
                continue
            probe = algebra_dim([M for row in V.E for M in row], V.dim) == V.dim**2
            oracle = commutant_dimension(V) == 1
            expected = not sel.endswith("natural+natural")
            if probe != expected:
                bad.append(f"d={d} {sel}: probe {probe}")
            if oracle != expected:
                bad.append(f"d={d} {sel}: oracle {oracle}")
            if probe != oracle:
                bad.append(f"d={d} {sel}: probe/oracle disagree")
    conclude(
        6,
        not bad,
        "algebra closure is all of End(V) for natural/sym:2/ext:2/trivial, not "
        "for the direct sum in either basis; matches the commutant oracle on dim <= 6"
        + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_07_module_suite_flavor_plain():
    bad = []
    worst = 0.0
    for name, spec in INSTANCES.items():
        t0 = time.monotonic()
        for sel in MODULE_SELECTORS:
            ms = plain_module(spec, sel)
            reports = checks.module_suite(ms, SEED, SAMPLES)
            bad += [f"{name}/{sel}:{c}" for c in failing(reports)]
        worst = max(worst, time.monotonic() - t0)
    conclude(
        7,
        not bad and worst < 60.0,
        f"module axiom, weight eigenvalue, relation families, quadratic product "
        f"all zero for every V; worst instance {worst:.1f}s < 60s"
        + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_08_section3_suite():
    bad = []
    for name, spec in INSTANCES.items():
        ms = plain_module(spec)
        reports = checks.section3_suite(ms, SEED, SAMPLES)
        bad += [f"{name}:{c}" for c in failing(reports)]
        got = {r["check"] for r in reports}
        wanted = {
            "inner_quadratic_relation",
            "zero_modes_commute",
            "zero_mode_ideal",
            "weight_op_bracket",
            "weight_op_constancy",
            "weight_shift",
        }
        if not wanted <= got:
            bad.append(f"{name}: missing {wanted - got}")
    conclude(
        8,
        not bad,
        "quadratic inner relation, commuting zero modes, ideal and bracket laws, "
        "weight-operator constancy and closed form, weight shift equivariant"
        + (f"; failing: {bad}" if bad else ""),
    )


def _nontrivial_characters(spec, count):
    rng = sub_rng(f"characters:{spec.N}")
    out = []
    seen = set()
    while len(out) < count:
        exps = tuple(rng.randrange(spec.N) for _ in range(spec.d))
        if any(exps) and exps not in seen:
            seen.add(exps)
            out.append(TwistCharacter(spec, spec.N, exps))
    return out


def test_criterion_09_section4_suite():
    bad = []
    for name, spec in INSTANCES.items():
        ms = plain_module(spec)
        reports = checks.section4_suite(ms, SEED, SAMPLES)
        bad += [f"{name} F:{c}" for c in failing(reports)]
    psi_runs = 0
    for name in ("(i)", "(ii)"):
        spec = INSTANCES[name]
        V = parse_module(spec.d, "natural")
        for g in _nontrivial_characters(spec, 3):
            msG = ModuleSpec(spec, V, [0] * spec.d, g, "G_g")
            reports = checks.section4_suite(msG, SEED, SAMPLES)
            bad += [f"{name} G_g{g.exponents}:{c}" for c in failing(reports)]
            rep = intertwiner_check(msG, sub_rng(f"psi:{name}:{g.exponents}"))
            psi_runs += 1
            if not rep["pass"]:
                bad.append(f"{name} psi{g.exponents}")
    conclude(
        9,
        not bad and psi_runs >= 6,
        f"zero-mode scalar everywhere, recursion exact, twist extraction "
        f"round-trips (constant-1 for plain flavor), diagonal comparison zero "
        f"defect on {psi_runs} nontrivial characters"
        + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_10_irreducibility_evidence():
    bad = []
    for name, spec in INSTANCES.items():
        for sel in MODULE_SELECTORS:
            ms = plain_module(spec, sel)
            rep = irreducibility_evidence(ms)
            if not rep["pass"] or rep["algebra_dim"] != rep["end_dim"]:
                bad.append(f"{name}/{sel}")
    spec = INSTANCES["(i)"]
    fixture = ModuleSpec(
        spec,
        direct_sum(natural(2), natural(2)),
        [0, 0],
        TwistCharacter.trivial(spec),
        "F",
    )
    rep = irreducibility_evidence(fixture)
    if rep["pass"] or rep["algebra_dim"] >= rep["end_dim"]:
        bad.append("reducible fixture not detected")
    conclude(
        10,
        not bad,
        "weight operators generate End(V) for each irreducible V, read on all of Z^d; "
        "reducible fixture fails" + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_11_search_round_trip():
    bad = []
    # the decoy beta = (5, 5, 5) comes before the true beta, and the search
    # must pass over it instead of reporting it as found
    cases = [("(i)", (0, 1), [[5, 5]]), ("(ii)", (1, 0), [[5, 5]])] + [
        ("(iii)", delta, [[5, 5, 5]])
        for delta in ((0, 1, 1), (0, 1, -1), (-1, -1, 0), (1, -1, 0))
    ]
    for name, delta, decoys in cases:
        spec = INSTANCES[name]
        d = spec.d
        V = parse_module(d, "natural")
        exps = tuple(
            sum(spec.A[r][c] * delta[c] for c in range(d)) % spec.N
            for r in range(d)
        )
        g = TwistCharacter(spec, spec.N, exps)
        ms = ModuleSpec(spec, V, [0] * d, g, "F_g")
        beta = [-x for x in delta]
        found = search_twist_equivalence(ms, [[Fraction(1, 2)] + [0] * (d - 1), *decoys, beta])
        if not (found["found"] and list(found["beta"]) == beta):
            bad.append(f"{name} {delta}: beta not recovered")
            continue
        c = found["c"]
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        expect = [spec.sigma(delta, e) for e in units]
        got = [c.value(e) for e in units]
        if any(not (a - b).is_zero() for a, b in zip(expect, got)):
            bad.append(f"{name} {delta}: character mismatch")

        trivial_ms = ModuleSpec(spec, V, [0] * d, TwistCharacter.trivial(spec), "F_g")
        found = search_twist_equivalence(trivial_ms, [[0] * d, [1] * d])
        if not (
            found["found"]
            and list(found["beta"]) == [0] * d
            and found["c"].is_trivial
        ):
            bad.append(f"{name}: trivial twist should return (alpha, 1)")
    conclude(
        11,
        not bad,
        "search recovers (beta, c) on round-trip instances and (alpha, 1) for "
        "the trivial twist" + (f"; failing: {bad}" if bad else ""),
    )


def test_criterion_12_verify_is_byte_deterministic(tmp_path):
    cfg = {
        "torus": {"d": 2, "N": 2, "A": [[0, 1], [1, 0]]},
        "module": {"V": "natural", "alpha": [0, 0], "twist": None, "flavor": "F"},
        "box": [3, 3],
        "seed": SEED,
        "samples": SAMPLES,
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")

    def run():
        return subprocess.run(
            [sys.executable, "-m", "qtorus.cli", "verify", "--config", str(path)],
            capture_output=True,
            text=True,
            env=env,
        )

    first, second = run(), run()
    ok = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout
        and first.stdout.strip()
    )
    conclude(
        12,
        bool(ok),
        "two full verify runs with the same config and seed are byte-identical",
    )
