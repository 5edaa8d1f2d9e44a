"""Tests for the verification-suite layer: reports, sub-seeds, suite runs."""

import itertools
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from qtorus import algebra, checks, cyclotomic, fmodule, lattice
from qtorus.algebra import TorusElement
from qtorus.cyclotomic import CycNumber, root_of_unity
from qtorus.derivations import DerElement
from qtorus.fmodule import ModuleSpec, TwistCharacter, intertwiner_check, search_twist_equivalence
from qtorus.glmodules import (
    MAX_DIM,
    GlModule,
    direct_sum,
    mat_scale,
    parse_module,
    sym_power,
    trivial,
)
from qtorus.semidirect import GElement, gbracket
from qtorus.torus import TorusSpec

SPEC_I = TorusSpec.from_upper(2, 2, {(0, 1): 1})
SPEC_II = TorusSpec.from_upper(2, 3, {(0, 1): 1})
SPEC_III = TorusSpec.from_upper(3, 4, {(0, 1): 1, (0, 2): 2, (1, 2): 0})
# d = 4, N = 2 with A pairing coordinates (0, 1) and (2, 3); d = 2, N = 8
SPEC_D4_N2 = TorusSpec.from_upper(4, 2, {(0, 1): 1, (2, 3): 1})
SPEC_D2_N8 = TorusSpec.from_upper(2, 8, {(0, 1): 1})


def plain_module(spec, selector="natural"):
    return ModuleSpec(
        spec,
        parse_module(spec.d, selector),
        [0] * spec.d,
        TwistCharacter.trivial(spec),
        "F",
    )


def test_sub_seed_is_stable_and_label_sensitive():
    a = checks.sub_seed(7, "alpha")
    assert a == checks.sub_seed(7, "alpha")
    assert a != checks.sub_seed(7, "beta")
    assert a != checks.sub_seed(8, "alpha")


def test_report_shape():
    row = checks.report("demo", "d=2,N=2", 7, 10)
    assert set(row) == {"check", "instance", "seed", "samples", "defect", "pass"}
    assert row["defect"] == "0"
    assert row["pass"] is True
    noted = checks.report("demo", "d=2,N=2", 7, 0, note="skipped")
    assert noted["note"] == "skipped"
    assert json.dumps(noted, sort_keys=True)  # JSON-serializable


def test_cocycle_suite_passes_on_all_instances():
    for spec in (SPEC_I, SPEC_II, SPEC_III):
        reports = checks.cocycle_suite(spec, 3, 60)
        assert all(r["pass"] for r in reports)
        names = {r["check"] for r in reports}
        assert "sigma_bicharacter" in names
        assert "radical_brute_force" in names


def test_cocycle_suite_fails_on_corrupted_sigma():
    bad = TorusSpec.from_json(
        {"d": 2, "N": 2, "A": [[0, 1], [1, 0]], "_corrupt_sigma": True}
    )
    reports = checks.cocycle_suite(bad, 3, 60)
    assert any(not r["pass"] for r in reports)
    failing = [r for r in reports if not r["pass"]]
    assert all(r["defect"] != "0" for r in failing)


def test_lie_suite_passes_and_skips_untwisted_on_non_diagonal_radical():
    reports = checks.lie_suite(SPEC_I, 5, 40)
    assert all(r["pass"] for r in reports)
    assert not any("note" in r for r in reports if r["check"] == "untwisted_map_homomorphism")

    reports3 = checks.lie_suite(SPEC_III, 5, 25)
    assert all(r["pass"] for r in reports3)
    skipped = [r for r in reports3 if r["check"] == "untwisted_map_homomorphism"]
    assert skipped and skipped[0]["note"] == "skipped: radical not diagonal"


def _torus_copies_row(spec=SPEC_I):
    (check,) = [c for c in checks.CHECKS if c.name == "torus_copies_commute"]
    return checks._run_check(check, checks._Instance(checks.spec_label(spec), spec, 40), 5)


def test_torus_copies_commute_stays_exhaustive(monkeypatch):
    """Every residue pair mod N is walked when N <= 7, and the 7**d window
    when N > 7, one public bracket per pair, so a faster bracket cannot pass
    the check by skipping pairs; the second copy of each point is built
    once."""
    calls = []
    copies = []
    bracket = checks.gbracket
    copy = checks.inner_minus

    def counting(x, y):
        calls.append(None)
        return bracket(x, y)

    def counting_copy(spec, a):
        copies.append(None)
        return copy(spec, a)

    monkeypatch.setattr(checks, "gbracket", counting)
    monkeypatch.setattr(checks, "inner_minus", counting_copy)
    cases = [
        (SPEC_I, 2**4, 2**2),
        (SPEC_III, 4**6, 4**3),
        (SPEC_D4_N2, 2**8, 2**4),
        (SPEC_D2_N8, 49**2, 49),
    ]
    for spec, pairs, points in cases:
        calls.clear()
        copies.clear()
        row = _torus_copies_row(spec)
        assert row["pass"] and row["samples"] == pairs, (spec, row)
        assert (len(calls), len(copies)) == (pairs, points), spec


def test_torus_copies_commute_fails_on_a_dropped_structure_constant(monkeypatch):
    """Negative control.  A corrupted cocycle cannot break this check, since
    the copies commute for any sigma; a kernel that drops the sigma(b, a) row
    of the mixed rule [ad t^a, t^b] = [t^a, ad t^b] must, on every residue
    walk."""
    constants = algebra._constants

    def mutant(spec, kx, a, ky, b, product):
        rows = constants(spec, kx, a, ky, b, product)
        return rows[:1] if {kx, ky} == {algebra.TORUS, algebra.INNER} else rows

    monkeypatch.setattr(algebra, "_constants", mutant)
    for spec in (SPEC_I, SPEC_III, SPEC_D4_N2):
        row = _torus_copies_row(spec)
        assert row["pass"] is False and row["defect"] != "0", spec


def test_sigma_is_periodic_mod_n_on_uncorrupted_specs():
    """sigma(a + N e_i, b) = sigma(a, b) = sigma(a, b + N e_i): every
    structure constant of the copies' bracket is a power of sigma, so the
    bracket depends on its degrees mod N only, which is what lets the copies
    check walk one point per residue class.  A corrupted cocycle is not
    periodic (it adds 1 whenever both degrees are nonzero, so
    sigma(N e_i, b) != sigma(0, b)), but it cancels in the copies' bracket,
    which vanishes for any sigma."""
    rng = checks.sub_rng(20261020, "periodic")
    negative = 0
    for spec in (SPEC_I, SPEC_II, SPEC_III, SPEC_D4_N2):
        N = spec.N
        for _ in range(25):
            a = lattice.rand_point(rng, spec.d, 6)
            b = lattice.rand_point(rng, spec.d, 6)
            negative += min(a + b) < 0
            for i in range(spec.d):
                step = tuple(N if j == i else 0 for j in range(spec.d))
                a2, b2 = lattice.shift(a, step), lattice.shift(b, step)
                assert spec.sigma(a2, b) == spec.sigma(a, b) == spec.sigma(a, b2)
    assert negative


@pytest.mark.parametrize("N", range(1, 9))
def test_the_copies_walk_meets_every_residue_class_once(monkeypatch, N):
    """Both operands of the copies check run over one point per class mod N
    when N <= 7, with negative coordinates once N > 1; past 7 they run over
    the 7**d window."""
    spec = TorusSpec.from_upper(2, N, {(0, 1): 1})
    firsts, seconds = [], []
    plain, copy = checks.plain_torus, checks.inner_minus

    def recording(out, build):
        def built(spec, a):
            out.append(a)
            return build(spec, a)

        return built

    monkeypatch.setattr(checks, "plain_torus", recording(firsts, plain))
    monkeypatch.setattr(checks, "inner_minus", recording(seconds, copy))
    row = _torus_copies_row(spec)
    assert row["pass"] and firsts == seconds
    if N <= 7:
        assert sorted(tuple(x % N for x in p) for p in firsts) == sorted(
            itertools.product(range(N), repeat=2)
        )
        assert (min(min(p) for p in firsts) < 0) == (N > 1)
    else:
        assert firsts == list(itertools.product(range(-3, 4), repeat=2))


def test_the_copies_check_reads_no_bracket_out(monkeypatch):
    """Every bracket of the copies check is zero, and its witness is read off
    the held store: past building the 4 copies, no store is read or opened
    into its views and no root counts are folded, while all 4**2 residue
    pairs are bracketed."""
    calls = []
    made = []
    building = []
    bracket = checks.gbracket
    copy = checks.inner_minus

    def counting(x, y):
        calls.append(None)
        return bracket(x, y)

    def counting_copy(spec, a):
        building.append(None)
        try:
            return copy(spec, a)
        finally:
            building.pop()

    def counting_method(cls, name):
        method = getattr(cls, name)

        def counted(*args):
            if not building:
                made.append(f"{cls.__name__}.{name}")
            return method(*args)

        monkeypatch.setattr(cls, name, counted)

    def fold(*args):
        made.append("fold")
        return cyclotomic._from_root_counts(*args)

    monkeypatch.setattr(checks, "gbracket", counting)
    monkeypatch.setattr(checks, "inner_minus", counting_copy)
    counting_method(algebra._Graded, "read")
    for cls in (TorusElement, DerElement, GElement):
        counting_method(cls, "_open")
    monkeypatch.setattr(algebra, "_from_root_counts", fold)
    row = _torus_copies_row()
    assert row["pass"] and row["samples"] == 4**2
    assert len(calls) == 4**2
    assert made == []


def test_center_detection_reads_no_store_out(monkeypatch):
    """is_central reads its support off the store, so center_detection on
    (iii) opens no element into its terms, with the same row."""
    reads = []
    read = algebra._Graded.read

    def counting(self):
        reads.append(None)
        return read(self)

    monkeypatch.setattr(algebra._Graded, "read", counting)
    (check,) = [c for c in checks.CHECKS if c.name == "center_detection"]
    row = checks._run_check(check, checks._Instance("(iii)", SPEC_III, 200), 1)
    assert row["pass"] and row["samples"] == 200 and row["defect"] == "0"
    assert reads == []


def _lazy_and_eager_pairs():
    """Seeded (lazy pair, its eager twin) over (i), (ii) and (iii): a
    bracket of random pairs with coefficients of mixed conductor, and its
    twin rebuilt from the opened components of a second bracket."""
    rng = checks.sub_rng(20261019, "lazy")
    for spec in (SPEC_I, SPEC_II, SPEC_III):
        for _ in range(8):
            x, y = (
                checks._rand_pair_elt(rng, spec).scale(root_of_unity(rng.choice((1, 3, 8)), 1))
                for _ in range(2)
            )
            twin = gbracket(x, y)
            yield gbracket(x, y), GElement(spec, twin.der, twin.torus)


def test_lazy_and_eager_witnesses_agree():
    seen = 0
    for lazy, eager in _lazy_and_eager_pairs():
        assert lazy._store is not None
        assert checks._first_coeff(lazy) == checks._first_coeff(eager)
        assert lazy.is_zero() == eager.is_zero()
        seen += not eager.is_zero()
        assert lazy._store is not None
    assert seen
    # a store whose first components in witness order read nothing: an inner
    # term at a radical degree, and counts 1 + zeta_4^2 = 0 at L = 4
    spec = SPEC_III
    store = algebra._Graded(
        spec,
        4,
        1,
        {
            (algebra.TORUS, (1, 0, 0)): [0, 3, 0, 0],
            (algebra.TORUS, (0, 0, 0)): [1, 0, 1, 0],
            (algebra.INNER, (4, 0, 0)): [1, 0, 0, 0],
            (algebra.WITT + 1, (0, 0, 0)): [0, 0, 0, 0],
        },
    )
    lazy = GElement._read(store)
    assert checks._first_coeff(lazy) == root_of_unity(4, 1) * 3
    assert not lazy.is_zero()
    eager = GElement(spec, lazy.der, lazy.torus)
    assert eager.der.is_zero() and checks._first_coeff(eager) == root_of_unity(4, 1) * 3


def _form_value(z):
    """The pair that z's ring form sums to: a form taken off a store lists
    unreduced counts, so two forms are compared as values."""
    return GElement._read(algebra._combine(z.spec, z._form()))


@pytest.mark.parametrize(
    "read",
    [lambda z: z, GElement.to_json, _form_value, repr],
    ids=["eq", "json", "form", "repr"],
)
def test_a_lazy_pair_reads_as_its_opened_twin_and_keeps_its_store(read):
    # a read opens the store into the views and keeps it
    for lazy, eager in _lazy_and_eager_pairs():
        store = lazy._store
        assert read(lazy) == read(eager)
        assert lazy._store is store


def test_the_first_coefficient_is_inner_then_witt_by_degree_and_index_then_torus():
    spec = SPEC_I  # rad(f) = 2Z^2
    witt = DerElement.witt_term(spec, [0, 5], (0, 0)) + DerElement.witt_term(spec, [7, 0], (2, 0))
    torus = TorusElement(spec, {(1, 0): 4, (-1, 0): 9})
    inner = DerElement.ad(spec, (1, 1), 3)
    first = checks._first_coeff
    assert first(witt) == 5  # degree (0, 0) before (2, 0), though index 1 > 0
    assert first(torus) == 9
    assert first(GElement(spec, witt + inner, torus)) == 3
    assert first(GElement(spec, witt, torus)) == 5
    assert first(GElement.from_torus(torus)) == 9
    assert first(GElement.zero(spec)) is None


def test_module_suite_passes_for_plain_flavor():
    ms = plain_module(SPEC_I)
    reports = checks.module_suite(ms, 9, 40)
    assert all(r["pass"] for r in reports)
    names = {r["check"] for r in reports}
    assert {"module_axiom", "weight_eigenvalue", "ideal_relations", "c2_product"} <= names


def test_module_suite_skips_quadratic_family_for_left_twist():
    g = TwistCharacter(SPEC_II, 3, (1, 2))
    ms = ModuleSpec(SPEC_II, parse_module(2, "natural"), [0, 0], g, "F_g")
    reports = checks.module_suite(ms, 9, 30)
    assert all(r["pass"] for r in reports)
    c2 = [r for r in reports if r["check"] == "c2_product"]
    assert c2 and "note" in c2[0] and c2[0]["samples"] == 0


def _module_row(name, ms):
    """One module check's row at seed 1 with a budget of 200 samples."""
    (check,) = [c for c in checks.CHECKS if c.name == name]
    return checks._run_check(check, checks._Instance(ms.label(), ms.spec, 200, ms), 1)


def _control_modules():
    """(ii) G_g, (iii) G_g and (iii) F, each with a nonzero weight shift
    alpha."""
    alpha = [Fraction(1, 2), 0, Fraction(1, 3)]
    natural = parse_module(3, "natural")
    g3 = TwistCharacter(SPEC_III, 4, (3, 0, 0))
    return [
        ModuleSpec(SPEC_II, parse_module(2, "sym:2"), [0, Fraction(1, 3)],
                   TwistCharacter(SPEC_II, 3, (0, 2)), "G_g"),
        ModuleSpec(SPEC_III, natural, alpha, g3, "G_g"),
        ModuleSpec(SPEC_III, natural, alpha, TwistCharacter.trivial(SPEC_III), "F"),
    ]


@pytest.mark.parametrize("name", ["weight_eigenvalue", "weight_op_bracket", "weight_op_constancy"])
def test_the_controlled_module_checks_pass_unpatched(name):
    for ms in _control_modules():
        assert _module_row(name, ms)["pass"], ms.label()


def test_weight_eigenvalue_fails_when_the_weight_pairing_drops_alpha(monkeypatch):
    """Negative control.  A corrupted cocycle leaves alpha alone, and of the
    module, section-3 and section-4 checks only weight_eigenvalue fails when
    the weight pairing (u, n + alpha) loses alpha."""

    def no_alpha(ms, u, n):
        out = CycNumber.zero()
        for ui, ni in zip(u, n):
            out = out + ui * ni
        return out

    monkeypatch.setattr(fmodule, "_weight_pairing", no_alpha)
    for ms in _control_modules():
        row = _module_row("weight_eigenvalue", ms)
        assert row["pass"] is False and row["defect"] != "0", ms.label()


def test_a_defect_that_no_box_point_shows_fails_the_decided_checks(monkeypatch):
    """Negative control.  A weight pairing off by one only where some
    |n_i| > 4 vanishes on every weight space that a box of radius 2 holds.
    weight_eigenvalue reads the points that decide D(e_i, 0) on Z^d, 0 and
    7 e_i on the d = 3, N = 7 torus, so it fails.  (The pairing
    enters both terms of T'(u, r) at the same point and cancels, so
    weight_op_constancy passes either way.)"""
    spec = TorusSpec(3, 7, [[0, 1, 2], [6, 0, 0], [5, 0, 0]])
    ms = plain_module(spec)
    assert _module_row("weight_eigenvalue", ms)["pass"]
    pairing = fmodule._weight_pairing

    def off_far_out(ms, u, n):
        out = pairing(ms, u, n)
        return out + 1 if any(abs(x) > 4 for x in n) else out

    monkeypatch.setattr(fmodule, "_weight_pairing", off_far_out)
    row = _module_row("weight_eigenvalue", ms)
    assert row["pass"] is False and row["defect"] == CycNumber.one().to_json()
    assert _module_row("weight_op_constancy", ms)["pass"]


def test_weight_op_bracket_fails_on_a_doubled_witt_image(monkeypatch):
    """Negative control.  The image W of k u^T enters T'(u, r) linearly, so
    doubling it breaks the closed form of [T'(u,r), T'(v,s)] and the closed
    form sigma(-r,r) r u^T of T'(u, r) itself; the constancy check's
    witnesses on the three control modules are pinned.  The doubled
    operators are still constant in n, and part (1) of the irreducibility
    probe, which reads the closed form, fails on each module."""
    outer_image = GlModule.outer_image

    def doubled(self, r, u):
        c, W = outer_image(self, r, u)
        return (c * 2, None) if W is None else (c, mat_scale(W, 2))

    monkeypatch.setattr(GlModule, "outer_image", doubled)
    for name, witnesses in [
        ("weight_op_bracket", None),
        ("weight_op_constancy", [6, 4, 4]),
        ("irreducibility_evidence", None),
    ]:
        for i, ms in enumerate(_control_modules()):
            row = _module_row(name, ms)
            assert row["pass"] is False and row["defect"] != "0", (name, ms.label())
            if witnesses is not None:
                want = CycNumber.rational(witnesses[i]).to_json()
                assert row["defect"] == want, (name, ms.label())
            if name == "irreducibility_evidence":
                want = "part (1) failed: weight operators differ from their closed form"
                assert row["note"] == want, ms.label()


def test_diagonal_intertwiner_fails_when_g_g_takes_the_f_g_inner_rule(monkeypatch):
    """Negative control.  Under the F_g inner rule a G_g module no longer
    matches F_(g^-1) through v(n) |-> g^-1(n) v(n).  The pinned witness is
    the first nonzero entry of g^-1(k) S_G - S_F at the first point that
    shows it: on (ii), ad t^(1, 0) at the origin."""

    def f_g_rule(ms, s, n, sig, g):
        return sig * g - ms.spec.sigma(n, s)

    cases = [
        (
            ModuleSpec(SPEC_II, parse_module(2, "sym:2"), [0, Fraction(1, 3)],
                       TwistCharacter(SPEC_II, 3, (1, 0)), "G_g"),
            4 + 2 * root_of_unity(3, 1),
        ),
        (
            ModuleSpec(SPEC_III, parse_module(3, "natural"), [Fraction(1, 2), 0, Fraction(1, 3)],
                       TwistCharacter(SPEC_III, 4, (3, 0, 0)), "G_g"),
            2 - 2 * root_of_unity(4, 1),
        ),
    ]
    for ms, _ in cases:
        assert _module_row("diagonal_intertwiner", ms)["pass"], ms.label()
    monkeypatch.setattr(fmodule, "_inner_phase", f_g_rule)
    for ms, witness in cases:
        assert intertwiner_check(ms) == {"pass": False, "defect": witness}, ms.label()
        row = _module_row("diagonal_intertwiner", ms)
        assert row["pass"] is False and row["defect"] != "0", ms.label()


_MODULE_III_GG = ModuleSpec(SPEC_III, parse_module(3, "natural"), [Fraction(1, 2), 0, Fraction(1, 3)],
                            TwistCharacter(SPEC_III, 4, (3, 0, 0)), "G_g")


def test_diagonal_intertwiner_fails_when_g_g_acts_otherwise_at_a_radical_row(monkeypatch):
    """Negative control on module-iii's G_g module: the mutant adds 1 to the
    scalar part of the G_g side's symbol at the radical row (4, 0, 0) only,
    the degree of the three generators D(e_i, (4, 0, 0)).  A box of radius
    1 holds no n with n + (4, 0, 0) in it; the comparison reads the points
    that decide each generator on all of Z^d, so no box can hide the row."""
    part_symbol = fmodule._part_symbol

    def mutant(x, k, n, ms, g=None):
        S = part_symbol(x, k, n, ms, g)
        if ms.flavor == "G_g" and k == (4, 0, 0):
            return fmodule._Symbol(S.a + 1, S.b, S.W)
        return S

    assert intertwiner_check(_MODULE_III_GG)["pass"]
    monkeypatch.setattr(fmodule, "_part_symbol", mutant)
    assert intertwiner_check(_MODULE_III_GG)["pass"] is False


def test_twist_search_fails_when_the_source_acts_otherwise_at_a_radical_row(monkeypatch):
    """Negative control on search-iii's F_g module (delta = (0, 1, -1), the
    twist sigma(delta, .) relabels away): the mutant adds 1 to the scalar
    part of the source's symbol at the radical row (4, 0, 0) only.  No
    character then carries D(e_i, (4, 0, 0)), though no point of a box of
    radius 1 reaches that degree."""
    ms = ModuleSpec(SPEC_III, parse_module(3, "natural"), [0, 0, 0],
                    TwistCharacter(SPEC_III, 4, (3, 0, 0)), "F_g")
    candidates = [[Fraction(1, 2), 0, 0], [0, -1, 1]]
    part_symbol = fmodule._part_symbol

    def mutant(x, k, n, ms, g=None):
        S = part_symbol(x, k, n, ms, g)
        if ms.flavor == "F_g" and k == (4, 0, 0):
            return fmodule._Symbol(S.a + 1, S.b, S.W)
        return S

    found = search_twist_equivalence(ms, candidates)
    assert found["found"] and found["delta"] == [0, 1, -1]
    monkeypatch.setattr(fmodule, "_part_symbol", mutant)
    assert search_twist_equivalence(ms, candidates) == {"found": False}


def test_extract_twist_round_trip_fails_when_the_twist_leaves_the_inner_rule(monkeypatch):
    """Negative control.  Under the untwisted F inner rule every zero-mode
    scalar at the origin reads as the trivial twist, so the round trip of a
    nontrivial twist fails, from G_g and from F_g alike."""

    def f_rule(ms, s, n, sig, g):
        return sig - ms.spec.sigma(n, s)

    cases = [
        (SPEC_II, parse_module(2, "sym:2"), [0, Fraction(1, 3)],
         TwistCharacter(SPEC_II, 3, (0, 2))),
        (SPEC_III, parse_module(3, "natural"), [Fraction(1, 2), 0, Fraction(1, 3)],
         TwistCharacter(SPEC_III, 4, (3, 0, 0))),
    ]
    modules = [
        ModuleSpec(spec, V, alpha, g, flavor)
        for spec, V, alpha, g in cases
        for flavor in ("G_g", "F_g")
    ]
    for ms in modules:
        assert _module_row("extract_twist_round_trip", ms)["pass"], ms.label()
    monkeypatch.setattr(fmodule, "_inner_phase", f_rule)
    for ms in modules:
        row = _module_row("extract_twist_round_trip", ms)
        assert row["pass"] is False and row["defect"] == CycNumber.one().to_json(), ms.label()


def test_section3_suite_passes_on_all_flavors():
    ms = plain_module(SPEC_I)
    assert all(r["pass"] for r in checks.section3_suite(ms, 11, 40))

    g = TwistCharacter(SPEC_I, 2, (1, 0))
    msG = ModuleSpec(SPEC_I, parse_module(2, "natural"), [0, 0], g, "G_g")
    assert all(r["pass"] for r in checks.section3_suite(msG, 11, 40))

    msF = ModuleSpec(SPEC_I, parse_module(2, "natural"), [0, 0], g, "F_g")
    reports = checks.section3_suite(msF, 11, 40)
    assert all(r["pass"] for r in reports)
    iq = [r for r in reports if r["check"] == "inner_quadratic_relation"]
    assert iq and "note" in iq[0]


def test_section4_suite_flavors_and_skips():
    ms = plain_module(SPEC_I)
    reports = checks.section4_suite(ms, 13, 40)
    assert all(r["pass"] for r in reports)
    # plain flavor: recursion and the diagonal comparison both actually run
    by_name = {r["check"]: r for r in reports}
    assert "note" not in by_name["zero_mode_recursion"]
    assert "note" not in by_name["diagonal_intertwiner"]

    g = TwistCharacter(SPEC_II, 3, (2, 1))
    msF = ModuleSpec(SPEC_II, parse_module(2, "natural"), [0, 0], g, "F_g")
    reports = checks.section4_suite(msF, 13, 40)
    assert all(r["pass"] for r in reports)
    by_name = {r["check"]: r for r in reports}
    assert "note" in by_name["zero_mode_recursion"]
    assert "note" in by_name["diagonal_intertwiner"]
    assert "note" not in by_name["extract_twist_round_trip"]


def test_irreducibility_suite_reports_both_directions():
    ms = plain_module(SPEC_I)
    reports = checks.irreducibility_suite(ms, 17, 40)
    by_name = {r["check"]: r for r in reports}
    assert by_name["irreducibility_evidence"]["pass"]
    assert by_name["reducible_fixture_detected"]["pass"]


def test_the_reducible_fixture_respects_the_dimension_ceiling():
    """direct_sum refuses a sum above MAX_DIM, as the other constructors do,
    so reducible_fixture_detected, whose natural + natural has dimension 2d,
    writes a skip row from d = 17 on instead of building it."""
    from qtorus.errors import ConfigError

    with pytest.raises(ConfigError, match=f"above the ceiling of {MAX_DIM}"):
        direct_sum(sym_power(2, 31), trivial(2))
    assert direct_sum(sym_power(2, 30), trivial(2)).dim == MAX_DIM
    (check,) = [c for c in checks.CHECKS if c.name == "reducible_fixture_detected"]
    for d in (16, 17):
        inst = checks._Instance(f"d={d}", TorusSpec.from_upper(d, 2, {(0, 1): 1}), 1)
        assert check.applies(inst) is (d == 16)
    row = checks._run_check(check, inst, 1)
    assert row["pass"] and row["samples"] == 0
    assert row["note"] == f"skipped: natural + natural has dimension above {MAX_DIM}"


def test_run_suites_sorted_and_unknown_name_raises():
    ms = plain_module(SPEC_I)
    reports = checks.run_suites(ms, 19, 25, ["lie", "cocycle"])
    names = [r["check"] for r in reports]
    assert names == sorted(names)
    summary = checks.summarize(reports)
    assert summary["total"] == len(reports)
    assert summary["pass"] is True
    # the selector is a set: a repeated name runs its suite once
    twice = checks.run_suites(ms, 19, 25, ["cocycle", "lie", "cocycle"])
    assert twice == reports

    from qtorus.errors import ConfigError

    with pytest.raises(ConfigError):
        checks.run_suites(ms, 19, 25, ["nope"])


def test_reports_are_deterministic():
    ms = plain_module(SPEC_I)
    a = checks.run_suites(ms, 23, 30, ["cocycle", "module"])
    b = checks.run_suites(ms, 23, 30, ["cocycle", "module"])
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = checks.run_suites(ms, 24, 30, ["cocycle", "module"])
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_tracer_sees_every_suite_and_check(tmp_path):
    """perfbench/tracer.py wraps the suite functions and `report` by name, so
    every suite and every check must go through them exactly once."""
    root = pathlib.Path(__file__).resolve().parent.parent
    cfg = tmp_path / "inst.json"
    cfg.write_text(json.dumps(
        {"torus": {"d": 2, "N": 2, "A": [[0, 1], [1, 0]]}, "box": [2, 2], "seed": 1, "samples": 4}
    ))
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    res = subprocess.run(
        [sys.executable, str(root / "perfbench" / "tracer.py"), str(trace), "--",
         "verify", "--config", str(cfg)],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0, res.stderr
    rows = [json.loads(line) for line in res.stdout.splitlines()][:-1]
    spans = json.loads(trace.read_text())["spans"]
    suites = {s["name"][len("suite:"):]: s["id"] for s in spans if s["name"].startswith("suite:")}
    assert sorted(suites) == sorted(checks.SUITE_NAMES)
    assert len(suites) == sum(s["name"].startswith("suite:") for s in spans)
    traced = [s for s in spans if s["name"].startswith("check:")]
    names = [s["name"][len("check:"):] for s in traced]
    assert sorted(names) == [r["check"] for r in rows]
    table = [c.name for c in checks.CHECKS]
    assert len(table) == len(set(table)) == 32
    assert sorted(table) == sorted(names)
    suite_of = {c.name: c.suite for c in checks.CHECKS}
    assert all(s["parent"] == suites[suite_of[n]] for s, n in zip(traced, names))


@pytest.mark.parametrize("spec", [SPEC_I, SPEC_II, SPEC_III, TorusSpec.from_upper(2, 1, {})],
                         ids=["i", "ii", "iii", "N1"])
def test_random_coefficients_match_the_root_times_fraction_draw(spec):
    # zeta_N^k * Fraction(p, q) through CycNumber.__mul__, the draw's former form
    ours, theirs = checks.sub_rng(3, "coeff"), checks.sub_rng(3, "coeff")
    for _ in range(500):
        got = checks._rand_coeff(ours, spec)
        want = spec.root(theirs.randrange(spec.N)) * Fraction(
            theirs.randint(-2, 2), theirs.randint(1, 2)
        )
        assert (got.M, got.num, got.den) == (want.M, want.num, want.den)
    assert ours.random() == theirs.random()
