"""Named verification checks, grouped into suites, with deterministic reports.

Every check produces one report dict:

    {"check": name, "instance": label, "seed": sub-seed, "samples": count,
     "defect": "0" or a serialized cyclotomic number, "pass": bool}

plus an optional "note" for checks that are intentionally skipped on an
instance (the report still carries pass=true so a skip is visible but not a
failure).  All randomness flows from one base seed; each check derives its
own sub-seed by hashing the check name, so adding or reordering checks never
perturbs the samples that other checks draw.

Suites (selector strings are part of the CLI contract): cocycle, lie,
module, section3, section4, irreducibility.
"""

from __future__ import annotations

import hashlib
import random
from itertools import product as _iproduct

from .algebra import TorusElement, is_central, tcomm, tmul
from .cyclotomic import CycNumber
from .derivations import DerElement, dact, dbracket
from .errors import NotCharacter, NotScalar, SpecMismatch
from .fmodule import (
    ModuleSpec,
    TwistCharacter,
    box_points,
    c2_product_check,
    extract_twist,
    ideal_relations_vanish,
    inner_quadratic_relation_check,
    intertwiner_check,
    irreducibility_evidence,
    module_axiom_check,
    weight_eigenvalue_check,
    weight_op_bracket_check,
    weight_op_matrix,
    weight_shift_check,
    zero_mode_ideal_check,
    zero_mode_recursion_check,
    zero_mode_scalar,
    zero_modes_commute_check,
)
from .glmodules import GlModule, cyclic_from_every_start, direct_sum, natural
from .semidirect import (
    GElement,
    gbracket,
    inner_minus,
    plain_torus,
    untwisted_homomorphism_defect,
    untwisted_spec,
)
from .torus import TorusSpec, enumerate_radical_residues

SUITE_NAMES = ("cocycle", "lie", "module", "section3", "section4", "irreducibility")


def sub_seed(seed: int, label: str) -> int:
    h = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def sub_rng(seed: int, label: str) -> random.Random:
    return random.Random(sub_seed(seed, label))


def spec_label(spec: TorusSpec) -> str:
    return f"d={spec.d},N={spec.N}"


def _defect_json(defect):
    if defect is None:
        return "0"
    return defect.to_json()


def report(check, instance, seed, samples, defect=None, passed=None, note=None):
    if passed is None:
        passed = defect is None
    row = {
        "check": check,
        "instance": instance,
        "seed": sub_seed(seed, check),
        "samples": samples,
        "defect": _defect_json(defect),
        "pass": bool(passed),
    }
    if note is not None:
        row["note"] = note
    return row


def _rand_point(rng, d, radius=3):
    return tuple(rng.randint(-radius, radius) for _ in range(d))


def _rand_radical_point(rng, spec, radius=1):
    rad = spec.radical()
    coeffs = [rng.randint(-radius, radius) for _ in rad.basis]
    return tuple(
        sum(c * row[i] for c, row in zip(coeffs, rad.basis)) for i in range(spec.d)
    )


def _rand_coeff(rng, spec):
    from fractions import Fraction

    return spec.root(rng.randrange(spec.N)) * Fraction(
        rng.randint(-2, 2), rng.randint(1, 2)
    )


def _rand_torus_elt(rng, spec, nterms=2):
    out = TorusElement.zero(spec)
    for _ in range(nterms):
        out = out + TorusElement.monomial(
            spec, _rand_point(rng, spec.d), _rand_coeff(rng, spec)
        )
    return out


def _rand_der(rng, spec):
    x = DerElement.zero(spec)
    x = x + DerElement.ad(spec, _rand_point(rng, spec.d, 2), _rand_coeff(rng, spec))
    u = [_rand_coeff(rng, spec) for _ in range(spec.d)]
    x = x + DerElement.witt_term(spec, u, _rand_radical_point(rng, spec))
    return x


def _rand_pair_elt(rng, spec):
    return GElement(spec, _rand_der(rng, spec), _rand_torus_elt(rng, spec))


def _torus_first_nonzero(a: TorusElement):
    for n in sorted(a.terms):
        return a.terms[n]
    return None


def _der_first_nonzero(x: DerElement):
    for s in sorted(x.inner):
        return x.inner[s]
    for r in sorted(x.witt):
        for c in x.witt[r]:
            if not c.is_zero():
                return c
    return None


def _pair_first_nonzero(x: GElement):
    d = _der_first_nonzero(x.der)
    if d is not None:
        return d
    return _torus_first_nonzero(x.torus)


def _matrix_first_nonzero(m):
    for row in m:
        for c in row:
            if not c.is_zero():
                return c
    return None


# -- cocycle suite -------------------------------------------------------------


def cocycle_suite(spec: TorusSpec, seed: int, samples: int):
    label = spec_label(spec)
    out = []

    rng = sub_rng(seed, "sigma_bicharacter")
    defect = None
    for _ in range(samples):
        n = _rand_point(rng, spec.d)
        m = _rand_point(rng, spec.d)
        k = _rand_point(rng, spec.d)
        nm = tuple(a + b for a, b in zip(n, m))
        left = spec.sigma(nm, k) - spec.sigma(n, k) * spec.sigma(m, k)
        right = spec.sigma(k, nm) - spec.sigma(k, n) * spec.sigma(k, m)
        for diff in (left, right):
            if not diff.is_zero() and defect is None:
                defect = diff
    out.append(report("sigma_bicharacter", label, seed, samples, defect))

    rng = sub_rng(seed, "comm_factor_multiplicative")
    defect = None
    for _ in range(samples):
        n = _rand_point(rng, spec.d)
        m = _rand_point(rng, spec.d)
        k = _rand_point(rng, spec.d)
        nm = tuple(a + b for a, b in zip(n, m))
        diff = spec.comm_factor(nm, k) - spec.comm_factor(n, k) * spec.comm_factor(m, k)
        if not diff.is_zero() and defect is None:
            defect = diff
        # f must also agree with the sigma quotient
        quot = spec.sigma(n, m) * spec.sigma(m, n).inverse()
        diff = spec.comm_factor(n, m) - quot
        if not diff.is_zero() and defect is None:
            defect = diff
    out.append(report("comm_factor_multiplicative", label, seed, samples, defect))

    rng = sub_rng(seed, "comm_factor_alternating")
    defect = None
    one = CycNumber.one()
    for _ in range(samples):
        n = _rand_point(rng, spec.d)
        neg = tuple(-x for x in n)
        for diff in (spec.comm_factor(n, n) - one, spec.comm_factor(n, neg) - one):
            if not diff.is_zero() and defect is None:
                defect = diff
    out.append(report("comm_factor_alternating", label, seed, samples, defect))

    # radical versus brute-force residue enumeration
    rad = spec.radical()
    residues = {
        tuple(x % spec.N for x in n)
        for n in _iproduct(*[range(spec.N)] * spec.d)
        if rad.contains(n)
    }
    brute = set(enumerate_radical_residues(spec))
    ok = residues == brute and rad.index == (spec.N**spec.d) // len(brute)
    out.append(
        report(
            "radical_brute_force",
            label,
            seed,
            len(brute),
            passed=ok,
            defect=None if ok else CycNumber.one(),
        )
    )
    return out


# -- lie suite -------------------------------------------------------------------


def lie_suite(spec: TorusSpec, seed: int, samples: int):
    label = spec_label(spec)
    out = []

    rng = sub_rng(seed, "torus_associativity")
    defect = None
    for _ in range(samples):
        a = _rand_torus_elt(rng, spec)
        b = _rand_torus_elt(rng, spec)
        c = _rand_torus_elt(rng, spec)
        diff = tmul(tmul(a, b), c) - tmul(a, tmul(b, c))
        bad = _torus_first_nonzero(diff)
        if bad is not None and defect is None:
            defect = bad
    out.append(report("torus_associativity", label, seed, samples, defect))

    rng = sub_rng(seed, "torus_commutation_rule")
    defect = None
    for _ in range(samples):
        n = _rand_point(rng, spec.d)
        m = _rand_point(rng, spec.d)
        tn = TorusElement.monomial(spec, n)
        tm = TorusElement.monomial(spec, m)
        diff = tmul(tn, tm) - tmul(tm, tn).scale(spec.comm_factor(n, m))
        bad = _torus_first_nonzero(diff)
        if bad is not None and defect is None:
            defect = bad
    out.append(report("torus_commutation_rule", label, seed, samples, defect))

    rng = sub_rng(seed, "torus_commutator_jacobi")
    defect = None
    for _ in range(samples):
        a = _rand_torus_elt(rng, spec)
        b = _rand_torus_elt(rng, spec)
        c = _rand_torus_elt(rng, spec)
        diff = (
            tcomm(tcomm(a, b), c) + tcomm(tcomm(b, c), a) + tcomm(tcomm(c, a), b)
        )
        bad = _torus_first_nonzero(diff)
        if bad is not None and defect is None:
            defect = bad
    out.append(report("torus_commutator_jacobi", label, seed, samples, defect))

    rng = sub_rng(seed, "derivation_leibniz")
    defect = None
    for _ in range(samples):
        x = _rand_der(rng, spec)
        a = _rand_torus_elt(rng, spec)
        b = _rand_torus_elt(rng, spec)
        diff = dact(x, tmul(a, b)) - tmul(dact(x, a), b) - tmul(a, dact(x, b))
        bad = _torus_first_nonzero(diff)
        if bad is not None and defect is None:
            defect = bad
    out.append(report("derivation_leibniz", label, seed, samples, defect))

    rng = sub_rng(seed, "derivation_jacobi")
    defect = None
    for _ in range(samples):
        x = _rand_der(rng, spec)
        y = _rand_der(rng, spec)
        z = _rand_der(rng, spec)
        diff = (
            dbracket(dbracket(x, y), z)
            + dbracket(dbracket(y, z), x)
            + dbracket(dbracket(z, x), y)
        )
        bad = _der_first_nonzero(diff)
        if bad is not None and defect is None:
            defect = bad
    out.append(report("derivation_jacobi", label, seed, samples, defect))

    rng = sub_rng(seed, "inner_action_is_commutator")
    defect = None
    for _ in range(samples):
        s = _rand_point(rng, spec.d, 2)
        a = _rand_torus_elt(rng, spec)
        ts = TorusElement.monomial(spec, s)
        diff = dact(DerElement.ad(spec, s), a) - tcomm(ts, a)
        bad = _torus_first_nonzero(diff)
        if bad is not None and defect is None:
            defect = bad
    out.append(report("inner_action_is_commutator", label, seed, samples, defect))

    rng = sub_rng(seed, "pair_jacobi")
    defect = None
    for _ in range(samples):
        x = _rand_pair_elt(rng, spec)
        y = _rand_pair_elt(rng, spec)
        z = _rand_pair_elt(rng, spec)
        diff = (
            gbracket(gbracket(x, y), z)
            + gbracket(gbracket(y, z), x)
            + gbracket(gbracket(z, x), y)
        )
        bad = _pair_first_nonzero(diff)
        if bad is not None and defect is None:
            defect = bad
    out.append(report("pair_jacobi", label, seed, samples, defect))

    # the two torus copies commute: exhaustive over the degree window
    defect = None
    window = [
        tuple(p) for p in _iproduct(*[range(-3, 4)] * spec.d)
    ]
    count = 0
    for m in window:
        c1 = plain_torus(spec, m)
        for n in window:
            count += 1
            diff = gbracket(c1, inner_minus(spec, n))
            bad = _pair_first_nonzero(diff)
            if bad is not None and defect is None:
                defect = bad
    out.append(report("torus_copies_commute", label, seed, count, defect))

    rng = sub_rng(seed, "center_detection")
    defect = None
    for _ in range(samples):
        n = _rand_radical_point(rng, spec, 2)
        m = _rand_point(rng, spec.d, 2)
        ok = is_central(TorusElement.monomial(spec, n))
        expected_m = spec.in_radical(m)
        got_m = is_central(TorusElement.monomial(spec, m))
        if (not ok or got_m != expected_m) and defect is None:
            defect = CycNumber.one()
    out.append(report("center_detection", label, seed, samples, defect))

    # untwisted comparison: only meaningful on instances with diagonal radical
    if spec.radical().diagonal:
        rng = sub_rng(seed, "untwisted_map_homomorphism")
        model = untwisted_spec(spec.d)
        rad = spec.radical()
        defect = None
        pairs = 0
        for _ in range(samples):
            xs = []
            for _k in range(2):
                x0 = GElement.zero(model)
                r = _rand_radical_point(rng, spec, 1)
                u = [_rand_coeff(rng, model) for _ in range(spec.d)]
                x0 = x0 + GElement.from_der(DerElement.witt_term(model, u, r))
                s = _rand_radical_point(rng, spec, 1)
                x0 = x0 + GElement.from_torus(
                    TorusElement.monomial(model, s, _rand_coeff(rng, model))
                )
                xs.append(x0)
            pairs += 1
            diff = untwisted_homomorphism_defect(spec, xs[0], xs[1])
            bad = _pair_first_nonzero(diff)
            if bad is not None and defect is None:
                defect = bad
        out.append(report("untwisted_map_homomorphism", label, seed, pairs, defect))
    else:
        out.append(
            report(
                "untwisted_map_homomorphism",
                label,
                seed,
                0,
                passed=True,
                note="skipped: radical not diagonal",
            )
        )
    return out


# -- module suite ----------------------------------------------------------------


def module_suite(ms: ModuleSpec, box, seed: int, samples: int):
    label = ms.label()
    spec = ms.spec
    out = []

    # re-run the bracket-law validation of V from scratch
    try:
        GlModule(ms.V.d, ms.V.dim, ms.V.E, ms.V.name)
        out.append(report("gl_bracket_law", label, seed, ms.V.d**4, passed=True))
    except SpecMismatch:
        out.append(
            report("gl_bracket_law", label, seed, ms.V.d**4, passed=False,
                   defect=CycNumber.one())
        )

    cyc = cyclic_from_every_start(ms.V)
    out.append(
        report(
            "gl_cyclicity_probe",
            label,
            seed,
            ms.V.dim,
            passed=True,
            note="cyclic" if cyc else "not cyclic from every start",
        )
    )

    rng = sub_rng(seed, "module_axiom")
    rep = module_axiom_check(ms, box, rng, samples)
    out.append(report("module_axiom", label, seed, rep["samples"], rep["defect"]))

    rep = weight_eigenvalue_check(ms, tuple(min(2, b) for b in box))
    out.append(report("weight_eigenvalue", label, seed, ms.V.dim, rep["defect"]))

    quadratic = ms.flavor != "F_g"
    rng = sub_rng(seed, "ideal_relations")
    rep = ideal_relations_vanish(ms, box, rng, samples, quadratic=quadratic)
    out.append(
        report(
            "ideal_relations",
            label,
            seed,
            rep["samples"],
            rep["defect"],
            note=None if quadratic else "quadratic family skipped: it needs the "
            "twist on the right-translation term",
        )
    )

    if quadratic:
        rng = sub_rng(seed, "c2_product")
        defect = None
        for _ in range(max(1, samples // 4)):
            n = _rand_point(rng, spec.d, 2)
            m = _rand_point(rng, spec.d, 2)
            bad = c2_product_check(ms, n, m, box, rng=rng, limit=4)
            if bad is not None and defect is None:
                defect = bad
        out.append(report("c2_product", label, seed, max(1, samples // 4), defect))
    else:
        out.append(
            report(
                "c2_product",
                label,
                seed,
                0,
                passed=True,
                note="skipped: holds for the plain and G-twist flavors only",
            )
        )
    return out


# -- section3 suite ----------------------------------------------------------------


def section3_suite(ms: ModuleSpec, box, seed: int, samples: int):
    label = ms.label()
    spec = ms.spec
    d = spec.d
    out = []
    nsmall = max(1, samples // 8)

    if ms.flavor != "F_g":
        rng = sub_rng(seed, "inner_quadratic_relation")
        defect = None
        for _ in range(nsmall):
            r = _rand_point(rng, d, 2)
            s = _rand_point(rng, d, 2)
            bad = inner_quadratic_relation_check(ms, r, s, box, rng=rng, limit=4)
            if bad is not None and defect is None:
                defect = bad
        out.append(report("inner_quadratic_relation", label, seed, nsmall, defect))
    else:
        out.append(
            report(
                "inner_quadratic_relation",
                label,
                seed,
                0,
                passed=True,
                note="skipped: holds for the plain and G-twist flavors only",
            )
        )

    rng = sub_rng(seed, "zero_modes_commute")
    defect = None
    for _ in range(nsmall):
        r = _rand_point(rng, d, 2)
        s = _rand_point(rng, d, 2)
        bad = zero_modes_commute_check(ms, r, s, box, rng=rng, limit=4)
        if bad is not None and defect is None:
            defect = bad
    out.append(report("zero_modes_commute", label, seed, nsmall, defect))

    rng = sub_rng(seed, "zero_mode_ideal")
    defect = None
    for _ in range(nsmall):
        r = _rand_radical_point(rng, spec, 1)
        s = _rand_point(rng, d, 2)
        u = [rng.randint(-2, 2) for _ in range(d)]
        bad = zero_mode_ideal_check(ms, u, r, s, box, rng=rng, limit=4)
        if bad is not None and defect is None:
            defect = bad
    out.append(report("zero_mode_ideal", label, seed, nsmall, defect))

    rng = sub_rng(seed, "weight_op_bracket")
    defect = None
    for _ in range(nsmall):
        r = _rand_radical_point(rng, spec, 1)
        s = _rand_radical_point(rng, spec, 1)
        u = [rng.randint(-2, 2) for _ in range(d)]
        v = [rng.randint(-2, 2) for _ in range(d)]
        bad = weight_op_bracket_check(ms, u, r, v, s, box, rng=rng, limit=4)
        if bad is not None and defect is None:
            defect = bad
    out.append(report("weight_op_bracket", label, seed, nsmall, defect))

    # weight operators: matrices constant in n and equal to the closed form
    rng = sub_rng(seed, "weight_op_constancy")
    defect = None
    rad = spec.radical()
    units = [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
    checked = 0
    for rr in [tuple(row) for row in rad.basis] + [(0,) * d]:
        for u in units:
            pts = box_points(box, rr)
            if not pts:
                continue
            sample_pts = pts if len(pts) <= 8 else [
                pts[i] for i in sorted(rng.sample(range(len(pts)), 8))
            ]
            scale = spec.sigma(tuple(-x for x in rr), rr)
            expect = ms.V.matrix_of(
                [[scale * (u[j] * rr[i]) for j in range(d)] for i in range(d)]
            )
            for n in sample_pts:
                checked += 1
                got = weight_op_matrix(ms, u, rr, n, box)
                diff = [
                    [got[i][j] - expect[i][j] for j in range(ms.V.dim)]
                    for i in range(ms.V.dim)
                ]
                bad = _matrix_first_nonzero(diff)
                if bad is not None and defect is None:
                    defect = bad
    out.append(report("weight_op_constancy", label, seed, checked, defect))

    rng = sub_rng(seed, "weight_shift")
    defect = None
    shifts = 0
    for _ in range(min(nsmall, 10)):
        r = _rand_point(rng, d, min(box))
        s = _rand_point(rng, d, min(box))
        shifts += 1
        rep = weight_shift_check(ms, r, s, box)
        if rep["defect"] is not None and defect is None:
            defect = rep["defect"]
    out.append(report("weight_shift", label, seed, shifts, defect))
    return out


# -- section4 suite ----------------------------------------------------------------


def section4_suite(ms: ModuleSpec, box, seed: int, samples: int):
    label = ms.label()
    spec = ms.spec
    d = spec.d
    out = []
    nsmall = max(1, samples // 8)

    rng = sub_rng(seed, "zero_mode_scalar")
    defect = None
    count = 0
    for _ in range(nsmall):
        s = _rand_point(rng, d, 2)
        n = _rand_point(rng, d, 1)
        if not all(-b <= a + c <= b for a, c, b in zip(n, s, box)):
            continue
        count += 1
        try:
            zero_mode_scalar(ms, s, n, box)
        except NotScalar:
            if defect is None:
                defect = CycNumber.one()
    out.append(report("zero_mode_scalar", label, seed, count, defect))

    if ms.flavor in ("F", "G_g"):
        rng = sub_rng(seed, "zero_mode_recursion")
        defect = None
        count = 0
        for _ in range(nsmall):
            s = _rand_point(rng, d, 2)
            pts = [
                p
                for p in (_rand_point(rng, d, 1) for _ in range(4))
                if all(-b <= a + c <= b for a, c, b in zip(p, s, box))
            ]
            if not pts:
                continue
            count += 1
            bad = zero_mode_recursion_check(ms, s, box, pts)
            if bad is not None and defect is None:
                defect = bad
        out.append(report("zero_mode_recursion", label, seed, count, defect))
    else:
        out.append(
            report(
                "zero_mode_recursion",
                label,
                seed,
                0,
                passed=True,
                note="skipped: recursion is a plain/G-twist identity; this "
                "flavor's zero modes follow the opposite sign convention",
            )
        )

    rng = sub_rng(seed, "extract_twist_round_trip")
    try:
        got = extract_twist(ms, box, rng)
        ok = got == ms.twist if not ms.twist.is_trivial else got.is_trivial
        out.append(
            report(
                "extract_twist_round_trip",
                label,
                seed,
                d + 8,
                passed=ok,
                defect=None if ok else CycNumber.one(),
            )
        )
    except NotCharacter:
        out.append(
            report(
                "extract_twist_round_trip", label, seed, d + 8,
                passed=False, defect=CycNumber.one(),
            )
        )

    if ms.flavor == "F_g":
        out.append(
            report(
                "diagonal_intertwiner",
                label,
                seed,
                0,
                passed=True,
                note="skipped: the diagonal comparison starts from the G-twist "
                "flavor",
            )
        )
    else:
        rng = sub_rng(seed, "diagonal_intertwiner")
        msG = (
            ms
            if ms.flavor == "G_g"
            else ModuleSpec(spec, ms.V, ms.alpha, ms.twist, "G_g")
        )
        rep = intertwiner_check(msG, box, rng)
        out.append(
            report("diagonal_intertwiner", label, seed, samples, rep["defect"])
        )
    return out


# -- irreducibility suite -------------------------------------------------------


def irreducibility_suite(ms: ModuleSpec, box, seed: int, samples: int, inner_radius=2):
    label = ms.label()
    out = []
    rng = sub_rng(seed, "irreducibility_evidence")
    rep = irreducibility_evidence(ms, box, inner_radius, rng)
    cyclic_starts = sum(1 for r in rep["starts"] if r["cyclic"])
    out.append(
        report(
            "irreducibility_evidence",
            label,
            seed,
            len(rep["starts"]),
            passed=rep["pass"],
            defect=None if rep["pass"] else CycNumber.one(),
            note=f"cyclic from {cyclic_starts} of {len(rep['starts'])} starts",
        )
    )

    # distinguishing power: a reducible fixture must fail the same probe
    rng = sub_rng(seed, "reducible_fixture_detected")
    fixture = ModuleSpec(
        ms.spec,
        direct_sum(natural(ms.spec.d), natural(ms.spec.d)),
        ms.alpha,
        TwistCharacter.trivial(ms.spec),
        "F",
    )
    rep2 = irreducibility_evidence(fixture, box, inner_radius, rng)
    out.append(
        report(
            "reducible_fixture_detected",
            label,
            seed,
            len(rep2["starts"]),
            passed=not rep2["pass"],
            defect=None if not rep2["pass"] else CycNumber.one(),
        )
    )
    return out


# -- orchestration ---------------------------------------------------------------


def run_suites(spec: TorusSpec, ms: ModuleSpec, box, seed: int, samples: int, names):
    reports = []
    for name in names:
        if name == "cocycle":
            reports.extend(cocycle_suite(spec, seed, samples))
        elif name == "lie":
            reports.extend(lie_suite(spec, seed, samples))
        elif name == "module":
            reports.extend(module_suite(ms, box, seed, samples))
        elif name == "section3":
            reports.extend(section3_suite(ms, box, seed, samples))
        elif name == "section4":
            reports.extend(section4_suite(ms, box, seed, samples))
        elif name == "irreducibility":
            reports.extend(irreducibility_suite(ms, box, seed, samples))
        else:
            from .errors import ConfigError

            raise ConfigError(
                f"unknown suite {name!r}; valid suites: {', '.join(SUITE_NAMES)}"
            )
    reports.sort(key=lambda r: (r["check"], r["instance"]))
    return reports


def summarize(reports):
    passed = sum(1 for r in reports if r["pass"])
    return {
        "check": "summary",
        "total": len(reports),
        "passed": passed,
        "failed": len(reports) - passed,
        "pass": passed == len(reports),
    }
