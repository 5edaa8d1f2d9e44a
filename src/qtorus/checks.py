"""Named verification checks, grouped into suites, with deterministic reports.

Every check produces one report dict:

    {"check": name, "instance": label, "seed": sub-seed, "samples": count,
     "defect": "0" or a serialized cyclotomic number, "pass": bool}

plus an optional "note" for checks that are intentionally skipped on an
instance (the report still carries pass=true so a skip is visible but not a
failure).  All randomness flows from one base seed; each check derives its
own sub-seed by hashing the check name, so adding or reordering checks never
perturbs the samples that other checks draw.

Each check is declared once, in the check table `CHECKS`, by decorating its
probe with `_check(suite, draws, applies, skip)`; the check's name is the
probe's name without its leading underscore.  A sampled probe (`draws` maps
the sample budget to a number of draws) takes one draw from the check's rng
and returns a defect or None.  A one-shot probe (`draws` is None) returns
its report fields itself.  One runner, `_run_check`, derives the check's
rng, writes the skip row when `applies` says the check does not hold (note
`skip`), runs the draws keeping the first defect, and builds the row.
Suites run their checks in table order.

A module probe writes the identity it tests once, next to its draws, as an
operator expression lhs - rhs over the builders of qtorus.fmodule, and reads
it with fmodule's one evaluator: expr_defect_at on one weight space against
c Id, expr_defects_at on several, and expr_defects at every point of the
finite set that decides the identity on all of Z^d, or at a seeded sample of
it (expr_first_defect: the first defect).  The one-shot rows
weight_eigenvalue, weight_op_constancy, the t^0 tail of ideal_relations and
the irreducibility probe read every point, so for sigma from A they decide.
weight_op_constancy and part (1) of the irreducibility probe share
fmodule.weight_op_defects, and part (3) closes V's E_ij images as the gl
probe does.  A module suite takes the module alone: every degree a probe
draws has a fixed radius (2 for ideal_relations and weight_shift, 1 for
extract_twist's points), and only fmodule.act reads a degree box.

Suites (selector strings are part of the CLI contract): cocycle, lie,
module, section3, section4, irreducibility.
"""

from __future__ import annotations

import hashlib
import random
from itertools import product as _iproduct
from typing import Callable, NamedTuple

from .algebra import INNER, TORUS, WITT, TorusElement, is_central, tcomm, tmul
from .cyclotomic import CycNumber, _reduced
from .derivations import DerElement, dact, dbracket, pairing
from .errors import ConfigError, NotCharacter, NotScalar, SpecMismatch
from .fmodule import (
    ModuleSpec,
    TwistCharacter,
    c2_product_expr,
    expr_commutator,
    expr_defect_at,
    expr_defects,
    expr_defects_at,
    expr_first_defect,
    expr_neg,
    expr_of,
    expr_scale,
    expr_sum,
    extract_twist,
    intertwiner_check,
    irreducibility_evidence,
    op_inner,
    op_torus,
    op_witt,
    torus_product_relation_expr,
    weight_op_defects,
    weight_op_expr,
    zero_mode_expr,
    zero_mode_scalar,
)
from .glmodules import MAX_DIM, GlModule, direct_sum, image_algebra_dim, natural
from .lattice import neg, rand_below, rand_nonzero_point, rand_point, rand_radical_point
from .lattice import shift, units
from .semidirect import (
    GElement,
    gbracket,
    inner_minus,
    plain_torus,
    untwisted_homomorphism_defect,
    untwisted_spec,
)
from .torus import _RESIDUE_LIMIT, TorusSpec, enumerate_radical_residues

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


def report(check, instance, seed, samples, defect=None, note=None):
    row = {
        "check": check,
        "instance": instance,
        "seed": sub_seed(seed, check),
        "samples": samples,
        "defect": _defect_json(defect),
        "pass": defect is None,
    }
    if note is not None:
        row["note"] = note
    return row


# -- the check table and its runner ---------------------------------------------


class _Instance(NamedTuple):
    """What a probe sees: the row label, the torus, the suite's sample budget
    and, for the module suites, the module."""

    label: str
    spec: TorusSpec
    samples: int
    ms: ModuleSpec | None = None


class Check(NamedTuple):
    suite: str
    name: str
    draws: Callable[[int], int] | None  # sample budget -> draws; None: one-shot
    probe: Callable
    applies: Callable[[_Instance], bool] | None
    skip: str | None  # the note of the row written when `applies` is false


CHECKS: list[Check] = []


def _check(suite, draws=None, applies=None, skip=None):
    """Declare the decorated probe as the next check of `suite`."""

    def declare(probe):
        CHECKS.append(Check(suite, probe.__name__[1:], draws, probe, applies, skip))
        return probe

    return declare


def _tally(defects):
    """Report fields of a run of probes: how many ran, and the first defect
    among them."""
    defects = list(defects)
    return {"samples": len(defects), "defect": _first_defect(defects)}


def _run_check(check, inst: _Instance, seed: int):
    rng = sub_rng(seed, check.name)
    if check.applies is not None and not check.applies(inst):
        fields = {"samples": 0, "note": check.skip}
    elif check.draws is None:
        fields = check.probe(inst, rng)
    else:
        fields = _tally(check.probe(inst, rng) for _ in range(check.draws(inst.samples)))
    return report(check.name, inst.label, seed, **fields)


def _run(suite, seed, samples, spec, ms=None):
    label = spec_label(spec) if ms is None else ms.label()
    inst = _Instance(label, spec, samples, ms)
    return [_run_check(c, inst, seed) for c in CHECKS if c.suite == suite]


def _all(samples):
    return samples


def _quarter(samples):
    return max(1, samples // 4)


def _eighth(samples):
    return max(1, samples // 8)


def _eighth_at_most_10(samples):
    return min(_eighth(samples), 10)


def _plain_or_right_twist(inst):
    return inst.ms.flavor != "F_g"


_PLAIN_OR_RIGHT_TWIST_ONLY = "skipped: holds for the plain and G-twist flavors only"


# -- random draws and defect witnesses ---------------------------------------------


def _rand_coeff(rng, spec):
    """zeta_N^k * p/q for seeded k, p in -2..2 and q in 1..2, at conductor N."""
    root = spec.root(rand_below(rng, spec.N))
    p = rand_below(rng, 5) - 2
    return _reduced(root.M, tuple([p * c for c in root.num]), 1 + rand_below(rng, 2))


def _rand_torus_terms(rng, spec):
    """The basis terms of a random torus element: two monomials."""
    return [(TORUS, rand_point(rng, spec.d), _rand_coeff(rng, spec)) for _ in range(2)]


def _rand_der_terms(rng, spec):
    """The basis terms of a random derivation: one ad t^s (zero when s is
    radical) and one Witt term at a radical degree."""
    terms = [(INNER, rand_point(rng, spec.d, 2), _rand_coeff(rng, spec))]
    u = [_rand_coeff(rng, spec) for _ in range(spec.d)]
    r = rand_radical_point(rng, spec)
    return terms + [(WITT + i, r, c) for i, c in enumerate(u)]


def _rand_torus_elt(rng, spec):
    return TorusElement._sum(spec, _rand_torus_terms(rng, spec))


def _rand_der(rng, spec):
    return DerElement._sum(spec, _rand_der_terms(rng, spec))


def _rand_pair_elt(rng, spec):
    """A random pair: its derivation terms, then its torus terms."""
    return GElement._sum(spec, _rand_der_terms(rng, spec) + _rand_torus_terms(rng, spec))


def _first_nonzero(values):
    return next((c for c in values if not c.is_zero()), None)


def _first_defect(defects):
    return next((d for d in defects if d is not None), None)


def _first_coeff(x):
    """The first nonzero coefficient of a torus, derivation or pair element,
    None when it is zero: inner terms by degree, then Witt vectors by degree
    and index, then torus terms by degree (algebra._witness_key).  A pair
    made by the kernel is read off its held store without being opened."""
    return x._first()


def _unit_defect(failed):
    """The defect of a yes/no test: 1 when it failed."""
    return CycNumber.one() if failed else None


def _rand_hom(rng, spec, kinds):
    """A homogeneous pair-algebra element of a kind drawn from `kinds`: a
    torus monomial, an inner derivation off the radical, or a Witt term of
    radical degree."""
    d = spec.d
    kind = kinds[rand_below(rng, len(kinds))]
    if kind == "torus":
        return op_torus(spec, rand_point(rng, d, 2))
    if kind == "inner":
        for _ in range(20):
            s = rand_point(rng, d, 2)
            if not spec.in_radical(s):
                return op_inner(spec, s)
        return op_inner(spec, units(d)[0])
    r = rand_radical_point(rng, spec)
    return op_witt(spec, rand_nonzero_point(rng, d, 2), r)


# -- cocycle suite -------------------------------------------------------------


@_check("cocycle", _all)
def _sigma_bicharacter(inst, rng):
    spec = inst.spec
    n = rand_point(rng, spec.d)
    m = rand_point(rng, spec.d)
    k = rand_point(rng, spec.d)
    nm = shift(n, m)
    left = spec.sigma(nm, k) - spec.sigma(n, k) * spec.sigma(m, k)
    right = spec.sigma(k, nm) - spec.sigma(k, n) * spec.sigma(k, m)
    return _first_nonzero((left, right))


@_check("cocycle", _all)
def _comm_factor_multiplicative(inst, rng):
    spec = inst.spec
    n = rand_point(rng, spec.d)
    m = rand_point(rng, spec.d)
    k = rand_point(rng, spec.d)
    nm = shift(n, m)
    diff = spec.comm_factor(nm, k) - spec.comm_factor(n, k) * spec.comm_factor(m, k)
    # f must also agree with the sigma quotient
    quot = spec.sigma(n, m) * spec.sigma(m, n).inverse()
    return _first_nonzero((diff, spec.comm_factor(n, m) - quot))


@_check("cocycle", _all)
def _comm_factor_alternating(inst, rng):
    spec = inst.spec
    n = rand_point(rng, spec.d)
    one = CycNumber.one()
    return _first_nonzero((spec.comm_factor(n, n) - one, spec.comm_factor(n, neg(n)) - one))


@_check(
    "cocycle",
    applies=lambda inst: inst.spec.N**inst.spec.d <= _RESIDUE_LIMIT,
    skip=f"skipped: N^d exceeds {_RESIDUE_LIMIT} residues",
)
def _radical_brute_force(inst, rng):
    """The radical against a brute-force residue enumeration."""
    spec = inst.spec
    rad = spec.radical()
    residues = {
        tuple(x % spec.N for x in n)
        for n in _iproduct(range(spec.N), repeat=spec.d)
        if rad.contains(n)
    }
    brute = set(enumerate_radical_residues(spec))
    ok = residues == brute and rad.index == (spec.N**spec.d) // len(brute)
    return {"samples": len(brute), "defect": _unit_defect(not ok)}


# -- lie suite -------------------------------------------------------------------


def _jacobi(bracket, x, y, z):
    """The first coefficient of [[x, y], z] + [[y, z], x] + [[z, x], y]."""
    return _first_coeff(
        bracket(bracket(x, y), z) + bracket(bracket(y, z), x) + bracket(bracket(z, x), y)
    )


@_check("lie", _all)
def _torus_associativity(inst, rng):
    spec = inst.spec
    a = _rand_torus_elt(rng, spec)
    b = _rand_torus_elt(rng, spec)
    c = _rand_torus_elt(rng, spec)
    return _first_coeff(tmul(tmul(a, b), c) - tmul(a, tmul(b, c)))


@_check("lie", _all)
def _torus_commutation_rule(inst, rng):
    spec = inst.spec
    n = rand_point(rng, spec.d)
    m = rand_point(rng, spec.d)
    tn = TorusElement.monomial(spec, n)
    tm = TorusElement.monomial(spec, m)
    return _first_coeff(tmul(tn, tm) - tmul(tm, tn).scale(spec.comm_factor(n, m)))


@_check("lie", _all)
def _torus_commutator_jacobi(inst, rng):
    return _jacobi(tcomm, *(_rand_torus_elt(rng, inst.spec) for _ in range(3)))


@_check("lie", _all)
def _derivation_leibniz(inst, rng):
    spec = inst.spec
    x = _rand_der(rng, spec)
    a = _rand_torus_elt(rng, spec)
    b = _rand_torus_elt(rng, spec)
    diff = dact(x, tmul(a, b)) - tmul(dact(x, a), b) - tmul(a, dact(x, b))
    return _first_coeff(diff)


@_check("lie", _all)
def _derivation_jacobi(inst, rng):
    return _jacobi(dbracket, *(_rand_der(rng, inst.spec) for _ in range(3)))


@_check("lie", _all)
def _inner_action_is_commutator(inst, rng):
    spec = inst.spec
    s = rand_point(rng, spec.d, 2)
    a = _rand_torus_elt(rng, spec)
    ts = TorusElement.monomial(spec, s)
    return _first_coeff(dact(DerElement.ad(spec, s), a) - tcomm(ts, a))


@_check("lie", _all)
def _pair_jacobi(inst, rng):
    return _jacobi(gbracket, *(_rand_pair_elt(rng, inst.spec) for _ in range(3)))


@_check("lie")
def _torus_copies_commute(inst, rng):
    """The two torus copies commute: on every residue pair mod N when
    N <= 7 (the bracket is periodic mod N), otherwise on the 7**d window."""
    spec = inst.spec
    k = min(spec.N, 7)
    window = list(_iproduct(range(-(k // 2), k - k // 2), repeat=spec.d))
    copies = [inner_minus(spec, n) for n in window]

    def probes():
        for m in window:
            c1 = plain_torus(spec, m)
            for c2 in copies:
                yield _first_coeff(gbracket(c1, c2))

    return _tally(probes())


@_check("lie", _all)
def _center_detection(inst, rng):
    spec = inst.spec
    n = rand_radical_point(rng, spec, 2)
    m = rand_point(rng, spec.d, 2)
    ok = is_central(TorusElement.monomial(spec, n))
    expected_m = spec.in_radical(m)
    got_m = is_central(TorusElement.monomial(spec, m))
    return _unit_defect(not ok or got_m != expected_m)


@_check(
    "lie",
    _all,
    applies=lambda inst: inst.spec.radical().diagonal,
    skip="skipped: radical not diagonal",
)
def _untwisted_map_homomorphism(inst, rng):
    """The comparison map from the untwisted model is a homomorphism: only
    meaningful on instances with diagonal radical."""
    spec = inst.spec
    model = untwisted_spec(spec.d)
    xs = []
    for _ in range(2):
        r = rand_radical_point(rng, spec, 1)
        u = [_rand_coeff(rng, model) for _ in range(spec.d)]
        s = rand_radical_point(rng, spec, 1)
        terms = [(WITT + i, r, c) for i, c in enumerate(u)]
        terms.append((TORUS, s, _rand_coeff(rng, model)))
        xs.append(GElement._sum(model, terms))
    return _first_coeff(untwisted_homomorphism_defect(spec, xs[0], xs[1]))


# -- module suite ----------------------------------------------------------------


@_check("module")
def _gl_bracket_law(inst, rng):
    """Re-run the bracket-law validation of V from scratch."""
    V = inst.ms.V
    try:
        GlModule(V.d, V.dim, V.E, V.name)
        failed = False
    except SpecMismatch:
        failed = True
    return {"samples": V.d**4, "defect": _unit_defect(failed)}


def _algebra_fields(alg, end, failed):
    return {
        "samples": alg,
        "defect": _unit_defect(failed),
        "note": f"algebra of dimension {alg} of {end}",
    }


@_check("module")
def _gl_cyclicity_probe(inst, rng):
    """Burnside: V is irreducible exactly when the images of the matrix
    units generate all of End(V)."""
    alg, end = image_algebra_dim(inst.ms.V), inst.ms.V.dim**2
    return _algebra_fields(alg, end, alg < end)


@_check("module", _all)
def _module_axiom(inst, rng):
    """act([x,y]) = act(x)act(y) - act(y)act(x) on sampled homogeneous pairs,
    each at one seeded point of the set that decides it.  For flavor F_g
    only the derivation part is sampled (its inner action is not compatible
    with the torus action, by design of that flavor)."""
    ms, spec = inst.ms, inst.spec
    kinds = ["inner", "witt"] + (["torus"] if ms.flavor != "F_g" else [])
    x = _rand_hom(rng, spec, kinds)
    y = _rand_hom(rng, spec, kinds)
    e = expr_sum(expr_of(gbracket(x, y)), expr_neg(expr_commutator(expr_of(x), expr_of(y))))
    return next(expr_defects(e, ms, rng=rng, limit=1))


@_check("module")
def _weight_eigenvalue(inst, rng):
    """D(e_i, 0) acts on the weight space at n by (alpha_i + n_i) Id."""
    ms, spec = inst.ms, inst.spec

    def defects():
        for i, u in enumerate(units(spec.d)):
            e = expr_of(op_witt(spec, u, (0,) * spec.d))
            yield from expr_defects(e, ms, lambda n: ms.alpha[i] + n[i])

    return {"samples": ms.V.dim, "defect": _first_defect(defects())}


@_check("module")
def _ideal_relations(inst, rng):
    """The relation families at degrees of radius 2, each expression probed
    at 6 sampled points of the set that decides it: the torus product rule,
    and the quadratic rule for ad t^k - t^k where it holds (the twist
    multiplies the right-translation term: the plain and G-twist flavors).
    Then t^0 acts as Id on every weight space."""
    ms, spec = inst.ms, inst.spec
    quadratic = _plain_or_right_twist(inst)

    def draws():
        for _ in range(inst.samples):
            m = rand_point(rng, spec.d, 2)
            n = rand_point(rng, spec.d, 2)
            exprs = [torus_product_relation_expr(ms, m, n)]
            if quadratic:
                exprs.append(c2_product_expr(ms, n, m))
            yield _first_defect([expr_first_defect(e, ms, rng=rng, limit=6) for e in exprs])

    fields = _tally(draws())
    if fields["defect"] is None:
        one = expr_of(op_torus(spec, (0,) * spec.d))
        fields["defect"] = _first_defect(expr_defects(one, ms, lambda n: 1))
    if not quadratic:
        fields["note"] = (
            "quadratic family skipped: it needs the twist on the right-translation term"
        )
    return fields


@_check("module", _quarter, _plain_or_right_twist, _PLAIN_OR_RIGHT_TWIST_ONLY)
def _c2_product(inst, rng):
    n = rand_point(rng, inst.spec.d, 2)
    m = rand_point(rng, inst.spec.d, 2)
    return expr_first_defect(c2_product_expr(inst.ms, n, m), inst.ms, rng=rng, limit=4)


# -- section3 suite ----------------------------------------------------------------


@_check("section3", _eighth, _plain_or_right_twist, _PLAIN_OR_RIGHT_TWIST_ONLY)
def _inner_quadratic_relation(inst, rng):
    """ad t^r ad t^s - (t^r ad t^s + t^s ad t^r) + sigma(s,r) ad t^(r+s) = 0."""
    spec = inst.spec
    r = rand_point(rng, spec.d, 2)
    s = rand_point(rng, spec.d, 2)
    ad_r, ad_s = op_inner(spec, r), op_inner(spec, s)
    e = expr_sum(
        expr_of(ad_r, ad_s),
        expr_neg(expr_of(op_torus(spec, r), ad_s)),
        expr_neg(expr_of(op_torus(spec, s), ad_r)),
        expr_scale(expr_of(op_inner(spec, shift(r, s))), spec.sigma(s, r)),
    )
    if not e:
        return None
    return expr_first_defect(e, inst.ms, rng=rng, limit=4)


@_check("section3", _eighth)
def _zero_modes_commute(inst, rng):
    """[t^(-s) ad t^s, t^(-r) ad t^r] = 0.

    A sanity check of the code, not a test that can fail: while torus and
    inner terms act by scalars, every zero mode is a scalar on each weight
    space, and any two commute exactly."""
    ms = inst.ms
    r = rand_point(rng, inst.spec.d, 2)
    s = rand_point(rng, inst.spec.d, 2)
    e = expr_commutator(zero_mode_expr(ms, s), zero_mode_expr(ms, r))
    return expr_first_defect(e, ms, rng=rng, limit=4)


@_check("section3", _eighth)
def _zero_mode_ideal(inst, rng):
    """[T'(u,r), t^(-s) ad t^s]
        = sigma(s,r)(u,s)sigma(r,s) t^(-(s+r)) ad t^(r+s)
          - sigma(-r,r)(u,s) t^(-s) ad t^s."""
    ms, spec = inst.ms, inst.spec
    r = rand_radical_point(rng, spec, 1)
    s = rand_point(rng, spec.d, 2)
    u = [CycNumber.rational(rand_below(rng, 5) - 2) for _ in range(spec.d)]
    lhs = expr_commutator(weight_op_expr(ms, u, r), zero_mode_expr(ms, s))
    us = pairing(u, s)
    rhs = expr_sum(
        expr_scale(zero_mode_expr(ms, shift(s, r)), spec.sigma(s, r) * us * spec.sigma(r, s)),
        expr_scale(zero_mode_expr(ms, s), -(spec.sigma(neg(r), r) * us)),
    )
    return expr_first_defect(expr_sum(lhs, expr_neg(rhs)), ms, rng=rng, limit=4)


@_check("section3", _eighth)
def _weight_op_bracket(inst, rng):
    """[T'(u,r), T'(v,s)] = (v,r) sigma(-s,s) T'(u,r) - (u,s) sigma(-r,r) T'(v,s)
        + sigma(s,r) T'(w, r+s), w = sigma(r,s)((u,s) v - (v,r) u)."""
    ms, spec = inst.ms, inst.spec
    r = rand_radical_point(rng, spec, 1)
    s = rand_radical_point(rng, spec, 1)
    u = [CycNumber.rational(rand_below(rng, 5) - 2) for _ in range(spec.d)]
    v = [CycNumber.rational(rand_below(rng, 5) - 2) for _ in range(spec.d)]
    lhs = expr_commutator(weight_op_expr(ms, u, r), weight_op_expr(ms, v, s))
    vr = pairing(v, r)
    us = pairing(u, s)
    srs = spec.sigma(r, s)
    w = [srs * (us * vi - vr * ui) for ui, vi in zip(u, v)]
    rhs = expr_sum(
        expr_scale(weight_op_expr(ms, u, r), vr * spec.sigma(neg(s), s)),
        expr_scale(weight_op_expr(ms, v, s), -(us * spec.sigma(neg(r), r))),
        expr_scale(weight_op_expr(ms, w, shift(r, s)), spec.sigma(s, r)),
    )
    return expr_first_defect(expr_sum(lhs, expr_neg(rhs)), ms, rng=rng, limit=4)


@_check("section3")
def _weight_op_constancy(inst, rng):
    """T'(e_i, rr) is its closed form at every radical row rr and at 0."""
    return _tally(weight_op_defects(inst.ms, inst.spec.radical().basis + ((0,) * inst.spec.d,)))


@_check("section3", _eighth_at_most_10)
def _weight_shift(inst, rng):
    """The torus transport t^(r-s): V'_s -> V'_r scales by the root of unity
    sigma(r-s, s), hence is bijective; the round trip t^(s-r) t^(r-s) is the
    scalar sigma(r-s, s-r); and the transport commutes with the weight
    operators T'(e_i, rr) for the Hermite rows rr of the radical."""
    ms, spec = inst.ms, inst.spec
    r = rand_point(rng, spec.d, 2)
    s = rand_point(rng, spec.d, 2)
    delta = tuple(a - b for a, b in zip(r, s))
    there = expr_of(op_torus(spec, delta))

    def defects():
        yield expr_defect_at(there, ms, s, spec.sigma(delta, s))
        back = expr_of(op_torus(spec, neg(delta)), op_torus(spec, delta))
        yield expr_defect_at(back, ms, s, spec.sigma(delta, neg(delta)))
        for e in units(spec.d):
            for rr in spec.radical().basis:
                yield expr_defect_at(expr_commutator(there, weight_op_expr(ms, e, rr)), ms, s)

    return _first_defect(defects())


# -- section4 suite ----------------------------------------------------------------


@_check("section4", _eighth)
def _zero_mode_scalar(inst, rng):
    s = rand_point(rng, inst.spec.d, 2)
    n = rand_point(rng, inst.spec.d, 1)
    try:
        zero_mode_scalar(inst.ms, s, n)
    except NotScalar:
        return CycNumber.one()
    return None


@_check(
    "section4",
    _eighth,
    _plain_or_right_twist,
    "skipped: recursion is a plain/G-twist identity; this flavor's zero modes "
    "follow the opposite sign convention",
)
def _zero_mode_recursion(inst, rng):
    """lambda(s, p) = f(p,s) lambda(s,0) + sigma(-s,s)(1 - f(p,s)) at four
    sampled points p, lambda(s, p) being the scalar of t^(-s) ad t^s on the
    weight space at p."""
    ms, spec = inst.ms, inst.spec
    d = spec.d
    s = rand_point(rng, d, 2)
    pts = [rand_point(rng, d, 1) for _ in range(4)]
    lam0 = zero_mode_scalar(ms, s, (0,) * d)
    base = spec.sigma(neg(s), s)
    factors = ((p, spec.comm_factor(p, s)) for p in pts)
    expected = ((p, f * lam0 + base * (1 - f)) for p, f in factors)
    return _first_defect(expr_defects_at(zero_mode_expr(ms, s), ms, expected))


@_check("section4")
def _extract_twist_round_trip(inst, rng):
    ms = inst.ms
    try:
        got = extract_twist(ms, rng)
        ok = got == ms.twist
    except NotCharacter:
        ok = False
    return {"samples": inst.spec.d + 8, "defect": _unit_defect(not ok)}


@_check(
    "section4",
    applies=_plain_or_right_twist,
    skip="skipped: the diagonal comparison starts from the G-twist flavor",
)
def _diagonal_intertwiner(inst, rng):
    ms = inst.ms
    msG = ms if ms.flavor == "G_g" else ModuleSpec(ms.spec, ms.V, ms.alpha, ms.twist, "G_g")
    return {"samples": inst.samples, "defect": intertwiner_check(msG, rng)["defect"]}


# -- irreducibility suite -------------------------------------------------------


@_check("irreducibility")
def _irreducibility_evidence(inst, rng):
    """The irreducibility probe; the note names the first failed part."""
    rep = irreducibility_evidence(inst.ms)
    fields = _algebra_fields(rep["algebra_dim"], rep["end_dim"], not rep["pass"])
    if not rep["weight_ops_closed_form"]:
        fields["note"] = "part (1) failed: weight operators differ from their closed form"
    elif not rep["transports_bijective"]:
        fields["note"] = "part (2) failed: transports not bijective scalings"
    return fields


@_check(
    "irreducibility",
    applies=lambda inst: 2 * inst.spec.d <= MAX_DIM,
    skip=f"skipped: natural + natural has dimension above {MAX_DIM}",
)
def _reducible_fixture_detected(inst, rng):
    """Distinguishing power: a reducible fixture must fail the same probe."""
    d = inst.spec.d
    fixture = ModuleSpec(
        inst.spec,
        direct_sum(natural(d), natural(d)),
        inst.ms.alpha,
        TwistCharacter.trivial(inst.spec),
        "F",
    )
    rep = irreducibility_evidence(fixture)
    return {"samples": rep["algebra_dim"], "defect": _unit_defect(rep["pass"])}


# -- suites and orchestration -----------------------------------------------------


def cocycle_suite(spec: TorusSpec, seed: int, samples: int):
    return _run("cocycle", seed, samples, spec)


def lie_suite(spec: TorusSpec, seed: int, samples: int):
    return _run("lie", seed, samples, spec)


def module_suite(ms: ModuleSpec, seed: int, samples: int):
    return _run("module", seed, samples, ms.spec, ms)


def section3_suite(ms: ModuleSpec, seed: int, samples: int):
    return _run("section3", seed, samples, ms.spec, ms)


def section4_suite(ms: ModuleSpec, seed: int, samples: int):
    return _run("section4", seed, samples, ms.spec, ms)


def irreducibility_suite(ms: ModuleSpec, seed: int, samples: int):
    return _run("irreducibility", seed, samples, ms.spec, ms)


def run_suites(ms: ModuleSpec, seed: int, samples: int, names):
    """Run each named suite once; the rows come back sorted by check name."""
    # the suite functions are looked up when called, so a wrapped one is used
    suites = {
        "cocycle": lambda: cocycle_suite(ms.spec, seed, samples),
        "lie": lambda: lie_suite(ms.spec, seed, samples),
        "module": lambda: module_suite(ms, seed, samples),
        "section3": lambda: section3_suite(ms, seed, samples),
        "section4": lambda: section4_suite(ms, seed, samples),
        "irreducibility": lambda: irreducibility_suite(ms, seed, samples),
    }
    for name in names:
        if name not in suites:
            raise ConfigError(
                f"unknown suite {name!r}; valid suites: {', '.join(SUITE_NAMES)}"
            )
    reports = [row for name in dict.fromkeys(names) for row in suites[name]()]
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
