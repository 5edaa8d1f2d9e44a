"""Command-line front end: instance loading, table dumps, verification suites.

Usage:  qtorus <command> --config instance.json [options]

Commands
  radical      print a basis of the radical of the commutation form
  structure    dump structure constants between homogeneous generators
  verify       run verification suites; exit 1 on any failed check
  act          apply one algebra element to one vector
  lambda       evaluate the zero-mode scalar at a degree and a weight point
  iso          check the diagonal comparison map of a G-twist module
  search-beta  search for a plain-flavor relabelling of an F-twist module
  irreducible  decide whether the weight spaces are irreducible

The instance config is a JSON file:

  {"torus": {"d": 2, "N": 2, "A": [[0, 1], [1, 0]]},
   "module": {"V": "natural", "alpha": [0, 0], "twist": null, "flavor": "F"},
   "box": [3, 3], "seed": 0, "samples": 200,
   "beta_candidates": [[0, 0], [0, 1]]}

Only "torus" is required.  Module defaults: natural V, alpha = 0, trivial
twist, flavor F.  Alpha and beta entries may be integers or "p/q" strings.
"box" truncates act's vectors; every other command only validates it.
Exit codes: 0 = success, 1 = verification failure, 2 = usage/config error.
All reports are JSON lines by default (deterministic: same config and seed
give byte-identical output); --text switches to a human-readable form.

A process enters through run(), as the console script and `python -m
qtorus.cli` do; main(argv) is the same command run in-process, as the tests
and the benchmark's tracer call it.  Each layer is imported by the command
that runs it: radical loads errors, cyclotomic, lattice and torus only;
structure adds the algebra layers (algebra, derivations, semidirect); every
command that reads a module builds it in build_instance, which loads
glmodules and fmodule; verify and iso also load the check suites.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from fractions import Fraction
from itertools import product as _iproduct

from .cyclotomic import _parse_fraction
from .errors import ConfigError, NotScalar, QTorusError
from .lattice import units
from .torus import TorusSpec

# checks.SUITE_NAMES, spelled out for the --suite help: the check suites (and
# the hashlib and random they seed from) load only in verify and iso, the
# commands that run them
SUITE_NAMES = ("cocycle", "lie", "module", "section3", "section4", "irreducibility")


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _fraction(x) -> Fraction:
    try:
        return _parse_fraction(x)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if "torus" not in cfg:
        raise ConfigError('config is missing the required "torus" section')
    return cfg


def build_instance(cfg: dict, args):
    """Validate the config and return (spec, ms, box, seed, samples)."""
    from .fmodule import ModuleSpec, TwistCharacter
    from .glmodules import parse_module

    spec = TorusSpec.from_json(cfg["torus"])

    box = cfg.get("box", [3] * spec.d)
    if not (
        isinstance(box, list)
        and len(box) == spec.d
        and all(type(b) is int and b >= 1 for b in box)
    ):
        raise ConfigError('"box" must be a list of d radii (positive integers)')
    box = tuple(box)

    mod = cfg.get("module", {})
    if not isinstance(mod, dict):
        raise ConfigError('"module" must be a JSON object')
    selector = mod.get("V", "natural")
    if not isinstance(selector, str):
        raise ConfigError('"V" must be a module selector string')
    V = parse_module(spec.d, selector)
    alpha = mod.get("alpha", [0] * spec.d)
    if not isinstance(alpha, list):
        raise ConfigError('"alpha" must be a list')
    alpha = [_fraction(a) for a in alpha]
    twist = TwistCharacter.from_json(spec, mod.get("twist"))
    flavor = mod.get("flavor", "F")
    ms = ModuleSpec(spec, V, alpha, twist, flavor)

    seed = args.seed if args.seed is not None else cfg.get("seed", 0)
    samples = args.samples if args.samples is not None else cfg.get("samples", 200)
    if type(seed) is not int:
        raise ConfigError('"seed" must be an integer')
    if type(samples) is not int or samples < 1:
        raise ConfigError("samples must be an integer, at least 1")
    return spec, ms, box, seed, samples


def _load_json_arg(value: str, what: str):
    """Parse an inline JSON argument; '@path' reads the JSON from a file."""
    if value.startswith("@"):
        try:
            with open(value[1:], encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load {what} from {value[1:]}: {exc}") from exc
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def _parse_point(text: str, d: int, what: str):
    try:
        point = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{what} must be comma-separated integers") from exc
    if len(point) != d:
        raise ConfigError(f"{what} must have {d} entries")
    return point


# -- commands -------------------------------------------------------------------


def cmd_radical(args) -> int:
    cfg = load_config(args.config)
    spec = TorusSpec.from_json(cfg["torus"])
    rad = spec.radical()
    if args.text:
        print(f"rank d={spec.d}, order N={spec.N}")
        print(f"radical basis rows: {[list(r) for r in rad.basis]}")
        print(f"diagonal: {rad.diagonal}")
        print(f"diagonal orders: {rad.diagonal_orders}")
        print(f"index in the full lattice: {rad.index}")
    else:
        print(_dump(rad.to_json()))
    return 0


def cmd_structure(args) -> int:
    from .algebra import TorusElement
    from .derivations import DerElement
    from .semidirect import GElement, gbracket

    cfg = load_config(args.config)
    spec = TorusSpec.from_json(cfg["torus"])
    radius = args.radius
    if radius < 0:
        raise ConfigError("--radius must be nonnegative")
    window = sorted(_iproduct(*[range(-radius, radius + 1)] * spec.d))

    gens = []
    for n in window:
        gens.append((f"t{list(n)}", GElement.from_torus(TorusElement.monomial(spec, n))))
    for n in window:
        if not spec.in_radical(n):
            gens.append((f"ad t{list(n)}", GElement.from_der(DerElement.ad(spec, n))))
    for i, u in enumerate(units(spec.d)):
        gens.append(
            (f"D(e{i},0)", GElement.from_der(DerElement.witt_term(spec, u, (0,) * spec.d)))
        )

    rows = []
    for xl, x in gens:
        for yl, y in gens:
            rows.append({"x": xl, "y": yl, "bracket": gbracket(x, y).to_json()})
    if args.text:
        for row in rows:
            print(f"[{row['x']}, {row['y']}] = {row['bracket']}")
    else:
        for row in rows:
            print(_dump(row))
    return 0


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    _spec, ms, _box, seed, samples = build_instance(cfg, args)
    # imported once build_instance has loaded the layers that checks imports,
    # so that they are not compiled inside its import: that order read about
    # 0.15 MB higher in a verify process's peak RSS
    from . import checks

    selector = args.suite if args.suite is not None else ",".join(SUITE_NAMES)
    names = [s.strip() for s in selector.split(",") if s.strip()]
    if not names:
        raise ConfigError("empty suite selector")
    reports = checks.run_suites(ms, seed, samples, names)
    summary = checks.summarize(reports)
    if args.text:
        for r in reports:
            mark = "PASS" if r["pass"] else "FAIL"
            note = f"  [{r['note']}]" if "note" in r else ""
            print(f"{mark}  {r['check']}  {r['instance']}  samples={r['samples']}{note}")
        print(f"{summary['passed']}/{summary['total']} checks passed")
    else:
        for r in reports:
            print(_dump(r))
        print(_dump(summary))
    return 0 if summary["pass"] else 1


def cmd_act(args) -> int:
    from .fmodule import BoxVector, act
    from .semidirect import GElement

    cfg = load_config(args.config)
    spec, ms, box, _seed, _samples = build_instance(cfg, args)
    try:
        x = GElement.from_json(spec, _load_json_arg(args.element, "element"))
        w = BoxVector.from_json(_load_json_arg(args.vector, "vector"))
    except (TypeError, KeyError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed element/vector JSON: {exc}") from exc
    if tuple(w.box) != box or w.dim != ms.V.dim:
        raise ConfigError("vector box/dimension does not match the instance")
    out = act(x, w, ms)
    result = out.to_json()
    if args.text:
        print(f"truncated: {out.truncated}")
        print(_dump(result))
    else:
        print(_dump(result))
    return 0


def cmd_lambda(args) -> int:
    from .fmodule import zero_mode_scalar

    cfg = load_config(args.config)
    spec, ms, _box, _seed, _samples = build_instance(cfg, args)
    s = _parse_point(args.s, spec.d, "--s")
    n = _parse_point(args.n, spec.d, "--n")
    try:
        value = zero_mode_scalar(ms, s, n)
    except NotScalar as exc:
        print(_dump({"s": list(s), "n": list(n), "scalar": False, "error": str(exc)}))
        return 1
    print(_dump({"s": list(s), "n": list(n), "scalar": True, "value": value.to_json()}))
    return 0


def cmd_iso(args) -> int:
    from .checks import sub_rng
    from .fmodule import intertwiner_check

    cfg = load_config(args.config)
    spec, ms, _box, seed, _samples = build_instance(cfg, args)
    rep = intertwiner_check(ms, sub_rng(seed, "diagonal_intertwiner"))
    row = {
        "check": "diagonal_intertwiner",
        "instance": ms.label(),
        "pass": rep["pass"],
        "defect": "0" if rep["defect"] is None else rep["defect"].to_json(),
    }
    print(_dump(row) if not args.text else f"{'PASS' if rep['pass'] else 'FAIL'}  diagonal_intertwiner  {ms.label()}")
    return 0 if rep["pass"] else 1


def cmd_search_beta(args) -> int:
    from .fmodule import search_twist_equivalence

    cfg = load_config(args.config)
    spec, ms, _box, _seed, _samples = build_instance(cfg, args)
    raw = cfg.get("beta_candidates")
    if not isinstance(raw, list) or not raw or not all(isinstance(row, list) for row in raw):
        raise ConfigError('search-beta needs a nonempty "beta_candidates" list of lists')
    candidates = [[_fraction(x) for x in row] for row in raw]
    result = search_twist_equivalence(ms, candidates)
    if result["found"]:
        row = {
            "found": True,
            "beta": [str(b) for b in result["beta"]],
            "delta": list(result["delta"]),
            "character": result["c"].to_json(),
        }
    else:
        row = {"found": False, "note": "not found within candidate set"}
    if args.text:
        if result["found"]:
            print(f"found: beta={row['beta']} delta={row['delta']} character={row['character']}")
        else:
            print("not found within candidate set")
    else:
        print(_dump(row))
    return 0


def cmd_irreducible(args) -> int:
    from .fmodule import irreducibility_evidence

    cfg = load_config(args.config)
    _spec, ms, _box, _seed, _samples = build_instance(cfg, args)
    rep = irreducibility_evidence(ms)
    row = {"check": "irreducibility_evidence", "instance": ms.label(), **rep}
    if args.text:
        mark = "PASS" if rep["pass"] else "FAIL"
        print(
            f"{mark}  irreducibility_evidence  {ms.label()}  "
            f"algebra {rep['algebra_dim']}/{rep['end_dim']}"
        )
    else:
        print(_dump(row))
    return 0 if rep["pass"] else 1


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtorus",
        description="Exact verification tools for twisted-torus Lie algebras "
        "and their graded weight modules.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the instance JSON")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument(
        "--samples", type=int, default=None, help="override the config sample count"
    )
    fmt = common.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", dest="text", action="store_false", help="JSON output (default)"
    )
    fmt.add_argument("--text", dest="text", action="store_true", help="readable output")
    common.set_defaults(text=False)

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("radical", parents=[common], help="radical of the commutation form")
    p.set_defaults(fn=cmd_radical)

    p = sub.add_parser("structure", parents=[common], help="structure-constant table")
    p.add_argument("--radius", type=int, default=1, help="degree window radius")
    p.set_defaults(fn=cmd_structure)

    p = sub.add_parser("verify", parents=[common], help="run verification suites")
    p.add_argument(
        "--suite",
        default=None,
        help="comma-separated suite names: " + ", ".join(SUITE_NAMES),
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("act", parents=[common], help="apply an element to a vector")
    p.add_argument("--element", required=True, help="element JSON (or @file)")
    p.add_argument("--vector", required=True, help="vector JSON (or @file)")
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("lambda", parents=[common], help="zero-mode scalar value")
    p.add_argument("--s", required=True, help="degree, comma-separated: 1,0 or --s=-1,0")
    p.add_argument("--n", required=True, help="weight point, comma-separated: 0,1 or --n=0,-1")
    p.set_defaults(fn=cmd_lambda)

    p = sub.add_parser("iso", parents=[common], help="diagonal comparison check")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser(
        "search-beta", parents=[common], help="search plain-flavor relabellings"
    )
    p.set_defaults(fn=cmd_search_beta)

    p = sub.add_parser("irreducible", parents=[common], help="irreducibility of the weight spaces")
    p.set_defaults(fn=cmd_irreducible)
    return parser


def main(argv=None) -> int:
    """Run one command; return its exit code (argparse exits 2 itself on a
    bad command line)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except QTorusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (e.g. `head`) closed the pipe; not an error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


def run() -> int:
    """The process entry point: main() on sys.argv, then gc.freeze() on the
    way out, whatever the exit path.  The interpreter's final collections
    then skip every object still alive, which is the whole heap of a finished
    command, while atexit handlers, the flush of the std streams and
    finalizers still run (os._exit would skip them).  main() itself makes no
    gc call: a process that calls it in-process goes on running."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
