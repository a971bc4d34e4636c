"""Command-line front end.

Commands: build (emit an algebra in the interchange format), grade (build or
check gradings), verify (run an identity checker on an algebra file), magic
(construct magic-square Lie algebras and their gradings), scenario (run a
named claim bundle), list.  Exit codes: 0 all pass, 1 any claim failed,
2 usage or i/o error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import compose, magic
from .algebra import (Algebra, algebra_from_text, verify_composition,
                      verify_jordan, verify_lie, verify_symmetric)
from .exact import parse_scalar
from .grading import (CAYLEY_KINDS, OKUBO_KINDS, QUATERNION_KINDS, BadParams,
                      cayley_grading, grading_from_text,
                      grading_type, okubo_grading, quaternion_grading,
                      two_dim_z3_grading, universal_group, verify_grading)
from .report import Report
from . import scenarios


def _parse_params(text, what, defaults):
    """The scalars in "p1,p2,...", or the defaults when text is empty.  The
    builder named `what` takes exactly len(defaults); what=None takes any."""
    if not text:
        return defaults
    p = tuple(parse_scalar(t) for t in text.split(","))
    if what and len(p) != len(defaults):
        raise ValueError("%s takes %d parameter(s), got %d"
                         % (what, len(defaults), len(p)))
    return p


# name -> (constructor, default parameters); the two doubling towers take any
# number of parameters, every other builder exactly as many as its defaults
_BUILDERS = {
    "k": (compose.ground_field, ()),
    "s1": (compose.s1, ()),
    "s2": (compose.s2, (1,)),
    "quadratic": (compose.quadratic_algebra, (-1,)),
    "mat2": (compose.split_quaternion, ()),
    "split-cayley": (compose.split_cayley, ()),
    "cd": (compose.cd_tower, (1, 1, 1)),
    "para-cayley": (lambda *p: compose.para_hurwitz(compose.cd_tower(*p)), (1, 1, 1)),
    "para-split-cayley": (lambda: compose.para_hurwitz(compose.split_cayley()), ()),
    "okubo": (compose.okubo, (1, 1)),
    "okubo-quat": (compose.okubo_from_quaternion, (1, 1)),
    "p8": (compose.pseudo_octonion, ()),
    "p8-nst": (lambda: compose.split_petersson("nst"), ()),
    "p8-omega": (lambda: compose.split_petersson("omega"), ()),
}
_TOWERS = ("cd", "para-cayley")


def build_algebra(spec: str) -> Algebra:
    """Build a catalog algebra from "name" or "name:p1,p2,..."."""
    name, _, params = spec.partition(":")
    if name == "albert":
        return magic.albert(build_algebra(params or "para-split-cayley")).jordan
    if name not in _BUILDERS:
        raise KeyError("unknown algebra %r (try: %s)"
                       % (name, ", ".join(sorted(_BUILDERS))))
    fn, defaults = _BUILDERS[name]
    what = None if name in _TOWERS else "algebra %r" % name
    return fn(*_parse_params(params, what, defaults))


def _sink(text: str, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_build(args) -> int:
    A = build_algebra(args.name)
    _sink(A.to_text(), args.out)
    return 0


def _dim2_grading(kind, params):
    """The one grading kind, z3, of the two-dimensional algebra S2(xi)."""
    if kind != "z3":
        raise BadParams("unknown dim2 grading kind %r" % kind)
    return two_dim_z3_grading(*(params or ()))


# --family -> (builder of (kind, params), default parameters); a builder given
# params=None uses its defaults, and its fixed-algebra kinds refuse any others
_FAMILIES = {
    "cayley": (cayley_grading, (1, 1, 1)),
    "quaternion": (quaternion_grading, (1, 1)),
    "okubo": (okubo_grading, (1, 1)),
    "dim2": (_dim2_grading, (1,)),
}


def cmd_grade(args) -> int:
    if bool(args.algebra) != bool(args.grading):
        raise ValueError("--algebra and --grading go together")
    if args.algebra:
        with open(args.algebra) as fh:
            A = algebra_from_text(fh.read())
        with open(args.grading) as fh:
            gr = grading_from_text(fh.read(), A)
    else:
        fn, defaults = _FAMILIES[args.family]
        what = "grading family %r" % args.family
        params = _parse_params(args.params, what, defaults) if args.params else None
        gr = fn(args.kind, params)
    outcome = {}
    ok = True
    if args.check or args.type or args.universal:
        rep = verify_grading(gr)
        ok = rep.passed
        outcome["verified"] = rep.passed
        if not rep.passed:
            outcome["witness"] = str(rep.witness)
    if ok and args.type:
        outcome["type"] = list(grading_type(gr))
    if ok and args.universal:
        group, _, _ = universal_group(gr)
        outcome["universal"] = group.describe()
    if args.out:
        _sink(gr.to_text(), args.out)
    if outcome:
        print(json.dumps(outcome) if args.json else
              "\n".join("%s: %s" % kv for kv in outcome.items()))
    return 0 if ok else 1


_VERIFIERS = {
    "composition": verify_composition,
    "symmetric": verify_symmetric,
    "lie": verify_lie,
    "jordan": verify_jordan,
}


def cmd_verify(args) -> int:
    if args.algebra:
        with open(args.algebra) as fh:
            A = algebra_from_text(fh.read())
    else:
        A = build_algebra(args.name)
    rep = _VERIFIERS[args.what](A)
    print(rep.to_json() if args.json else rep.summary())
    return 0 if rep.passed else 1


# the e8 names of forge magic --grade beside the Lie rows of magic.INDUCED;
# dempwolff is the Z2^5 coarsening of e8_z2_8
_E8_GRADES = {"z2_8": "e8_z2_8", "z3_5": "e8_z3_5", "dempwolff": "e8_z2_8"}


def grade_names():
    """Every forge magic --grade name: the INDUCED rows with a left side, then
    the e8 names."""
    return [n for n, row in magic.INDUCED.items() if row[0]] + list(_E8_GRADES)


def cmd_magic(args) -> int:
    reports = []
    if args.grade and (args.left or args.right):
        print("error: --grade %s builds its own algebras; drop --left and --right"
              % args.grade, file=sys.stderr)
        return 2
    if args.grade:
        _, grading = magic.induced(_E8_GRADES.get(args.grade, args.grade))
        if args.grade == "dempwolff":
            grading = magic.e8_dempwolff(grading)
    else:
        left = build_algebra(args.left or "para-cayley")
        right = build_algebra(args.right or "para-cayley")
        grading = magic.magic_g(left, right).z22
    lie = grading.algebra
    reports.append(Report("dimension", True, {"dim": lie.dim}))
    rep = verify_grading(grading)
    reports.append(rep)
    if rep.passed:
        reports.append(Report("type(%s)" % grading.name, True,
                              {"type": list(grading_type(grading))}))
    if args.check == "jacobi":
        reports.append(verify_lie(lie))
    elif args.check in ("cartan", "jordan"):
        if args.grade != "dempwolff":
            print("error: --check %s needs --grade dempwolff" % args.check,
                  file=sys.stderr)
            return 2
        reports.append(magic.jordan_grading_check(lie, grading,
                                                  cartan_mode="components"))
    ok = all(r.passed for r in reports)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            print(r.summary())
    return 0 if ok else 1


def cmd_scenario(args) -> int:
    try:
        fn = scenarios.CATALOG[args.name]
    except KeyError:
        print("unknown scenario %r; available: %s"
              % (args.name, ", ".join(sorted(scenarios.CATALOG))), file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    rep = fn(seed=args.seed)
    timings = {"wall_time_s": round(time.perf_counter() - t0, 2)}
    rep.details["seed"] = args.seed
    if args.json:
        payload = rep.to_dict()
        if args.timings:
            payload["timings"] = timings
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = _scenario_text(rep)
        if args.timings:
            text += "\ntimings: " + json.dumps(timings, sort_keys=True)
    _sink(text + "\n", args.out)
    return 0 if rep.passed else 1


def _scenario_text(rep: Report) -> str:
    lines = [rep.summary()]
    for claim in rep.details.get("claims", []):
        lines.append("  [%s] %-34s %s" % ("ok" if claim["passed"] else "FAIL",
                                          claim["id"], claim.get("got", "")))
    return "\n".join(lines)


def cmd_list(args) -> int:
    print("scenarios:")
    for name in sorted(scenarios.CATALOG):
        print("  %s" % name)
    print("algebras (forge build):")
    print("  " + ", ".join(sorted(_BUILDERS)) + ", albert:<inner>")
    print("grading kinds:")
    print("  cayley: %s" % ", ".join(CAYLEY_KINDS))
    print("  quaternion: %s" % ", ".join(QUATERNION_KINDS))
    print("  okubo: %s" % ", ".join(OKUBO_KINDS))
    print("  dim2: z3")
    print("induced gradings (forge magic --grade):")
    print("  " + ", ".join(grade_names()))
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="forge",
                                 description="exact composition-algebra forge")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="emit an algebra in the interchange format")
    b.add_argument("name")
    b.add_argument("--out")
    b.set_defaults(fn=cmd_build)

    g = sub.add_parser("grade", help="build or check a grading")
    g.add_argument("--algebra", help="algebra interchange file")
    g.add_argument("--grading", help="grading file to check against --algebra")
    g.add_argument("--family", default="cayley", choices=tuple(_FAMILIES))
    g.add_argument("--kind", default="z3")
    g.add_argument("--params", default="")
    g.add_argument("--check", action="store_true")
    g.add_argument("--type", action="store_true")
    g.add_argument("--universal", action="store_true")
    g.add_argument("--json", action="store_true")
    g.add_argument("--out")
    g.set_defaults(fn=cmd_grade)

    v = sub.add_parser("verify", help="run an identity checker")
    v.add_argument("what", choices=sorted(_VERIFIERS))
    v.add_argument("--algebra", help="algebra interchange file")
    v.add_argument("--name", default="split-cayley", help="catalog algebra")
    v.add_argument("--json", action="store_true")
    v.set_defaults(fn=cmd_verify)

    m = sub.add_parser("magic", help="magic-square Lie algebras")
    m.add_argument("--left", help="catalog algebra (default para-cayley)")
    m.add_argument("--right", help="catalog algebra (default para-cayley)")
    m.add_argument("--grade", choices=grade_names())
    m.add_argument("--check", choices=("jacobi", "cartan", "jordan"))
    m.add_argument("--json", action="store_true")
    m.set_defaults(fn=cmd_magic)

    s = sub.add_parser("scenario", help="run a named claim bundle")
    s.add_argument("name")
    s.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    s.add_argument("--timings", action="store_true",
                   help="add the wall time, which varies between runs")
    s.add_argument("--json", action="store_true")
    s.add_argument("--out")
    s.set_defaults(fn=cmd_scenario)

    l = sub.add_parser("list", help="list scenarios and builders")
    l.set_defaults(fn=cmd_list)
    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (KeyError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
