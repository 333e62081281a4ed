"""Command line front end.

Surfaces are written ``rational:k=2``, ``ruled:h=2`` (a trivial bundle,
optionally ``,k=1``) or ``nontrivial-ruled:h=1``, and ``--k K`` is the literal
``rational:k=K``; classes use the literal
syntax ``2H-E1-E2`` / ``U-3T`` with integer or fractional coefficients.
Exit status: 0 on success, 1 when a requested check fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cones, cremona, enumeration, inflation, swcert, verify
from .configurations import (
    NegativeConfiguration,
    blow_down,
    catalog_cp2_1,
    catalog_cp2_2,
    catalog_cp2_3,
    count_minus_one,
    validate_configuration,
)
from .lattice import (
    RATIONAL,
    TRIVIAL_RULED,
    pair,
    DivisorClass,
    LatticeError,
    ParseError,
    SurfaceModel,
    format_class,
    intern_surface,
    parse_class,
    parse_class_list,
    sorted_classes,
)

CATALOGS = {"cp2+1": catalog_cp2_1, "cp2+2": catalog_cp2_2, "cp2+3": catalog_cp2_3}


def parse_surface(text: str) -> SurfaceModel:
    """The surface a literal such as ``ruled:h=2,k=1`` names; SurfaceModel
    checks the values."""
    head, _, params = text.partition(":")
    kind = head.strip().lower().replace("-", "_")
    kind = TRIVIAL_RULED if kind == "ruled" else kind
    values = {"k": 0, "h": 0 if kind == RATIONAL else 1}
    given = set()
    for item in params.split(",") if params else ():
        key, _, value = (part.strip() for part in item.partition("="))
        if key not in values or key in given:
            raise ParseError(f"unknown or repeated surface parameter {item!r}")
        given.add(key)
        try:
            values[key] = int(value)
        except ValueError:
            raise ParseError(f"bad surface parameter {item!r}") from None
    try:
        return intern_surface(SurfaceModel(kind, **values))
    except LatticeError as err:
        raise ParseError(str(err)) from None


def _surface(args) -> SurfaceModel:
    if args.surface is None:
        raise ParseError("specify --surface or --k")
    return parse_surface(args.surface)


def _no_surface_beside(args, flag: str) -> None:
    """A file flag brings its own surface, so --surface or --k next to it
    would be ignored; refuse it instead."""
    if args.surface is not None:
        raise ParseError(f"{flag} names its own surface; drop --surface/--k")


def _classes_from_arg(text: str, surface: SurfaceModel) -> list[DivisorClass]:
    classes = [parse_class(part, surface) for part in text.split(",") if part.strip()]
    if not classes:
        raise ParseError(f"no class literal in {text!r}")
    return classes


def _load_json(path: str, parse):
    """parse applied to the JSON object in path; an unreadable file, a
    document that is not an object or a missing key is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ParseError(f"cannot read {path}: {err}") from None
    if not isinstance(document, dict):
        raise ParseError(f"{path} does not hold a JSON object")
    try:
        return parse(document)
    except KeyError as err:
        raise ParseError(f"{path} has no {err} entry") from None


def _parse_cone(data: dict):
    surface = SurfaceModel.from_json(data["surface"])
    rays = parse_class_list(data["rays"], surface)
    if not rays:
        raise ParseError("no class literal in the rays entry")
    return surface, rays


# -- subcommand handlers ----------------------------------------------------


def cmd_enumerate(args) -> int:
    surface = _surface(args)
    if args.nbound < 0:
        raise ParseError("--nbound must be >= 0")
    reps = enumeration.sphere_classes(surface, n_bound=args.nbound, square=args.square)
    if args.families:
        key, lines = "families", [enumeration.family_label(x) for x in reps]
    else:
        paper_signs = args.paper_signs and not args.json  # JSON keeps str(c)
        key, lines = "classes", [format_class(c, paper_signs=paper_signs)
                                 for c in sorted_classes(enumeration.family_instances(reps))]
    if args.json:
        print(json.dumps({key: lines}))
    else:
        for line in lines:
            print(line)
    return 0


def cmd_squares(args) -> int:
    if args.total < 0:
        raise ParseError("--total must be >= 0")
    reps = enumeration.nine_squares_representations(
        args.total, residue_sum_zero=not args.any_sum
    )
    if args.json:
        print(json.dumps({"total": args.total, "representations": [list(r) for r in reps]}))
    else:
        for r in reps:
            print(" ".join(str(x) for x in r))
        print(f"count: {len(reps)}")
    return 0


def cmd_reduce(args) -> int:
    out = cremona.cremona_reduce(parse_class(args.cls, _surface(args)))
    if args.json:
        print(json.dumps({
            "outcome": out.kind,
            "result": str(out.result) if out.result else None,
            "trace": [str(t) for t in out.trace],
            "steps": out.steps,
        }))
    else:
        print(f"{out.kind} after {out.steps} steps")
        if out.kind == "reduced":
            print(f"reduced form: {out.result}")
        else:
            print("trace: " + " -> ".join(str(t) for t in out.trace))
    return 0


def cmd_equiv(args) -> int:
    surface = _surface(args)
    x = parse_class(args.cls, surface)
    y = parse_class(args.other, surface)
    out = cremona.cremona_equivalent(x, y)
    if args.json:
        path = [str(p) for p in out.path]
        print(json.dumps({"outcome": out.kind, "which": out.which, "path": path}))
    else:
        print(out.kind + (f" ({out.which})" if out.which else ""))
        if out.path:
            print("path: " + " -> ".join(str(p) for p in out.path))
    return 0


def cmd_ksymp(args) -> int:
    ks = cones.k_symplectic_cone(_surface(args))
    if args.json:
        print(
            json.dumps(
                {
                    "corners": [
                        {
                            "ray": str(c.ray),
                            "square": str(c.square),
                            "genus": str(c.genus),
                        }
                        for c in ks.corners
                    ],
                    "corners_ok": ks.corners_ok,
                }
            )
        )
    else:
        for c in ks.corners:
            print(f"{c.ray}  square {c.square}  genus {c.genus}")
        print(f"all corners square 0/1 and genus 0: {ks.corners_ok}")
    return 0 if ks.corners_ok else 1


def cmd_dual(args) -> int:
    if args.rays_file:
        _no_surface_beside(args, "--rays-file")
        surface, rays = _load_json(args.rays_file, _parse_cone)
    else:
        surface = _surface(args)
        rays = _classes_from_arg(args.rays, surface)
    dual = cones.dual_cone(rays)
    if args.json:
        facets = sorted_classes({r.primitive() for r in rays if not r.is_zero()})
        print(json.dumps({
            "surface": surface.to_json(),
            "rays": [str(r) for r in dual.rays],
            "facets": [str(f) for f in facets],
            "lineality": [str(v) for v in dual.lineality],
        }))
    else:
        for r in dual.rays:
            print(format_class(r, paper_signs=args.paper_signs))
        for v in dual.lineality:
            print(f"{v} (lineality)")
    return 0


def cmd_nef_threshold(args) -> int:
    if args.curves_file:
        _no_surface_beside(args, "--curves-file")
        cfg = _load_json(args.curves_file, NegativeConfiguration.from_json)
        surface = cfg.surface
        curves = list(cfg.curves)
    else:
        surface = _surface(args)
        curves = _classes_from_arg(args.curves, surface)
    omega = parse_class(args.omega, surface)
    t0 = cones.nef_threshold(omega, curves)
    if args.json:
        print(json.dumps({"threshold": str(t0)}))
    else:
        print(t0)
    return 0


def cmd_inflate(args) -> int:
    if args.trace is not None and args.trace < 1:
        raise ParseError("--trace must be >= 1")
    if args.trace and not args.ray:
        raise ParseError("--trace needs --ray")
    cfg = _load_json(args.config, NegativeConfiguration.from_json)
    start = parse_class(args.start, cfg.surface)
    wanted = parse_class(args.ray, cfg.surface).primitive() if args.ray else None
    tight = [c for c in cfg.curves if pair(c, wanted) == 0] if wanted is not None else []
    if args.trace and len(tight) != 2:
        raise ParseError(
            f"--trace needs a ray tight on exactly two curves; {wanted} is tight on {len(tight)}"
        )
    achieved = inflation.achieve_all_rays(cfg, start)
    if wanted is not None and wanted not in achieved:
        raise ParseError(f"{wanted} is not an extremal ray of the positive dual")
    records = []
    for ray, trace in achieved.items():
        if wanted is not None and ray != wanted:
            continue
        records.append(
            {
                "ray": str(ray),
                "result": str(trace.result),
                "steps": [[str(c), str(e)] for c, e in trace.steps],
                "light_cone_limit": trace.limit_formula_used,
            }
        )
    doc = {"start": str(start), "achieved": records}
    if args.trace:
        alt = inflation.alternate_inflate(
            inflation.max_inflate(start, tight[0])[0], tight[0], tight[1], args.trace
        )
        doc["alternating"] = {
            "odd": [str(x) for x in alt.odd_coefficients],
            "even": [str(x) for x in alt.even_coefficients],
        }
    if args.json:
        print(json.dumps(doc))
        return 0
    for rec in records:
        steps = ", ".join(f"{e} along {c}" for c, e in rec["steps"]) or "none"
        tag = " (light-cone limit)" if rec["light_cone_limit"] else ""
        print(f"{rec['ray']}: reached {rec['result']} via {steps}{tag}")
    if args.trace:
        print("alternating coefficients:")
        print("  odd:  " + ", ".join(doc["alternating"]["odd"]))
        print("  even: " + ", ".join(doc["alternating"]["even"]))
    return 0


def cmd_validate(args) -> int:
    rep = validate_configuration(_load_json(args.file, NegativeConfiguration.from_json))
    props = (("p1", rep.p1), ("p2", rep.p2), ("p3", rep.p3))
    if args.json:
        doc = {name: {"passed": res.passed, "details": res.details} for name, res in props}
        print(json.dumps({**doc, "passed": rep.passed}))
    else:
        for name, res in props:
            print(f"{name}: {'pass' if res.passed else 'FAIL'} -- {res.details}")
    return 0 if rep.passed else 1


def cmd_blowdown(args) -> int:
    cfg = _load_json(args.file, NegativeConfiguration.from_json)
    small, dropped = blow_down(cfg, parse_class(args.at, cfg.surface))
    if args.json:
        out = small.to_json()
        out["dropped"] = [str(d) for d in dropped]
        print(json.dumps(out))
    else:
        print("curves: " + ", ".join(str(c) for c in small.curves))
        if small.extra_square_zero:
            print("square-zero: " + ", ".join(str(c) for c in small.extra_square_zero))
        if dropped:
            print("dropped (non-negative square): " + ", ".join(str(d) for d in dropped))
    return 0


def cmd_catalog(args) -> int:
    if args.n is not None and args.n < 0:
        raise ParseError("--n must be >= 0")
    maker = CATALOGS[args.name]
    entries = maker() if args.n is None else maker((args.n,))
    if args.json:
        print(
            json.dumps(
                [
                    {"label": e.label(), **e.configuration.to_json()}
                    for e in entries
                ]
            )
        )
    else:
        for e in entries:
            minus_one = len(count_minus_one(e.configuration))
            print(
                f"{e.label()}: "
                + ", ".join(str(c) for c in e.configuration.curves)
                + f"   [-1 curves: {minus_one}]"
            )
    return 0


def cmd_cert(args) -> int:
    cls = parse_class(args.cls, _surface(args))
    out = swcert.sw_certificate(cls)
    if isinstance(out, str):
        print(json.dumps({"certified": False, "reason": out}))
        return 1
    print(
        json.dumps(
            {
                "certified": True,
                "class": str(out.cls),
                "dimension": str(out.dimension),
                "witness": str(out.witness),
                "magnitude": out.magnitude,
            }
        )
    )
    return 0


def cmd_decompose(args) -> int:
    cls = parse_class(args.cls, _surface(args))
    out = swcert.non_extremal_witness(cls)
    if isinstance(out, str):
        print(json.dumps({"extremal": True, "reason": out}))
        return 0
    print(
        json.dumps(
            {
                "extremal": False,
                "scale": out.scale,
                "summands": [
                    {"class": str(p), "magnitude": c.magnitude, "dimension": str(c.dimension)}
                    for p, c in out.summands
                ],
            }
        )
    )
    return 0


def cmd_verify(args) -> int:
    checks = [fn() for fn in (verify.SUITES[args.suite] if args.suite else verify.ALL_CHECKS)]
    passed = sum(c.passed for c in checks)
    failed = len(checks) - passed
    if args.json:
        rows = [{"name": c.name, "reference": c.reference,
                 "status": "pass" if c.passed else "fail", "details": c.details} for c in checks]
        print(json.dumps({"checks": rows, "summary": {"passed": passed, "failed": failed}}, indent=2))
    else:
        for c in checks:
            print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.details}")
        print(f"{passed} passed, {failed} failed")
    return 0 if failed == 0 else 1


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="exact curve-cone computations on rational and ruled surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # parent parsers: each flag that several subcommands take is declared once
    as_json, paper_signs, one_class, on_surface = (
        argparse.ArgumentParser(add_help=False) for _ in range(4))
    as_json.add_argument("--json", action="store_true")
    paper_signs.add_argument("--paper-signs", action="store_true",
                             help="render classes as coefficient tuples (a; b1, ..., bk)")
    one_class.add_argument("--class", dest="cls", required=True)
    where = on_surface.add_mutually_exclusive_group()
    where.add_argument("--surface", help="e.g. rational:k=3 or ruled:h=2")
    where.add_argument("--k", dest="surface", type="rational:k={}".format, metavar="K",
                       help="shorthand for rational:k=K")

    def leaf(parent, name, func, parents, **kwargs):
        p = parent.add_parser(name, parents=list(parents), **kwargs)
        p.set_defaults(func=func)
        return p

    p = leaf(sub, "enumerate", cmd_enumerate, (on_surface, as_json, paper_signs),
             help="sphere classes with a given square")
    p.add_argument("--square", type=int, default=-1)
    p.add_argument("--nbound", type=int, default=2, help="materialize the non-positive-degree families up to n")
    p.add_argument("--families", action="store_true", help="print orbit families, not instances")

    p = leaf(sub, "squares", cmd_squares, (as_json,), help="nine-squares representations")
    p.add_argument("--total", type=int, required=True)
    p.add_argument("--any-sum", action="store_true", help="drop the zero-sum condition")

    psub = sub.add_parser("cremona", help="reduction and equivalence").add_subparsers(
        dest="action", required=True)
    leaf(psub, "reduce", cmd_reduce, (on_surface, as_json, one_class))
    p = leaf(psub, "equiv", cmd_equiv, (on_surface, as_json))
    p.add_argument("cls", metavar="A")
    p.add_argument("other", metavar="B")

    psub = sub.add_parser("cone", help="duals and the K-symplectic cone").add_subparsers(
        dest="action", required=True)
    p = leaf(psub, "dual", cmd_dual, (on_surface, as_json, paper_signs))
    rays = p.add_mutually_exclusive_group(required=True)
    rays.add_argument("--rays", help="comma-separated class literals")
    rays.add_argument("--rays-file", help="JSON file with surface and rays")
    leaf(psub, "ksymp", cmd_ksymp, (on_surface, as_json))

    p = leaf(sub, "nef-threshold", cmd_nef_threshold, (on_surface, as_json),
             help="sup t with tK + omega nef")
    p.add_argument("--omega", required=True)
    curves = p.add_mutually_exclusive_group(required=True)
    curves.add_argument("--curves", help="comma-separated extremal curves")
    curves.add_argument("--curves-file", help="configuration JSON supplying the curves")

    p = leaf(sub, "inflate", cmd_inflate, (as_json,), help="achieve dual rays by formal inflation")
    p.add_argument("--config", required=True, help="configuration JSON file")
    p.add_argument("--start", required=True, help="start class literal")
    p.add_argument("--ray", help="achieve a single ray")
    p.add_argument("--trace", type=int, help="also print N alternating coefficients of --ray")

    psub = sub.add_parser("config", help="configuration tools").add_subparsers(
        dest="action", required=True)
    leaf(psub, "validate", cmd_validate, (as_json,)).add_argument("file")
    p = leaf(psub, "blowdown", cmd_blowdown, (as_json,))
    p.add_argument("file")
    p.add_argument("--at", required=True, help="the -1 basis class, e.g. E3")
    p = leaf(psub, "catalog", cmd_catalog, (as_json,))
    p.add_argument("name", choices=CATALOGS)
    p.add_argument("--n", type=int, help="single parameter value (default 0,1,2)")

    psub = sub.add_parser("sw", help="wall-crossing certificates").add_subparsers(
        dest="action", required=True)
    leaf(psub, "cert", cmd_cert, (on_surface, one_class))
    leaf(psub, "decompose", cmd_decompose, (on_surface, one_class))

    p = leaf(sub, "verify-paper", cmd_verify, (as_json,), help="run the reproduction checks")
    p.add_argument("--suite", choices=sorted(verify.SUITES), help="run one suite only")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, and stdout then goes to devnull
        return code
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
