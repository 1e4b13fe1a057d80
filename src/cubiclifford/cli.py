"""Command-line front end: every verification as a subcommand with JSON
output, plus a verify-all umbrella.

Exit codes: 0 all checks pass, 1 a verification failed, 2 usage error.
Scalars are emitted as integer residues alongside the field modulus, so
output is lossless and byte-identical across runs with the same inputs
and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .center import center_relation_residue, centrality_report
from .commgeo import (CentralPoint, central_point, delta_partials,
                      discriminant_value, on_twisted_cubic, point_on_fiber,
                      singular_locus_membership, twisted_cubic_point)
from .disc import locus_profile, sample_locus, trichotomy_holds
from .errors import CubicliffordError
from .fields import make_field
from .findim import build_quotient, check_unit_and_associativity, reduce_center_images
from .freealg import clifford_relations, parse_poly
from .pointmod import (PointTriple, abc_system_admits_solution,
                       central_character_diagonal,
                       gamma_invariants, predict_simple_quotient, proj_point,
                       solve_next)
from .repthy import dim2_certificate, search_irreps_dim1, search_irreps_dim2
from .rewrite import complete, hilbert_oracle

SCHEMA = 1

#: Completion bound of center-check, relation-check and verify-all, whose
#: Hilbert series check runs to this degree; the center relation lives in
#: degree 12.
DEGREE_BOUND = 13


def _add_common(sub):
    sub.add_argument("--prime", type=int, default=13)
    sub.add_argument("--output", choices=("json", "human"), default="json")


def _emit(args, field, payload, ok=True):
    payload = {"schema": SCHEMA, "ok": bool(ok), "prime": field.p, **payload}
    if args.output == "human":
        for k, v in payload.items():
            print(f"{k}: {v}")
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    return 0 if ok else 1


def _at_least(low):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{text} is less than {low}")
        return int(text)
    return integer


def _ells(text):
    try:
        return [_at_least(1)(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--ell takes comma-separated positive integers, not {text!r}"
        ) from None


def _parse_point(field, text) -> CentralPoint:
    parts = [int(v) for v in text.split(",")]
    if len(parts) == 4:
        parts += [0, 0]
    if len(parts) != 6:
        raise ValueError("point needs 4 or 6 comma-separated integers")
    return central_point(field, *parts, check=False)


def _parse_triple(field, text) -> PointTriple:
    pts = []
    for chunk in text.split(","):
        x, y = chunk.split(":")
        pts.append(proj_point(field, int(x), int(y)))
    if len(pts) != 3:
        raise ValueError("triple needs three x:y points")
    return PointTriple(*pts)


def _graded_system(field, bound):
    return complete(clifford_relations(field), degree_bound=bound)


# -- subcommand implementations ------------------------------------------


def cmd_hilbert(args, field):
    system = _graded_system(field, args.max_degree)
    table = []
    for n in range(args.max_degree + 1):
        got, want = system.graded_dimension(n), hilbert_oracle(n)
        table.append({"degree": n, "engine": got, "oracle": want,
                      "match": got == want})
    return _emit(args, field, {"table": table},
                 all(row["match"] for row in table))


def cmd_nf(args, field):
    poly = parse_poly(field, args.poly)
    # the relations are homogeneous: completing to the polynomial's own
    # degree gives the same normal form as any larger bound
    system = _graded_system(field, max(poly.degree(), 0))
    nf = system.normal_form(poly)
    return _emit(args, field, {"input": args.poly,
                               "normal_form": nf.serialize()})


def cmd_center_check(args, field):
    rep = centrality_report(_graded_system(field, DEGREE_BOUND), field)
    return _emit(args, field, {"verdicts": rep}, all(rep.values()))


def cmd_relation_check(args, field):
    residue = center_relation_residue(_graded_system(field, DEGREE_BOUND),
                                      field)
    holds = residue.is_zero()
    payload = {"relation_holds": holds}
    if not holds:
        payload["residue"] = residue.serialize()
    return _emit(args, field, payload, holds)


def cmd_singular_check(args, field):
    pt = _parse_point(field, args.point)
    partials = delta_partials(field)
    vals = [int(p.evaluate([pt.a, pt.b, pt.c, pt.d])) for p in partials]
    payload = {
        "point": [int(v) for v in pt.coords()],
        "discriminant": int(discriminant_value(field, pt.a, pt.b, pt.c,
                                               pt.d)),
        "partials": vals,
        "on_twisted_cubic": on_twisted_cubic(field, pt.a, pt.b, pt.c, pt.d),
        "on_fiber": point_on_fiber(field, pt),
        "singular_locus_member": singular_locus_membership(field, pt),
    }
    return _emit(args, field, payload)


def _check_writable(path):
    """Reject a path open(path, "w") cannot write, without touching it."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) or not os.path.isdir(parent) or not os.access(
            path if os.path.exists(path) else parent, os.W_OK):
        raise ValueError(f"cannot write --dump: {path}")


def cmd_quotient(args, field):
    pt = _parse_point(field, args.point)
    if args.dump:
        _check_writable(args.dump)
    alg = build_quotient(field, pt)
    checks = {
        "unit_and_associativity": check_unit_and_associativity(alg),
        "center_images_match": [int(v) for v in reduce_center_images(alg)]
        == [int(v) for v in pt.coords()],
    }
    payload = {"point": [int(v) for v in pt.coords()], "dim": alg.dim,
               "basis": [w or "1" for w in alg.basis], "checks": checks}
    if args.dump:
        try:
            with open(args.dump, "w") as fh:
                json.dump(alg.to_json_dict(), fh, sort_keys=True)
        except OSError as exc:
            raise ValueError(f"cannot write --dump: {exc}") from None
        payload["dumped_to"] = args.dump
    return _emit(args, field, payload, all(checks.values()))


def cmd_irreps(args, field):
    pt = _parse_point(field, args.point)
    prof = locus_profile(field, pt)
    dim1 = search_irreps_dim1(field, pt)
    payload = {
        "point": [int(v) for v in pt.coords()],
        "dim": prof.algebra.dim,
        "blocks": [list(b) for b in prof.blocks.blocks],
        "gram_rank": prof.gram_rank,
        "irrep_dims": list(prof.irrep_dims),
        "sum_of_squares": prof.sum_squares,
        "dim1_reps": [list(ab) for ab in dim1],
    }
    return _emit(args, field, payload)


def cmd_search_dim2(args, field):
    res = search_irreps_dim2(field)
    payload = {"irreducible_pairs": len(res["irreducible_pairs"]),
               "reducible_solutions": res["reducible_solutions"],
               "x_forms_tested": res["x_forms_tested"]}
    return _emit(args, field, payload, len(res["irreducible_pairs"]) == 0)


def cmd_point_module(args, field):
    triple = _parse_triple(field, args.triple)
    nxt = solve_next(field, triple)
    inv = gamma_invariants(field, triple)
    payload = {
        "next_point": [int(nxt.x), int(nxt.y)],
        "gamma_invariants": {k: int(v) for k, v in inv.items()},
        "gamma_squared_equals_XYZ":
            field.of(inv["gamma"] * inv["gamma"])
            == field.of(inv["X"] * inv["Y"] * inv["Z"]),
        "predicted_simple_quotient_dims":
            sorted(predict_simple_quotient(field, triple)),
        "abc_system_admits_solution":
            abc_system_admits_solution(field, triple),
    }
    if triple.is_diagonal():
        cc = central_character_diagonal(field, triple.p0)
        payload["central_character"] = [int(v) for v in cc.coords()]
        payload["central_character_singular"] = singular_locus_membership(
            field, cc)
    return _emit(args, field, payload)


def cmd_disc_locus(args, field):
    report = sample_locus(field, args.ell, n_per_stratum=args.samples,
                          seed=args.seed)
    payload = {"seed": args.seed, "samples_per_stratum": args.samples,
               "report": {str(k): v for k, v in report.items()}}
    return _emit(args, field, payload)


def cmd_verify_all(args, field):
    """Umbrella: run every check once at modest sample sizes."""
    results = {}
    system = _graded_system(field, DEGREE_BOUND)

    hilbert_ok = all(system.graded_dimension(n) == hilbert_oracle(n)
                     for n in range(DEGREE_BOUND + 1))
    results["hilbert_series"] = hilbert_ok

    cent = centrality_report(system, field)
    results["centrality"] = all(cent.values())
    results["center_relation"] = center_relation_residue(system, field).is_zero()

    partials = delta_partials(field)
    cubic_ok = True
    for t in range(5):
        a, b, c, d = twisted_cubic_point(field, 1, t)
        cubic_ok = cubic_ok and all(
            p.evaluate([a, b, c, d]) == field.zero for p in partials)
    results["partials_vanish_on_cubic"] = cubic_ok

    results["no_dim2_irreps"] = dim2_certificate(field)

    # D(1, 0, 0, 1) = 1/4, so e^2 = f^3 - 27 D at (e, f) = (9/2, 3)
    pt = central_point(field, 1, 0, 0, 1, 9 * field.inv(2), 3)
    prof = locus_profile(field, pt, seed=args.seed)
    results["azumaya_dim9"] = prof.algebra.dim == 9
    results["azumaya_block"] = list(prof.irrep_dims) == [3]
    results["azumaya_gram_rank9"] = prof.gram_rank == 9

    ptc = central_point(field, 1, 1, 1, 1, 0, 0)
    profc = locus_profile(field, ptc, seed=args.seed)
    # three 1-dim irreducibles over the closure, from the blocks; they
    # are the (a, b) = (w, w) with w^3 = 1: gcd(3, p - 1) (1, 1) blocks
    results["singular_three_dim1"] = (
        profc.irrep_dims == (1, 1, 1)
        and profc.blocks.blocks.count((1, 1)) == math.gcd(3, field.p - 1))

    triple_ok = True
    # five distinct points of P^1, since p >= 5
    pts = [proj_point(field, 1, b) for b in range(5)]
    for p0 in pts:
        for p1 in pts:
            tri = PointTriple(p0, p1, pts[0])
            triple_ok = triple_ok and solve_next(field, tri) == p0
            if not tri.is_diagonal():
                triple_ok = triple_ok and not abc_system_admits_solution(
                    field, tri)
    results["point_variety"] = triple_ok

    locus = sample_locus(field, [3, 5, 12], n_per_stratum=3, seed=args.seed)
    results["trichotomy"] = trichotomy_holds(locus, 3)

    ok = all(results.values())
    payload = {"seed": args.seed, "results": results}
    return _emit(args, field, payload, ok)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubiclifford",
        description="Exact verification workbench for the generic Clifford "
                    "algebra of binary cubic forms")
    subs = parser.add_subparsers(dest="command", required=True)

    seed = ("--seed", {"type": int, "default": 0})
    specs = [
        ("hilbert", cmd_hilbert,
         [("--max-degree", {"type": _at_least(0), "default": 13})]),
        ("nf", cmd_nf, [("--poly", {"required": True})]),
        ("center-check", cmd_center_check, []),
        ("relation-check", cmd_relation_check, []),
        ("singular-check", cmd_singular_check,
         [("--point", {"required": True})]),
        ("quotient", cmd_quotient,
         [("--point", {"required": True}), ("--dump", {"default": None})]),
        ("irreps", cmd_irreps, [("--point", {"required": True})]),
        ("search-dim2", cmd_search_dim2, []),
        ("point-module", cmd_point_module, [("--triple", {"required": True})]),
        ("disc-locus", cmd_disc_locus,
         [seed, ("--ell", {"type": _ells, "default": "3,5,12"}),
          ("--samples", {"type": _at_least(1), "default": 5})]),
        ("verify-all", cmd_verify_all, [seed]),
    ]
    for name, fn, extra in specs:
        sub = subs.add_parser(name)
        _add_common(sub)
        for flag, kwargs in extra:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(func=fn)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args, make_field("prime", args.prime))
    except CubicliffordError as exc:
        print(json.dumps({"schema": SCHEMA, "ok": False,
                          "error": type(exc).__name__,
                          "message": str(exc)},
                         sort_keys=True, separators=(",", ":")))
        return 1
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
