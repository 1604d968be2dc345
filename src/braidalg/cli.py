"""Command-line interface: validate braid operators, build q-deformed
symmetric/exterior quotients, run representation checks, and construct the
quadratic t-bialgebra with its dual pairing.

Exit codes: 0 success, 1 mathematically meaningful failure, 2 usage or
fixture-format error.  Identical invocations produce byte-identical output
(fixed orderings, seeded randomness).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .builtin import resolve_builtin
from .fixtures import (braiding_from_fixture, load_fixture,
                       relations_from_fixture, representation_from_fixture,
                       space_from_fixture)
from .frt import (check_duality, frt_coideal_check, frt_hilbert,
                  frt_relations, refuse_duality)
from .linalg import BraidedSpace, BraidEquationError, check_braid, minimal_poly
from .ncalg import complete_rewrite, hilbert
from .report import Report
from .scalar import ScalarParseError, join_terms, parse_poly, power_str
from .uqg import (check_ideal_preserved, check_measuring, check_preserves_R,
                  check_representation, generator_independence)
from . import ncalg

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def degree(text: str) -> int:
    """The argparse type of --max-degree: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _resolve_braiding(args, command: str, doc=None):
    """Returns (label, braiding candidate matrix, braided space or None)
    without requiring the braid equation to hold: a builtin comes with the
    space it was built and verified as, a fixture (`doc` if read) with None."""
    if args.builtin is not None:
        _, space = resolve_builtin(args.builtin)
        return args.builtin, space.braiding, space
    doc = doc or load_fixture(args.input)
    if doc.get("kind") != "rmatrix":
        raise ValueError(f"{command} --input expects an rmatrix fixture")
    return doc.get("name", args.input), braiding_from_fixture(doc), None


def _resolve_spec(spec: str, flag: str):
    """(representation, braided space) named by --rep, --pair-with or
    --rmatrix: a builtin if `spec` starts with 'sl:', else a fixture path (a
    fixture named sl:... is given as ./sl:...); --rmatrix gives no rep."""
    if spec.startswith("sl:"):
        return resolve_builtin(spec)
    doc = load_fixture(spec)
    if flag == "--rmatrix":
        return None, space_from_fixture(doc)
    if doc.get("kind") != "representation":
        raise ValueError(f"{flag} expects a representation fixture or 'sl:n'")
    return representation_from_fixture(doc)


def _emit(args, text_lines: list, payload: dict, exit_code: int) -> int:
    """Writes --json-out first, so that an unwritable one prints nothing."""
    payload["exit_code"] = exit_code
    payload["status"] = "pass" if exit_code == EXIT_OK else "fail"
    if args.json_out:
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
        except OSError as exc:
            raise ValueError(f"cannot write --json-out: {exc}") from exc
    out = "\n".join(text_lines)
    if out:
        print(out)
    return exit_code


def _invalid_braiding(args, payload: dict, exc: BraidEquationError) -> int:
    payload["error"] = str(exc)
    return _emit(args, [f"invalid braiding: {exc}"], payload,
                 EXIT_CHECK_FAILED)


def cmd_validate_r(args) -> int:
    label, braiding, _ = _resolve_braiding(args, "validate-r")
    result = check_braid(braiding)
    dim = math.isqrt(braiding.rows)
    convention = ("braid-equation operator = exchange matrix composed with "
                  "the flip (builtin and rtt-form fixtures)")
    lines = [f"operator: {label} (dim {dim}, size {braiding.rows})",
             f"convention: {convention}"]
    payload = {"command": "validate-r", "operator": str(label),
               "dim": dim, "convention": convention,
               "braid_equation": result.holds}
    if result.holds:
        lines.append("braid equation: holds")
    else:
        lines.append(f"braid equation: FAILS ({result.describe()})")
        payload["counterexample"] = list(result.counterexample)
    if args.show_minimal_poly and result.holds:
        mp = minimal_poly(braiding)
        text = join_terms((mp[d], power_str("x", d))
                          for d in reversed(range(len(mp)))
                          if not mp[d].is_zero())
        lines.append(f"minimal polynomial: {text}")
        payload["minimal_poly"] = [str(c) for c in mp]
    code = EXIT_OK if result.holds else EXIT_CHECK_FAILED
    return _emit(args, lines, payload, code)


def cmd_chi(args) -> int:
    lines = []
    payload = {"command": "chi", "max_degree": args.max_degree}
    doc = load_fixture(args.input) if args.input is not None else None
    if doc is not None and doc.get("kind") == "relations":
        if args.poly:
            raise ValueError("--poly does not apply to a relations fixture")
        rels = relations_from_fixture(doc)
        label = doc.get("name", args.input)
        payload["source"] = str(label)
        lines.append(f"relations fixture: {label} "
                     f"({rels.alphabet} generators, {len(rels)} relations)")
    else:
        if not args.poly:
            raise ValueError("chi needs --poly when given a braiding")
        label, braiding, space = _resolve_braiding(args, "chi", doc)
        try:
            space = space or BraidedSpace.from_braiding(braiding)
        except BraidEquationError as exc:
            return _invalid_braiding(args, payload, exc)
        try:
            f = parse_poly(args.poly)
        except ScalarParseError as exc:
            raise ValueError(f"bad --poly: {exc}") from exc
        rels = ncalg.relations_from_image(space, f)
        n = space.dim
        payload["source"] = str(label)
        payload["poly"] = args.poly
        payload["rank"] = len(rels)
        lines.append(f"space: {label} (dim {n})")
        lines.append(f"f(braiding) rank: {len(rels)} "
                     f"(relations span {len(rels)} of {n * n} degree-2 dimensions)")
        if len(rels) == n * n:
            lines.append("warning: f(braiding) is invertible; every degree-2 "
                         "word is a relation and the quotient has no "
                         "component beyond degree 1")
            payload["warning"] = "f(braiding) invertible"
    rs = complete_rewrite(rels, max(2, args.max_degree))
    payload["rules_added_by_degree"] = {str(k): v
                                        for k, v in sorted(rs.log.rules_added.items())}
    if rs.log.rules_added:
        added = ", ".join(f"{v} at degree {k}"
                          for k, v in sorted(rs.log.rules_added.items()))
        lines.append(f"completion: added {added} "
                     f"(bound {rs.degree_bound})")
    else:
        lines.append(f"completion: confluent at degree 2 "
                     f"(bound {rs.degree_bound})")
    dims = hilbert(rs, args.max_degree)
    if len(dims) > 1 and dims[1] < rels.alphabet:
        lines.append("warning: degree-1 dimension dropped; the generating "
                     "space does not inject into the quotient")
        payload["warning_degree1"] = dims[1]
    if args.show_relations:
        rendered = rels.render()
        payload["relations"] = rendered
        lines.append("relations:")
        lines.extend(f"  {line}" for line in rendered)
    if args.hilbert:
        payload["hilbert"] = dims
        lines.append("hilbert: " + ", ".join(str(d) for d in dims))
    return _emit(args, lines, payload, EXIT_OK)


def cmd_check(args) -> int:
    rep, space = _resolve_spec(args.rep, "--rep")
    if args.rmatrix:
        _, space = _resolve_spec(args.rmatrix, "--rmatrix")
    reports: list[Report] = []
    needs_space = {"admissible", "ideal", "measuring"}
    if needs_space & set(args.subchecks) and space is None:
        raise ValueError("this subcheck needs a braided space: pass "
                         "--rmatrix or use a fixture with an embedded rmatrix")
    try:
        f = parse_poly(args.poly)
    except ScalarParseError as exc:
        raise ValueError(f"bad --poly: {exc}") from exc
    if {"ideal", "measuring"} & set(args.subchecks):
        rels = ncalg.relations_from_image(space, f)
    for sub in args.subchecks:
        if sub == "relations":
            reports.append(check_representation(rep))
        elif sub == "admissible":
            reports.append(check_preserves_R(rep, space))
        elif sub == "ideal":
            reports.append(check_ideal_preserved(rep, rels))
        elif sub == "measuring":
            rs = complete_rewrite(rels, max(2, args.max_degree))
            reports.append(check_measuring(rep, rs, sample_count=args.samples,
                                           max_degree=args.max_degree,
                                           seed=args.seed))
        elif sub == "independence":
            reports.append(generator_independence(rep))
    lines = [r.render() for r in reports]
    passed = all(r.passed for r in reports)
    payload = {"command": "check", "rep": args.rep,
               "subchecks": list(args.subchecks),
               "reports": [r.to_json() for r in reports]}
    return _emit(args, lines, payload, EXIT_OK if passed else EXIT_CHECK_FAILED)


def cmd_frt(args) -> int:
    label, braiding, space = _resolve_braiding(args, "frt")
    try:
        space = space or BraidedSpace.from_braiding(braiding)
    except BraidEquationError as exc:
        return _invalid_braiding(args, {"command": "frt"}, exc)
    # a bad --pair-with is refused before any other work
    if args.pair_with:
        rep, _ = _resolve_spec(args.pair_with, "--pair-with")
        refuse_duality(rep, space.dim, args.max_degree)
    pres = frt_relations(space)
    duality = check_duality(rep, space, max_degree=args.max_degree,
                            pres=pres) if args.pair_with else None
    lines = [f"space: {label} (dim {space.dim})",
             f"relations: {pres.rank} independent "
             f"(degree-2 dimension {space.dim ** 4 - pres.rank})",
             f"convention: {pres.convention}"]
    if pres.rank == 0:
        lines.append("notice: empty relation set; the quotient is the free "
                     "(polynomial, for one generator) algebra")
    rendered = pres.relations.render()
    payload = {"command": "frt", "source": str(label), "dim": space.dim,
               "relation_count": pres.rank,
               "degree2_dimension": space.dim ** 4 - pres.rank,
               "convention": pres.convention,
               "relations": rendered}
    lines.append("relations list:")
    lines.extend(f"  {line}" for line in rendered)
    coideal = frt_coideal_check(pres)
    lines.append(coideal.render())
    payload["coideal"] = coideal.to_json()
    dims = frt_hilbert(pres, args.max_degree)
    lines.append("hilbert: " + ", ".join(str(d) for d in dims))
    payload["hilbert"] = dims
    passed = coideal.passed
    if duality is not None:
        lines.append(duality.render())
        payload["duality"] = duality.to_json()
        passed = passed and duality.passed
    return _emit(args, lines, payload,
                 EXIT_OK if passed else EXIT_CHECK_FAILED)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidalg",
        description="exact symbolic braided-algebra constructions and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-r", help="check the braid equation and "
                                          "report the minimal polynomial")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", help="builtin space, e.g. sl:2")
    src.add_argument("--input", help="rmatrix fixture file")
    p.add_argument("--show-minimal-poly", action="store_true")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_validate_r)

    p = sub.add_parser("chi", help="quadratic quotient from f(braiding)")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", help="builtin space, e.g. sl:3")
    src.add_argument("--input", help="rmatrix or relations fixture file")
    p.add_argument("--poly", help="univariate polynomial in x over Q(q)")
    p.add_argument("--max-degree", type=degree, default=3)
    p.add_argument("--show-relations", action="store_true")
    p.add_argument("--hilbert", action="store_true")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("check", help="representation checks")
    p.add_argument("--rep", required=True,
                   help="builtin 'sl:n' or representation fixture file")
    p.add_argument("--rmatrix", help="override braided space: 'sl:n' or file")
    p.add_argument("subchecks", nargs="+",
                   choices=["relations", "admissible", "ideal", "measuring",
                            "independence"])
    p.add_argument("--poly", default="x - q",
                   help="quotient polynomial for ideal/measuring")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-degree", type=degree, default=3)
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("frt", help="quadratic t-bialgebra and dual pairing")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", help="builtin space, e.g. sl:2")
    src.add_argument("--input", help="rmatrix fixture file")
    p.add_argument("--max-degree", type=degree, default=3)
    p.add_argument("--pair-with",
                   help="representation ('sl:n' or fixture) for the duality "
                        "checks")
    p.add_argument("--json-out")
    p.set_defaults(func=cmd_frt)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_CHECK_FAILED if isinstance(exc, BraidEquationError)
                else EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
