"""Command-line interface.

Exit codes: 0 success / all checks pass; 1 mathematical counterexample
(a checked identity failed); 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from . import cohomology, heisenberg, relations, tables
from .errors import DomainError, TheoremViolationError
from .finfield import KummerCharacter, make_field, omega as make_omega
from .groups import TableGroup, elementary_group

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2


def emit_report(doc: dict, output: Optional[str]) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2 if doc else None)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _field_from_args(args) -> tuple:
    poly = tuple(int(c) for c in args.poly.split(",")) if args.poly else None
    field = make_field(args.p, k=args.k, poly=poly, n=args.n)
    w = make_omega(field, args.n, index=args.omega_index)
    return field, w


def _cmd_field(args) -> int:
    field, _ = _field_from_args(args)
    emit_report(field.descriptor(), args.output)
    return EXIT_OK


def _cmd_ffrak(args) -> int:
    field, w = _field_from_args(args)
    g = tables.ffrak_generate(field, w)
    emit_report(
        {
            "p": field.p,
            "k": field.k,
            "n": field.n,
            "omega": w.element,
            "generators": [t.values.tolist() for t in g.generators],
            "invariant_factors": list(g.structure.invariant_factors),
        },
        args.output,
    )
    return EXIT_OK


def _cmd_relations(args) -> int:
    field, w = _field_from_args(args)
    with open(args.input) as fh:
        doc = json.load(fh)
    items = doc.get("pairs") if isinstance(doc, dict) else None
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise DomainError('input must be a JSON object {"pairs": [{"sigma": c, "tau": c}, ...]}')
    pairs = [
        (
            KummerCharacter(field, field.n, item["sigma"]),
            KummerCharacter(field, field.n, item["tau"]),
        )
        for item in items
    ]
    report = relations.relation_check(pairs, w)
    emit_report(report.as_dict(), args.output)
    return EXIT_OK


def _cmd_heisenberg(args) -> int:
    g = heisenberg.to_table_group(args.n)
    emit_report(g.as_dict(), args.output)
    return EXIT_OK


def _load_group(path: str) -> TableGroup:
    """The TableGroup of a JSON file {table, labels?}, as ``heisenberg`` exports it."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DomainError('input must be a JSON object {"table": [[...], ...], "labels": [...]}')
    labels = doc.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
        raise DomainError('"labels" must be a list of strings')
    return TableGroup(
        table=doc["table"],
        labels=tuple(labels) if "labels" in doc else None,
    )


def _machinery(g: TableGroup, args) -> int:
    report = cohomology.verify_thm23_and_omegaR(g, args.n, seed=args.seed)
    emit_report(report.as_dict(), args.output)
    return EXIT_OK if report.ok else EXIT_COUNTEREXAMPLE


def _cmd_groupcoh(args) -> int:
    return _machinery(_load_group(args.input), args)


def _cmd_verify(args) -> int:
    if args.suite == "propA1":
        bad = cohomology.verify_propA1(args.rank, args.n)
        emit_report({"suite": "propA1", "n": args.n, "rank": args.rank, "violations": bad}, args.output)
        return EXIT_OK if bad == 0 else EXIT_COUNTEREXAMPLE
    if args.suite == "heisenberg":
        doc = heisenberg.verify_laws(args.n)
        emit_report({"suite": "heisenberg", **doc}, args.output)
        return EXIT_OK if doc["ok"] else EXIT_COUNTEREXAMPLE
    if args.suite == "ffrak":
        field, w = _field_from_args(args)
        g = tables.ffrak_generate(field, w)
        factors = list(g.structure.invariant_factors)
        ok = factors == [args.n]
        emit_report(
            {"suite": "ffrak", "p": args.p, "n": args.n, "invariant_factors": factors, "ok": ok},
            args.output,
        )
        return EXIT_OK if ok else EXIT_COUNTEREXAMPLE
    if args.suite == "machinery":
        g = elementary_group(args.n, args.rank) if args.input is None else _load_group(args.input)
        return _machinery(g, args)
    raise AssertionError("unreachable")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later ``main`` calls."""
    parser = argparse.ArgumentParser(prog="abelcentral")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_flags(p):
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--poly", type=str, default=None, help="comma-separated coefficients, low degree first")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--omega-index", type=int, default=1)

    def add_io_flags(p):
        p.add_argument("--output", type=str, default=None)

    p_field = sub.add_parser("field", help="construct a finite field and print its descriptor")
    add_field_flags(p_field)
    add_io_flags(p_field)
    p_field.set_defaults(func=_cmd_field)

    p_ffrak = sub.add_parser("ffrak", help="generate the table subgroup and its invariant factors")
    add_field_flags(p_ffrak)
    add_io_flags(p_ffrak)
    p_ffrak.set_defaults(func=_cmd_ffrak)

    p_rel = sub.add_parser("relations", help="run the relation condition detector on a character family")
    add_field_flags(p_rel)
    p_rel.add_argument("--input", type=str, required=True, help='JSON {"pairs": [{"sigma": c, "tau": c}, ...]}')
    add_io_flags(p_rel)
    p_rel.set_defaults(func=_cmd_relations)

    p_heis = sub.add_parser("heisenberg", help="export the mod-n Heisenberg group as a table")
    p_heis.add_argument("--n", type=int, required=True)
    add_io_flags(p_heis)
    p_heis.set_defaults(func=_cmd_heisenberg)

    p_gc = sub.add_parser("groupcoh", help="verify the cohomological machinery on a table group")
    p_gc.add_argument("--input", type=str, required=True, help="TableGroup JSON {order, table, labels}")
    p_gc.add_argument("--n", type=int, required=True)
    p_gc.add_argument("--seed", type=int, default=0)
    add_io_flags(p_gc)
    p_gc.set_defaults(func=_cmd_groupcoh)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", choices=["propA1", "heisenberg", "ffrak", "machinery"], required=True)
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--rank", type=int, default=1)
    p_verify.add_argument("--p", type=int, default=None)
    p_verify.add_argument("--k", type=int, default=1)
    p_verify.add_argument("--poly", type=str, default=None)
    p_verify.add_argument("--omega-index", type=int, default=1)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--input", type=str, default=None)
    add_io_flags(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.suite == "ffrak" and args.p is None:
        parser.error("--p is required for the ffrak suite")
    try:
        return args.func(args)
    except TheoremViolationError as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
