"""Command-line interface.

Exit codes: 0 success/pass, 1 counterexample, validation failure or
internal inconsistency (two characterizations the library checks against
each other disagreed), 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import os
import sys

from .classify import InternalInconsistencyError, classify
from .construct import direct_product, quotient
from .corpus import builtin_corpus
from .documents import DocumentError, load_path, serialize_document
from .ideals import (ImproperIdealError, enumerate_hyperideals,
                     hyperideal_violations, make_hyperideal,
                     radical_by_primes, radical_by_powers)
from .theorems import StructureRejectedError, run_all, summary_line


class _CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load(path, skip_validation=False):
    try:
        ring = load_path(path, validate=False)
    except (DocumentError, OSError) as e:
        raise _CliError(f"{path}: {e}", 2)
    if not skip_validation and not ring.validation.passed:
        raise _CliError(
            f"{path}: validation failed "
            f"({len(ring.validation.violations)} violations); "
            f"run `hr validate {path}` for the report or pass --no-validate",
            1)
    return ring


def _write(path, table):
    """Write the table's document to path; a path that cannot be written
    is a usage error, as an unreadable input is."""
    text = serialize_document(table)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise _CliError(f"{path}: {e}", 2)
    print(f"wrote {table.name} ({table.size} elements) to {path}")


def _members(ring, spec):
    try:
        return frozenset(ring.index(lab) for lab in spec.split(","))
    except KeyError as e:
        raise _CliError(e.args[0], 2)


def _ideal(ring, spec, fatal=False):
    """The --ideal set, decided once.  When it is not a hyperideal, a
    warning names the first invariant it breaks, or with fatal an error."""
    ideal = make_hyperideal(ring, _members(ring, spec), strict=False)
    if not ideal.valid:
        bad = (f"{ideal.render()} is not a hyperideal "
               f"({hyperideal_violations(ring, ideal.members)[0]})")
        if fatal:
            raise _CliError(bad, 1)
        print(f"warning: {bad}")
    return ideal


def _kmax(args):
    if args.kmax < 1:
        raise _CliError(f"--kmax must be at least 1, got {args.kmax}", 2)
    return args.kmax


def _cmd_validate(args):
    ring = _load(args.file, skip_validation=True)
    sys.stdout.write(ring.validation.render(ring.name))
    return 0 if ring.validation.passed else 1


def _cmd_ideals(args):
    ring = _load(args.file, args.no_validate)
    for ideal in enumerate_hyperideals(ring):
        print(",".join(ring.labels[i] for i in sorted(ideal.members)))
    return 0


def _cmd_radical(args):
    ring = _load(args.file, args.no_validate)
    members = _ideal(ring, args.ideal).members
    by_primes = radical_by_primes(ring, members)
    by_powers = radical_by_powers(ring, members)
    print("ideal: " + ",".join(ring.labels[i] for i in sorted(members)))
    print("radical_by_primes: " + ",".join(ring.labels[i] for i in sorted(by_primes)))
    print("radical_by_powers: " + ",".join(ring.labels[i] for i in sorted(by_powers)))
    agree = by_primes == by_powers
    print(f"agree: {'yes' if agree else 'no'}")
    return 0 if agree else 1


def _cmd_classify(args):
    k_max = _kmax(args)
    ring = _load(args.file, args.no_validate)
    ideal = _ideal(ring, args.ideal)
    try:
        record = classify(ideal, k_max=k_max)
    except ImproperIdealError as e:
        raise _CliError(f"improper ideal: {e}", 2)
    print("ideal: " + ",".join(ring.labels[i] for i in sorted(ideal.members)))
    print(f"is_hyperideal={'true' if ideal.valid else 'false'}")
    for line in record.render_lines():
        print(line)
    return 0


def _cmd_product(args):
    a = _load(args.file_a, args.no_validate)
    b = _load(args.file_b, args.no_validate)
    try:
        ring = direct_product(a, b)
    except ValueError as e:
        raise _CliError(str(e), 2)
    _write(args.output, ring)
    return 0


def _cmd_quotient(args):
    ring = _load(args.file, args.no_validate)
    ideal = _ideal(ring, args.ideal, fatal=True)
    try:
        table, _ = quotient(ring, ideal)
    except ImproperIdealError as e:
        raise _CliError(str(e), 2)
    except ValueError as e:
        raise _CliError(str(e), 1)
    _write(args.output, table)
    return 0


def _cmd_theorems(args):
    k_max = _kmax(args)
    # run_all refuses a failing structure itself; a file named twice, by
    # any path, is one structure
    if args.files:
        paths = {}
        for path in args.files:
            paths.setdefault(os.path.realpath(path), path)
        structures = [_load(p, skip_validation=True) for p in paths.values()]
    else:
        structures = builtin_corpus()
    try:
        reports = run_all(structures, k=k_max)
    except StructureRejectedError as e:
        raise _CliError(str(e), 1)
    for report in reports:
        print(report.render())
    print(summary_line(reports))
    return 0 if all(r.status != "fail" for r in reports) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hr",
        description="Workbench for finite Krasner (m,n)-hyperring tables.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="print the axiom validation report")
    p.add_argument("file")
    p.set_defaults(func=_cmd_validate)

    def common(p):
        p.add_argument("--no-validate", action="store_true",
                       help="work on the table even if axiom validation fails")

    p = sub.add_parser("ideals", help="list all hyperideals")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("radical", help="radical of an ideal by both algorithms")
    p.add_argument("file")
    p.add_argument("--ideal", required=True,
                   help="comma-joined element labels")
    common(p)
    p.set_defaults(func=_cmd_radical)

    p = sub.add_parser("classify", help="full predicate record for an ideal")
    p.add_argument("file")
    p.add_argument("--ideal", required=True)
    p.add_argument("--kmax", type=int, default=2,
                   help="largest k for the absorbing predicates (default 2)")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("product", help="write the direct product document")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("quotient", help="write the quotient document")
    p.add_argument("file")
    p.add_argument("--ideal", required=True)
    p.add_argument("-o", "--output", required=True)
    common(p)
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("theorems",
                       help="run the theorem harness (default: builtin corpus)")
    p.add_argument("files", nargs="*")
    p.add_argument("--kmax", type=int, default=2)
    p.set_defaults(func=_cmd_theorems)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except InternalInconsistencyError as e:
        print(f"error: internal inconsistency: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
