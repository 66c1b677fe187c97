"""Command line front end.

    frobsym check <spec-file> [--report human|machine] [--out PATH]
    frobsym catalog [--out PATH]    list the built-in entries
    frobsym catalog <name> [...]    run one entry (same flags as check)
    frobsym catalog <name> --dump-spec [--out PATH]    print the entry as a spec file
    frobsym catalog all   [...]     run every entry as a self-test

A run takes its seed and tolerances from the spec alone; to rerun an entry
with others, edit its dumped spec and ``check`` the file.  Exit status: 0
iff all checks pass, 1 if one fails, and 2 for a usage error (such as
``--report`` on a listing or a dump, which print no report), a malformed or
unreadable spec, or an ``--out`` path that cannot be written.  ``catalog
all`` instead compares each row against the entry's documented outcome, so
the deliberately-broken fixtures count as healthy when they fail as
documented.
"""

from __future__ import annotations

import argparse
import sys

from .battery import builtin_catalog, emit_report, load_manifold_spec, run_battery
from .errors import FrobsymError


def _add_run_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--report", choices=("human", "machine"), help="default: human")
    parser.add_argument("--out", default=None, help="write the output here")


def _deliver(text: str, args) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_check(args) -> int:
    spec = load_manifold_spec(args.spec_file)
    report = run_battery(spec)
    _deliver(emit_report(report, args.report or "human"), args)
    return 0 if report.all_passed() else 1


def _cmd_catalog(args) -> int:
    catalog = builtin_catalog()
    if args.dump_spec and args.name in (None, "all"):
        print("error: --dump-spec needs the name of one catalog entry", file=sys.stderr)
        return 2
    if args.report and (args.dump_spec or args.name is None):
        print("error: --report needs an entry to run; a listing or --dump-spec prints "
              "no report", file=sys.stderr)
        return 2
    if args.name is None:
        width = max(len(n) for n in catalog)
        lines = []
        for name, entry in catalog.items():
            expected = ("fails: " + ", ".join(sorted(entry.expect_fail))
                        if entry.expect_fail else "all pass")
            lines.append(f"{name:<{width}}  kind={entry.spec.kind:<19} "
                         f"checks={len(entry.spec.checks)}  expected: {expected}\n")
        _deliver("".join(lines), args)
        return 0

    if args.name == "all":
        texts = []
        healthy = True
        for name, entry in catalog.items():
            report = run_battery(entry.spec)
            texts.append(emit_report(report, args.report or "human"))
            healthy = healthy and entry.matches_expectation(report)
        _deliver(("" if args.report == "machine" else "\n").join(texts), args)
        return 0 if healthy else 1

    if args.name not in catalog:
        print(f"error: unknown catalog entry {args.name!r}; run 'frobsym catalog' to list",
              file=sys.stderr)
        return 2
    entry = catalog[args.name]
    if args.dump_spec:
        _deliver(entry.spec.canonical_text() + "\n", args)
        return 0
    report = run_battery(entry.spec)
    _deliver(emit_report(report, args.report or "human"), args)
    return 0 if report.all_passed() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="frobsym",
                                     description="residual verification batteries")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run the checks of a spec file")
    check.add_argument("spec_file")
    _add_run_flags(check)
    check.set_defaults(handler=_cmd_check)

    catalog = sub.add_parser("catalog", help="list or run built-in entries")
    catalog.add_argument("name", nargs="?", default=None,
                         help="entry name, or 'all' for the self-test battery")
    catalog.add_argument("--dump-spec", action="store_true",
                         help="print the entry as spec text instead of running it")
    _add_run_flags(catalog)
    catalog.set_defaults(handler=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FrobsymError, OSError) as exc:
        # a spec file or --out path that cannot be opened is bad input, not a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
