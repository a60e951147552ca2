"""Command-line interface.

Numeric results go to stdout as bare decimals; human-oriented detail and
progress go to stderr.  Exit codes: 0 success, 1 domain error (for example
a non-synchronizing input), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .automaton import Dfa, DfaParseError, Word, parse_dfa, serialize_dfa
from .closure import f2_transform, f_transform, power_closure
from .families import (
    FIXTURE_NAMES,
    a_family,
    b_family,
    cerny,
    cyclic_counterexample,
    fixture,
    p_family,
    p_variant,
    q_family,
    r_family,
)
from .synchro import (
    NotSynchronizingError,
    Objective,
    count_optimal_words,
    min_switch_count,
    optimal_sync_word,
    shortest_sync_length,
)
from .analysis import verify_lemmas

_FAMILIES = {
    "cerny": cerny,
    "p": p_family,
    "p-variant": p_variant,
    "r": r_family,
    "q": q_family,
    "a": a_family,
    "b": b_family,
}


class _UsageError(Exception):
    """Arguments that parse but do not fit the command; exit 2 like argparse's own."""


def _read_dfa(path: str) -> Dfa:
    """The DFA in file `path`, or on stdin for `-`; unreadable input exits 2."""
    try:
        if path == "-":
            if sys.stdin is None:
                raise _UsageError("cannot read -: standard input is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DfaParseError(f"input is not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_dfa(text)


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _cmd_gen(args) -> int:
    if args.family == "cyclic-counterexample":
        dfa = cyclic_counterexample()
    elif args.family == "fixture":
        if args.n not in FIXTURE_NAMES:
            raise _UsageError(f"gen fixture needs one of: {' '.join(FIXTURE_NAMES)}")
        dfa = fixture(args.n)
    else:
        try:
            n = int(args.n)
        except (TypeError, ValueError):
            raise _UsageError(f"gen {args.family} needs an integer state count") from None
        dfa = _FAMILIES[args.family](n)
    sys.stdout.write(serialize_dfa(dfa))
    return 0


def _cmd_ssl(args) -> int:
    print(shortest_sync_length(_read_dfa(args.file)))
    return 0


def _cmd_sw(args) -> int:
    print(min_switch_count(_read_dfa(args.file)))
    return 0


def _cmd_opt(args) -> int:
    result = optimal_sync_word(_read_dfa(args.file), Objective(args.objective))
    print(f"word={result.word.letters()} len={result.length} sw={result.switch}")
    return 0


def _cmd_count(args) -> int:
    print(count_optimal_words(_read_dfa(args.file), Objective(args.objective)))
    return 0


def _cmd_closure(args) -> int:
    closed, provenance = power_closure(_read_dfa(args.file))
    # rendered first: a base past 'z' is refused before anything is written
    powers = "".join(f"# s{i} = {Word([base]).letters()}^{exp}\n"
                     for i, (base, exp) in enumerate(provenance) if exp > 1)
    sys.stdout.write(serialize_dfa(closed) + powers)
    return 0


def _cmd_transform(args) -> int:
    dfa = _read_dfa(args.file)
    out = f_transform(dfa) if args.kind == "f" else f2_transform(dfa)
    sys.stdout.write(serialize_dfa(out))
    return 0


def _progress(line: str) -> None:
    print(line, file=sys.stderr)


def _cmd_search(args) -> int:
    """Run the search that `args.search` names and print its report; only searches import numpy."""
    from . import search

    report = getattr(search, args.search)(args.n, args.k, parallelism=args.jobs, long=args.long,
                                          progress=_progress)
    sys.stdout.write(search.format_report(report))
    return 0


def _cmd_verify_lemmas(args) -> int:
    report = verify_lemmas(args.n)
    sys.stdout.write(report.to_text())
    return 0 if report.all_pass else 1


def _cmd_verify_paper(args) -> int:
    from .checks import run_checks

    results = run_checks(long=args.long, jobs=args.jobs, progress=_progress)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"CHECK {r.check_id} {status} expected={r.expected} got={r.got}")
        if not r.passed:
            failed += 1
    print(f"# {len(results) - failed}/{len(results)} checks passed", file=sys.stderr)
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syncswitch",
        description="Switch counts and shortest reset words of DFAs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="print a family automaton in the DFA text format")
    p.add_argument("family", choices=sorted(_FAMILIES) + ["cyclic-counterexample", "fixture"])
    p.add_argument("n", nargs="?", default=None,
                   help="state count, or fixture name for 'gen fixture'")
    p.set_defaults(func=_cmd_gen)

    for name, func, text in [
        ("ssl", _cmd_ssl, "shortest synchronizing word length"),
        ("sw", _cmd_sw, "minimal switch count of a synchronizing word"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("file", help="DFA file, or - for stdin")
        p.set_defaults(func=func)

    p = sub.add_parser("opt", help="an optimal synchronizing word")
    p.add_argument("file", help="DFA file, or - for stdin")
    p.add_argument("--objective", choices=[o.value for o in Objective], default="switch-then-length")
    p.set_defaults(func=_cmd_opt)

    p = sub.add_parser("count", help="number of optimal synchronizing words")
    p.add_argument("file", help="DFA file, or - for stdin")
    p.add_argument("--objective", choices=[o.value for o in Objective], default="length")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("closure", help="print the power closure")
    p.add_argument("file", help="DFA file, or - for stdin")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("transform", help="apply the f or f2 transform")
    p.add_argument("kind", choices=["f", "f2"])
    p.add_argument("file", help="DFA file, or - for stdin")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("search", help="exhaustive extremal search over all tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--long", action="store_true", help="allow searches past the quick threshold")
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.set_defaults(func=_cmd_search, search="extremal_search")

    p = sub.add_parser("cyclic-search", help="extremal search over cyclic automata")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--long", action="store_true", help="allow searches past the quick threshold")
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.set_defaults(func=_cmd_search, search="cyclic_extremal_search")

    p = sub.add_parser("verify-lemmas", help="check the distance/measure lemmas")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("verify-paper", help="run the full verification battery")
    p.add_argument("--long", action="store_true",
                   help="add the n=7 binary exhaustive search (minutes)")
    p.add_argument("--jobs", type=int, default=_default_jobs())
    p.set_defaults(func=_cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        parser.error(str(exc))
    except DfaParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except NotSynchronizingError:
        print("not synchronizing", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
