"""Command-line front end.

Four subcommand groups dispatch to the library: ``stallings`` for subgroup
graphs of free groups, ``fpg`` for finitely presented groups, ``qm`` for
counting quasimorphisms, and ``verify`` for the deterministic check
registry.  All outputs are stable: identical inputs and flags produce
byte-identical bytes (reports carry a version string but no timestamps).

Exit codes: 0 on success (including inconclusive checks unless ``--strict``),
1 when a verification or requested computation fails, 2 on usage or input
errors.

File formats
------------
* generator/test word lists: optional first line ``gens: c d`` naming the
  alphabet; every other non-blank line is one word; ``#`` starts a comment.
  Without the header the alphabet is the smallest prefix ``a..`` covering
  the letters used.
* presentations: the ``gens:`` / ``rel:`` format of ``fpgroup``.
* coset tables: the JSON object ``{"cosets": k, "action": {...}}``.
* permutation assignments: ``points: n`` then one line per generator,
  ``a: 2 1 3 ...`` with one-based targets.
* quasimorphism families: one ``coefficient pattern`` pair per line, with
  integer or ``p/q`` coefficients.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .constructions import VerifyConfig, check_ids, verify_all
from .fpgroup import (
    ClosureBoundError,
    CosetTable,
    EnumerationBudgetError,
    IncompleteTableError,
    Presentation,
    abelianization,
    parse_presentation,
    format_presentation,
    perm_image,
    reidemeister_schreier,
    tietze_simplify,
    todd_coxeter,
)
from .quasi import BallBudgetError, Quasimorphism, defect_ball, independence_rank
from .stallings import SubgroupGraph, subgroup_graph
from .words import Alphabet, ParseError, Word, format_word


class InputError(Exception):
    """A malformed file or argument; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# input readers


def _strip_lines(text: str) -> List[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def _read_file(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _infer_alphabet(chunks: Sequence[str]) -> Alphabet:
    """Smallest prefix alphabet a.. covering the letters of all chunks."""
    top = 0
    for chunk in chunks:
        for ch in chunk:
            if ch.isalpha():
                index = ord(ch.lower()) - ord("a") + 1
                top = max(top, index)
    return Alphabet(max(1, top))


def load_word_list(path: str, alphabet: Optional[Alphabet] = None) -> Tuple[Alphabet, List[Word]]:
    """Read a word-list file; honor a ``gens:`` header or infer the alphabet."""
    lines = _strip_lines(_read_file(path))
    if lines and lines[0].startswith("gens:"):
        names = lines[0][len("gens:") :].split()
        if not names:
            raise InputError(f"{path}: empty gens: header")
        try:
            declared = Alphabet(len(names), names=tuple(names))
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
        if alphabet is not None and declared.rank != alphabet.rank:
            raise InputError(
                f"{path}: declares rank {declared.rank}, expected {alphabet.rank}"
            )
        alphabet = declared
        lines = lines[1:]
    if alphabet is None:
        alphabet = _infer_alphabet(lines)
    words = []
    for line in lines:
        try:
            words.append(alphabet.parse(line))
        except ParseError as exc:
            raise InputError(f"{path}: {exc}") from None
    return alphabet, words


def parse_word_arg(text: str, alphabet: Alphabet) -> Word:
    try:
        return alphabet.parse(text)
    except ParseError as exc:
        raise InputError(f"bad word {text!r}: {exc}") from None


def load_presentation(path: str) -> Presentation:
    try:
        return parse_presentation(_read_file(path))
    except ParseError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_coset_table(path: str, alphabet: Optional[Alphabet] = None) -> CosetTable:
    """Read a coset table; with ``alphabet``, its letters are matched by name."""
    try:
        data = json.loads(_read_file(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    try:
        return CosetTable.from_json_dict(data, alphabet)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None


def load_assignment(path: str, alphabet: Alphabet) -> dict:
    """Read a permutation assignment: ``points: n`` then ``a: 2 1 ...``."""
    lines = _strip_lines(_read_file(path))
    if not lines or not lines[0].startswith("points:"):
        raise InputError(f"{path}: first line must be 'points: n'")
    try:
        degree = int(lines[0][len("points:") :].strip())
    except ValueError:
        raise InputError(f"{path}: bad point count") from None
    if degree < 1:
        raise InputError(f"{path}: need at least one point")
    names = alphabet.display_names or ()
    images = {}
    for line in lines[1:]:
        if ":" not in line:
            raise InputError(f"{path}: expected 'name: targets', got {line!r}")
        name, _, rest = line.partition(":")
        name = name.strip()
        if name not in names:
            raise InputError(f"{path}: unknown generator {name!r}")
        if names.index(name) + 1 in images:
            raise InputError(f"{path}: generator {name!r} is assigned twice")
        try:
            targets = [int(x) for x in rest.split()]
        except ValueError:
            raise InputError(f"{path}: bad targets for {name!r}") from None
        if len(targets) != degree or sorted(targets) != list(range(1, degree + 1)):
            raise InputError(
                f"{path}: targets for {name!r} must be a permutation of 1..{degree}"
            )
        images[names.index(name) + 1] = [t - 1 for t in targets]
    missing = [names[i - 1] for i in range(1, alphabet.rank + 1) if i not in images]
    if missing:
        raise InputError(f"{path}: missing generators: {', '.join(missing)}")
    return images


def load_family(path: str, alphabet: Alphabet) -> List[Quasimorphism]:
    """Read ``coefficient pattern`` lines into counting quasimorphisms."""
    qms = []
    for line in _strip_lines(_read_file(path)):
        parts = line.split()
        if len(parts) != 2:
            raise InputError(f"{path}: expected 'coefficient pattern', got {line!r}")
        try:
            coefficient = Fraction(parts[0])
        except (ValueError, ZeroDivisionError):
            raise InputError(f"{path}: bad coefficient {parts[0]!r}") from None
        pattern = parse_word_arg(parts[1], alphabet)
        try:
            qms.append(Quasimorphism([(coefficient, pattern)]))
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None
    if not qms:
        raise InputError(f"{path}: no quasimorphisms found")
    return qms


# ---------------------------------------------------------------------------
# output helpers


def _fmt_fraction(x: Fraction) -> str:
    return str(int(x)) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _print_json(payload) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _graph_payload(graph: SubgroupGraph) -> dict:
    inv = graph.invariants()
    return {
        "vertices": inv.vertices,
        "edges": inv.edges,
        "rank": inv.rank,
        "index": inv.index,
        "basis": [format_word(w) for w in graph.basis()],
    }


def _print_invariants(graph: SubgroupGraph) -> None:
    inv = graph.invariants()
    print(f"vertices: {inv.vertices}")
    print(f"edges: {inv.edges}")
    print(f"rank: {inv.rank}")
    print(f"index: {'infinite' if inv.index is None else inv.index}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_stallings(args) -> int:
    alphabet, gens = load_word_list(args.gens)
    graph = subgroup_graph(alphabet, gens)
    if args.action == "build":
        if args.json:
            _print_json(_graph_payload(graph))
        else:
            _print_invariants(graph)
            for w in graph.basis():
                print(f"basis: {format_word(w)}")
        return 0
    if args.action == "invariants":
        if args.json:
            payload = _graph_payload(graph)
            del payload["basis"]
            _print_json(payload)
        else:
            _print_invariants(graph)
        return 0
    if args.action == "basis":
        words = graph.basis()
        if args.json:
            _print_json([format_word(w) for w in words])
        else:
            for w in words:
                print(format_word(w))
        return 0
    if args.action == "member":
        word = parse_word_arg(args.word, alphabet)
        print("true" if graph.member(word) else "false")
        return 0
    if args.action == "intersect":
        # The second file may name its generators differently; only the rank
        # has to agree for the ambient free groups to be identified.
        alphabet2, gens2 = load_word_list(args.gens2)
        if alphabet2.rank != alphabet.rank:
            raise InputError(
                f"{args.gens2}: rank {alphabet2.rank} does not match "
                f"{args.gens}: rank {alphabet.rank}"
            )
        meet = graph.intersect(subgroup_graph(alphabet2, gens2))
        if args.json:
            _print_json(_graph_payload(meet))
        else:
            _print_invariants(meet)
            for w in meet.basis():
                print(f"basis: {format_word(w)}")
        return 0
    raise AssertionError(f"unhandled stallings action {args.action!r}")


def _cmd_fpg(args) -> int:
    p = load_presentation(args.presentation)
    if args.action == "abelianize":
        structure = abelianization(p)
        if args.json:
            _print_json(
                {
                    "description": structure.describe(),
                    "free_rank": structure.free_rank,
                    "moduli": list(structure.moduli),
                }
            )
        else:
            print(structure.describe())
        return 0
    if args.action == "coset":
        subgens: List[Word] = []
        if args.sub:
            _, subgens = load_word_list(args.sub, p.alphabet)
        table = todd_coxeter(p, subgens, budget=args.max)
        print(f"cosets: {table.index}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(table.to_json_dict(), handle, sort_keys=True, indent=2)
                handle.write("\n")
        return 0
    if args.action == "rs":
        table = load_coset_table(args.table, p.alphabet)
        try:
            data = reidemeister_schreier(p, table)
        except ValueError as exc:
            raise InputError(f"{args.table}: {exc}") from None
        result = data.presentation
        if args.simplify is not None:
            result = tietze_simplify(result, budget=args.simplify)
        names = result.alphabet.display_names
        if args.json:
            _print_json(
                {
                    "rank": result.alphabet.rank,
                    "gens": list(names) if names is not None else None,
                    "relators": [format_word(w) for w in result.relators],
                    "generator_words": [
                        format_word(w) for w in data.generator_words
                    ],
                }
            )
        elif names is None:
            # format_word falls back to bracket syntax for large ranks, but
            # the gens:/rel: file format cannot name this many generators.
            print(
                f"error: rewritten presentation has {result.alphabet.rank} "
                "generators; letter output supports at most 26 "
                "(try --simplify or --json)",
                file=sys.stderr,
            )
            return 1
        else:
            sys.stdout.write(format_presentation(result))
        return 0
    if args.action == "perm":
        images = load_assignment(args.assign, p.alphabet)
        result = perm_image(p, images, max_order=args.max)
        if args.json:
            _print_json(
                {
                    "degree": result.degree,
                    "order": result.order,
                    "homomorphism": result.is_homomorphism,
                    "relator_violations": list(result.relator_violations),
                }
            )
        else:
            print(f"degree: {result.degree}")
            print(f"order: {result.order}")
            print(f"homomorphism: {'true' if result.is_homomorphism else 'false'}")
        return 0
    raise AssertionError(f"unhandled fpg action {args.action!r}")


def _pattern_qm(text: str, alphabet: Alphabet) -> Quasimorphism:
    """The counting quasimorphism of a ``--pattern`` argument."""
    try:
        return Quasimorphism([(1, parse_word_arg(text, alphabet))])
    except ValueError as exc:
        raise InputError(f"bad pattern {text!r}: {exc}") from None


def _cmd_qm(args) -> int:
    if args.action == "eval":
        alphabet = _infer_alphabet([args.pattern, args.word])
        qm = _pattern_qm(args.pattern, alphabet)
        print(_fmt_fraction(qm(parse_word_arg(args.word, alphabet))))
        return 0
    if args.action == "defect":
        qm = _pattern_qm(args.pattern, _infer_alphabet([args.pattern]))
        try:
            value = defect_ball(qm, args.radius, pair_budget=args.pair_budget)
        except ValueError as exc:
            raise InputError(f"--radius {args.radius}: {exc}") from None
        print(_fmt_fraction(value))
        return 0
    if args.action == "rank":
        family_text = _read_file(args.family)
        tests_text = _read_file(args.tests)
        alphabet = _infer_alphabet(
            _strip_lines(family_text) + _strip_lines(tests_text)
        )
        qms = load_family(args.family, alphabet)
        _, tests = load_word_list(args.tests, alphabet)
        if not tests:
            raise InputError(f"{args.tests}: no test words found")
        if args.mod_homs:
            rank = independence_rank(qms, tests)
        else:
            rank = independence_rank(qms, tests, homomorphism_rows=[])
        print(rank)
        return 0
    raise AssertionError(f"unhandled qm action {args.action!r}")


def _cmd_verify(args) -> int:
    config = VerifyConfig(
        checks=tuple(args.check) if args.check else None,
        tietze_budget=args.tietze_budget,
        homogenization_cap=args.homog_cap,
        seed=args.seed,
    )
    try:
        report = verify_all(config)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    for check in report.checks:
        print(f"{check.status:<12} {check.id}: {check.claim}")
    passed = sum(1 for c in report.checks if c.status == "pass")
    print(
        f"checks: {len(report.checks)}  pass: {passed}  "
        f"fail: {len(report.failed)}  inconclusive: {len(report.inconclusive)}"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")
    if report.failed:
        return 1
    if args.strict and report.inconclusive:
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser


def _int_at_least(low: int):
    """An argparse type: an integer of at least ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


positive_int = _int_at_least(1)
nonnegative_int = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcgcert",
        description="subgroup graphs, coset enumeration, quasimorphisms, "
        "and the verified-construction check registry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    st = sub.add_parser("stallings", help="subgroup graphs of free groups")
    st_sub = st.add_subparsers(dest="action", required=True)
    for name, needs in (
        ("build", ()),
        ("invariants", ()),
        ("basis", ()),
        ("member", ("word",)),
        ("intersect", ("gens2",)),
    ):
        one = st_sub.add_parser(name)
        one.add_argument("--gens", required=True, help="generator list file")
        if "word" in needs:
            one.add_argument("--word", required=True, help="word to test")
        if "gens2" in needs:
            one.add_argument(
                "--gens2", required=True, help="second generator list file"
            )
        one.add_argument("--json", action="store_true", help="JSON output")
        one.set_defaults(handler=_cmd_stallings)

    fp = sub.add_parser("fpg", help="finitely presented groups")
    fp_sub = fp.add_subparsers(dest="action", required=True)
    ab = fp_sub.add_parser("abelianize")
    ab.add_argument("presentation", help="presentation file")
    ab.add_argument("--json", action="store_true", help="JSON output")
    ab.set_defaults(handler=_cmd_fpg)
    co = fp_sub.add_parser("coset")
    co.add_argument("presentation", help="presentation file")
    co.add_argument("--sub", help="subgroup generator list file")
    co.add_argument("--max", type=positive_int, default=10**6, help="coset budget")
    co.add_argument("--json", metavar="PATH", help="write the table JSON here")
    co.set_defaults(handler=_cmd_fpg)
    rs = fp_sub.add_parser("rs")
    rs.add_argument("presentation", help="presentation file")
    rs.add_argument("--table", required=True, help="coset table JSON file")
    rs.add_argument(
        "--simplify",
        type=nonnegative_int,
        metavar="BUDGET",
        help="Tietze-simplify with this move budget",
    )
    rs.add_argument("--json", action="store_true", help="JSON output")
    rs.set_defaults(handler=_cmd_fpg)
    pm = fp_sub.add_parser("perm")
    pm.add_argument("presentation", help="presentation file")
    pm.add_argument("--assign", required=True, help="assignment file")
    pm.add_argument("--max", type=positive_int, default=10**4, help="closure bound")
    pm.add_argument("--json", action="store_true", help="JSON output")
    pm.set_defaults(handler=_cmd_fpg)

    qm = sub.add_parser("qm", help="counting quasimorphisms")
    qm_sub = qm.add_subparsers(dest="action", required=True)
    ev = qm_sub.add_parser("eval")
    ev.add_argument("--pattern", required=True, help="pattern word")
    ev.add_argument("--word", required=True, help="word to evaluate at")
    ev.set_defaults(handler=_cmd_qm)
    df = qm_sub.add_parser("defect")
    df.add_argument("--pattern", required=True, help="pattern word")
    df.add_argument("--radius", type=int, required=True, help="ball radius")
    df.add_argument(
        "--pair-budget",
        type=positive_int,
        default=3 * 10**6,
        help="cap on |ball|^2 for the ball enumerated: radius min(|p|-1, RADIUS) "
        "when the pattern overlaps no proper shift of itself, RADIUS otherwise",
    )
    df.set_defaults(handler=_cmd_qm)
    rk = qm_sub.add_parser("rank")
    rk.add_argument("--family", required=True, help="family file")
    rk.add_argument("--tests", required=True, help="test word list file")
    rk.add_argument(
        "--mod-homs",
        action="store_true",
        help="rank modulo the exponent-sum homomorphisms",
    )
    rk.set_defaults(handler=_cmd_qm)

    vf = sub.add_parser("verify", help="run the check registry")
    vf.add_argument(
        "--check",
        action="append",
        metavar="ID",
        help="run only this check (repeatable); guards it needs are included",
    )
    vf.add_argument("--json", metavar="PATH", help="write the report JSON here")
    vf.add_argument(
        "--tietze-budget",
        type=nonnegative_int,
        default=10**4,
        help="simplification budget",
    )
    vf.add_argument(
        "--homog-cap", type=positive_int, default=64, help="homogenization power cap"
    )
    vf.add_argument("--seed", type=int, default=1729, help="seed for sampled checks")
    vf.add_argument(
        "--strict",
        action="store_true",
        help="treat inconclusive checks as failures",
    )
    vf.add_argument(
        "--list", action="store_true", help="list check ids and exit"
    )
    vf.set_defaults(handler=_cmd_verify)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.list:
        for check_id in check_ids():
            print(check_id)
        return 0
    try:
        return args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        EnumerationBudgetError,
        IncompleteTableError,
        ClosureBoundError,
        BallBudgetError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    raise SystemExit(run())
