"""Command-line front end.

Subcommands: mutate, verify, orbit, stabilizer, region, braid nf,
pn gram.  All numeric output is exact; rationals print as p/q.  Exit
codes: 0 success, 1 check failure or exceeded cap, 2 usage or parse
errors or an interrupt.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice
from typing import Iterator

from . import _matrix, collection, markov, pn, regions, suites
from .braid import normal_form, parse_word
from .markov import CapExceededError, SixTuple

# Upper bounds on the size options, checked before anything is allocated:
# the strong region system has O(n^2) rows of two nonzero entries each,
# printed as O(n^3) dense text; the twist collection on P^n has O(n^2)
# entries of O(n) bits, and a braid factor on N strands is a
# permutation of N points.
MAX_REGION_N = 128
MAX_PN_N = 256
MAX_STRANDS = 256


def _check_at_most(flag: str, value: int, bound: int) -> None:
    if value > bound:
        raise ValueError(f"{flag} must be at most {bound}")


def _parse_tuple(text: str) -> SixTuple:
    parts = [p.strip() for p in text.split(",")]
    digits = [p[1:] if p[:1] in ("+", "-") else p for p in parts]
    if len(parts) != 6 or not all(d.isascii() and d.isdigit() for d in digits):
        raise ValueError(f"expected six comma-separated integers, got {text!r}")
    return SixTuple(*(int(p) for p in parts))


def _report_out(report: suites.RunReport, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.to_json_obj(), separators=(",", ":")))
    else:
        print(report.to_text())
    return report.exit_status


def _tuple_record(t: SixTuple, oracle: bool, variant: str, fmt: str) -> str:
    """The orbit record of ``t`` after its depth, newline included."""
    eq1 = markov.eval_eq1(t)
    eq2 = markov.eval_eq2(t, variant)
    joined = ",".join(map(str, t))
    if fmt == "json":  # every field is an int or a bool
        return f',"tuple":[{joined}],"eq1":{eq1},"eq2":{eq2},"oracle":{str(oracle).lower()}}}\n'
    return f"\t({joined})\teq1={eq1}\teq2={eq2}\toracle={int(oracle)}\n"


def cmd_mutate(args) -> int:
    c = collection.load(args.file)
    word = parse_word(args.word, c.strands)
    out = collection.apply_word(c, word)
    target = args.output if args.output else args.file
    collection.save(out, target)
    report = suites.RunReport(
        command=f"mutate {args.file}",
        inputs=f"word={args.word!r} output={target}",
    )
    report.checks.append(suites.info("gram upper entries", out.upper_entries()))
    if out.n == 3:
        report.checks.append(suites.info("eq1 value", markov.eval_eq1(markov.t_map(out))))
    report.checks.append(suites.info("strong candidate", collection.is_strong_candidate(out)))
    return _report_out(report, args.format)


def cmd_verify(args) -> int:
    checks = suites.run_suite(args.suite, seed=args.seed)
    report = suites.RunReport(
        command=f"verify {args.suite}", inputs=f"seed={args.seed}", checks=checks
    )
    status = _report_out(report, args.format)
    if status and args.format == "text":
        for c in checks:
            if not c.passed:
                print(f"failing check: ({c.name}, {c.expected}, {c.actual})", file=sys.stderr)
    return status


def _capped_run(enumerate_, seed, bound: int, cap: int, pieces) -> int:
    """Write the text pieces of an enumeration's result and return 0; past
    ``cap``, those of the partial result, then one stderr line, and return 1.

    The pieces are joined and written 1024 at a time: an unbuffered
    stdout makes each write one system call, and one joined string of
    every piece would hold the whole output in memory.
    """
    try:
        result, status = enumerate_(seed, bound, cap=cap), 0
    except CapExceededError as exc:
        result, status = exc.partial, 1
    it = iter(pieces(result))
    while chunk := list(islice(it, 1024)):
        sys.stdout.write("".join(chunk))
    if status:
        sys.stdout.flush()  # every piece reaches stdout before the stderr line
        print(f"cap of {cap} exceeded; output is partial", file=sys.stderr)
    return status


def cmd_orbit(args) -> int:
    """Print one record per orbit member, in BFS order.

    After the BFS, the members are mapped to their tuples once, and
    ``suites.run_shares`` makes the record text after the depth, oracle
    bit included, once per distinct tuple, in shares of at least
    ``collection._BLOCK`` tuples.  Each member's record is its depth and
    its tuple's text, so the output does not depend on the number of
    shares.
    """
    if (args.tuple is None) == (args.file is None):
        print("orbit needs exactly one of FILE or --tuple", file=sys.stderr)
        return 2
    if args.tuple is not None:
        seed = _parse_tuple(args.tuple)
    else:
        seed = collection.load(args.file)
        if seed.n != 3:
            print("orbit records need a collection of 4 objects", file=sys.stderr)
            return 2

    def records(members) -> Iterator[str]:
        tuples = [m if args.file is None else markov.t_map(m) for m in members]
        distinct = list(dict.fromkeys(tuples))

        def tails(ts):
            return [_tuple_record(t, oracle, args.eq2_variant, args.format)
                    for t, oracle in zip(ts, markov.unipotency_oracles(ts))]

        tail = dict(zip(distinct, suites.run_shares(tails, distinct, collection._BLOCK)))
        head = '{"depth":%d' if args.format == "json" else "%d"
        return (head % depth + tail[t] for t, depth in zip(tuples, members.values()))

    return _capped_run(markov.orbit, seed, args.depth, args.cap, records)


def cmd_stabilizer(args) -> int:
    c = collection.load(args.file)
    return _capped_run(markov.stabilizer_scan, c, args.max_len, args.cap,
                       lambda words: (w.to_text() + "\n" for w in words))


def _print_system(system: regions.InequalitySystem, fmt: str) -> int:
    res = regions.is_feasible(system)
    if fmt == "json":
        payload = {
            "dimension": system.dimension,
            "constraints": system.rows_text(),
            "feasible": res.feasible,
        }
        if res.feasible:
            payload["witness"] = [str(x) for x in res.witness]
        else:
            payload["certificate"] = [str(x) for x in res.certificate]
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    for row in system.rows_text():
        print(row)
    if res.feasible:
        print("feasible, witness: " + ",".join(str(x) for x in res.witness))
    else:
        print("infeasible, certificate: " + ",".join(str(x) for x in res.certificate))
    return 0


def cmd_region(args) -> int:
    if args.which == "lemma41":
        return _print_system(regions.lemma41_system(args.kidx), args.format)
    if args.which == "thm51":
        for name, system in zip(("left", "right", "overlap"), regions.thm51_systems()):
            if args.format == "text":
                print(f"# {name}")
            _print_system(system, args.format)
        return 0
    _check_at_most("--n", args.n, MAX_REGION_N)
    return _print_system(
        regions.region_system(regions.DegreeMatrix.all_zero(args.n)), args.format
    )


def cmd_braid_nf(args) -> int:
    _check_at_most("--strands", args.strands, MAX_STRANDS)
    word = parse_word(args.word, args.strands)
    nf = normal_form(word)
    if args.format == "json":
        print(json.dumps(
            {"normal_form": str(nf), "infimum": nf.infimum,
             "canonical_length": nf.canonical_length, "trivial": nf.is_trivial()},
            separators=(",", ":"),
        ))
    else:
        print(str(nf))
        print(f"trivial: {nf.is_trivial()}")
    return 0


def cmd_pn_gram(args) -> int:
    _check_at_most("--n", args.n, MAX_PN_N)
    c = pn.beilinson_collection(args.n)
    if args.output:
        collection.save(c, args.output)
    else:
        sys.stdout.write(collection.to_json_text(c))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="excol",
        description="exact mutation calculus for exceptional collections",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("mutate", help="apply a braid word to a collection file")
    p.add_argument("file")
    p.add_argument("--word", default="", help="braid word, e.g. 'L0 L1 R2'")
    p.add_argument("-o", "--output", default=None,
                   help="output file (default: rewrite the input)")
    add_format(p)
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("verify", help="run a named invariant suite")
    p.add_argument("suite", choices=tuple(suites.SUITES) + ("all",))
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orbit", help="depth-bounded orbit records")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--tuple", default=None, help="six comma-separated integers")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--cap", type=int, default=markov.ORBIT_CAP)
    p.add_argument("--eq2-variant", choices=("printed", "corrected"),
                   default="corrected", dest="eq2_variant")
    add_format(p)
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("stabilizer", help="scan words fixing a collection")
    p.add_argument("file")
    p.add_argument("--max-len", type=int, required=True, dest="max_len")
    p.add_argument("--cap", type=int, default=markov.STABILIZER_CAP,
                   help="freely reduced words covered; past it, print the words "
                        "up to the longest length within the cap and exit 1")
    p.set_defaults(func=cmd_stabilizer)

    p = sub.add_parser("region", help="print a phase-inequality system")
    p.add_argument("which", choices=("lemma41", "thm51", "strong"))
    p.add_argument("--kidx", type=int, default=0)
    p.add_argument("--n", type=int, default=3,
                   help=f"strong system on n+1 objects; n at most {MAX_REGION_N}")
    add_format(p)
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("braid", help="braid word utilities")
    braid_sub = p.add_subparsers(dest="braid_cmd", required=True)
    q = braid_sub.add_parser("nf", help="Garside normal form of a word")
    q.add_argument("word")
    q.add_argument("--strands", type=int, default=4, help=f"at most {MAX_STRANDS}")
    add_format(q)
    q.set_defaults(func=cmd_braid_nf)

    p = sub.add_parser("pn", help="projective space data")
    pn_sub = p.add_subparsers(dest="pn_cmd", required=True)
    q = pn_sub.add_parser("gram", help="emit the twist collection on P^n")
    q.add_argument("--n", type=int, default=3, help=f"dimension of P^n, at most {MAX_PN_N}")
    q.add_argument("-o", "--output", default=None)
    q.set_defaults(func=cmd_pn_gram)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # entries of mutated collections can pass CPython's int/str digit limit
        with _matrix.unlimited_int_digits():
            return args.func(args)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
