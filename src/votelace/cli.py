"""Command-line front end.

Subcommands: check, count, contains, verify, bound.  Reports go to standard
output, diagnostics to standard error.  Exit codes: 0 = holds/success,
1 = property fails, 2 = usage or input error (an arithmetic failure
included).  The VOTELACE_GUARD environment variable overrides the brute-force
call guard.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from votelace import domains, enumeration
from votelace.elections import DEFAULT_GUARD, find_embedding, parse_election
from votelace.errors import GuardExceeded, ParseError
from votelace.pairs import DEFAULT_MAX_M, PairPattern, strong_occurrences
from votelace.perms import Permutation, occurrences

#: ``sorted(verify.SUITES)`` and ``verify.DEFAULT_SEED``, spelled out so that
#: building the parser does not import ``votelace.verify``: only the verify
#: command runs it, and importing it would add about a sixth to every
#: command's start-up
SUITE_NAMES = (
    "bh-equivalence", "bound3", "closed-forms", "cor43", "gamma-link",
    "prop33", "recurrence", "thm32", "thm41", "weak-bruhat",
)
DEFAULT_SEED = 1729


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="votelace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="test an election file against a domain restriction")
    p_check.add_argument("file", type=Path, help="election file (one ranking per line)")
    p_check.add_argument("--domain", required=True, choices=sorted(domains.DOMAINS))

    p_count = sub.add_parser("count", help="count restricted elections")
    p_count.add_argument("--m", type=int, required=True, help="number of candidates")
    p_count.add_argument("--n", type=int, required=True, help="number of voters")
    p_count.add_argument("--domain", required=True, choices=sorted(domains.DOMAINS))
    p_count.add_argument("--method", required=True, choices=["brute", "recurrence", "formula"])
    p_count.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; counts run in process")
    p_count.add_argument("--guard", type=int, default=None, help="override the brute-force call guard")

    p_contains = sub.add_parser("contains", help="containment queries")
    p_contains.add_argument(
        "--kind", required=True, choices=["pattern", "pair", "config", "three-voter"]
    )
    p_contains.add_argument("operands", nargs="+", help="operands; see --kind")
    p_contains.add_argument("--witness", action="store_true", help="print one occurrence")

    p_verify = sub.add_parser("verify", help="run a cross-formulation verification suite")
    p_verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; suites run in process")

    p_bound = sub.add_parser("bound", help="3-voter pattern upper bound for restricted counts")
    p_bound.add_argument("--m", type=int, required=True)
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--pi", required=True, help='"single-crossing" or a pair-pattern file')
    p_bound.add_argument("--pair-cap", type=int, default=DEFAULT_MAX_M, help="cap on pair enumeration size")
    p_bound.add_argument("--jobs", type=int, default=1, help="accepted for compatibility; bounds run in process")

    return parser


def cmd_check(args) -> int:
    text = args.file.read_text(encoding="utf-8")
    election = parse_election(text)
    verdict = domains.DOMAINS[args.domain](election)
    print(domains.format_verdict(args.domain, verdict))
    return 0 if verdict.holds else 1


def _guard(args) -> int:
    # --guard, or else VOTELACE_GUARD, or else the default: the one place
    # the variable is read
    guard = args.guard
    if guard is None:
        raw = os.environ.get("VOTELACE_GUARD")
        if raw is None:
            return DEFAULT_GUARD
        try:
            guard = int(raw)
        except ValueError:
            raise ValueError(f"VOTELACE_GUARD must be an integer, got {raw!r}") from None
    if guard < 1:
        raise ValueError(f"the brute-force guard must be positive, got {guard}")
    return guard


def cmd_count(args) -> int:
    guard = _guard(args)
    if args.m < 1:
        raise ValueError("an election needs at least one candidate")
    if args.method == "brute":
        report = enumeration.brute_force_count(
            args.m, args.n, domains.DOMAINS[args.domain], label=args.domain, guard=guard
        )
    elif args.domain != "enriched":
        raise ValueError(f"--method {args.method} is only available for --domain enriched")
    else:
        # the recurrence's f(m) >= 2^(n-1) f(m-1) gives the count at least
        # (n-1)(m-1) bits beyond those of m!
        enumeration.check_width(args.m, args.n, max(args.n - 1, 0) * (args.m - 1), "the enriched count")
        if args.method == "recurrence":
            count = enumeration.enriched_count(args.m, args.n)
        else:
            count = math.factorial(args.m) * enumeration.reduced_enriched_count_closed(args.m, args.n)
        report = enumeration.CountReport(args.m, args.n, "enriched", count, args.method)
    print(report.to_json())
    return 0


def _expect_operands(args, count: int, usage: str) -> list[str]:
    if len(args.operands) != count:
        raise ValueError(f"--kind {args.kind} expects {usage}")
    return args.operands


def cmd_contains(args) -> int:
    # one search per request: its first occurrence decides, and is the witness
    if args.kind == "pattern":
        pat_line, host_line = _expect_operands(args, 2, "PATTERN HOST (one-line permutations)")
        pattern = Permutation.from_line(pat_line)
        host = Permutation.from_line(host_line)
        indices = next(occurrences(pattern, host), None)
        found = indices is not None
        print("true" if found else "false")
        if found and args.witness:
            print("witness indices:", " ".join(map(str, indices)))
    elif args.kind == "pair":
        small_line, big_line = _expect_operands(args, 2, 'SMALL BIG (each "perm | perm")')
        small = PairPattern.from_line(small_line)
        big = PairPattern.from_line(big_line)
        values = next(strong_occurrences(small, big), None)
        found = values is not None
        print("true" if found else "false")
        if found and args.witness:
            print("witness values:", " ".join(map(str, sorted(values))))
    elif args.kind == "config":
        e_path, cfg_path = _expect_operands(args, 2, "ELECTION_FILE CONFIG_FILE")
        election = parse_election(Path(e_path).read_text(encoding="utf-8"))
        config = parse_election(Path(cfg_path).read_text(encoding="utf-8"))
        embedding = find_embedding(election, config)
        found = embedding is not None
        print("true" if found else "false")
        if found and args.witness:
            f, g = embedding
            print("witness voter map:", " ".join(f"{i + 1}->{v}" for i, v in enumerate(f)))
            print("witness candidate map:", " ".join(f"{s + 1}->{c}" for s, c in enumerate(g)))
    else:
        pi_l, rho_l, tau_l, sigma_l = _expect_operands(args, 4, "PI RHO TAU SIGMA (one-line permutations)")
        pi, rho = Permutation.from_line(pi_l), Permutation.from_line(rho_l)
        tau, sigma = Permutation.from_line(tau_l), Permutation.from_line(sigma_l)
        big = PairPattern(pi, rho)
        pats = enumeration.three_voter_pattern_set(tau, sigma)
        occurrence = next(((q, values) for q in pats for values in strong_occurrences(q, big)), None)
        found = occurrence is not None
        print("true" if found else "false")
        if found and args.witness:
            q, values = occurrence
            print(f"witness pattern: {q.to_line()}")
            print("witness values:", " ".join(map(str, sorted(values))))
    return 0 if found else 1


def cmd_verify(args) -> int:
    from votelace import verify

    result = verify.run_suite(args.suite, seed=args.seed)
    for line in result.info:
        print(line)
    for failure in result.failures:
        print(f"FAIL: {failure}")
    status = "ok" if result.passed else f"{len(result.failures)} failures"
    print(f"suite {result.name}: {result.checked} checks, {status}")
    return 0 if result.passed else 1


def cmd_bound(args) -> int:
    if args.pi == "single-crossing":
        pi_set = enumeration.single_crossing_pair_patterns()
        label = "bound:single-crossing"
    else:
        lines = Path(args.pi).read_text(encoding="utf-8").splitlines()
        pi_set = [PairPattern.from_line(line) for line in lines if line.strip()]
        label = f"bound:{args.pi}"
    value = enumeration.upper_bound_3config(args.m, args.n, pi_set, max_m=args.pair_cap)
    print(enumeration.CountReport(args.m, args.n, label, value, "formula").to_json())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "check": cmd_check,
        "count": cmd_count,
        "contains": cmd_contains,
        "verify": cmd_verify,
        "bound": cmd_bound,
    }
    try:
        # count, verify and bound check --jobs and otherwise ignore it:
        # every command runs in process
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"jobs must be at least 1, got {args.jobs}")
        return handlers[args.command](args)
    except (ParseError, GuardExceeded, ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
