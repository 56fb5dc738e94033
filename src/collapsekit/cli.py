"""Command-line harness.

Subcommands:
  generate  — write an instance (complex or hypergraph) as JSON
  compute   — evaluate invariants on an instance file, emit a JSON report
  verify    — run a registered theorem check over random trials
  search    — hunt for complexes with M_k < M_{k-1}

Exit codes: 0 all pass, 1 counterexample found, 2 usage error, 3 budget
exhausted without a verdict.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import DEFAULT_NODE_BUDGET, BudgetExceededError
from .generators import KINDS, GeneratorSpec, NAMED_EXAMPLES, generate
from .io import instance_to_json, load_instance
from .reports import (
    THEOREMS,
    compute,
    conjecture_search,
    report_json,
    verify,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _write(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _spec_from_args(args) -> GeneratorSpec:
    return GeneratorSpec(
        kind=args.kind,
        seed=args.seed,
        n=args.n,
        m=args.m,
        max_size=args.max_size,
        leaves=tuple(args.leaves or ()),
        name=args.name or "",
        k=args.gen_k,
    )


def _add_generator_args(p, kind_default="random-complex"):
    p.add_argument("--kind", default=kind_default, choices=KINDS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=6, help="vertex / star count")
    p.add_argument("--m", type=int, default=8, help="facet / edge count")
    p.add_argument("--max-size", type=int, default=3, dest="max_size")
    p.add_argument("--leaves", type=int, nargs="*", default=None,
                   help="star-family: leaves per star")
    p.add_argument("--name", default=None,
                   help="named-example: one of %s" % ", ".join(NAMED_EXAMPLES))
    p.add_argument("--gen-k", type=int, default=1, dest="gen_k",
                   help="random-kvd: decomposability parameter")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="collapsekit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="emit an instance as JSON")
    _add_generator_args(p_gen)
    p_gen.add_argument("--out", default=None)

    p_comp = sub.add_parser("compute", help="evaluate invariants on a file")
    p_comp.add_argument("file")
    p_comp.add_argument("--invariants", default="all",
                        help="comma-separated names, or 'all'")
    p_comp.add_argument("--field", default="rational",
                        help="rational | gf2 | gf<p>")
    p_comp.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_comp.add_argument("--out", default=None)

    p_ver = sub.add_parser("verify", help="run a theorem check over trials")
    p_ver.add_argument("--theorem", required=True, choices=sorted(THEOREMS))
    p_ver.add_argument("--trials", type=int, default=100)
    p_ver.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_ver.add_argument("--out", default=None)
    _add_generator_args(p_ver, kind_default=None)  # None: theorem's default

    p_search = sub.add_parser("search", help="look for M_k < M_{k-1}")
    p_search.add_argument("--k", type=int, required=True)
    p_search.add_argument("--trials", type=int, default=100)
    p_search.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p_search.add_argument("--out", default=None)
    _add_generator_args(p_search)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK

    try:
        if args.command == "generate":
            inst = generate(_spec_from_args(args))
            _write(instance_to_json(inst) + "\n", args.out)
            return EXIT_OK

        if args.command == "compute":
            inst = load_instance(args.file)
            which = (None if args.invariants == "all"
                     else args.invariants.split(","))
            field = "Q" if args.field in ("rational", "Q") else args.field
            report = compute(inst, which, budget_limit=args.budget,
                             field=field)
            _write(report_json(report), args.out)
            return EXIT_BUDGET if report["budget"]["exhausted"] else EXIT_OK

        if args.command == "verify":
            if args.kind is None:
                args.kind = THEOREMS[args.theorem][0]
            spec = _spec_from_args(args)
            summary = verify(args.theorem, spec, args.trials,
                             budget_limit=args.budget)
            _write(json.dumps(summary, sort_keys=True, indent=2) + "\n",
                   args.out)
            return EXIT_COUNTEREXAMPLE if summary["fails"] else EXIT_OK

        if args.command == "search":
            spec = _spec_from_args(args)
            found = conjecture_search(args.k, spec, args.trials,
                                      budget_limit=args.budget)
            _write(json.dumps(found, sort_keys=True, indent=2) + "\n",
                   args.out)
            return EXIT_OK
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError quotes its message
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
