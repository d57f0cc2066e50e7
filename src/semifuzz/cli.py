"""Command-line surface.

Exit codes are a stable contract: 0 on success, 1 when a verification
run finds a counterexample, 2 for usage and input-format problems and
for a verifier inconsistency (the verifier contradicted itself, so there
is no verdict to report), which prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .decomposition import subdirect_embed
from .enumeration import catalog, enumerate_semigroups, make_chain
from .fuzzy import convolve, fuzzy_set_from_json, restricted_from_json, star_convolve
from .semigroups import Semigroup, semigroup_from_json, semigroup_to_json
from .verification import Exhaustive, Sampled, THEOREMS, VerifierInconsistency, verify_theorem


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError, json.JSONDecodeError, VerifierInconsistency) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


@cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use, not at import, and reused: parse_args keeps no state between calls
    parser = argparse.ArgumentParser(
        prog="semifuzz",
        description="Finite semigroup structure, fuzzy-set convolution, and decomposition checks.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("analyze", help="print the structure of a semigroup file")
    p.add_argument("file", help="semigroup JSON file")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("convolve", help="convolve two fuzzy sets")
    p.add_argument("file", help="semigroup JSON file")
    p.add_argument("f", help="fuzzy set JSON file")
    p.add_argument("g", help="fuzzy set JSON file")
    p.set_defaults(handler=_cmd_convolve)

    p = sub.add_parser("star", help="convolve two fuzzy sets restricted to a divisor set")
    p.add_argument("file", help="semigroup JSON file")
    p.add_argument("-a", "--base", required=True, help="base element name")
    p.add_argument("f", help="restricted fuzzy set JSON file")
    p.add_argument("g", help="restricted fuzzy set JSON file")
    p.set_defaults(handler=_cmd_star)

    p = sub.add_parser("decompose", help="restrict a fuzzy set at every base element")
    p.add_argument("file", help="semigroup JSON file")
    p.add_argument("f", help="fuzzy set JSON file")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("verify", help="check one of the named identities")
    p.add_argument("file", nargs="?", help="semigroup JSON file")
    p.add_argument("--all-orders", type=int, metavar="N",
                   help="sweep every enumerated semigroup of order <= N instead of one file")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--chain", required=True, type=int, metavar="K",
                   help="use the value chain {0, 1/K, ..., 1}")
    p.add_argument("--sampled", type=int, metavar="N", help="check N random cases instead of all")
    p.add_argument("--seed", type=int, default=None, help="seed for --sampled (default 0)")
    p.add_argument("--json", metavar="PATH", help="also write the report(s) as JSON")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("enumerate", help="stream or count all associative tables of one order")
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("catalog", help="write a named catalog semigroup")
    p.add_argument("name", help="family name, e.g. left_zero, null, monogenic")
    p.add_argument("params", nargs="*", type=int, help="family parameters")
    p.add_argument("--out", metavar="PATH", help="write to a file instead of stdout")
    p.set_defaults(handler=_cmd_catalog)

    return parser


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.load keeps the last of repeated keys; a repeat is an input error here
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate JSON key {key!r}")
        out[key] = value
    return out


def _load_json(path: str):
    with open(path) as handle:
        try:
            return json.load(handle, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_semigroup(path: str) -> Semigroup:
    return semigroup_from_json(_load_json(path))


def _cmd_analyze(args) -> int:
    sg = _load_semigroup(args.file)
    print(f"order: {sg.order}")
    print(f"elements: {', '.join(sg.names)}")
    print(f"squares (S*S): {sg.square_set()}")
    zero = sg.zero_element()
    print(f"zero: {zero.name if zero else '(none)'}")
    print(f"kernel: {sg.kernel()}")
    core = sg.core()
    print(f"core: {core if core else '(none)'}")
    print("divisors:")
    for a in sg.elements:
        divisors, rest = sg.divisor_partition(a)
        note = "(empty)" if len(rest) == 0 else "(ideal)"
        print(f"  {a.name}: D = {divisors}, N = {rest} {note}")
    return 0


def _cmd_convolve(args) -> int:
    sg = _load_semigroup(args.file)
    f = fuzzy_set_from_json(sg, _load_json(args.f))
    g = fuzzy_set_from_json(sg, _load_json(args.g))
    print(json.dumps(convolve(f, g).as_dict(), indent=2))
    return 0


def _cmd_star(args) -> int:
    sg = _load_semigroup(args.file)
    base = sg.element(args.base)
    f = restricted_from_json(sg, _load_json(args.f))
    g = restricted_from_json(sg, _load_json(args.g))
    for name, rf in (("f", f), ("g", g)):
        if rf.base != base.index:
            raise ValueError(
                f"{name} is based at {rf.base_element.name!r}, not at {base.name!r}")
    print(json.dumps(star_convolve(f, g).as_dict(), indent=2))
    return 0


def _cmd_decompose(args) -> int:
    sg = _load_semigroup(args.file)
    f = fuzzy_set_from_json(sg, _load_json(args.f))
    print(json.dumps(subdirect_embed(f).as_dict(), indent=2))
    return 0


def _cmd_verify(args) -> int:
    if (args.file is None) == (args.all_orders is None):
        raise ValueError("give exactly one of FILE or --all-orders")
    if args.seed is not None and args.sampled is None:
        raise ValueError("--seed only makes sense with --sampled")
    if args.json:
        _probe_writable(args.json)
    chain = make_chain(args.chain)
    if args.sampled is not None:
        strategy = Sampled(chain, args.sampled, 0 if args.seed is None else args.seed)
    else:
        strategy = Exhaustive(chain)

    if args.file is not None:
        reports = [verify_theorem(_load_semigroup(args.file), args.theorem, strategy)]
    else:
        if args.all_orders < 1:
            raise ValueError("--all-orders needs a positive order")
        reports = []
        for n in range(1, args.all_orders + 1):
            for sg in enumerate_semigroups(n):
                reports.append(verify_theorem(sg, args.theorem, strategy))

    failures = [r for r in reports if not r.passed]
    total = sum(r.cases_checked for r in reports)
    for report in failures:
        print(report.summary())
        print(json.dumps(report.counterexample, indent=2))
    label = "semigroup" if len(reports) == 1 else f"{len(reports)} semigroups"
    verdict = "FAIL" if failures else "PASS"
    print(f"{args.theorem} on {label}: {verdict} ({total} cases)")

    if args.json:
        payload = reports[0].to_json() if args.file is not None else [r.to_json() for r in reports]
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return 1 if failures else 0


def _probe_writable(path: str) -> None:
    """Raise, before any work, the OSError that writing ``path`` would.

    The file is opened for appending, which leaves an existing file as
    it is; one that this probe created is removed again.
    """
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _cmd_enumerate(args) -> int:
    if args.count_only:
        print(sum(1 for _ in enumerate_semigroups(args.order)))
        return 0
    for sg in enumerate_semigroups(args.order):
        print(json.dumps(semigroup_to_json(sg)))
    return 0


def _cmd_catalog(args) -> int:
    sg = catalog(args.name, *args.params)
    text = json.dumps(semigroup_to_json(sg), indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
