"""List every deletion-closed code for a small defect count.

For each code the script reports its uniform measure, whether it is
complete, and whether it is maximal among the closed codes of the
family.

Example:
    python3 scripts/enumerate_closed_codes.py --k 3 --alphabet ab
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from codekit.analysis import Distribution, is_complete, measure_finite
from codekit.closed import delta_length_bound, enumerate_delta_closed, is_maximal_delta_closed
from codekit.errors import UsageError
from codekit.words import parse_alphabet


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k", type=int, default=3, help="number of deletions")
    parser.add_argument("--alphabet", default="ab")
    parser.add_argument("--limit", type=int, default=None, help="stop after this many")
    args = parser.parse_args()

    try:
        alphabet = parse_alphabet(args.alphabet)
        lengths = sorted(delta_length_bound(args.k))
        codes = enumerate_delta_closed(args.k, alphabet, limit=args.limit)
    except UsageError as e:
        parser.exit(3, f"{parser.prog}: error: {e}\n")
    print(f"admissible word lengths for k={args.k}: {lengths or 'none'}")
    if not lengths:
        print("the family is empty")
        return 0

    dist = Distribution.uniform(alphabet)
    count = 0
    complete_count = 0
    maximal_count = 0
    best = (Fraction(0), None)
    for code in codes:
        count += 1
        words = sorted(code.words(), key=alphabet.lex_key)
        mu = measure_finite(code, dist)
        complete = is_complete(code)
        maximal = is_maximal_delta_closed(code, args.k).maximal
        complete_count += complete
        maximal_count += maximal
        if mu > best[0]:
            best = (mu, words)
        flags = []
        if complete:
            flags.append("complete")
        if maximal:
            flags.append("maximal")
        tail = f"   [{', '.join(flags)}]" if flags else ""
        print(f"{count:>4}  mu={mu!s:<8} {{{', '.join(words)}}}{tail}")

    print()
    print(f"{count} codes, {complete_count} complete, {maximal_count} maximal")
    if best[1] is not None:
        print(f"largest measure {best[0]} at {{{', '.join(best[1])}}}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
