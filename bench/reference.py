"""Reference checks that share no code with codekit.

Every verdict the benchmark accepts is compared against something
computed here from the definitions, or against the brute-force oracles
in the repository's ``tests/oracles.py``.  Nothing in this module
imports codekit.
"""

from __future__ import annotations

import itertools
import re
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import EditOracle, count_factorizations  # noqa: E402

_ORACLES: dict[str, EditOracle] = {}


def oracle(letters: str) -> EditOracle:
    """One cached single-edit oracle per alphabet."""
    if letters not in _ORACLES:
        _ORACLES[letters] = EditOracle(letters)
    return _ORACLES[letters]


class RefLanguage:
    """Membership for a codekit expression, by Python's ``re`` module.

    The expression syntax (``|``, ``.``, ``*``, parentheses, one-letter
    symbols) maps onto a regular expression by dropping the dots.  A
    star-free expression also keeps its finite word set.
    """

    def __init__(self, expr: str, letters: str):
        self.letters = letters
        self._match = re.compile(expr.replace(".", "").replace(" ", "")).fullmatch
        self.words = None
        if "*" not in expr and "." not in expr and "(" not in expr:
            self.words = frozenset(expr.split("|"))

    def member(self, w: str) -> bool:
        if self.words is not None:
            return w in self.words
        return self._match(w) is not None

    def upto(self, n: int) -> list[str]:
        """Members of length at most n, in length-lex order."""
        out = []
        for m in range(n + 1):
            for tup in itertools.product(self.letters, repeat=m):
                w = "".join(tup)
                if self.member(w):
                    out.append(w)
        return out


def _quotient(us, vs) -> set[str]:
    return {v[len(u) :] for u in us for v in vs if v.startswith(u)}


def is_code(words) -> bool:
    """Sardinas–Patterson on a finite set, straight from the definition.

    U1 = X^-1 X minus the empty word, U(n+1) = X^-1 Un union Un^-1 X;
    X is a code exactly when no Un holds the empty word.
    """
    xs = frozenset(words)
    if "" in xs:
        return False
    level = frozenset(_quotient(xs, xs) - {""})
    seen = set()
    while level and level not in seen:
        if "" in level:
            return False
        seen.add(level)
        level = frozenset(_quotient(xs, level) | _quotient(level, xs))
    return "" not in level


def is_star_factor(w: str, words) -> bool:
    """Whether w is a factor of some product of words of a finite set.

    w = s x1 ... xn p with s a suffix and p a prefix of some word, or
    w sits inside a single word.
    """
    xs = [x for x in words if x]
    if any(w in x for x in xs):
        return True
    starts = {j for j in range(len(w) + 1) if any(x.endswith(w[:j]) for x in xs)}
    reach, frontier = set(starts), list(starts)
    while frontier:
        j = frontier.pop()
        for x in xs:
            if w.startswith(x, j) and j + len(x) not in reach:
                reach.add(j + len(x))
                frontier.append(j + len(x))
    return any(any(x.startswith(w[j:]) for x in xs) for j in reach)


def image(letters: str, w: str, kind: str, k: int, closure: str = "plain") -> frozenset:
    """Image of one word under an edit relation and closure flavour."""
    out = oracle(letters).image(w, kind, k)
    if closure == "reflexive":
        return out | {w}
    if closure == "antireflexive":
        return out - {w}
    return out


def parse_relation(text: str) -> tuple[str, int, str]:
    parts = text.split(":")
    closure = {"hat": "reflexive", "bar": "antireflexive"}.get(
        parts[2] if len(parts) == 3 else "", "plain"
    )
    return parts[0], int(parts[1]), closure


def word(text: str) -> str:
    return "" if text == "eps" else text


def parse_double(text: str) -> tuple[str, list[str], list[str]]:
    """Split ``w = (x1)(x2) = (y1)(y2)`` into the word and both sides."""
    parts = [p.strip() for p in text.split(" = ")]
    if len(parts) != 3:
        raise ValueError(f"malformed double factorization {text!r}")
    factor = re.compile(r"\(([^()]*)\)")
    left = [word(f) for f in factor.findall(parts[1])]
    right = [word(f) for f in factor.findall(parts[2])]
    return word(parts[0]), left, right


def check_double(text: str, member) -> bool:
    """A double factorization witness: two distinct splits into members."""
    w, left, right = parse_double(text)
    return (
        "".join(left) == w
        and "".join(right) == w
        and left != right
        and all(member(f) for f in left + right)
    )


def kraft(words, letters: str) -> Fraction:
    """Uniform Bernoulli measure of a finite set."""
    q = len(letters)
    return sum((Fraction(1, q ** len(w)) for w in words), Fraction(0))


def measure_upto(lang: RefLanguage, max_len: int) -> Fraction:
    return kraft(lang.upto(max_len), lang.letters)


def is_unbordered(w: str) -> bool:
    return all(w[:i] != w[-i:] for i in range(1, len(w)))


def sigma_orbit(w: str, k: int, letters: str) -> frozenset:
    """Closure of {w} under exactly-k substitutions, by search."""
    seen, frontier = {w}, [w]
    while frontier:
        v = frontier.pop()
        for u in oracle(letters).sigma_exact(v, k):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return frozenset(seen)


def closed_under(words, letters: str, kind: str, k: int) -> bool:
    xs = frozenset(words)
    return all(image(letters, x, kind, k) <= xs for x in xs)


def independent(words, letters: str, kind: str, k: int) -> bool:
    xs = frozenset(words)
    return not any(image(letters, x, kind, k, "antireflexive") & xs for x in xs)


def error_correcting(words, letters: str, kind: str, k: int) -> bool:
    xs = sorted(words)
    imgs = [image(letters, x, kind, k) for x in xs]
    return not any(a & b for a, b in itertools.combinations(imgs, 2))

