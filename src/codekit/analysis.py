"""Code-ness, completeness and measure of finite and regular sets.

The central decision procedure is the residual iteration
U_0 = X^{-1}X minus the empty word, U_{n+1} = U_n^{-1}X union X^{-1}U_n:
X is a code exactly when no U_n captures the empty word.  On finite
sets the iteration runs over explicit word sets with provenance so a
failing run replays into two distinct factorizations; on regular sets
it runs over canonical automata with a seen-set for cycle detection,
and the witness is rebuilt by quotient searches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .automata import (
    Language,
    complement,
    factors,
    intersect,
    is_empty,
    is_universal,
    left_quotient,
    reverse,
    right_quotient_word,
    shortest_word,
    star,
    union,
)
from .errors import BudgetExceededError
from .words import Alphabet

DEFAULT_SP_ITERATIONS = 10_000


@dataclass(frozen=True)
class DoubleFactorization:
    """One word written as two different products of codewords."""

    word: str
    left: tuple[str, ...]
    right: tuple[str, ...]


@dataclass(frozen=True)
class CodeVerdict:
    is_code: bool
    witness: DoubleFactorization | None
    sp_trace: tuple[Language, ...]


def verify_double_factorization(witness: DoubleFactorization, x_lang: Language) -> bool:
    """Replay a witness: both products concatenate to the word, every
    piece is a codeword, and the sequences differ."""
    if witness.left == witness.right:
        return False
    if not witness.left or not witness.right:
        return False
    if "".join(witness.left) != witness.word or "".join(witness.right) != witness.word:
        return False
    return all(x_lang.member(p) for p in witness.left + witness.right)


def _witness_from_chain(chain) -> DoubleFactorization:
    """Forward replay of a provenance chain into two factorizations.

    chain[0] is ("base", x, y) with y = x u_0; subsequent entries are
    ("A", x') with u_{i-1} u_i = x' (roles swap) or ("B", x') with
    x' u_i = u_{i-1} (roles keep).
    """
    _, x, y = chain[0]
    left = [x]
    right = [y]
    for tag, xw in chain[1:]:
        if tag == "A":
            left, right = right, left + [xw]
        else:
            left = left + [xw]
    word = "".join(right)
    return DoubleFactorization(word, tuple(left), tuple(right))


def _epsilon_member_witness(x_lang: Language) -> DoubleFactorization:
    words = None
    if x_lang.is_finite_repr:
        words = [w for w in x_lang.words() if w]
    if words:
        x = min(words, key=x_lang.alphabet.lex_key)
        return DoubleFactorization(x, (x,), ("", x))
    return DoubleFactorization("", ("",), ("", ""))


def _sp_finite(x_lang: Language, max_iterations: int) -> CodeVerdict:
    alphabet = x_lang.alphabet
    x_words = x_lang.words()
    if "" in x_words:
        return CodeVerdict(False, _epsilon_member_witness(x_lang), ())
    prov: dict[tuple[int, str], tuple] = {}
    u0 = set()
    for x in x_words:
        for y in x_words:
            if x != y and y.startswith(x):
                u = y[len(x) :]
                if (0, u) not in prov:
                    prov[(0, u)] = ("base", x, y)
                u0.add(u)
    levels = [frozenset(u0)]
    seen = {levels[0]}
    for n in range(max_iterations):
        cur = levels[-1]
        nxt = set()
        for u in cur:
            for x in x_words:
                if x.startswith(u):
                    v = x[len(u) :]
                    if (n + 1, v) not in prov:
                        prov[(n + 1, v)] = ("A", u, x)
                    nxt.add(v)
                if u.startswith(x) and x:
                    v = u[len(x) :]
                    if (n + 1, v) not in prov:
                        prov[(n + 1, v)] = ("B", u, x)
                    nxt.add(v)
        nxt = frozenset(nxt)
        levels.append(nxt)
        trace = tuple(Language.finite(lvl, alphabet) for lvl in levels)
        if "" in nxt:
            chain = _walk_finite_chain(prov, len(levels) - 1)
            return CodeVerdict(False, _witness_from_chain(chain), trace)
        if nxt in seen:
            return CodeVerdict(True, None, trace)
        seen.add(nxt)
    raise BudgetExceededError(
        f"code-ness iteration exceeded {max_iterations} rounds", budget=max_iterations
    )


def _walk_finite_chain(prov, top_level):
    chain = []
    lvl, v = top_level, ""
    while True:
        rec = prov[(lvl, v)]
        if rec[0] == "base":
            chain.append(rec)
            break
        tag, u, x = rec
        chain.append((tag, x))
        lvl, v = lvl - 1, u
    chain.reverse()
    return chain


def _sp_regular(x_lang: Language, max_iterations: int) -> CodeVerdict:
    if x_lang.member(""):
        return CodeVerdict(False, _epsilon_member_witness(x_lang), ())
    levels = [left_quotient(x_lang, x_lang, exclude_epsilon=True)]
    seen = {levels[0].canonical_key()}
    for _ in range(max_iterations):
        cur = levels[-1]
        nxt = union(left_quotient(cur, x_lang), left_quotient(x_lang, cur))
        levels.append(nxt)
        if nxt.member(""):
            chain = _regular_chain(levels, x_lang)
            return CodeVerdict(False, _witness_from_chain(chain), tuple(levels))
        key = nxt.canonical_key()
        if key in seen:
            return CodeVerdict(True, None, tuple(levels))
        seen.add(key)
    raise BudgetExceededError(
        f"code-ness iteration exceeded {max_iterations} rounds", budget=max_iterations
    )


def _regular_chain(levels, x_lang: Language):
    """Rebuild a provenance chain by quotient searches, top level down."""
    steps = []
    lvl, v = len(levels) - 1, ""
    while lvl > 0:
        prev = levels[lvl - 1]
        cand = intersect(prev, right_quotient_word(x_lang, v))
        u = shortest_word(cand)
        if u is not None:
            steps.append(("A", u + v))
            lvl, v = lvl - 1, u
            continue
        cand = intersect(x_lang, right_quotient_word(prev, v))
        x = shortest_word(cand)
        if x is None:
            raise AssertionError("provenance search failed; iteration is inconsistent")
        steps.append(("B", x))
        lvl, v = lvl - 1, x + v
    base_cand = intersect(x_lang, right_quotient_word(x_lang, v))
    x = shortest_word(base_cand)
    if x is None:
        raise AssertionError("provenance search failed at the base level")
    chain = [("base", x, x + v)]
    chain.extend(reversed(steps))
    return chain


def sardinas_patterson(
    x_lang: Language, max_iterations: int = DEFAULT_SP_ITERATIONS
) -> CodeVerdict:
    """Decide code-ness; failing verdicts carry a replayable witness."""
    if x_lang.is_finite_repr:
        return _sp_finite(x_lang, max_iterations)
    return _sp_regular(x_lang, max_iterations)


def is_prefix_code(x_lang: Language) -> bool:
    """No member is a proper prefix of another member."""
    if x_lang.is_finite_repr:
        ws = x_lang.words()
        return not any(x != y and y.startswith(x) for x in ws for y in ws)
    return is_empty(left_quotient(x_lang, x_lang, exclude_epsilon=True))


def is_suffix_code(x_lang: Language) -> bool:
    return is_prefix_code(reverse(x_lang))


def is_bifix_code(x_lang: Language) -> bool:
    return is_prefix_code(x_lang) and is_suffix_code(x_lang)


@dataclass(frozen=True)
class Distribution:
    """Positive letter probabilities, exact rationals summing to one."""

    alphabet: Alphabet
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.probs) != len(self.alphabet.letters):
            raise ValueError("one probability per letter required")
        for p in self.probs:
            if not isinstance(p, Fraction) or p <= 0:
                raise ValueError("letter probabilities must be positive fractions")
        if sum(self.probs) != 1:
            raise ValueError("letter probabilities must sum to 1")

    @staticmethod
    def uniform(alphabet: Alphabet) -> "Distribution":
        n = len(alphabet.letters)
        return Distribution(alphabet, tuple(Fraction(1, n) for _ in range(n)))

    def word_measure(self, w: str) -> Fraction:
        out = Fraction(1)
        for c in w:
            out *= self.probs[self.alphabet.index(c)]
        return out


def measure_finite(x_lang: Language, dist: Distribution) -> Fraction:
    """Exact Bernoulli measure of a finite language."""
    return sum((dist.word_measure(w) for w in x_lang.words()), Fraction(0))


def measure_partial(x_lang: Language, dist: Distribution, max_len: int) -> Fraction:
    """Measure of the members of length at most max_len.

    Regular languages are handled by weighted dynamic programming over
    the canonical automaton, so nothing is enumerated.
    """
    if x_lang.is_finite_repr:
        return sum(
            (dist.word_measure(w) for w in x_lang.words() if len(w) <= max_len),
            Fraction(0),
        )
    dfa = x_lang.dfa()
    weights = [Fraction(0)] * dfa.n
    weights[0] = Fraction(1)
    total = Fraction(0)
    if 0 in dfa.accepting:
        total += 1
    for _ in range(max_len):
        nxt = [Fraction(0)] * dfa.n
        for q, wq in enumerate(weights):
            if wq == 0:
                continue
            row = dfa.rows[q]
            for li, p in enumerate(dist.probs):
                nxt[row[li]] += wq * p
        weights = nxt
        for q in dfa.accepting:
            total += weights[q]
    return total


def is_complete(x_lang: Language) -> bool:
    """Every word is a factor of some product of codewords."""
    return is_universal(factors(star(x_lang)))


def is_maximal_code(x_lang: Language) -> bool:
    """For a regular code, maximality coincides with completeness."""
    verdict = sardinas_patterson(x_lang)
    if not verdict.is_code:
        raise ValueError("maximality is only defined for codes; input is not a code")
    return is_complete(x_lang)


def find_non_factor(x_lang: Language) -> str:
    """Length-lex least word outside the factors of the star closure."""
    fl = factors(star(x_lang))
    if is_universal(fl):
        raise ValueError("language is complete: every word is a factor")
    w = shortest_word(complement(fl))
    assert w is not None
    return w
