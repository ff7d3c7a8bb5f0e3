"""Code-ness, completeness and measure of finite and regular sets.

Code-ness is decided by Sardinas & Patterson's test read one letter at
a time: a breadth-first search over pairs of states of the trim
deterministic automaton ``Language.trim()`` (the trie of a word list,
the live part of the subset DFA otherwise), built once per language and
shared with an automaton's prefix test and its witness.  Every answer
here is a property of the set, so the table need not be minimal.  Two
runs read the same word and each may restart at the initial state right
after reaching a final state; X is not a code exactly when the runs can
part, one restarting while the other continues, and later reach final
states together.  The search visits each pair once, so it ends without
an iteration cap.  The one search has one entry, ``_code_test``, and
two readers: ``is_code`` takes the verdict alone, and
``sardinas_patterson`` also spells, from the search's parent pointers,
a shortest word with two factorizations: eps = (eps) = (eps)(eps) when
the empty word is a member.  The measure up to a length is one weighted
pass over the same table, with integer weights scaled by a power of the
letters' common denominator.

A set held as words answers from its words, with no table: its prefix
questions from one sort of them (``_prefix_pairs``), or from their
lengths alone when they have one length, as a block code does: the
prefix test, the prefix pair that is its witness, and so the code test
of a prefix code.  Its uniform measure is its Kraft sum, read off the
lengths too (``_kraft_sum``).

Completeness has its one home here, with the one code precondition
(``_require_code``) of every routine defined on codes only.  A finite
set's measure settles it when below 1, and for a code at 1
(Schutzenberger), with no search and no word spelled.  Otherwise the
least-word walk of ``automata`` runs on F = factors(X*), stopped at the
first subset holding no accepting state, which is entered by the
length-lex least non-factor.  ``_maximal_witness`` gives the word that
``maximal`` adjoins: that non-factor when it keeps X a code, else the
least unbordered one, ``er_complete``'s word, found by a distance-pruned
walk over F's trim table (``_least_unbordered_exit``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import automata
from .automata import Language, _distances, _least_word, factors, reverse, star, union
from .errors import BudgetExceededError, PreconditionError, UsageError
from .words import Alphabet, is_unbordered


@dataclass(frozen=True)
class DoubleFactorization:
    """One word written as two different products of codewords.

    Found by the code-ness search, ``left`` is the product whose first
    codeword is the shorter one.
    """

    word: str
    left: tuple[str, ...]
    right: tuple[str, ...]


@dataclass(frozen=True)
class CodeVerdict:
    is_code: bool
    witness: DoubleFactorization | None


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


def _double_factorization(rows, finals) -> tuple[dict[int, int], int, int] | None:
    """Breadth-first search for a shortest word with two factorizations.

    A node is the pair (left state, right state) of two runs, plus
    whether they have parted.  Before parting both runs sit in one
    state p (node n*n + p); they part when the left run restarts at a
    final state and the right run continues; after that the node is
    p*n + q and either run may restart.  Letters are tried in alphabet
    order and each node is entered once, from its first parent; nodes
    where a run has no letter to read are never entered.

    The runs can part only at a final state that reads on, so when no
    final state has an outgoing arc, as in a prefix code, the answer is
    None with no walk.

    Returns None when X is a code; otherwise the parent pointers, the
    node where both runs end on final states, and the letter number
    read last, from which ``_replay`` spells the word.
    """
    if not any(max(rows[q]) >= 0 for q in finals):
        return None
    n = len(rows)
    width = len(rows[0])
    start = n * n
    inner = {q for q, row in enumerate(rows) if max(row) >= 0}
    parent = {start: -1}
    queue = [start]
    for node in queue:
        if node >= start:
            rp = rq = rows[node - start]
        else:
            p, q = divmod(node, n)
            rp, rq = rows[p], rows[q]
        for i in range(width):
            p2, q2 = rp[i], rq[i]
            if p2 < 0 or q2 < 0:
                continue
            restart = nxt = -1  # entered by a restart; by both runs reading on
            if p2 in finals:
                if q2 in finals and node < start:
                    return parent, node, i
                if q2 in inner:
                    restart = q2
            elif q2 in finals and p2 in inner:
                restart = p2 * n
            if p2 in inner and q2 in inner:
                nxt = start + p2 if node >= start else p2 * n + q2
            if restart >= 0 and restart not in parent:
                parent[restart] = node * width + i
                queue.append(restart)
            if nxt >= 0 and nxt not in parent:
                parent[nxt] = node * width + i
                queue.append(nxt)
    return None


def _replay(x_lang: Language, rows, finals, parent, node, last) -> DoubleFactorization:
    """Spell the word and both factorizations from the search's parents.

    A node that is not the plain continuation of its parent was entered
    by a restart: of the left run when its state was final, else of the
    right run.
    """
    n, width = len(rows), len(rows[0])
    start = n * n
    letters = [last]
    left, right = [], []  # restarts, as letter counts from the end
    while node != start:
        prev, i = divmod(parent[node], width)
        if prev >= start:
            p2 = q2 = rows[prev - start][i]
            plain = start + p2
        else:
            p2, q2 = rows[prev // n][i], rows[prev % n][i]
            plain = p2 * n + q2
        if node != plain:
            (left if p2 in finals else right).append(len(letters))
        letters.append(i)
        node = prev
    size = len(letters)
    word = "".join([x_lang.alphabet.letters[i] for i in reversed(letters)])
    halves = []
    for cuts in (left, right):
        ends = [size - c for c in reversed(cuts)] + [size]
        halves.append(tuple(word[i:j] for i, j in zip([0, *ends], ends)))
    return DoubleFactorization(word, *halves)


def _code_test(x_lang: Language):
    """The one code test behind ``sardinas_patterson`` and ``is_code``:
    None when X is a code, () when the empty word is a member, else what
    ``_replay`` reads, (rows, finals, parent, node, last): X's trim table
    and where ``_double_factorization`` met.  A word list that is a
    prefix code without the empty word is a code, told with no table."""
    if x_lang.is_finite_repr and "" not in x_lang.words() and is_prefix_code(x_lang):
        return None
    rows, finals = x_lang.trim()
    if 0 in finals:
        return ()
    meeting = _double_factorization(rows, finals)
    return None if meeting is None else (rows, finals, *meeting)


def sardinas_patterson(x_lang: Language) -> CodeVerdict:
    """Decide code-ness; failing verdicts carry a replayable witness."""
    found = _code_test(x_lang)
    if found is None:
        return CodeVerdict(True, None)
    if not found:  # the empty word is a member: eps = (eps) = (eps)(eps)
        return CodeVerdict(False, DoubleFactorization("", ("",), ("", "")))
    return CodeVerdict(False, _replay(x_lang, *found))


def is_code(x_lang: Language) -> bool:
    """The verdict of ``sardinas_patterson`` without spelling a witness."""
    return _code_test(x_lang) is None


def _prefix_pairs(words):
    """(x, y) for each member y that has a member as a proper prefix, x
    the longest such, from one pass over the words in sorted order.  In
    that order a member that starts y starts every member from it to y,
    so a stack holds the members that start the current word, longest on
    top, and the first pair found, if any, is a member and the one after
    it: X is a prefix code exactly when no member starts its successor.
    Words of one length, a block code, have no pair: no sort is made."""
    if len(set(map(len, words))) < 2:
        return
    stack: list[str] = []
    for y in sorted(words):
        while stack and not y.startswith(stack[-1]):
            stack.pop()
        if stack:
            yield stack[-1], y
        stack.append(y)


def is_prefix_code(x_lang: Language) -> bool:
    """No member is a proper prefix of another member: a word list has
    no pair in ``_prefix_pairs``; in a trim deterministic automaton for
    X, no final state has an outgoing arc."""
    if x_lang.is_finite_repr:
        return next(_prefix_pairs(x_lang.words()), None) is None
    rows, finals = x_lang.trim()
    return all(r < 0 for q in finals for r in rows[q])


def _least_tail(rows, sources, targets) -> list[int] | None:
    """Letter numbers of the length-lex least nonempty word leading from
    a state in ``sources`` to one in ``targets``, or None.  Breadth-first
    over groups of states: a group holds the states first reached by its
    word, and groups are entered in length-lex order of their words.
    Each group keeps its parent group and last letter, which spell it."""
    seen = {-1, *sources}  # -1: no arc
    queue = [(list(sources), -1, -1)]
    for g, (group, _, _) in enumerate(queue):
        for i in range(len(rows[0])):
            fresh = []
            for q in group:
                r = rows[q][i]
                if r in targets:
                    word = [i]
                    while g:
                        _, g, i = queue[g]
                        word.append(i)
                    return word[::-1]
                if r not in seen:
                    seen.add(r)
                    fresh.append(r)
            if fresh:
                queue.append((fresh, g, i))
    return None


def _prefix_pair(x_lang: Language) -> tuple[str, str] | None:
    """A codeword x and a longer codeword xu, or None for a prefix code:
    u is the length-lex least nonempty word with x and xu both members,
    and x the least member that u extends into X.

    A word list reads the pair off ``_prefix_pairs``: a member y's
    shortest tail is the one after its longest proper prefix in X, and a
    longer tail of y has that one as a proper suffix, so the least u is
    among those tails.  An automaton reads its trim table: u is the least
    nonempty word leading from a final state to a final state, and x the
    least word reaching a final state from which u leads to a final
    state."""
    if x_lang.is_finite_repr:
        key = x_lang.alphabet.lex_key
        return min(
            _prefix_pairs(x_lang.words()),
            key=lambda xy: (key(xy[1][len(xy[0]):]), key(xy[0])),
            default=None,
        )
    rows, finals = x_lang.trim()
    letters = x_lang.alphabet.letters
    tail = _least_tail(rows, finals, finals)
    if tail is None:
        return None
    ends = {p: p for p in finals}  # where each final state's run of u is
    for i in tail:
        ends = {p: r for p, q in ends.items() if (r := rows[q][i]) >= 0}
    holders = {p for p, q in ends.items() if q in finals}
    head = [] if 0 in holders else _least_tail(rows, {0}, holders)
    x = "".join([letters[i] for i in head])
    return x, x + "".join([letters[i] for i in tail])


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
            raise UsageError("one probability per letter required")
        for p in self.probs:
            if not isinstance(p, Fraction) or p <= 0:
                raise UsageError("letter probabilities must be positive fractions")
        if sum(self.probs) != 1:
            raise UsageError("letter probabilities must sum to 1")

    @staticmethod
    def uniform(alphabet: Alphabet) -> "Distribution":
        n = len(alphabet.letters)
        return Distribution(alphabet, tuple(Fraction(1, n) for _ in range(n)))


def measure_finite(x_lang: Language, dist: Distribution) -> Fraction:
    """Exact Bernoulli measure of a finite set, in either form: the pass
    of ``measure_partial`` run to the size of its trim table, which
    bounds a member's length.  An infinite set raises UsageError."""
    if x_lang.to_finite() is None:
        raise UsageError("measure_finite needs a finite set; use measure_partial")
    return measure_partial(x_lang, dist, len(x_lang.trim()[0]))


def measure_partial(x_lang: Language, dist: Distribution, max_len: int) -> Fraction:
    """Measure of the members of length at most max_len.

    One weighted pass over the trim table, a length at a time, for
    either form of the set, so nothing is enumerated; it stops once no
    weight is left.  The weights are integers: with d the common
    denominator of the letter probabilities, a letter weighs d times
    its probability, and after n letters the running total is the
    measure times d^n.  A negative max_len raises UsageError.
    """
    if max_len < 0:
        raise UsageError(f"max_len must be at least 0, got {max_len}")
    rows, finals = x_lang.trim()
    d = lcm(*[p.denominator for p in dist.probs])
    letter_weights = [p.numerator * (d // p.denominator) for p in dist.probs]
    weights = {0: 1}
    total = 1 if 0 in finals else 0
    scale = 1  # d to the power of the length read
    for _ in range(max_len):
        nxt: dict[int, int] = {}
        for q, wq in weights.items():
            for r, w in zip(rows[q], letter_weights):
                if r >= 0:
                    nxt[r] = nxt.get(r, 0) + wq * w
        if not nxt:
            break
        weights = nxt
        scale *= d
        total = total * d + sum([wq for q, wq in weights.items() if q in finals])
    return Fraction(total, scale)


def _kraft_sum(words, size: int) -> Fraction:
    """The uniform measure of finitely many words over ``size`` letters:
    their Kraft sum, the sum of size^-|w|, read off the count of words of
    each length (Kraft 1949; McMillan 1956)."""
    counts = Counter(map(len, words))
    top = max(counts, default=0)
    return Fraction(sum([c * size ** (top - n) for n, c in counts.items()]), size**top)


def _require_code(x_lang: Language) -> None:
    if not is_code(x_lang):
        raise PreconditionError("precondition failed: input is not a code")


def _complete_by_measure(x_lang: Language, known_code: bool) -> bool | None:
    """A finite set's completeness where its uniform measure settles it,
    else None.  Below 1 the set is incomplete, code or not: X* has o(k^n)
    words of length n, and so has the set of their factors.  A code of
    measure 1 is complete (Schutzenberger); over 1 there is no
    code (McMillan).  A word list's measure is its Kraft sum; an
    automaton's is the measure pass.  ``known_code``: the caller found X
    to be a code."""
    if x_lang.is_finite_repr:
        mu = _kraft_sum(x_lang.words(), len(x_lang.alphabet.letters))
    elif x_lang.to_finite() is None:
        return None
    else:
        mu = measure_finite(x_lang, Distribution.uniform(x_lang.alphabet))
    if mu < 1:
        return False
    if mu == 1 and (known_code or is_code(x_lang)):
        return True
    return None


def is_complete(x_lang: Language, known_code: bool = False) -> bool:
    """Every word is a factor of some product of codewords."""
    settled = _complete_by_measure(x_lang, known_code)
    if settled is not None:
        return settled
    return _search_non_factor(factors(star(x_lang))) is None


def is_maximal_code(x_lang: Language) -> bool:
    """For a regular code, maximality coincides with completeness."""
    _require_code(x_lang)
    return is_complete(x_lang, known_code=True)


def _least_non_factor(x_lang: Language, known_code: bool = False) -> str | None:
    """Length-lex least word outside the factors of the star closure, or
    None when the set is complete; ``known_code`` as for ``is_complete``."""
    if _complete_by_measure(x_lang, known_code):
        return None
    return _search_non_factor(factors(star(x_lang)))


def _search_non_factor(f: Language) -> str | None:
    """The least word outside F = factors(X*): the subset search on F's
    automaton, stopped at the first subset with no accepting state."""
    nfa = f.nfa()
    return _least_word(nfa, lambda subset: not subset & nfa.accepting)


def _code_star_factors(x_lang: Language) -> Language | None:
    """F = factors(X*) of a code X, or None when X's measure shows it complete."""
    _require_code(x_lang)
    complete = _complete_by_measure(x_lang, known_code=True)
    return None if complete else factors(star(x_lang))


def _maximal_witness(x_lang: Language) -> str | None:
    """A word v with X union {v} a code, or None when the code X is
    complete: the least non-factor of X* if it keeps X a code, else the
    least unbordered one, both read off one F = factors(X*)."""
    f = _code_star_factors(x_lang)
    v = None if f is None else _search_non_factor(f)
    if v is None or is_code(union(x_lang, Language.finite((v,), x_lang.alphabet))):
        return v
    return _least_unbordered_exit(f.trim()[0], x_lang.alphabet)


def _least_unbordered_exit(rows, alphabet: Alphabet) -> str | None:
    """Length-lex least unbordered word that leaves ``rows``, the trim table
    of a set closed under factors, such as the factors of X*: its states are
    all final, and a word that leaves never comes back; None when no row
    misses an arc.  For each length n from the least leaving word's on, a
    depth-first walk in letter order, on an explicit stack, enters a state
    only if its distance to a missing arc (``_distances``) is less than the
    letters left, and tries each completion of length n of a word that has
    left.  Every node counts against DEFAULT_STATE_CAP, read at call time."""
    letters = alphabet.letters
    dist = _distances(rows, [q for q, row in enumerate(rows) if -1 in row])
    if 0 not in dist:
        return None
    cap = automata.DEFAULT_STATE_CAP
    n, stack = dist[0], []  # (state, or -1 once the word has left; word)
    for _ in range(cap):
        if not stack:  # no word of length n passed: the next length
            n += 1
            stack.append((0, ""))
        q, word = stack.pop()
        left = n - len(word) - 1  # letters left after the next one
        if left < 0:
            if is_unbordered(word):
                return word
            continue
        for i in reversed(range(len(letters))):
            r = rows[q][i] if q >= 0 else -1
            if r < 0 or dist.get(r, n) < left:
                stack.append((r, word + letters[i]))
    raise BudgetExceededError(
        f"unbordered non-factor search exceeded {cap} steps", budget=cap
    )


def find_non_factor(x_lang: Language) -> str:
    """Length-lex least word outside the factors of the star closure."""
    w = _least_non_factor(x_lang)
    if w is None:
        raise ValueError("language is complete: every word is a factor")
    return w
