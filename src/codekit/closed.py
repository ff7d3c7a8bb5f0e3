"""Codes closed under an edit relation.

A set is closed when the relation never maps a member outside the set.
A set held as words answers from its words: each member's image is
spelled once while the words spelled stay under the state cap, and a
larger list, like an automaton, is read off the image product.  A code
that the closed-family searches find is complete when its Kraft sum,
read off its lengths, is 1.
Deletion admits finitely many closed codes per defect count, with all
word lengths inside a quadratic window.  Insertion and the mixed
relation families admit none at all, and this module can replay the
short argument for any candidate.  Substitution closure is governed by
orbit shapes: over a binary alphabet an orbit is the complement pair,
a parity class, or everything, and closed codes follow suit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import chain, compress, islice, repeat

from . import automata
from .analysis import (
    DoubleFactorization, _kraft_sum, _require_code, is_complete, sardinas_patterson
)
from .automata import Language, is_empty, least_member
from .errors import BudgetExceededError, PreconditionError, UsageError
from .transducers import (
    EditRelationSpec,
    Transducer,
    _least_source,
    build,
    image,
    image_size_bound,
    image_word,
    relation_image_word,
)
from .words import Alphabet, complement_word, parity_ones, sort_words

DEFAULT_CANDIDATE_BUDGET = 1 << 24

_FINITE_CLOSURE_KINDS = ("delta", "Delta", "sigma", "Sigma")
_EMPTY_FAMILY_KINDS = ("iota", "I", "Delta", "S", "Lambda")


@dataclass(frozen=True)
class ClosednessReport:
    closed: bool
    witness: tuple[str, str] | None  # (member, escaping image word)


@dataclass(frozen=True)
class MaximalityReport:
    maximal: bool
    witness: str | None  # a word whose closure extends the code


@dataclass(frozen=True)
class EmptyFamilyExplanation:
    spec: EditRelationSpec
    seed: str
    chain: tuple[str, ...]
    forced: str
    conflict: DoubleFactorization | None
    reason: str


@dataclass(frozen=True)
class SigmaOrbit:
    shape: str  # singleton | pair | parity | full
    n: int
    alphabet: Alphabet
    seed: str

    def cardinality(self) -> int:
        if self.shape == "singleton":
            return 1
        if self.shape == "pair":
            return 2
        if self.shape == "parity":
            return len(self.alphabet.letters) ** self.n // 2
        return len(self.alphabet.letters) ** self.n

    def materialize(self) -> frozenset[str]:
        if self.shape == "singleton":
            return frozenset((self.seed,))
        if self.shape == "pair":
            return frozenset((self.seed, complement_word(self.seed, self.alphabet)))
        parity = parity_ones(self.seed, self.alphabet) if self.shape == "parity" else None
        return _materialize_class(self.alphabet, self.n, parity)


@dataclass(frozen=True)
class Classification:
    kind: str  # not_code | not_closed | short_subset | even | odd | full | uniform
    n: int | None = None
    witness: object = None


class _Budget:
    """A cap on the candidates one search tries, made before any work:
    a negative cap is a usage error, and 0 runs out on the first one.
    A candidate known to fail is counted though it is not tested."""

    def __init__(self, limit: int, context: str = ""):
        if limit < 0:
            raise UsageError(f"candidate budget must be at least 0, got {limit}")
        self.limit = limit
        self.context = context
        self.spent = 0

    def spend(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise BudgetExceededError(
                f"candidate budget exhausted while {self.context}",
                budget=self.limit,
                observed=self.spent,
            )


def is_closed(x_lang: Language, spec: EditRelationSpec) -> ClosednessReport:
    """Containment of the relation's image in the set itself.

    The verdict does not depend on the closure flag: identity pairs
    never leave the set.  A word list is read member by member
    (``_closed_by_members``) while its images fit under the state cap;
    an automaton, or a list past the cap, is read by one least-word
    search of the image product beside the set.  Either way the witness is
    (x, y): y the least word of the image that the set lacks, x the
    least member whose image holds y.
    """
    alphabet = x_lang.alphabet
    machine = build(spec.with_closure("plain"), alphabet)
    if x_lang.is_finite_repr:
        report = _closed_by_members(machine, spec, x_lang)
        if report is not None:
            return report
    img = image(machine, x_lang)
    y = least_member(img, x_lang, False)
    if y is None:
        return ClosednessReport(True, None)
    return ClosednessReport(False, (_least_source(spec, x_lang, y), y))


def _closed_by_members(
    machine: Transducer, spec: EditRelationSpec, x_lang: Language
) -> ClosednessReport | None:
    """``is_closed`` on a word list from each member's plain image,
    spelled once, or None once the image words spelled so far, with a
    bound on the next member's (``image_size_bound``), would pass
    ``automata.DEFAULT_STATE_CAP``, read at call time: the spelling
    stays under the cap, and the product path answers larger lists."""
    cap = automata.DEFAULT_STATE_CAP
    letters = len(x_lang.alphabet.letters)
    members = x_lang.words()
    escapes = []  # (x, the words of x's image outside X), where there are some
    spelled = 0
    for x in members:
        if spelled + image_size_bound(spec, letters, len(x)) > cap:
            return None
        img = image_word(machine, x)
        spelled += len(img)
        out = img - members
        if out:
            escapes.append((x, out))
    if not escapes:
        return ClosednessReport(True, None)
    key = x_lang.alphabet.lex_key
    y = min(frozenset().union(*[out for _, out in escapes]), key=key)
    return ClosednessReport(False, (min([x for x, out in escapes if y in out], key=key), y))


def closure_star(x_lang: Language, spec: EditRelationSpec) -> Language:
    """Least superset closed under the relation.

    Only deletion and substitution keep the closure finite; insertion
    and the mixed chain families grow without bound.
    """
    if spec.kind not in _FINITE_CLOSURE_KINDS:
        raise ValueError(
            f"closure under {spec.render()} is infinite on nonempty sets"
        )
    if x_lang.to_finite() is None:
        raise ValueError("closure iteration needs a finite set")
    alphabet = x_lang.alphabet
    seen = set(x_lang.words())
    frontier = list(seen)
    while frontier:
        w = frontier.pop()
        for v in relation_image_word(spec.with_closure("plain"), alphabet, w):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return Language.finite(seen, alphabet)


def delta_length_bound(k: int) -> frozenset[int]:
    """Admissible codeword lengths for deletion-closed codes."""
    if k < 1:
        raise UsageError("defect count must be at least 1")
    return frozenset(range(1, k * k - k)) - {k}


def _delta_images(k: int, alphabet: Alphabet):
    """The words of the deletion search by length, and the k-deletion
    image of a word: ``(classes, image)``.

    ``classes[n]`` lists ``alphabet.words_of_length(n)`` for each
    universe length n, each n - k and 0: the lengths of the universe
    words and of their images.  A j-deletion image D(u, j) is an int
    mask over the class of length |u| - j, whose bit t stands for the
    class's t-th word.  The masks come from one recursion on suffixes,
    memoized by suffix: D(cu, j) = c.D(u, j) | D(u, j - 1) reads
    (D(u, j) << rank(c).a^(|u| - j)) | D(u, j - 1) on masks over a
    letters.  ``image(w)`` decodes D(w, k) from the class lists, so
    every word is one string object.
    """
    a = len(alphabet.letters)
    rank = {c: i for i, c in enumerate(alphabet.letters)}
    lengths = delta_length_bound(k)
    needed = lengths.union((0,), (n - k for n in lengths if n > k))
    classes = {n: list(alphabet.words_of_length(n)) for n in sorted(needed)}

    @cache
    def mask(u: str, j: int) -> int:
        if j < 0 or j >= len(u):
            return int(j == len(u))
        rest = u[1:]
        return mask(rest, j) << rank[u[0]] * a ** (len(rest) - j) | mask(rest, j - 1)

    def image(w: str) -> frozenset[str]:
        # a word shorter than k has no class and an empty image
        bits = map("1".__eq__, bin(mask(w, k))[:1:-1])
        return frozenset(compress(classes.get(len(w) - k, ()), bits))

    return classes, image


def _latest_indices(k: int, a: int, top: int):
    """For m = 1, ..., top: the index of the highest bit of D(w, k) for
    each word w of length m over a letters, by w's rank in its class;
    None while m < k.  No mask is built: the index L(u, j) of D(u, j)'s
    highest bit obeys L(cu, j) = max(rank(c).a^(|u| - j) + L(u, j),
    L(u, j - 1)), taken for all the words of one length at once, and
    only for the j that still reach k by length top."""
    high = {0: [0]}  # j -> L(u, j) for the words u of length m, by rank
    for m in range(1, top + 1):
        high = {
            j: [0] * a**m if j == m else [
                s if (s := x + step) > y else y
                for step in range(0, a ** (m - j), a ** (m - 1 - j))
                for x, y in zip(high[j], high.get(j - 1) or repeat(-1))
            ]
            for j in range(max(0, k - top + m), min(k, m) + 1)
        }
        yield high.get(k)


def _delta_units(k: int, alphabet: Alphabet, taken: frozenset[str] = frozenset()):
    """Search units for the deletion searches, one per universe word w
    not taken, in length-lex order: ``((w,), latest, needs)``.

    ``needs()`` decodes w's k-deletion image (``_delta_images``), which
    a closed set must hold before w may join it; the walk calls it only
    for the units it wakes.  The image's words have |w| - k letters, so
    ``latest``, the one that comes last in the universe, is the word of
    its mask's highest bit (``_latest_indices``), or None when w is
    shorter than k.
    """
    classes, image = _delta_images(k, alphabet)
    lengths = delta_length_bound(k)
    top = max(lengths, default=0)
    units = []
    for m, high in enumerate(_latest_indices(k, len(alphabet.letters), top), 1):
        if m in lengths:
            latest = map(classes[m - k].__getitem__, high) if m > k else repeat(None)
            pairs = zip(classes[m], latest)
            units += [((w,), v, partial(image, w)) for w, v in pairs if w not in taken]
    return units


@lru_cache(maxsize=1)
def _delta_closures(k: int, alphabet: Alphabet):
    """The deletion universe in length-lex order, and the memoized
    deletion closure of one word: ``(universe, closure)``.  closure(y)
    is {y} with the closures of the words that ``_delta_images``
    decodes from y's k-deletion mask: the least set holding y that
    deleting k letters never leaves.  The last table is kept across
    calls, so a run that tests many codes of one family builds it once."""
    classes, image = _delta_images(k, alphabet)

    @cache
    def closure(y: str) -> frozenset[str]:
        return frozenset((y,)).union(*map(closure, image(y)))

    return [w for n in sorted(delta_length_bound(k)) for w in classes[n]], closure


def _grow_dangling(
    words: frozenset[str], dangling: frozenset[str], added
) -> frozenset[str] | None:
    """The dangling suffixes of ``words``, grown from those of a code in it.

    ``words`` is that code with the words ``added`` joined to it, and
    ``dangling`` is the code's set D: the least set that holds y[|x|:]
    for distinct codewords where x is a proper prefix of y, and the
    leftover u whenever a codeword x and a member d of D satisfy
    x = d.u or d = x.u.  A set is a code exactly when the empty word
    never enters D (Sardinas & Patterson 1953).  D only grows as words
    are added, so this takes the quotients of the added words by the
    words and by the old D, and closes them against the words.  Returns
    the D of ``words``, or None as soon as a quotient is empty or a
    codeword, whose quotient by itself is empty.  The D of a set is
    this function applied to the set, with the empty set as its code.
    """
    grown: set[str] = set()
    for n in added:
        if not n or n in dangling:
            return None
        size = len(n)
        fresh = []
        # one startswith per word: only a word at least as long as n can
        # start with it, and only a shorter one can start n
        for pool in (words, dangling):
            for v in pool:
                if len(v) >= size:
                    if not v.startswith(n):
                        continue
                    u = v[size:]
                elif n.startswith(v):
                    u = n[len(v) :]
                else:
                    continue
                if u in words:
                    return None
                if u:  # empty only when v is n itself, a word and not in D
                    fresh.append(u)
        while fresh:
            d = fresh.pop()
            if d in grown or d in dangling:
                continue
            grown.add(d)
            size = len(d)
            for x in words:
                if len(x) >= size:
                    if not x.startswith(d):
                        continue
                    u = x[size:]
                elif d.startswith(x):
                    u = d[len(x) :]
                else:
                    continue
                if u in words:
                    return None
                fresh.append(u)
    return dangling.union(grown) if grown else dangling


def _code_search(base: frozenset[str], units, alphabet: Alphabet, budget: _Budget):
    """Pre-order walk over the codes base | u_i | u_j | ... with i < j.

    A unit ``(words, latest, needs)`` may join a set that already holds
    all of ``needs()``, a set of words of one length; ``latest`` is its
    length-lex greatest word, or None when it is empty.  Each joined set
    tried spends one budget unit; only the codes among them are yielded
    and extended.  ``base`` must be a code.

    Each level carries the dangling suffixes of its code (see
    ``_grow_dangling``), and a joined set is tested by growing its
    parent's: only the quotients that involve the joined unit's words
    are taken, and the set is a code unless one of them is empty.  No
    language is built and no word is checked against the alphabet.  The
    walk does not read ``alphabet``: it keeps the arguments of the plain
    scan it is tested against (``tests/oracles.py``).

    A level tests its ready units once, on entry, and keeps the grown
    suffixes of those that pass; it skips the units past the budget
    left, which no spend reaches.  A subset of a code is a code, so a
    unit that fails to join a set fails below it too: each level hands
    its children ``dead``, the units that failed on its branch, and a
    dead unit still spends when its turn comes but is not tested again.

    Each level also carries ``ready``: the sorted indices of the units
    after the last one joined whose needs the set already holds.  A
    child keeps the rest of its parent's list and merges in the units
    that its joined unit wakes: those whose latest needed unit it is,
    and whose other needs the set holds.  Each word sits in one unit,
    and units come in the length-lex order of their words, so the
    latest needed unit holds ``latest``, unless ``latest`` is in
    ``base``; only then are the needs built up front, to take the
    latest unit among those outside ``base``.  Units with no needs
    outside ``base`` are ready from the start; a unit needing a word
    that no unit holds can never join.  The needs of the units a unit
    wakes are built when it first joins a code, once; a deletion unit
    decodes its image's mask then, and one that no code reaches builds
    no mask, only its ``latest`` index.  The walk visits the same
    sets in the same order as a scan of every later unit would, without
    testing the units that cannot join.
    """
    unit_of = {w: i for i, (words, _, _) in enumerate(units) for w in words}
    never = len(units)
    ready: list[int] = []
    wakes: list[list[int]] = [[] for _ in units]
    for j, (_, latest, needs) in enumerate(units):
        if latest is None:
            last = -1
        elif latest in base:
            last = max((unit_of.get(w, never) for w in needs() - base), default=-1)
        else:
            last = unit_of.get(latest, never)
        if last < 0:
            ready.append(j)
        elif last < j:
            wakes[last].append(j)
    # wakes[i] with each unit's needs, built when unit i first joins a code
    waking: list[list[tuple[int, frozenset[str]]] | None] = [None] * len(units)

    def walk(
        current: frozenset[str],
        dangling: frozenset[str],
        ready: list[int],
        dead: frozenset[int],
    ):
        # the units past the budget left are never spent for, here or below
        tried = ready[: budget.limit - budget.spent]
        passed: dict[int, frozenset[str]] = {}  # unit -> grown suffixes
        for i in tried:
            if i not in dead:
                words = units[i][0]
                grown = _grow_dangling(current.union(words), dangling, words)
                if grown is not None:
                    passed[i] = grown
        if len(passed) < len(tried):
            dead = dead.union(i for i in tried if i not in passed)
        for pos, i in enumerate(ready):
            budget.spend()
            grown = passed.get(i)
            if grown is not None:
                candidate = current.union(units[i][0])
                yield candidate
                rest = ready[pos + 1 :]
                sleepers = waking[i]
                if sleepers is None:
                    sleepers = waking[i] = [(j, units[j][2]()) for j in wakes[i]]
                woken = [j for j, needs in sleepers if needs <= candidate]
                yield from walk(
                    candidate, grown, sorted(rest + woken) if woken else rest, dead
                )

    return walk(base, _grow_dangling(base, frozenset(), base), ready, frozenset())


def _complete_extensions(
    base: frozenset[str], units, alphabet: Alphabet, budget: _Budget
) -> list[Language]:
    """The complete codes among the nonempty ones of base and its search.
    Base is a code and the search yields only codes, so a code is
    complete exactly when its uniform measure, its Kraft sum, is 1:
    read off the lengths of its words before any Language is built."""
    size = len(alphabet.letters)
    codes = chain((base,), _code_search(base, units, alphabet, budget))
    return [Language(alphabet, words=c) for c in codes if c and _kraft_sum(c, size) == 1]


def enumerate_delta_closed(
    k: int,
    alphabet: Alphabet,
    limit: int | None = None,
    candidate_budget: int = DEFAULT_CANDIDATE_BUDGET,
):
    """All nonempty deletion-closed codes for a given defect count.

    Streams codes in the order induced by adding universe words left to
    right, so prefixes of the stream are reproducible.  Every yielded
    set has been checked closed and uniquely decodable.  A limit stops
    the stream after that many codes.  A negative limit or budget, or a
    defect count below 1, raises UsageError at the call; the search
    units are built on the first ``next()``.
    """
    if limit is not None and limit < 0:
        raise UsageError(f"limit must be at least 0, got {limit}")
    budget = _Budget(candidate_budget)
    delta_length_bound(k)  # raises for a defect count below 1
    return _delta_closed_codes(k, alphabet, limit, budget)


def _delta_closed_codes(k: int, alphabet: Alphabet, limit: int | None, budget: _Budget):
    units = _delta_units(k, alphabet)
    budget.context = f"enumerating over a universe of {len(units)} words"
    codes = _code_search(frozenset(), units, alphabet, budget)
    for code in islice(codes, limit):
        yield Language(alphabet, words=code)


def _require_delta_closed_code(x_lang: Language, k: int) -> frozenset[str]:
    if x_lang.to_finite() is None:
        raise UsageError("deletion-closed analysis needs a finite set")
    spec = EditRelationSpec("delta", k)
    _require_code(x_lang)
    report = is_closed(x_lang, spec)
    if not report.closed:
        raise PreconditionError(
            f"precondition failed: input is not closed under {spec.render()}"
        )
    return x_lang.words()


def is_maximal_delta_closed(
    x_lang: Language, k: int, candidate_budget: int = DEFAULT_CANDIDATE_BUDGET
) -> MaximalityReport:
    """No single extra word can grow the code within the closed family.

    Adding any word drags its whole deletion closure along, so it is
    enough to test one-word extensions closed off, in universe order.
    Each is tested by growing the code's dangling suffixes.
    """
    budget = _Budget(candidate_budget, "testing one-word closed extensions")
    words = _require_delta_closed_code(x_lang, k)
    universe, closure = _delta_closures(k, x_lang.alphabet)
    dangling = _grow_dangling(words, frozenset(), words)
    for y in universe:
        if y in words:
            continue
        added = closure(y) - words
        budget.spend()
        if _grow_dangling(words | added, dangling, added) is not None:
            return MaximalityReport(False, y)
    return MaximalityReport(True, None)


def embed_delta_closed_complete(
    x_lang: Language, k: int, candidate_budget: int = DEFAULT_CANDIDATE_BUDGET
) -> list[Language]:
    """Every complete deletion-closed code containing the input."""
    budget = _Budget(candidate_budget)
    words = _require_delta_closed_code(x_lang, k)
    alphabet = x_lang.alphabet
    units = _delta_units(k, alphabet, words)
    budget.context = f"embedding over a universe of {len(units)} words"
    return _complete_extensions(words, units, alphabet, budget)


def assert_empty_family(
    spec: EditRelationSpec, x_lang: Language
) -> EmptyFamilyExplanation:
    """Concrete evidence that no code is closed under the relation.

    Starting from any codeword, insertion relations force the word
    pumped one extra copy into the set, which destroys unique
    decipherability; the deletion-bearing families force the empty
    word in, which no code contains.  Every chain step is replayed
    through the relation before the explanation is returned.
    """
    if spec.kind not in _EMPTY_FAMILY_KINDS:
        raise ValueError(
            f"{spec.render()} admits closed codes; no emptiness argument applies"
        )
    if x_lang.to_finite() is None or not x_lang.words():
        raise ValueError("a nonempty finite candidate code is required")
    alphabet = x_lang.alphabet
    _require_code(x_lang)
    x = min(x_lang.words(), key=alphabet.lex_key)
    k = spec.k
    if spec.kind in ("iota", "I"):
        chain = [x]
        target = x * (k + 1)
        while chain[-1] != target:
            nxt = chain[-1] + target[len(chain[-1]) : len(chain[-1]) + k]
            chain.append(nxt)
        forced = target
        conflict = DoubleFactorization(forced, (forced,), (x,) * (k + 1))
        reason = (
            f"closure under {spec.render()} forces {forced!r} into the set, "
            f"which then factorizes both as itself and as {k + 1} copies of {x!r}"
        )
    else:
        chain = [x[: len(x) - i] for i in range(len(x) + 1)]
        forced = ""
        conflict = None
        reason = (
            f"closure under {spec.render()} forces the empty word into the set, "
            "and no uniquely decodable set contains it"
        )
    for a, b in zip(chain, chain[1:]):
        if b not in relation_image_word(spec.with_closure("plain"), alphabet, a):
            raise RuntimeError("internal: emptiness chain failed replay")
    return EmptyFamilyExplanation(
        spec=spec,
        seed=x,
        chain=tuple(chain),
        forced=forced,
        conflict=conflict,
        reason=reason,
    )


def sigma_star(w: str, k: int, alphabet: Alphabet) -> SigmaOrbit:
    """Shape of the substitution orbit of a word.

    Short words sit alone.  A binary word of length exactly k pairs
    with its complement, since all k positions must flip at once.
    Longer binary words sweep a parity class when k is even and the
    whole length class when k is odd; three or more letters always
    sweep the whole length class.
    """
    if k < 1:
        raise UsageError("defect count must be at least 1")
    alphabet.check_word(w)
    n = len(w)
    if n < k:
        return SigmaOrbit("singleton", n, alphabet, w)
    if not alphabet.is_binary:
        return SigmaOrbit("full", n, alphabet, w)
    if n == k:
        return SigmaOrbit("pair", n, alphabet, w)
    if k % 2 == 1:
        return SigmaOrbit("full", n, alphabet, w)
    return SigmaOrbit("parity", n, alphabet, w)


def _length_class(x_lang: Language) -> tuple[int, frozenset[str]] | None:
    """The common codeword length and the codewords, when the set has
    one length (so it is finite)."""
    if x_lang.to_finite() is None:
        return None
    lengths = {len(w) for w in x_lang.words()}
    return (lengths.pop(), x_lang.words()) if len(lengths) == 1 else None


def _materialize_class(
    alphabet: Alphabet, n: int, parity: str | None
) -> frozenset[str]:
    if parity is None:
        return frozenset(alphabet.words_of_length(n))
    return frozenset(
        w for w in alphabet.words_of_length(n) if parity_ones(w, alphabet) == parity
    )


def classify_sigma_closed(
    x_lang: Language, k: int, candidate_budget: int = DEFAULT_CANDIDATE_BUDGET
) -> Classification:
    """Which of the few possible shapes a substitution-closed code has."""
    budget = _Budget(candidate_budget)
    alphabet = x_lang.alphabet
    spec = EditRelationSpec("sigma", k)
    verdict = sardinas_patterson(x_lang)
    if not verdict.is_code:
        return Classification("not_code", witness=verdict.witness)
    report = is_closed(x_lang, spec)
    if not report.closed:
        return Classification("not_closed", witness=report.witness)
    short = Language.finite(x_lang.alphabet.words_upto(k), alphabet)
    if least_member(x_lang, short, False) is None:
        return Classification("short_subset", n=k)
    uniform = _length_class(x_lang)
    if uniform is None:
        raise RuntimeError("internal: closed code with mixed lengths above the bound")
    n, members = uniform
    if len(alphabet.letters) ** n > budget.limit:
        raise BudgetExceededError(
            "length class too large to compare",
            budget=budget.limit,
            observed=len(alphabet.letters) ** n,
        )
    if members == _materialize_class(alphabet, n, None):
        return Classification("full", n=n)
    if alphabet.is_binary:
        for name in ("even", "odd"):
            if members == _materialize_class(alphabet, n, name):
                return Classification(name, n=n)
    raise RuntimeError("internal: closed code matches no known shape")


def classify_Sigma_closed(x_lang: Language, k: int) -> Classification:
    """A code closed under defects up to k is a full length class."""
    spec = EditRelationSpec("Sigma", k)
    if is_empty(x_lang):
        raise UsageError("a nonempty set is required")
    verdict = sardinas_patterson(x_lang)
    if not verdict.is_code:
        return Classification("not_code", witness=verdict.witness)
    report = is_closed(x_lang, spec)
    if not report.closed:
        return Classification("not_closed", witness=report.witness)
    uniform = _length_class(x_lang)
    if uniform is None:
        raise RuntimeError("internal: closed code with mixed lengths")
    n, members = uniform
    if members != _materialize_class(x_lang.alphabet, n, None):
        raise RuntimeError("internal: closed code is not a full length class")
    return Classification("uniform", n=n)


def sigma_complete_embedding(
    x_lang: Language, k: int, candidate_budget: int = DEFAULT_CANDIDATE_BUDGET
) -> list[Language]:
    """Complete substitution-closed codes containing the input.

    The search space splits on length: within the short window the
    orbit units are enumerated directly, while any longer input can
    only sit inside its full length class.
    """
    budget = _Budget(candidate_budget, "searching short closed embeddings")
    alphabet = x_lang.alphabet
    _require_code(x_lang)
    if is_complete(x_lang, known_code=True):
        raise PreconditionError("precondition failed: input is already complete")
    short = Language.finite(alphabet.words_upto(k), alphabet)
    if least_member(x_lang, short, False) is None:
        return _short_embedding_search(x_lang.words(), k, alphabet, budget)
    uniform = _length_class(x_lang)
    if uniform is None:
        return []
    n, members = uniform
    if any(len(w) <= k for w in members):
        return []
    return [Language.finite(alphabet.words_of_length(n), alphabet)]


def _short_embedding_search(
    words: frozenset[str], k: int, alphabet: Alphabet, budget: _Budget
) -> list[Language]:
    units: list[frozenset[str]] = []
    covered: set[str] = set()
    for w in sort_words(alphabet.words_upto(k), alphabet):
        if w in covered or not w:
            continue
        orbit = sigma_star(w, k, alphabet).materialize()
        units.append(orbit)
        covered |= orbit
    forced_units = [unit for unit in units if unit & words]
    forced = frozenset().union(*forced_units) if forced_units else frozenset()
    budget.spend()
    if _grow_dangling(forced, frozenset(), forced) is None:
        return []
    # orbit units need nothing: their needs() is frozenset(), the empty set
    free = [(unit, None, frozenset) for unit in units if not unit & words]
    return _complete_extensions(forced, free, alphabet, budget)


__all__ = [
    "DEFAULT_CANDIDATE_BUDGET",
    "ClosednessReport",
    "MaximalityReport",
    "EmptyFamilyExplanation",
    "SigmaOrbit",
    "Classification",
    "is_closed",
    "closure_star",
    "delta_length_bound",
    "enumerate_delta_closed",
    "is_maximal_delta_closed",
    "embed_delta_closed_complete",
    "assert_empty_family",
    "sigma_star",
    "classify_sigma_closed",
    "classify_Sigma_closed",
    "sigma_complete_embedding",
]
