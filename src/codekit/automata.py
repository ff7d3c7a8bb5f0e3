"""Finite automata and the regular-language toolkit built on them.

A :class:`Language` is held as words or as an NFA, but deciders outside
this module take their answers from ``to_finite``: finite or infinite;
``analysis``'s code, prefix and measure tests and ``closed.is_closed``
also fork on ``is_finite_repr`` for a faster path to the same answer.
``to_finite`` spells no word; ``words()`` answers for a finite set in
either form, and spells an automaton's members once.  No verdict needs a minimal
automaton: every verdict of the package is a property of the set, read
off any trim deterministic automaton for it, and two sets are equal
when neither holds a word the other lacks.

One subset construction, ``_subsets`` (Rabin & Scott 1959), carries the
regular-set algebra, and it enters at most ``DEFAULT_STATE_CAP``
subsets.  It fills a table at one place, ``Language.trim()``; every
other reader walks it and keeps no table.  Least words are the word of
the first subset that passes a test.  Emptiness questions on two sets
are least words too: ``least_member`` runs the construction on both
automata side by side, so each subset holds the states of both after
one word, and it stops at the first member of A that B holds, or lacks;
two word lists answer it from their words, by one set intersection or
difference, with no construction.
``equivalent`` asks it both ways, as Hopcroft & Karp's product search
does, and the least non-factor is the one-automaton case.
``left_quotient`` reads its start states from the subsets of U's
automaton beside X's trim table.

Every deterministic walk reads one table, ``Language.trim()``, built
once per language: the trie of a word list, else the live part of the
subset table, whose live states are the keys of ``_distances``, one
backward breadth-first pass; outside this module only
``analysis._least_unbordered_exit`` reads its distances.
``words_upto`` and ``words()`` read the table, as do ``complement``,
which makes it total with one dead state and flips it, and the
code-ness, prefix and measure passes of ``analysis``; only a word
list's prefix questions and Kraft sum skip it, read off one sort of its
words or their lengths.  A word list's automaton, which star, product,
union, images and the subset searches read, is its trie with equal
futures merged, the minimal acyclic automaton of the list (Revuz
1992), so a subset never tells apart two states with one future; the
one-pass readers of ``trim()`` gain nothing from the merge, so it stays
the trie.  ``to_finite`` reads the NFA instead: an infinite set is told
by a cycle of letter arcs, so it builds no subset table.

``compile_expression`` builds a set while it reads its expression, as
Thompson's construction (1968) does, so no syntax tree is kept.
``union`` and ``concat`` take any number of parts and number each
part's states once.  Only a union of word lists stays a word list: a
product is an automaton as large as its parts together, while its
words may be as many as the product of theirs.
"""

from __future__ import annotations

import functools
import re
from collections import Counter

from .errors import BudgetExceededError, ParseError, UsageError
from .words import Alphabet, EPS_TOKEN

EPS = ""

DEFAULT_STATE_CAP = 1 << 16


class Nfa:
    """Nondeterministic automaton with epsilon moves.

    arcs[state] maps a label (a letter, or "" for epsilon) to a set of
    successor states.  Multiple initial states are allowed.
    """

    __slots__ = ("alphabet", "n", "initial", "accepting", "arcs")

    def __init__(self, alphabet: Alphabet, n: int, initial, accepting, arcs):
        self.alphabet = alphabet
        self.n = n
        self.initial = frozenset(initial)
        self.accepting = frozenset(accepting)
        self.arcs = arcs

    def successors(self, state: int, label: str) -> frozenset:
        return self.arcs.get(state, {}).get(label, frozenset())

    def eps_closure(self, states) -> frozenset:
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for r in self.successors(q, EPS):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return frozenset(seen)

    def step(self, states, letter: str) -> frozenset:
        out = set()
        for q in states:
            out |= self.successors(q, letter)
        return self.eps_closure(out)

    def accepts(self, w: str) -> bool:
        cur = self.eps_closure(self.initial)
        for c in w:
            cur = self.step(cur, c)
            if not cur:
                return False
        return bool(cur & self.accepting)

    def core_states(self) -> frozenset:
        """States on an accepting path: a forward search from the initial
        states, then a backward one over the arcs it read."""
        back: dict[int, list[int]] = {}
        fwd = set(self.initial)
        stack = list(fwd)
        while stack:
            q = stack.pop()
            for dsts in self.arcs.get(q, {}).values():
                for r in dsts:
                    back.setdefault(r, []).append(q)
                    if r not in fwd:
                        fwd.add(r)
                        stack.append(r)
        core = set(self.accepting & fwd)
        stack = list(core)
        while stack:
            for p in back.get(stack.pop(), ()):
                if p not in core:
                    core.add(p)
                    stack.append(p)
        return frozenset(core)


def _trie(words, alphabet: Alphabet):
    """The trie of a finite set as (rows, finals); see ``Language.trim``."""
    width = len(alphabet.letters)
    index = {c: i for i, c in enumerate(alphabet.letters)}
    rows = [[-1] * width]
    finals = set()
    for w in words:
        q = 0
        for c in w:
            row, i = rows[q], index[c]
            q = row[i]
            if q < 0:
                q = row[i] = len(rows)
                rows.append([-1] * width)
        finals.add(q)
    return rows, finals


def _merge_futures(rows, finals):
    """The minimal acyclic automaton of a trie (rows, finals), in the same
    form: states with the same future are one state (Revuz 1992).

    Every child in a trie is numbered above its parent, so one pass from
    the highest number down gives each state the class of the pair (is
    it final, its row of child classes).  The root's class is found
    last, as no other state has its future, so the classes are numbered
    from last to first, and the initial state stays 0.
    """
    cls = [0] * len(rows)
    keys: dict[tuple, int] = {}
    for q in range(len(rows) - 1, -1, -1):
        key = q in finals, tuple([cls[r] if r >= 0 else -1 for r in rows[q]])
        cls[q] = keys.setdefault(key, len(keys))
    top = len(keys) - 1
    merged = [[top - r if r >= 0 else -1 for r in row] for _, row in reversed(keys)]
    return merged, {top - c for c, (final, _) in enumerate(keys) if final}


def _rows_nfa(alphabet: Alphabet, rows, initial, accepting) -> Nfa:
    """The automaton of a deterministic table; entries below 0 are no arc."""
    letters = alphabet.letters
    arcs = {
        q: {c: frozenset((r,)) for c, r in zip(letters, row) if r >= 0}
        for q, row in enumerate(rows)
    }
    return Nfa(alphabet, len(rows), initial, accepting, arcs)


def _shift(arcs, offset):
    return {
        s + offset: {lbl: frozenset(r + offset for r in dsts) for lbl, dsts in by.items()}
        for s, by in arcs.items()
    }


def _side_by_side(nfas):
    """The arcs of the automata in one table, each numbered once, after
    the ones before it, so the first keeps its numbers; with each one's
    initial and final states in the new numbers."""
    arcs, ends, n = {}, [], 0
    for a in nfas:
        arcs.update(_shift(a.arcs, n) if n else a.arcs)
        ends.append(({s + n for s in a.initial}, {s + n for s in a.accepting}))
        n += a.n
    return arcs, ends, n


def _add_empty_moves(arcs, sources, targets) -> None:
    """Empty moves from each source to every target; only the sources'
    rows are copied, as the others may be shared with other automata."""
    for q in sources:
        row = dict(arcs.get(q, {}))
        row[EPS] = row.get(EPS, frozenset()) | targets
        arcs[q] = row


def nfa_union(nfas) -> Nfa:
    """The automata side by side."""
    arcs, ends, n = _side_by_side(nfas)
    initial, accepting = zip(*ends)
    return Nfa(nfas[0].alphabet, n, set().union(*initial), set().union(*accepting), arcs)


def nfa_concat(nfas) -> Nfa:
    """The automata in a row: empty moves lead from each one's final
    states to the next one's initial states."""
    arcs, ends, n = _side_by_side(nfas)
    for (_, finals), (initial, _) in zip(ends, ends[1:]):
        _add_empty_moves(arcs, finals, initial)
    return Nfa(nfas[0].alphabet, n, ends[0][0], ends[-1][1], arcs)


def nfa_star(a: Nfa) -> Nfa:
    """A new hub, initial and final, with empty moves to a's initial
    states and from a's final states back to it."""
    hub = frozenset((a.n,))
    arcs = {**a.arcs, a.n: {EPS: a.initial}}
    _add_empty_moves(arcs, a.accepting, hub)
    return Nfa(a.alphabet, a.n + 1, hub, hub, arcs)


def nfa_universal(alphabet: Alphabet) -> Nfa:
    arcs = {0: {c: frozenset((0,)) for c in alphabet}}
    return Nfa(alphabet, 1, frozenset((0,)), frozenset((0,)), arcs)


def _subsets(nfa: Nfa, rows: list | None = None):
    """Breadth-first subset construction, letters in alphabet order.

    Yields each subset, closed under empty moves, when it is first
    entered, with the number of the subset and the letter number it was
    entered from (-1, -1 for the start); so each subset's first word is
    length-lex least.  Given ``rows``, appends each subset's row of
    successor numbers to it.  Raises when it would enter more than
    DEFAULT_STATE_CAP subsets, read at call time.
    """
    letters = nfa.alphabet.letters
    # moves[i][q]: q's successors under letter i, closed under empty
    # moves, filled when q is first visited: a search that stops early
    # pays only for the states it reaches
    moves: list[dict[int, frozenset]] = [{} for _ in letters]
    visited: set[int] = set()
    start = nfa.eps_closure(nfa.initial)
    number = {start: 0}
    order = [start]
    yield start, -1, -1
    for i, subset in enumerate(order):
        # most subsets hold visited states only, and this test is cheaper
        # than the difference
        if not subset <= visited:
            for q in subset - visited:
                visited.add(q)
                by_label = nfa.arcs.get(q, {})
                for move, c in zip(moves, letters):
                    if c in by_label:
                        move[q] = nfa.eps_closure(by_label[c])
        row = []
        for li, move in enumerate(moves):
            nxt = frozenset().union(*[move[q] for q in subset if q in move])
            j = number.get(nxt)
            if j is None:
                j = len(order)
                if j >= DEFAULT_STATE_CAP:
                    raise BudgetExceededError(
                        f"determinization exceeded {DEFAULT_STATE_CAP} states",
                        budget=DEFAULT_STATE_CAP,
                    )
                number[nxt] = j
                order.append(nxt)
                yield nxt, i, li
            row.append(j)
        if rows is not None:
            rows.append(tuple(row))


def _distances(rows, targets) -> dict[int, int]:
    """Each state's distance in letters to ``targets``, for the states
    from which some word leads into them: one backward breadth-first
    pass over the table.  ``Language.trim()`` reads its keys."""
    back: list[list[int]] = [[] for _ in rows]
    for q, row in enumerate(rows):
        for r in row:
            if r >= 0:
                back[r].append(q)
    dist = dict.fromkeys(targets, 0)
    queue = list(dist)
    for r in queue:
        d = dist[r] + 1
        for p in back[r]:
            if p not in dist:
                dist[p] = d
                queue.append(p)
    return dist


def _least_word(nfa: Nfa, test) -> str | None:
    """Length-lex least word whose subset passes ``test``, or None when
    no subset does.

    The subset construction stopped at the first such subset: subsets
    are entered in the length-lex order of their least words, so that
    subset's word is the answer.  It raises once it would enter more
    than DEFAULT_STATE_CAP subsets.
    """
    letters = nfa.alphabet.letters
    words: list[str] = []  # each entered subset's least word
    for subset, parent, letter in _subsets(nfa):
        word = words[parent] + letters[letter] if parent >= 0 else ""
        if test(subset):
            return word
        words.append(word)
    return None


class Language:
    """A finite or regular set of words over a fixed alphabet."""

    __slots__ = ("alphabet", "_words", "_nfa", "_trim", "_finite")

    def __init__(self, alphabet, words=None, nfa=None):
        self.alphabet = alphabet
        self._words = words
        self._nfa = nfa
        self._trim = None
        # to_finite's answer for an automaton: False when infinite, else
        # True, then the words once ``words()`` has spelled them
        self._finite = None

    @staticmethod
    def finite(words, alphabet: Alphabet) -> "Language":
        ws = frozenset(words)
        for w in ws:
            alphabet.check_word(w)
        return Language(alphabet, words=ws)

    @staticmethod
    def regular(nfa: Nfa) -> "Language":
        return Language(nfa.alphabet, nfa=nfa)

    @property
    def is_finite_repr(self) -> bool:
        return self._words is not None

    def words(self) -> frozenset[str]:
        """Members of a finite set in either form; ValueError if infinite.
        A finite automaton is spelled once, off its trim table, whose
        states a member's letters reach at most once each."""
        if self._words is not None:
            return self._words
        if self.to_finite() is None:
            raise ValueError("language is infinite")
        if self._finite is True:
            self._finite = words_upto(self, len(self.trim()[0]))
        return self._finite

    def nfa(self) -> Nfa:
        """The automaton of the set; for a word list, its trie with equal
        futures merged (``_merge_futures``), so a star or a product of
        it carries no copies of one future.  ``trim()`` stays the trie."""
        if self._nfa is None:
            rows, finals = _merge_futures(*self.trim())
            self._nfa = _rows_nfa(self.alphabet, rows, (0,), finals)
        return self._nfa

    def trim(self):
        """Trim deterministic automaton (rows, finals) with initial state 0,
        built on first use: the trie of a finite set, else the subset
        table of its automaton with every arc into a dead subset cut.
        rows[q][i] is the successor of q under letter number i, or -1
        where no member continues.  Every subset is reached, so
        ``_distances`` from the accepting subsets marks the live ones.
        The table is shared by every reader: read it, never change it.
        """
        if self._trim is None:
            if self._words is not None:
                self._trim = _trie(self._words, self.alphabet)
            else:
                nfa = self.nfa()
                table: list[tuple[int, ...]] = []
                finals = {
                    i
                    for i, (subset, _, _) in enumerate(_subsets(nfa, table))
                    if subset & nfa.accepting
                }
                live = _distances(table, finals)
                rows = [[r if r in live else -1 for r in row] for row in table]
                self._trim = rows, finals
        return self._trim

    def member(self, w: str) -> bool:
        if self._words is not None:
            return w in self._words
        return self._nfa.accepts(w)

    def to_finite(self) -> "Language | None":
        """The set itself when it is finite, else None; nothing is spelled.

        A set is infinite exactly when a letter arc lies on a cycle of
        core states, those on accepting paths.  Kahn's sort over the
        core, where q leads to each core state that one letter arc
        reaches from q's empty closure, never orders such a cycle, so an
        infinite set builds no subset table.  The answer is kept with
        the set."""
        if self._words is None and self._finite is None:
            nfa = self.nfa()
            core = nfa.core_states()
            succ = {q: set() for q in core}
            for q in core:
                for p in nfa.eps_closure((q,)):
                    for c, dsts in nfa.arcs.get(p, {}).items():
                        if c != EPS:
                            succ[q] |= dsts & core
            indeg = Counter(r for rs in succ.values() for r in rs)
            order = [q for q in core if not indeg[q]]
            for q in order:
                for r in succ[q]:
                    indeg[r] -= 1
                    if not indeg[r]:
                        order.append(r)
            self._finite = len(order) == len(core)
        return None if self._finite is False else self

    def __repr__(self):
        if self._words is not None:
            from .words import format_word, sort_words

            shown = ", ".join(format_word(w) for w in sort_words(self._words, self.alphabet))
            return f"Language{{{shown}}}"
        return f"Language<nfa {self._nfa.n} states>"


def _check_same_alphabet(*langs):
    first = langs[0].alphabet
    for lang in langs[1:]:
        if lang.alphabet.letters != first.letters:
            raise ValueError("alphabet mismatch between languages")
    return first


def union(*langs: Language) -> Language:
    """A word list when every part is one, else the parts side by side."""
    alphabet = _check_same_alphabet(*langs)
    if all(lang.is_finite_repr for lang in langs):
        return Language(alphabet, words=frozenset().union(*[x.words() for x in langs]))
    return Language.regular(nfa_union([lang.nfa() for lang in langs]))


def concat(*langs: Language) -> Language:
    """The parts in a row, as an automaton even for word lists, whose
    product may have as many words as the product of their sizes."""
    _check_same_alphabet(*langs)
    return Language.regular(nfa_concat([lang.nfa() for lang in langs]))


def star(a: Language) -> Language:
    return Language.regular(nfa_star(a.nfa()))


def complement(a: Language) -> Language:
    """A's trim table made total by one dead state, with its final
    states flipped: the flip rejects exactly A."""
    rows, finals = a.trim()
    dead = len(rows)
    total = [[r if r >= 0 else dead for r in row] for row in rows]
    total.append([dead] * len(a.alphabet.letters))
    flipped = set(range(len(total))) - finals
    return Language.regular(_rows_nfa(a.alphabet, total, (0,), flipped))


def left_quotient(u_lang: Language, x_lang: Language, exclude_epsilon: bool = False) -> Language:
    """Words w with uw in X for some u in U.

    The subset construction on U's automaton beside X's trim table
    reads both on the same words; the X state of each subset holding a
    final state of U starts a word of the quotient, unless X has died
    on that word.  With exclude_epsilon, the quotient starts from one
    fresh state that is not accepting, which removes the empty word:
    X^{-1}X minus the empty word holds the tails of proper prefix pairs.
    """
    _check_same_alphabet(u_lang, x_lang)
    nu = u_lang.nfa()
    rows, finals = x_lang.trim()
    base = _rows_nfa(x_lang.alphabet, rows, (0,), finals)
    # X's states are numbered after U's, and a subset holds at most one
    starts = {
        max(subset) - nu.n
        for subset, _, _ in _subsets(nfa_union((nu, base)))
        if subset & nu.accepting and max(subset) >= nu.n
    }
    n, initial, arcs = base.n, starts, base.arcs
    if exclude_epsilon:
        # start at a fresh state, not accepting, that moves as all starts do
        arcs = {**arcs, n: {c: base.step(starts, c) for c in base.alphabet}}
        n, initial = n + 1, (n,)
    return Language.regular(Nfa(base.alphabet, n, initial, base.accepting, arcs))


def factors(lang: Language) -> Language:
    """All factors (contiguous subwords) of members of the language."""
    nfa = lang.nfa()
    core = nfa.core_states()
    if not core:
        return Language.finite((), lang.alphabet)
    return Language.regular(Nfa(nfa.alphabet, nfa.n, core, core, nfa.arcs))


def is_empty(lang: Language) -> bool:
    nfa = lang.nfa()
    return not (nfa.eps_closure(nfa.initial) and nfa.core_states())


def least_member(a: Language, b: Language, in_b: bool) -> str | None:
    """Length-lex least member of A that B holds (in_b=True) or lacks,
    or None when there is none.  Two word lists answer by one set
    intersection or difference; otherwise the subset construction on
    both automata side by side stops at the first subset holding a final
    state of A, and one of B or none."""
    _check_same_alphabet(a, b)
    if a.is_finite_repr and b.is_finite_repr:
        found = a.words() & b.words() if in_b else a.words() - b.words()
        return min(found, key=a.alphabet.lex_key, default=None)
    # B goes first, so only A's arcs are renumbered: a large B costs only
    # the states the search reaches
    nb = b.nfa()
    both = nfa_union((nb, a.nfa()))
    a_final = both.accepting - nb.accepting

    def test(subset):
        return bool(subset & a_final) and bool(subset & nb.accepting) == in_b

    return _least_word(both, test)


def equivalent(a: Language, b: Language) -> bool:
    """Neither set holds a word the other lacks."""
    return least_member(a, b, False) is None and least_member(b, a, False) is None


def words_upto(lang: Language, max_len: int) -> frozenset[str]:
    """Members of length at most max_len, read off the trim table one
    length at a time."""
    rows, finals = lang.trim()
    letters = lang.alphabet.letters
    out = set()
    frontier = {0: {""}}
    for length in range(max_len + 1):
        if length:
            nxt: dict[int, set[str]] = {}
            for q, ws in frontier.items():
                for c, r in zip(letters, rows[q]):
                    if r >= 0:
                        nxt.setdefault(r, set()).update(w + c for w in ws)
            frontier = nxt
        for q, ws in frontier.items():
            if q in finals:
                out.update(ws)
    return frozenset(out)


def truncate(lang: Language, max_len: int) -> Language:
    """Members of length at most max_len; a negative max_len raises
    UsageError."""
    if max_len < 0:
        raise UsageError(f"max_len must be at least 0, got {max_len}")
    return Language.finite(words_upto(lang, max_len), lang.alphabet)


def reverse(lang: Language) -> Language:
    """Mirror image of every member."""
    if lang.is_finite_repr:
        # the mirrored words have the set's own letters: nothing to check
        return Language(lang.alphabet, words=frozenset(w[::-1] for w in lang.words()))
    nfa = lang.nfa()
    arcs: dict[int, dict[str, set[int]]] = {}
    for q, by in nfa.arcs.items():
        for lbl, dsts in by.items():
            for r in dsts:
                arcs.setdefault(r, {}).setdefault(lbl, set()).add(q)
    frozen = {s: {lbl: frozenset(d) for lbl, d in by.items()} for s, by in arcs.items()}
    return Language.regular(
        Nfa(nfa.alphabet, nfa.n, nfa.accepting, nfa.initial, frozen)
    )


# --- expression parsing -------------------------------------------------

_SPACES = re.compile(r"\s*")


class _ExprParser:
    """Recursive descent for:  expr := term ("|" term)*
                               term := factor ("." factor)*
                               factor := atom "*"*
                               atom := word | eps | "(" expr ")"

    Each rule returns the Language of the text it read, with one
    ``union`` or ``concat`` call for all its parts; a word matched
    against the alphabet's letters is not checked again.  ``pos``
    always sits past any whitespace, so ``peek`` reads one character;
    a run of letters is read by one match.
    """

    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.alphabet = alphabet
        self.eps_enabled = _eps_is_keyword(alphabet.letters)
        self.word = re.compile("[" + "".join(map(re.escape, alphabet)) + "]+")
        self._advance(0)

    def _advance(self, end: int):
        """Move to ``end``, then past the whitespace after it."""
        self.pos = _SPACES.match(self.text, end).end()

    def peek(self):
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def parse(self) -> Language:
        lang = self.expr()
        if self.pos != len(self.text):
            raise ParseError(
                f"unexpected character {self.text[self.pos]!r}", position=self.pos
            )
        return lang

    def expr(self) -> Language:
        parts = [self.term()]
        while self.peek() == "|":
            self._advance(self.pos + 1)
            parts.append(self.term())
        return union(*parts) if len(parts) > 1 else parts[0]

    def term(self) -> Language:
        parts = [self.factor()]
        while self.peek() == ".":
            self._advance(self.pos + 1)
            parts.append(self.factor())
        return concat(*parts) if len(parts) > 1 else parts[0]

    def factor(self) -> Language:
        lang = self.atom()
        if self.peek() != "*":
            return lang
        while self.peek() == "*":  # a run of stars is one star
            self._advance(self.pos + 1)
        return star(lang)

    def atom(self) -> Language:
        c = self.peek()
        if c is None:
            raise ParseError("unexpected end of expression", position=self.pos)
        if c == "(":
            self._advance(self.pos + 1)
            lang = self.expr()
            if self.peek() != ")":
                raise ParseError("missing closing parenthesis", position=self.pos)
            self._advance(self.pos + 1)
            return lang
        if self.eps_enabled and self.text.startswith(EPS_TOKEN, self.pos):
            self._advance(self.pos + len(EPS_TOKEN))
            return Language(self.alphabet, words=frozenset(("",)))
        run = self.word.match(self.text, self.pos)
        if run:
            self._advance(run.end())
            return Language(self.alphabet, words=frozenset((run.group(),)))
        raise ParseError(f"unexpected character {c!r}", position=self.pos)


def _eps_is_keyword(letters) -> bool:
    """`eps` stays a keyword unless every one of e, p, s is a letter."""
    return not all(c in letters for c in EPS_TOKEN)


@functools.cache
def _word_list(letters: tuple[str, ...]) -> re.Pattern | None:
    """The pattern of a flat word list over these letters: letter runs,
    and ``eps`` where it is a keyword, joined by ``|``, with whitespace
    around each.  None when a letter is whitespace, ``|`` or ``(``, which
    the parser does not read as a letter alone."""
    if any(c.isspace() or c in "|(" for c in letters):
        return None
    run = "[" + "".join(map(re.escape, letters)) + "]+"
    if _eps_is_keyword(letters):
        run = f"(?:{run}|{EPS_TOKEN})"
    return re.compile(rf"\s*{run}\s*(?:\|\s*{run}\s*)*")


def compile_expression(text: str, alphabet: Alphabet) -> Language:
    """Compile an expression to a Language.

    A flat word list is read by one match and one split, straight into
    finite-set form.  Any other text goes through ``_ExprParser``, whose
    rules return the Language of what they read, built by ``union``,
    ``concat`` and ``star`` as the text is read, and which reports every
    error with its position: a union of words comes back in finite-set
    form, a product or a star as an automaton, and nesting too deep for
    Python's recursion limit is a ParseError.
    """
    flat = _word_list(alphabet.letters)
    if flat is not None and flat.fullmatch(text):
        words = {w.strip() for w in text.split("|")}
        if EPS_TOKEN in words and _eps_is_keyword(alphabet.letters):
            words.remove(EPS_TOKEN)
            words.add("")
        return Language(alphabet, words=frozenset(words))

    try:
        return _ExprParser(text, alphabet).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
