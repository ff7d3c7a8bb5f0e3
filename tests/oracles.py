"""Brute-force reference implementations used to cross-check the library.

Everything here is written from the definitions, by enumeration,
breadth-first search or textbook dynamic programming, deliberately
sharing no code with the package.  The automaton references read the
package's automata, but only through their plain step and table (the
subset DFA of ``reference_determinize``), and wrap results in its
``Nfa`` and ``Language`` containers.  ``Dfa``, the total table the
references build, is theirs alone: the package keeps one table per
set, ``Language.trim()``.  Moore's loop,
``reference_minimize``, builds the minimal table that the package
never needs, against which its answers on the subset table are
checked.
"""

from __future__ import annotations

import itertools
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def brute_subsequences(w, m):
    """Length-m scattered subwords via explicit index subsets."""
    return frozenset(
        "".join(w[i] for i in combo) for combo in itertools.combinations(range(len(w)), m)
    )


def brute_factors(w):
    return frozenset(w[i:j] for i in range(len(w) + 1) for j in range(i, len(w) + 1))


def subsequences(w, m):
    """All scattered subwords of w having length exactly m.

    Built positionally with one set per target length, so duplicated
    letters collapse instead of multiplying the work.
    """
    n = len(w)
    if m < 0 or m > n:
        return frozenset()
    if m == n:
        return frozenset((w,))
    # sets[j] holds the length-j subsequences of the prefix scanned so far
    sets = [set() for _ in range(m + 1)]
    sets[0].add("")
    for c in w:
        for j in range(m - 1, -1, -1):
            if sets[j]:
                sets[j + 1].update(s + c for s in sets[j])
    return frozenset(sets[m])


def hamming(u, v):
    """Positions where u and v differ, or None when lengths differ."""
    if len(u) != len(v):
        return None
    return sum(1 for a, b in zip(u, v) if a != b)


def levenshtein(u, v):
    """Minimum number of single-letter insertions, deletions and
    substitutions turning u into v."""
    if len(u) < len(v):
        u, v = v, u
    prev = list(range(len(v) + 1))
    for i, a in enumerate(u, start=1):
        cur = [i]
        for j, b in enumerate(v, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (a != b)))
        prev = cur
    return prev[len(v)]


def _lcs_length(u, v):
    if len(u) < len(v):
        u, v = v, u
    prev = [0] * (len(v) + 1)
    for a in u:
        cur = [0]
        for j, b in enumerate(v, start=1):
            cur.append(prev[j - 1] + 1 if a == b else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(v)]


def indel_distance(u, v):
    """Minimum number of insertions and deletions only (no substitutions)
    turning u into v; equals |u| + |v| - 2 * lcs(u, v)."""
    return len(u) + len(v) - 2 * _lcs_length(u, v)


def xor_add(u, v, alphabet):
    """Letterwise sum over a binary alphabet read as GF(2)."""
    if len(alphabet.letters) != 2:
        raise ValueError("operation requires a binary alphabet")
    if len(u) != len(v):
        raise ValueError("xor_add needs words of equal length")
    zero, one = alphabet.letters
    if not set(u + v) <= {zero, one}:
        raise ValueError("xor_add needs words over the alphabet")
    return "".join(one if a != b else zero for a, b in zip(u, v))


class EditOracle:
    """Single-edit neighbourhoods over one alphabet, with caching.

    The caches make exhaustive sweeps affordable: intermediate layers of
    different start words overlap heavily, so each word's neighbourhood
    is computed once.
    """

    def __init__(self, letters):
        self.letters = tuple(letters)
        self._del = {}
        self._ins = {}
        self._sub = {}

    def one_deletions(self, w):
        out = self._del.get(w)
        if out is None:
            out = tuple({w[:i] + w[i + 1 :] for i in range(len(w))})
            self._del[w] = out
        return out

    def one_insertions(self, w):
        out = self._ins.get(w)
        if out is None:
            out = tuple(
                {w[:i] + c + w[i:] for i in range(len(w) + 1) for c in self.letters}
            )
            self._ins[w] = out
        return out

    def one_substitutions(self, w):
        out = self._sub.get(w)
        if out is None:
            acc = set()
            for i, a in enumerate(w):
                for c in self.letters:
                    if c != a:
                        acc.add(w[:i] + c + w[i + 1 :])
            out = tuple(acc)
            self._sub[w] = out
        return out

    def delta_exact(self, w, k):
        """Delete exactly k letters: k rounds of single deletions."""
        layer = {w}
        for _ in range(k):
            nxt = set()
            for v in layer:
                nxt.update(self.one_deletions(v))
            layer = nxt
        return frozenset(layer) - ({w} if k == 0 else set())

    def iota_exact(self, w, k):
        layer = {w}
        for _ in range(k):
            nxt = set()
            for v in layer:
                nxt.update(self.one_insertions(v))
            layer = nxt
        return frozenset(layer)

    def sigma_exact(self, w, k):
        """Words agreeing with w except on exactly k positions."""
        out = set()
        others = {a: tuple(c for c in self.letters if c != a) for a in self.letters}
        for positions in itertools.combinations(range(len(w)), k):
            choices = [others[w[i]] for i in positions]
            for repl in itertools.product(*choices):
                chars = list(w)
                for i, c in zip(positions, repl):
                    chars[i] = c
                out.add("".join(chars))
        return frozenset(out)

    def union_family(self, w, k, exact):
        out = set()
        for i in range(1, k + 1):
            out.update(exact(w, i))
        return frozenset(out)

    def _bfs_rounds(self, w, k, steps):
        """Union of rounds 1..k of the given single-step generators."""
        layer = {w}
        seen_rounds = []
        for _ in range(k):
            nxt = set()
            for v in layer:
                for step in steps:
                    nxt.update(step(v))
            seen_rounds.append(frozenset(nxt))
            layer = nxt
        out = set()
        for r in seen_rounds:
            out |= r
        return frozenset(out), seen_rounds

    def s_family(self, w, k):
        out, _ = self._bfs_rounds(w, k, (self.one_deletions, self.one_insertions))
        return out

    def lambda_family(self, w, k):
        out, _ = self._bfs_rounds(
            w, k, (self.one_deletions, self.one_insertions, self.one_substitutions)
        )
        return out

    def s_rounds(self, w, k):
        return self._bfs_rounds(w, k, (self.one_deletions, self.one_insertions))[1]

    def lambda_rounds(self, w, k):
        return self._bfs_rounds(
            w, k, (self.one_deletions, self.one_insertions, self.one_substitutions)
        )[1]

    def image(self, w, kind, k):
        if kind == "delta":
            return self.delta_exact(w, k)
        if kind == "iota":
            return self.iota_exact(w, k)
        if kind == "sigma":
            return self.sigma_exact(w, k)
        if kind == "Delta":
            return self.union_family(w, k, self.delta_exact)
        if kind == "I":
            return self.union_family(w, k, self.iota_exact)
        if kind == "Sigma":
            return self.union_family(w, k, self.sigma_exact)
        if kind == "S":
            return self.s_family(w, k)
        if kind == "Lambda":
            return self.lambda_family(w, k)
        raise ValueError(kind)

    def bfs_distance(self, u, v, with_subs, limit=12):
        """Edit distance by breadth-first search over single edits."""
        if u == v:
            return 0
        steps = [self.one_deletions, self.one_insertions]
        if with_subs:
            steps.append(self.one_substitutions)
        layer = {u}
        seen = {u}
        for d in range(1, limit + 1):
            nxt = set()
            for w in layer:
                for step in steps:
                    nxt.update(step(w))
            if v in nxt:
                return d
            nxt -= seen
            seen |= nxt
            layer = nxt
        return None


def count_factorizations(w, codewords):
    """Number of ways to write w as a concatenation of codewords."""
    words = [x for x in codewords if x]

    @lru_cache(maxsize=None)
    def count(suffix):
        if not suffix:
            return 1
        total = 0
        for x in words:
            if suffix.startswith(x):
                total += count(suffix[len(x) :])
        return total

    return count(w)


def dangling_suffixes(codewords):
    """Sardinas & Patterson's dangling suffixes, by their rounds.

    The first round holds y[|x|:] for distinct codewords with x a prefix
    of y; each next round holds the leftovers u of x = d.u and d = x.u
    for codewords x and members d of the last round.  Returns the union
    of the rounds, which holds the empty word exactly when the set is
    not a code.
    """
    words = set(codewords)

    def quotients(shorter, longer):
        return {y[len(x) :] for x in shorter for y in longer if y.startswith(x)}

    rounds = {y[len(x) :] for x in words for y in words if x != y and y.startswith(x)}
    seen = set()
    while not rounds <= seen:
        seen |= rounds
        rounds = quotients(words, rounds) | quotients(rounds, words)
    return seen


def double_factorization_witness(codewords, letters, max_len):
    """Shortest word admitting two factorizations, scanning all words."""
    for n in range(1, max_len + 1):
        for tup in itertools.product(letters, repeat=n):
            w = "".join(tup)
            if count_factorizations(w, frozenset(codewords)) >= 2:
                return w
    return None


# --- automata -----------------------------------------------------------------


@dataclass(frozen=True)
class Dfa:
    """Total deterministic automaton; state 0 is initial.

    rows[q][i] is the successor of q under letter number i.
    """

    alphabet: object
    rows: tuple
    accepting: frozenset

    @property
    def n(self):
        return len(self.rows)

    def to_nfa(self):
        # imported here so that merely importing this module loads no codekit
        from codekit.automata import Nfa

        arcs = {
            q: {c: frozenset((r,)) for c, r in zip(self.alphabet.letters, row)}
            for q, row in enumerate(self.rows)
        }
        return Nfa(self.alphabet, self.n, (0,), self.accepting, arcs)


@contextmanager
def subset_table_builds():
    """Within the block, record each subset table the package fills: a
    run of ``automata._subsets`` handed a table, which only
    ``Language.trim`` of a set held as an automaton does.  Yields the
    list of the automata so determinized."""
    # imported here: the benchmark's reference checker imports this
    # module, and unittest.mock is a heavy import
    from unittest.mock import patch

    from codekit import automata

    builds = []
    subsets = automata._subsets

    def spy(nfa, rows=None):
        if rows is not None:
            builds.append(nfa)
        return subsets(nfa, rows)

    with patch.object(automata, "_subsets", spy):
        yield builds


def is_universal(lang):
    """Every word is a member: no state of the subset DFA rejects."""
    dfa = reference_determinize(lang.nfa())
    return all(q in dfa.accepting for q in range(dfa.n))


def _live_states(dfa):
    """States of a DFA reached from state 0 that reach an accepting state."""
    reached = {0}
    stack = [0]
    while stack:
        for r in dfa.rows[stack.pop()]:
            if r not in reached:
                reached.add(r)
                stack.append(r)
    live = set(dfa.accepting)
    grew = True
    while grew:
        grew = False
        for q, row in enumerate(dfa.rows):
            if q not in live and any(r in live for r in row):
                live.add(q)
                grew = True
    return live & reached


def reference_trim(x_lang):
    """Trim deterministic automaton for X with initial state 0, for
    ``Language.trim``: the trie of a finite set, built word by word,
    else the subset DFA with every arc into a dead state cut.

    Returns (rows, finals): rows[q][i] is the successor of q under
    letter number i, or -1 where no member of X continues.
    """
    alphabet = x_lang.alphabet
    if x_lang.is_finite_repr:
        width = len(alphabet.letters)
        index = {c: i for i, c in enumerate(alphabet.letters)}
        rows = [[-1] * width]
        finals = set()
        for w in x_lang.words():
            q = 0
            for c in w:
                row, i = rows[q], index[c]
                q = row[i]
                if q < 0:
                    q = row[i] = len(rows)
                    rows.append([-1] * width)
            finals.add(q)
        return rows, finals
    return _trim_table(reference_determinize(x_lang.nfa()))


def _trim_table(dfa):
    live = _live_states(dfa)
    rows = [[r if r in live else -1 for r in row] for row in dfa.rows]
    return rows, dfa.accepting & live


def reference_minimize(dfa):
    """Minimal DFA with canonical breadth-first state numbering, by
    Moore's refinement: split the classes by (class, successor classes)
    until no class splits, then number the classes breadth-first from
    the initial one, letters in alphabet order.  One round per state on
    a long cycle, so only for small tables."""
    n = dfa.n
    cls = [1 if q in dfa.accepting else 0 for q in range(n)]
    while True:
        sigs = {}
        new_cls = [0] * n
        for q in range(n):
            sig = (cls[q], tuple(cls[r] for r in dfa.rows[q]))
            if sig not in sigs:
                sigs[sig] = len(sigs)
            new_cls[q] = sigs[sig]
        if new_cls == cls:
            break
        cls = new_cls
    reps = {}
    for q in range(n):
        reps.setdefault(cls[q], q)
    order = [cls[0]]
    number = {cls[0]: 0}
    rows = []
    for c in order:
        row = []
        for r in dfa.rows[reps[c]]:
            d = cls[r]
            if d not in number:
                number[d] = len(order)
                order.append(d)
            row.append(number[d])
        rows.append(tuple(row))
    accepting = frozenset(number[c] for c in order if reps[c] in dfa.accepting)
    return Dfa(dfa.alphabet, tuple(rows), accepting)


def canonical_dfa(lang):
    """The minimal DFA of a language, breadth-first numbered, so equal
    exactly for equal languages: Moore's loop on the table of
    ``reference_trim`` made total by one dead state."""
    rows, finals = reference_trim(lang)
    dead = len(rows)
    total = [tuple(r if r >= 0 else dead for r in row) for row in rows]
    total.append((dead,) * len(lang.alphabet.letters))
    return reference_minimize(Dfa(lang.alphabet, tuple(total), frozenset(finals)))


def minimal_trim(x_lang):
    """The trim table of the minimal DFA for X, in the form of
    ``reference_trim``.  Reads no ``Language.trim``, so it can stand in
    for it."""
    return _trim_table(canonical_dfa(x_lang))


def reference_to_finite(x_lang):
    """The members of X, or None when there are infinitely many, for
    ``Language.to_finite``: Kahn's topological order of X's trim table
    (``reference_trim``), which a cycle never enters, then prefixes
    pushed along the order."""
    rows, finals = reference_trim(x_lang)
    indeg = [0] * len(rows)
    for row in rows:
        for r in row:
            if r >= 0:
                indeg[r] += 1
    order = [q for q, d in enumerate(indeg) if d == 0]
    for q in order:
        for r in rows[q]:
            if r >= 0:
                indeg[r] -= 1
                if indeg[r] == 0:
                    order.append(r)
    if len(order) < len(rows):
        return None
    prefixes = [set() for _ in rows]
    prefixes[0].add("")
    out = set()
    for q in order:
        if q in finals:
            out |= prefixes[q]
        for c, r in zip(x_lang.alphabet.letters, rows[q]):
            if r >= 0:
                prefixes[r].update(w + c for w in prefixes[q])
    return frozenset(out)


def reference_measure_partial(x_lang, dist, max_len):
    """Measure of X's members of length at most max_len, for
    ``analysis.measure_partial``: one pass over the reference trim table
    (``reference_trim``) a length at a time, in ``Fraction`` weights."""
    rows, finals = reference_trim(x_lang)
    weights = {0: Fraction(1)}
    total = Fraction(1 if 0 in finals else 0)
    for _ in range(max_len):
        nxt = {}
        for q, wq in weights.items():
            for r, p in zip(rows[q], dist.probs):
                if r >= 0:
                    nxt[r] = nxt.get(r, 0) + wq * p
        if not nxt:
            break
        weights = nxt
        total += sum((wq for q, wq in weights.items() if q in finals), Fraction(0))
    return total


def reference_determinize(nfa):
    """Subset construction one ``Nfa.step`` at a time, for the subset
    table of ``Language.trim``.

    Breadth-first from the closed start set, letters in alphabet order,
    subsets numbered as they are first reached; no state cap.
    """
    start = nfa.eps_closure(nfa.initial)
    index = {start: 0}
    order = [start]
    rows = []
    for subset in order:
        row = []
        for c in nfa.alphabet:
            nxt = nfa.step(subset, c)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        rows.append(tuple(row))
    accepting = frozenset(i for i, s in enumerate(order) if s & nfa.accepting)
    return Dfa(nfa.alphabet, tuple(rows), accepting)


def reference_product(a, b, keep):
    """Pair product of the subset DFAs of two languages, for
    ``least_member``.

    Breadth-first from the pair of initial states, letters in alphabet
    order; a pair accepts when keep(in A, in B).  No state cap.
    """
    from codekit.automata import Language

    da, db = reference_determinize(a.nfa()), reference_determinize(b.nfa())
    index = {(0, 0): 0}
    order = [(0, 0)]
    rows = []
    for p, q in order:
        row = []
        for li in range(len(da.alphabet.letters)):
            pair = (da.rows[p][li], db.rows[q][li])
            if pair not in index:
                index[pair] = len(order)
                order.append(pair)
            row.append(index[pair])
        rows.append(tuple(row))
    accepting = frozenset(
        i for i, (p, q) in enumerate(order) if keep(p in da.accepting, q in db.accepting)
    )
    return Language.regular(Dfa(da.alphabet, tuple(rows), accepting).to_nfa())


def reference_left_quotient(u_lang, x_lang, exclude_epsilon=False):
    """Words w with uw in X for some u in U, for ``left_quotient``.

    A depth-first search over pairs (subset of U's automaton, state of
    X's DFA) read on the same words, one ``Nfa.step`` at a time; the X
    states met beside a final state of U start the quotient.
    """
    from codekit.automata import Language, Nfa

    dx = reference_determinize(x_lang.nfa())
    nu = u_lang.nfa()
    start = (nu.eps_closure(nu.initial), 0)
    seen = {start}
    stack = [start]
    starts = set()
    while stack:
        su, q = stack.pop()
        if su & nu.accepting:
            starts.add(q)
        for li, c in enumerate(dx.alphabet):
            nxt = (nu.step(su, c), dx.rows[q][li])
            if nxt[0] and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    base = dx.to_nfa()
    out = Language.regular(
        Nfa(base.alphabet, base.n, frozenset(starts), base.accepting, base.arcs)
    )
    if exclude_epsilon:
        empty_word = Language.finite({""}, x_lang.alphabet)
        out = reference_product(out, empty_word, lambda p, q: p and not q)
    return out


def reference_shortest_word(lang):
    """Length-lex least member by breadth-first search on the subset
    DFA, letters in alphabet order; None when the language is empty."""
    dfa = reference_determinize(lang.nfa())
    if 0 in dfa.accepting:
        return ""
    seen = {0}
    frontier = [(0, "")]
    while frontier:
        nxt = []
        for q, w in frontier:
            for li, c in enumerate(dfa.alphabet):
                r = dfa.rows[q][li]
                if r in seen:
                    continue
                if r in dfa.accepting:
                    return w + c
                seen.add(r)
                nxt.append((r, w + c))
        frontier = nxt
    return None


def reference_prefix_pair(words, letters):
    """A codeword x and a longer codeword xu, by enumeration, for
    ``analysis._prefix_pair``: u is the length-lex least nonempty tail
    y[i:] of a codeword y whose prefix y[:i] is a codeword, and x the
    least codeword that u extends into the set."""
    key = _lenlex(letters)
    u = min((y[i:] for y in words for i in range(len(y)) if y[:i] in words), key=key)
    x = min((x for x in words if x + u in words), key=key)
    return x, x + u


def forward_prefix_pair(x_lang):
    """The prefix pair of ``analysis._prefix_pair`` by its earlier
    forward walk on the reference trim table: u is the least nonempty
    word from a final state to a final state, and x is found by a
    breadth-first walk from the initial state over every state, until
    the first state from which u leads to a final state.  None for a
    prefix code."""
    rows, finals = reference_trim(x_lang)
    letters = x_lang.alphabet.letters

    def least(sources, targets):
        seen = {-1, *sources}
        queue = [("", list(sources))]
        for word, group in queue:
            for i, c in enumerate(letters):
                fresh = []
                for q in group:
                    r = rows[q][i]
                    if r in targets:
                        return word + c
                    if r not in seen:
                        seen.add(r)
                        fresh.append(r)
                if fresh:
                    queue.append((word + c, fresh))
        return None

    def run(q, w):
        for c in w:
            q = rows[q][letters.index(c)]
            if q < 0:
                return q
        return q

    tail = least(finals, finals)
    if tail is None:
        return None
    holders = {p for p in finals if run(p, tail) in finals}
    head = "" if 0 in holders else least({0}, holders)
    return head, head + tail


_INVERSE_KIND = {"delta": "iota", "iota": "delta", "Delta": "I", "I": "Delta"}


def reference_least_source(kind, k, lang, y):
    """Length-lex least member x of the language whose image under the
    plain relation kind:k holds y, or None: spell the inverse image of y
    and test each of its words for membership, as
    ``transducers._least_source`` did before it searched the image
    automaton."""
    back = EditOracle(lang.alphabet.letters).image(y, _INVERSE_KIND.get(kind, kind), k)
    hits = [x for x in back if lang.member(x)]
    return min(hits, key=_lenlex(lang.alphabet.letters), default=None)


def reference_error_correcting(x_lang, spec):
    """``independence.is_error_correcting`` as a pair loop, as it was
    before it read the inverted image table: every member's image, then
    the pairs (x, y) in length-lex member order, and the length-lex
    least common word of the first pair whose images meet.  Takes a
    finite set."""
    # imported here so that merely importing this module loads no codekit
    from codekit.independence import ErrorCorrectionReport
    from codekit.transducers import relation_image_word
    from codekit.words import sort_words

    alphabet = x_lang.alphabet
    members = sort_words(x_lang.words(), alphabet)
    images = {x: relation_image_word(spec, alphabet, x) for x in members}
    for i, x in enumerate(members):
        for y in members[i + 1 :]:
            common = images[x] & images[y]
            if common:
                return ErrorCorrectionReport(
                    False, (x, y, min(common, key=alphabet.lex_key))
                )
    return ErrorCorrectionReport(True, None)


# --- completion ---------------------------------------------------------------


def leaf_split_code(rng, letters, n):
    """A complete prefix code of at least n words, by random leaf splits;
    over ab it is ``bench/workloads.random_prefix_code``."""
    leaves = [""]
    while len(leaves) < n:
        w = leaves.pop(rng.randrange(len(leaves)))
        leaves += [w + c for c in letters]
    return leaves


def reference_least_unbordered_non_factor(v, star_factors):
    """Length-lex least nonempty unbordered word outside ``star_factors``,
    by one member test per word, as ``independence.er_complete`` found it
    before it walked the trim table.
    v, the least word outside it, bounds the search both ways: every
    shorter word is a factor, and v padded to an unbordered word is not."""
    from codekit.words import is_unbordered, unbordered_extension

    alphabet = star_factors.alphabet
    bound = len(v) + len(unbordered_extension(v, alphabet)) + 1
    for n in range(len(v), bound + 1):
        for w in alphabet.words_of_length(n):
            if is_unbordered(w) and not star_factors.member(w):
                return w
    raise AssertionError("unbordered non-factor search failed")


# --- channel ------------------------------------------------------------------


def _lenlex(letters):
    rank = {c: i for i, c in enumerate(letters)}
    return lambda w: (len(w), [rank[c] for c in w])


def reference_corrupt(blocks, kind, k, letters, p, rng):
    """The received word of each block, drawing from ``rng`` as the channel does.

    One ``random()`` per block; on a hit, one ``randrange`` over the
    block's image minus itself in length-lex order, if that is not empty.
    """
    oracle = EditOracle(letters)
    out = []
    for x in blocks:
        received = x
        if rng.random() < p:
            choices = sorted(oracle.image(x, kind, k) - {x}, key=_lenlex(letters))
            if choices:
                received = choices[rng.randrange(len(choices))]
        out.append(received)
    return out


def reference_decode(received, codewords, kind, k, letters):
    """``(verdict, decoded, candidates)`` for each received word.

    ``codewords`` is in canonical order; a candidate is a codeword whose
    image contains the received word.
    """
    oracle = EditOracle(letters)
    out = []
    for r in received:
        if r in codewords:
            out.append(("exact", r, (r,)))
            continue
        candidates = tuple(x for x in codewords if r in oracle.image(x, kind, k))
        if len(candidates) == 1:
            out.append(("corrected", candidates[0], candidates))
        elif candidates:
            out.append(("ambiguous", None, candidates))
        else:
            out.append(("detected", None, ()))
    return out


def reference_experiment(config):
    """``run_experiment`` replayed block by block with fresh oracle images.

    Takes the same draws: a 64-bit seed per trial from the experiment
    seed; per trial, one symbol per block, then a 64-bit channel seed.
    Images come from :class:`EditOracle` for every block, with no
    tables kept between blocks or trials.  The code must be given as a
    finite set of words.
    """
    # The report type is the one thing taken from the package, so that
    # the two results compare equal; it is imported here so that merely
    # importing this module still loads nothing of codekit.
    from codekit.channel import ExperimentReport

    letters = config.code.alphabet.letters
    codewords = sorted(config.code.words(), key=_lenlex(letters))
    kind, k = config.spec.kind, config.spec.k
    master = random.Random(config.seed)
    trial_seeds = [master.getrandbits(64) for _ in range(config.trials)]
    totals = dict.fromkeys(
        ("blocks", "corrupted", "exact", "corrected", "ambiguous", "detected",
         "miscorrected", "restored_messages"),
        0,
    )
    for trial_seed in trial_seeds:
        rng = random.Random(trial_seed)
        sent = [
            codewords[rng.randrange(len(codewords))]
            for _ in range(config.message_length)
        ]
        channel = random.Random(rng.getrandbits(64))
        restored = True
        for x in sent:
            (r,) = reference_corrupt([x], kind, k, letters, config.p, channel)
            ((verdict, decoded, _),) = reference_decode([r], codewords, kind, k, letters)
            totals["blocks"] += 1
            totals["corrupted"] += r != x
            totals[verdict] += 1
            totals["miscorrected"] += verdict == "corrected" and decoded != x
            restored = restored and decoded == x
        totals["restored_messages"] += restored
    return ExperimentReport(config_seed=config.seed, trials=config.trials, **totals)


# --- closed-family search -------------------------------------------------------


def reference_code_search(base, units, alphabet, budget):
    """The closed-family walk as a plain scan, for ``closed._code_search``.

    Pre-order over base | u_i | u_j | ... with i < j: at each level every
    later unit ``(words, latest, needs)`` is tested, joins when the set
    holds all of ``needs()`` (``latest`` is not read), spends one budget
    unit when it joins, and the joined set is yielded and extended when
    ``sardinas_patterson`` calls it a code.  ``needs()`` is a pure
    function of its unit, so it is evaluated once per unit, before the
    walk.  Takes the same arguments as the search it checks.
    """
    # imported here so that merely importing this module loads no codekit
    from codekit.analysis import sardinas_patterson
    from codekit.automata import Language

    needed = [needs() for _, _, needs in units]

    def walk(current, start):
        for i in range(start, len(units)):
            if not needed[i] <= current:
                continue
            candidate = current.union(units[i][0])
            budget.spend()
            if sardinas_patterson(Language.finite(candidate, alphabet)).is_code:
                yield candidate
                yield from walk(candidate, i + 1)

    return walk(base, 0)
