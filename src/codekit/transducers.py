"""Transducers realizing the edit relations.

Machines are in normal form: each arc reads a letter or epsilon and
writes a letter or epsilon, never epsilon on both sides, and an arc
reading epsilon moves to a higher state.  A relation with k defects is
a chain of k + 1 states with identity loops, joined by deletion
(a:eps), insertion (eps:a) or substitution (a:b) arcs; the cumulative
families accept after any positive number of defects.  Machines realize
the plain relation only: the reflexive and antireflexive closures are
applied to the images they produce.

``image`` runs a machine on a language through the product automaton
and returns that automaton, for a finite language too: with m machine
states, the pair of language state p and machine state q is state
p * m + q.  The subset construction's state cap,
``automata.DEFAULT_STATE_CAP``, is read when a machine or a product is
built, and either is refused before any arc is built when its states,
every pair for a product, exceed it.
``image_word`` runs it on one word by a single pass over the grid of
positions in the word times machine states; the normal form leaves
that grid without a cycle, so every word has a finite image, of at
most ``image_size_bound`` words, which a caller reads before spelling
it.  Both read the arc index each machine builds once.  The least
member of a set in the image of one word, a least source say, is a
least-word search on that word's image automaton: the image is never
spelled.
``relation_image_word`` applies a closure to one word's image; the
table that spells and inverts the images of finitely many sources,
read by the channel and by error correction, is
``channel._ChannelTable``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

from . import automata
from .automata import EPS, Language, Nfa, least_member, union as lang_union
from .errors import BudgetExceededError, ParseError
from .words import Alphabet

KINDS = ("delta", "iota", "sigma", "Delta", "I", "Sigma", "S", "Lambda")
CLOSURES = ("plain", "reflexive", "antireflexive")

_CLOSURE_SUFFIX = {"reflexive": "hat", "antireflexive": "bar"}
_SUFFIX_CLOSURE = {"hat": "reflexive", "bar": "antireflexive"}


@dataclass(frozen=True)
class EditRelationSpec:
    """Which edit relation: kind, defect count k, and closure flavour."""

    kind: str
    k: int
    closure: str = "plain"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParseError(f"unknown relation kind {self.kind!r}")
        if self.k < 1:
            raise ParseError("relation parameter k must be at least 1")
        if self.closure not in CLOSURES:
            raise ParseError(f"unknown closure {self.closure!r}")

    @staticmethod
    def parse(text: str) -> "EditRelationSpec":
        parts = text.strip().split(":")
        if len(parts) not in (2, 3):
            raise ParseError(f"relation spec {text!r} is not kind:k[:hat|bar]")
        kind = parts[0]
        try:
            k = int(parts[1])
        except ValueError:
            raise ParseError(f"relation parameter {parts[1]!r} is not an integer") from None
        closure = "plain"
        if len(parts) == 3:
            if parts[2] not in _SUFFIX_CLOSURE:
                raise ParseError(f"closure suffix {parts[2]!r} is not hat or bar")
            closure = _SUFFIX_CLOSURE[parts[2]]
        return EditRelationSpec(kind, k, closure)

    def render(self) -> str:
        base = f"{self.kind}:{self.k}"
        if self.closure == "plain":
            return base
        return f"{base}:{_CLOSURE_SUFFIX[self.closure]}"

    def with_closure(self, closure: str) -> "EditRelationSpec":
        return EditRelationSpec(self.kind, self.k, closure)

    @property
    def is_antireflexive_already(self) -> bool:
        """True when the plain relation never relates a word to itself."""
        if self.kind in ("S", "Lambda"):
            return self.k == 1
        return True


def inverse_spec(spec: EditRelationSpec) -> EditRelationSpec:
    swap = {"delta": "iota", "iota": "delta", "Delta": "I", "I": "Delta"}
    return EditRelationSpec(swap.get(spec.kind, spec.kind), spec.k, spec.closure)


@dataclass(frozen=True)
class Transducer:
    """Normal-form transducer; arcs are (src, read, write, dst)."""

    alphabet: Alphabet
    n: int
    initial: frozenset[int]
    accepting: frozenset[int]
    arcs: tuple[tuple[int, str, str, int], ...]

    def __post_init__(self):
        for src, x, y, dst in self.arcs:
            if x == EPS and y == EPS:
                raise ValueError("normal form forbids eps:eps arcs")
            if x == EPS and dst <= src:
                raise ValueError("an arc reading epsilon must move to a higher state")

    @cached_property
    def moves(self) -> dict[tuple[int, str], list[tuple[str, int]]]:
        """Arc index: (state, letter read or eps) -> [(written, target)]."""
        out: dict[tuple[int, str], list[tuple[str, int]]] = {}
        for src, x, y, dst in self.arcs:
            out.setdefault((src, x), []).append((y, dst))
        return out


_DEFECTS = {
    "delta": ("del",),
    "iota": ("ins",),
    "sigma": ("sub",),
    "Delta": ("del",),
    "I": ("ins",),
    "Sigma": ("sub",),
    "S": ("del", "ins"),
    "Lambda": ("del", "ins", "sub"),
}

_CUMULATIVE = {"Delta", "I", "Sigma", "S", "Lambda"}


@lru_cache(maxsize=None)
def build(spec: EditRelationSpec, alphabet: Alphabet) -> Transducer:
    """Chain machine for the requested relation.

    States 0..k count defects so far, with identity loops everywhere.
    The cumulative families accept at every positive count.  For S and
    Lambda with k >= 2 an isolated accepting start state is added: it
    contributes the pair (eps, eps), which the relation contains (one
    insertion undone by one deletion) but which no one-pass chain can
    produce from empty input.  A machine of more states than
    ``automata.DEFAULT_STATE_CAP`` raises before any arc is built.
    """
    if spec.closure != "plain":
        raise ValueError("closures are applied downstream, not in machines")
    k = spec.k
    silent = spec.kind in ("S", "Lambda") and k >= 2
    cap = automata.DEFAULT_STATE_CAP
    if k + 1 + silent > cap:
        raise BudgetExceededError(f"relation machine exceeded {cap} states", budget=cap)
    defects = _DEFECTS[spec.kind]
    arcs = [(j, c, c, j) for j in range(k + 1) for c in alphabet]
    for j in range(k):
        if "del" in defects:
            arcs += [(j, c, EPS, j + 1) for c in alphabet]
        if "ins" in defects:
            arcs += [(j, EPS, c, j + 1) for c in alphabet]
        if "sub" in defects:
            arcs += [(j, a, b, j + 1) for a in alphabet for b in alphabet if a != b]
    if spec.kind in _CUMULATIVE:
        accepting = set(range(1, k + 1))
    else:
        accepting = {k}
    initial = {0}
    n = k + 1
    if silent:
        initial.add(n)
        accepting.add(n)
        n += 1
    return Transducer(alphabet, n, frozenset(initial), frozenset(accepting), tuple(arcs))


def image(t: Transducer, lang: Language) -> Language:
    """Apply the relation to every member of the language.

    The result is the product automaton, its pair (p, q) numbered
    p * m + q for m machine states; its unreachable pairs are never
    entered by the subset construction.  A product of more than
    ``automata.DEFAULT_STATE_CAP`` pairs raises before any arc is built,
    as a relation machine does.  A caller that needs the image's words
    calls ``words()``.
    """
    nfa = lang.nfa()
    m = t.n
    cap = automata.DEFAULT_STATE_CAP
    if nfa.n * m > cap:
        raise BudgetExceededError(f"transducer image exceeded {cap} states", budget=cap)
    moves = t.moves
    arcs: dict[int, dict[str, set[int]]] = {}
    for p, by in nfa.arcs.items():
        for x, dsts in by.items():
            for q in range(m):
                # the automaton's empty moves leave the machine where it is
                for y, q2 in moves.get((q, x), ()) if x else [(EPS, q)]:
                    row = arcs.setdefault(p * m + q, {})
                    row.setdefault(y, set()).update([p2 * m + q2 for p2 in dsts])
    silent = [(q, y, q2) for (q, x), outs in moves.items() if x == EPS for y, q2 in outs]
    for p in range(nfa.n):
        for q, y, q2 in silent:
            arcs.setdefault(p * m + q, {}).setdefault(y, set()).add(p * m + q2)
    frozen = {s: {lbl: frozenset(d) for lbl, d in by.items()} for s, by in arcs.items()}
    initial = [p * m + q for p in nfa.initial for q in t.initial]
    accepting = [p * m + q for p in nfa.accepting for q in t.accepting]
    return Language.regular(Nfa(nfa.alphabet, nfa.n * m, initial, accepting, frozen))


def image_word(t: Transducer, w: str) -> frozenset[str]:
    """Image of a single word.

    One forward pass over the grid of cells (position in w, machine
    state), each holding the outputs written on the way to it.  An arc
    reading a letter moves to the next position and one reading epsilon
    to a higher state (``Transducer`` rejects any other), so the grid has
    no cycle and (position, state) order is topological: a cell is
    complete when the pass reaches it.  Only two positions are held.
    """
    t.alphabet.check_word(w)
    moves = t.moves
    states = range(t.n)
    nxt: list[set[str]] = [{""} if q in t.initial else set() for q in states]
    for c in [*w, None]:
        cur, nxt = nxt, [set() for _ in states]
        for q, outs in enumerate(cur):
            if outs:
                for x, cells in ((EPS, cur), (c, nxt)):
                    for y, q2 in moves.get((q, x), ()):
                        cells[q2].update([s + y for s in outs] if y else outs)
    return frozenset().union(*[cur[q] for q in t.accepting])


def image_size_bound(spec: EditRelationSpec, letters: int, n: int) -> int:
    """A bound on the size of a length-n word's plain image over
    ``letters`` letters: its machine's accepting paths, counted in O(1).
    A path takes its j defects at nondecreasing positions 0..n, in
    C(n + j, j) ways, each defect one of c arcs, c = 1 for a deletion,
    plus ``letters`` for an insertion and ``letters`` - 1 for a
    substitution, as the kind allows.  That count grows with j, so a
    cumulative kind, with any j from 1 to k, has at most k times the
    count for j = k; the silent start state of S and Lambda adds one."""
    k = spec.k
    defects = _DEFECTS[spec.kind]
    c = ("del" in defects) + ("ins" in defects) * letters + ("sub" in defects) * (letters - 1)
    paths = comb(n + k, k) * c**k * (k if spec.kind in _CUMULATIVE else 1)
    return paths + (spec.kind in ("S", "Lambda") and k >= 2)


def relation_image_word(spec: EditRelationSpec, alphabet: Alphabet, w: str) -> frozenset[str]:
    """Image of one word under the relation with its closure applied."""
    t = build(spec.with_closure("plain"), alphabet)
    base = image_word(t, w)
    if spec.closure == "reflexive":
        return base | {w}
    if spec.closure == "antireflexive":
        return base - {w}
    return base


def _least_hit(t: Transducer, w: str, lang: Language) -> str | None:
    """Length-lex least member of the language in the image of one word,
    or None, read off the word's image automaton."""
    return least_member(image(t, Language.finite((w,), t.alphabet)), lang, True)


def _least_source(spec: EditRelationSpec, lang: Language, y: str) -> str | None:
    """Length-lex least member of the language whose plain image holds y."""
    back = build(inverse_spec(spec.with_closure("plain")), lang.alphabet)
    return _least_hit(back, y, lang)


def relation_image(spec: EditRelationSpec, alphabet: Alphabet, lang: Language) -> Language:
    """Image of a language, honouring the closure flavour.

    The antireflexive restriction of S_k and Lambda_k with k >= 2 is
    only expressible pointwise, so it needs a finite input.
    """
    plain = spec.with_closure("plain")
    if spec.closure == "plain":
        return image(build(plain, alphabet), lang)
    if spec.closure == "reflexive":
        return lang_union(lang, image(build(plain, alphabet), lang))
    if spec.is_antireflexive_already:
        return image(build(plain, alphabet), lang)
    if lang.to_finite() is None:
        raise ValueError(
            f"antireflexive image under {spec.render()} needs a finite language"
        )
    out: set[str] = set()
    for x in lang.words():
        out |= relation_image_word(spec, alphabet, x)
    return Language.finite(out, alphabet)
