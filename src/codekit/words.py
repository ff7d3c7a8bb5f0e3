"""Words over a finite ordered alphabet.

Words are plain Python strings whose characters all belong to an
:class:`Alphabet`.  The empty word is ``""`` and is rendered as ``eps``
in textual output.  All orderings used by the package are length-lex:
shorter words first, ties broken by the declared letter order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .errors import BudgetExceededError, ParseError, UsageError

EPS_TOKEN = "eps"


class _LetterOrder(dict):
    """Letter code point -> ``chr(rank)``, a ``str.translate`` table.

    A letter outside the alphabet raises :class:`UsageError`, which
    ``str.translate`` passes on: it is a ValueError, not a LookupError.
    """

    def __missing__(self, code):
        raise UsageError(
            f"letter {chr(code)!r} not in alphabet {''.join(map(chr, self))}"
        )


@dataclass(frozen=True)
class Alphabet:
    """An ordered set of single-character letters.

    The declaration order is significant: it fixes the length-lex order
    and therefore every witness and tie-break the package produces.
    """

    letters: tuple[str, ...]
    _order: _LetterOrder = field(init=False, repr=False, compare=False)
    _natural: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        if len(self.letters) < 2:
            raise UsageError("alphabet needs at least two letters")
        if len(set(self.letters)) != len(self.letters):
            raise UsageError("alphabet letters must be distinct")
        for c in self.letters:
            if len(c) != 1:
                raise UsageError(f"letters are single characters, got {c!r}")
        order = _LetterOrder({ord(c): chr(i) for i, c in enumerate(self.letters)})
        object.__setattr__(self, "_order", order)
        # letters declared in code-point order: plain string order is lex order
        object.__setattr__(self, "_natural", list(self.letters) == sorted(self.letters))

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __contains__(self, c):
        return c in self.letters

    def check_word(self, w: str) -> str:
        w.translate(self._order)  # a letter outside raises UsageError
        return w

    def lex_key(self, w: str):
        """Sort key realizing the length-lex order: the length, then w
        with each letter replaced by ``chr`` of its rank, so that plain
        string order is the declared letter order."""
        return (len(w), w.translate(self._order))

    def words_of_length(self, n: int):
        """Yield every word of length n in lex order."""
        for tup in itertools.product(self.letters, repeat=n):
            yield "".join(tup)

    def words_upto(self, n: int):
        """Yield every word of length at most n in length-lex order."""
        for length in range(n + 1):
            yield from self.words_of_length(length)

    @property
    def is_binary(self) -> bool:
        return len(self.letters) == 2


def format_word(w: str) -> str:
    return w if w else EPS_TOKEN


def parse_word(text: str, alphabet: Alphabet) -> str:
    text = text.strip()
    if text == EPS_TOKEN:
        return ""
    return alphabet.check_word(text)


def parse_alphabet(text: str) -> Alphabet:
    text = text.strip()
    if not text:
        raise ParseError("empty alphabet declaration")
    return Alphabet(tuple(text))


def is_unbordered(w: str) -> bool:
    """True when no proper nonempty prefix of w is also a suffix.

    Unbordered words overlap no shifted copy of themselves, which is the
    property the completion constructions rely on.
    """
    if not w:
        raise ValueError("borders are undefined for the empty word")
    return all(w[:k] != w[-k:] for k in range(1, len(w)))


def unbordered_extension(w: str, alphabet: Alphabet) -> str:
    """Shortest u (ties by letter order) such that w + u is unbordered.

    The search never needs to look beyond |u| = |w| + 2; hitting that cap
    means the input was malformed, so it raises rather than loop on.
    """
    if not w:
        raise ValueError("borders are undefined for the empty word")
    alphabet.check_word(w)
    cap = len(w) + 2
    for u in alphabet.words_upto(cap):
        if is_unbordered(w + u):
            return u
    raise BudgetExceededError(
        f"no unbordered extension of {w!r} within length {cap}", budget=cap
    )


def _require_binary(alphabet: Alphabet):
    if not alphabet.is_binary:
        raise ValueError("operation requires a binary alphabet")


def complement_word(w: str, alphabet: Alphabet) -> str:
    """Flip every letter of a binary word."""
    _require_binary(alphabet)
    zero, one = alphabet.letters
    alphabet.check_word(w)
    return "".join(one if c == zero else zero for c in w)


def parity_ones(w: str, alphabet: Alphabet) -> str:
    """Parity ("even" or "odd") of the number of second-letter occurrences."""
    _require_binary(alphabet)
    alphabet.check_word(w)
    ones = sum(1 for c in w if c == alphabet.letters[1])
    return "even" if ones % 2 == 0 else "odd"


def sort_words(words, alphabet: Alphabet) -> list[str]:
    """Sort an iterable of words in length-lex order.

    On an alphabet declared in code-point order that is two sorts with
    no Python key, plain and then stable by length, after one check of
    every letter; other letter orders sort by ``Alphabet.lex_key``.
    """
    if not alphabet._natural:
        return sorted(words, key=alphabet.lex_key)
    out = list(words)
    alphabet.check_word("".join(out))
    out.sort()
    out.sort(key=len)
    return out
