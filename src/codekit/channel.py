"""Block transmission through an edit channel.

Messages are encoded as sequences of codewords.  Each block passes
through the channel independently and is corrupted, with a configured
probability, into a word related to it by the channel relation.  The
decoder sees one block at a time and never has to resynchronize, so
every outcome is a per-block verdict: delivered exactly, corrected to
the unique candidate, flagged with several candidates, or flagged with
none.

One table, filled on first use, holds what is read of a relation over
finitely many sources: each word's image, spelled once when first
read; that image in length-lex order, sorted on the first corrupted
draw from the word; each received word's holders, the sources whose
image holds it, found once per distinct word; and the words that two
sources' images share.  The channel reads it under the antireflexive
closure; error correction (``independence.is_error_correcting``) reads
it over a set's members, with the closure as given, and finds its
witness among the shared words.  Neither :func:`corrupt` nor
:func:`run_experiment` reads the table before its first hit, so a
noiseless run spells nothing.  The one draw rule: a block is hit when
``random() < p``, and a hit is replaced by a uniform draw from its
ranked image when that image is not empty.  A uniform draw below n is
the least-bits rejection draw over ``getrandbits`` (:func:`_below`):
draw n.bit_length() bits until they read less than n.  It is the draw
that ``Random.choice`` and ``Random.randrange`` make on CPython 3.10
to 3.13, so a seed gives the blocks they would.  :func:`corrupt` and
:func:`decode` wrap their results in :class:`Block` and
:class:`BlockOutcome`; :func:`run_experiment` draws inline and only
counts outcomes.  :func:`run_experiment` simulates any finite set as
given and checks neither code-ness nor independence; :func:`decode`
warns when either fails, and ``codekit code`` and ``codekit
independent`` decide them.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .analysis import is_code
from .automata import Language
from .errors import UsageError
from .transducers import EditRelationSpec, relation_image_word
from .words import sort_words


_VERDICTS = ("exact", "corrected", "ambiguous", "detected")
# The outcome numbers of a corrupted block in an experiment.  It lies in
# the image of the word sent, so that word is one of its holders: unless
# it is another codeword, received exactly (slipped), it is corrected
# back to the word sent (restored) when no other codeword holds it and
# is ambiguous otherwise.  An experiment's decoder never detects nor
# miscorrects a block.
_RESTORED, _SLIPPED, _AMBIGUOUS = range(3)


@dataclass(frozen=True)
class Block:
    sent: str
    received: str

    @property
    def corrupted(self) -> bool:
        return self.sent != self.received


@dataclass(frozen=True)
class BlockOutcome:
    received: str
    kind: str  # exact | corrected | ambiguous | detected
    decoded: str | None
    candidates: tuple[str, ...]


@dataclass(frozen=True)
class DecodeReport:
    outcomes: tuple[BlockOutcome, ...]
    exact: int
    corrected: int
    ambiguous: int
    detected: int


def _check_probability(p: float) -> None:
    if not 0 <= p <= 1:
        raise UsageError("corruption probability must lie in [0, 1]")


def _check_seed(seed: int) -> None:
    # Random(-s) seeds as Random(s) would, so a negative seed is refused
    # rather than silently run as its absolute value
    if seed < 0:
        raise UsageError(f"seed must be at least 0, got {seed}")


@dataclass(frozen=True)
class ExperimentConfig:
    code: Language
    spec: EditRelationSpec
    p: float
    message_length: int
    trials: int
    seed: int

    def __post_init__(self):
        _check_probability(self.p)
        _check_seed(self.seed)
        if self.message_length < 1:
            raise UsageError("message length must be positive")
        if self.trials < 1:
            raise UsageError("trial count must be positive")


@dataclass(frozen=True)
class ExperimentReport:
    config_seed: int
    trials: int
    blocks: int
    corrupted: int
    exact: int
    corrected: int
    ambiguous: int
    detected: int
    miscorrected: int
    restored_messages: int

    @property
    def correction_rate(self) -> Fraction:
        """Corrupted blocks decoded back to the word actually sent."""
        if self.corrupted == 0:
            return Fraction(1)
        return Fraction(self.corrected - self.miscorrected, self.corrupted)

    @property
    def ambiguity_rate(self) -> Fraction:
        if self.corrupted == 0:
            return Fraction(0)
        return Fraction(self.ambiguous, self.corrupted)

    @property
    def detection_rate(self) -> Fraction:
        """Corrupted blocks that did not slip through as clean codewords."""
        if self.corrupted == 0:
            return Fraction(1)
        slipped = self.corrupted - self.ambiguous - self.detected - self.corrected
        return Fraction(self.corrupted - slipped, self.corrupted)

    @property
    def exact_rate(self) -> Fraction:
        if self.blocks == 0:
            return Fraction(1)
        return Fraction(self.exact, self.blocks)


def _codewords(x_lang: Language) -> list[str]:
    if x_lang.to_finite() is None:
        raise UsageError(
            "an infinite code cannot drive the simulator; truncate it first"
        )
    return sort_words(x_lang.words(), x_lang.alphabet)


def encode(message: list[int], x_lang: Language) -> list[str]:
    """Map symbol indices to codewords in canonical order."""
    codewords = _codewords(x_lang)
    blocks = []
    for index in message:
        if not 0 <= index < len(codewords):
            raise ValueError(
                f"symbol {index} outside the code of size {len(codewords)}"
            )
        blocks.append(codewords[index])
    return blocks


class _ChannelTable:
    """A relation's images over finitely many sources, each filled on first use.

    The relation comes with its closure applied: the channel passes the
    antireflexive one, so a corrupted block always differs from the word
    sent.  ``image(x)`` is spelled once per word.  ``ranked(x)`` is that
    image in length-lex order, the list a corruption draws from, sorted
    on the first corrupted draw from x.  ``holders(y)`` is the tuple of
    sources whose image holds y, in the order given, found once per
    distinct word.  ``shared`` is the set of words that two or more
    sources' images hold, found by set operations over every image.
    """

    def __init__(self, spec: EditRelationSpec, alphabet, sources=()):
        self.sources = sources = tuple(sources)
        self.image = image = cache(lambda x: relation_image_word(spec, alphabet, x))
        self.ranked = cache(lambda x: sort_words(image(x), alphabet))
        self.holders = cache(lambda y: tuple(x for x in sources if y in image(x)))

    @cached_property
    def shared(self) -> set[str]:
        """The words that two or more sources' images hold."""
        seen: set[str] = set()
        shared: set[str] = set()
        for x in self.sources:
            image = self.image(x)
            shared |= seen & image
            seen |= image
        return shared


def _below(bits, n: int) -> int:
    """A uniform draw from range(n), n >= 1, by ``bits``, a ``getrandbits``.

    Draws n.bit_length() bits and draws again while they read n or
    more (the bitmask method with rejection; Lemire, *ACM TOMACS* 2019,
    compares it with faster ones that draw differently).  It consumes
    the generator exactly as ``Random.randrange(n)`` does.
    """
    w = n.bit_length()
    r = bits(w)
    while r >= n:
        r = bits(w)
    return r


def corrupt(
    blocks: list[str],
    spec: EditRelationSpec,
    alphabet,
    p: float,
    seed: int,
) -> list[Block]:
    """Independently corrupt each block inside the channel relation.

    A hit replaces the block by a uniform draw from its antireflexive
    image; blocks whose image is empty pass through untouched.  The
    draw sequence is fully determined by the seed.  A block's image is
    spelled on its first hit; no holder is looked up.
    """
    _check_probability(p)
    _check_seed(seed)
    table = _ChannelTable(spec.with_closure("antireflexive"), alphabet)
    rng = random.Random(seed)
    chance, bits = rng.random, rng.getrandbits
    out = []
    for x in blocks:
        r = x
        if chance() < p:
            image = table.ranked(x)
            if image:
                r = image[_below(bits, len(image))]
        out.append(Block(x, r))
    return out


def decode(
    received: list[str], x_lang: Language, spec: EditRelationSpec
) -> DecodeReport:
    """Per-block decoding under the reflexive channel relation.

    A received word inside the code is delivered as is.  Anything else
    is matched against the codewords whose image contains it: exactly
    one match corrects the block, several leave it ambiguous, none
    leaves it merely detected.  Warns when the set is not a code, or
    is a code that is not independent under the relation: some
    codeword lies in another's image.
    """
    codewords = _codewords(x_lang)
    bar = spec.with_closure("antireflexive")
    table = _ChannelTable(bar, x_lang.alphabet, codewords)
    if not is_code(x_lang):
        warnings.warn("decoding over a set that is not a code", stacklevel=2)
    elif any(map(table.holders, codewords)):
        warnings.warn(
            f"decoding over a code that is not independent under {spec.render()}",
            stacklevel=2,
        )
    members = set(codewords)
    counts = dict.fromkeys(_VERDICTS, 0)
    outcomes = []
    for r in received:
        if r in members:
            kind, decoded, candidates = "exact", r, (r,)
        else:
            candidates = table.holders(r)
            if len(candidates) == 1:
                kind, decoded = "corrected", candidates[0]
            else:
                kind, decoded = "ambiguous" if candidates else "detected", None
        counts[kind] += 1
        outcomes.append(BlockOutcome(r, kind, decoded, candidates))
    return DecodeReport(outcomes=tuple(outcomes), **counts)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Repeated random transmissions with per-seed reproducibility.

    Draws the same blocks and corruptions as encode, corrupt and decode
    called once per trial, from one table for the whole experiment.
    A hit draws from the sent codeword's row of outcome numbers, one
    per word of its ranked image and filled on its first hit, so the
    index drawn is the one ``corrupt`` draws, and adds one to that
    outcome's tally.  A block that is not hit, or whose image is empty,
    is counted by subtraction.  No per-block object is built, and each
    draw is :func:`_below` written out in the loop, over a bound and a
    bit width found once.  It checks neither code-ness nor independence.
    """
    codewords = _codewords(config.code)
    if not codewords:
        raise UsageError("cannot transmit over an empty code")
    bar = config.spec.with_closure("antireflexive")
    table = _ChannelTable(bar, config.code.alphabet, codewords)
    members, p = set(codewords), config.p
    n = len(codewords)
    w = n.bit_length()
    # rows[i] holds the outcome number of each word of table.ranked(x),
    # received when x = codewords[i] was sent, with the row's length and
    # bit width, once x has been hit
    rows: list[tuple[list[int], int, int] | None] = [None] * n
    tally = [0, 0, 0]  # hits by outcome number
    master = random.Random(config.seed)
    trial_seeds = [master.getrandbits(64) for _ in range(config.trials)]
    restored_messages = 0
    for trial_seed in trial_seeds:
        rng = random.Random(trial_seed)
        bits = rng.getrandbits
        sent = []  # the message, as codeword numbers
        for _ in range(config.message_length):
            r = bits(w)
            while r >= n:
                r = bits(w)
            sent.append(r)
        channel = random.Random(rng.getrandbits(64))
        chance, bits = channel.random, channel.getrandbits
        failed = tally[_SLIPPED] + tally[_AMBIGUOUS]
        for i in sent:
            if chance() < p:
                entry = rows[i]
                if entry is None:
                    shared = table.shared
                    row = [
                        _SLIPPED if y in members
                        else _AMBIGUOUS if y in shared
                        else _RESTORED
                        for y in table.ranked(codewords[i])
                    ]
                    entry = rows[i] = row, len(row), len(row).bit_length()
                row, m, v = entry
                if m:
                    r = bits(v)
                    while r >= m:
                        r = bits(v)
                    tally[row[r]] += 1
        restored_messages += tally[_SLIPPED] + tally[_AMBIGUOUS] == failed
    corrupted = sum(tally)
    blocks = config.trials * config.message_length
    return ExperimentReport(
        config_seed=config.seed,
        trials=config.trials,
        blocks=blocks,
        corrupted=corrupted,
        exact=blocks - corrupted + tally[_SLIPPED],
        corrected=tally[_RESTORED],
        ambiguous=tally[_AMBIGUOUS],
        detected=0,
        miscorrected=0,
        restored_messages=restored_messages,
    )


__all__ = [
    "Block",
    "BlockOutcome",
    "DecodeReport",
    "ExperimentConfig",
    "ExperimentReport",
    "encode",
    "corrupt",
    "decode",
    "run_experiment",
]
