"""Block transmission through an edit channel.

Messages are encoded as sequences of codewords.  Each block passes
through the channel independently and is corrupted, with a configured
probability, into a word related to it by the channel relation.  The
decoder sees one block at a time and never has to resynchronize, so
every outcome is a per-block verdict: delivered exactly, corrected to
the unique candidate, flagged with several candidates, or flagged with
none.

The image of each codeword under the relation is computed once per
experiment (or once per call of :func:`corrupt` and :func:`decode`), and
every block is corrupted and decoded by lookups into it.  The decoder
reads the inverted table of ``transducers.image_table``, received word
to the codewords that could have sent it; error correction
(``independence.is_error_correcting``) reads the same table.  One
routine draws each block's received word and one table method gives
its verdict; :func:`corrupt` and :func:`decode` wrap their results in
:class:`Block` and :class:`BlockOutcome`, while :func:`run_experiment`
only counts them.  :func:`run_experiment` simulates any finite set as
given and checks neither code-ness nor independence; :func:`decode`
warns when either fails, and ``codekit code`` and ``codekit
independent`` decide them.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .analysis import is_code
from .automata import Language
from .errors import UsageError
from .transducers import EditRelationSpec, image_table, relation_image_word
from .words import sort_words


_VERDICTS = ("exact", "corrected", "ambiguous", "detected")


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


@dataclass(frozen=True)
class ExperimentConfig:
    code: Language
    spec: EditRelationSpec
    p: float
    message_length: int
    trials: int
    seed: int

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise UsageError("corruption probability must lie in [0, 1]")
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
    """Everything a channel experiment needs from the relation, computed once.

    Read off ``transducers.image_table`` under the antireflexive closure,
    each source's plain image minus the word itself.  ``choices[x]`` is
    the image of x in length-lex order, the list a corruption draws
    from.  ``candidates`` is the inverted table: it maps every word some
    source's image contains to those sources, in the order given, which
    is canonical codeword order when the sources are the codewords.
    When they are, the sources are independent exactly when none of
    them is a key of ``candidates``.
    """

    def __init__(self, sources, spec: EditRelationSpec, alphabet):
        bar = spec.with_closure("antireflexive")
        images, self.candidates = image_table(bar, alphabet, sources)
        self.members = frozenset(images)
        self.choices = {x: sort_words(im, alphabet) for x, im in images.items()}

    def verdict(self, r: str) -> tuple[str, str | None, tuple[str, ...]]:
        """``(kind, decoded, candidates)`` of the received word r."""
        if r in self.members:
            return "exact", r, (r,)
        candidates = self.candidates.get(r, ())
        if len(candidates) == 1:
            return "corrected", candidates[0], candidates
        if candidates:
            return "ambiguous", None, candidates
        return "detected", None, ()


def _received_words(
    choices: dict[str, list[str]], blocks: list[str], p: float, rng: random.Random
):
    """Yield the received word of each block, drawing from ``rng``.

    One ``random()`` per block; on a hit, one ``randrange`` over the
    block's choices, unless they are empty and the block passes through.
    """
    draw, pick = rng.random, rng.randrange
    for sent in blocks:
        if draw() < p:
            image = choices[sent]
            if image:
                yield image[pick(len(image))]
                continue
        yield sent


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
    draw sequence is fully determined by the seed.  Each distinct
    block's image is spelled once; no inverted table is built.
    """
    bar = spec.with_closure("antireflexive")
    choices = {
        x: sort_words(relation_image_word(bar, alphabet, x), alphabet)
        for x in set(blocks)
    }
    received = _received_words(choices, blocks, p, random.Random(seed))
    return list(map(Block, blocks, received))


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
    table = _ChannelTable(codewords, spec, x_lang.alphabet)
    if not is_code(x_lang):
        warnings.warn("decoding over a set that is not a code", stacklevel=2)
    elif any(x in table.candidates for x in codewords):
        warnings.warn(
            f"decoding over a code that is not independent under {spec.render()}",
            stacklevel=2,
        )
    outcomes = tuple(BlockOutcome(r, *table.verdict(r)) for r in received)
    counts = dict.fromkeys(_VERDICTS, 0)
    for outcome in outcomes:
        counts[outcome.kind] += 1
    return DecodeReport(outcomes=outcomes, **counts)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Repeated random transmissions with per-seed reproducibility.

    Draws the same blocks and corruptions as encode, corrupt and decode
    called once per trial, but computes the relation's images once for
    the whole experiment.  Each block is drawn, looked up in the table
    and counted; no per-block object is built.  It checks neither
    code-ness nor independence.
    """
    codewords = _codewords(config.code)
    if not codewords:
        raise UsageError("cannot transmit over an empty code")
    table = _ChannelTable(codewords, config.spec, config.code.alphabet)
    verdict = table.verdict
    master = random.Random(config.seed)
    trial_seeds = [master.getrandbits(64) for _ in range(config.trials)]
    kinds = dict.fromkeys(_VERDICTS, 0)
    corrupted = miscorrected = restored_messages = 0
    for trial_seed in trial_seeds:
        rng = random.Random(trial_seed)
        sent = [
            codewords[rng.randrange(len(codewords))]
            for _ in range(config.message_length)
        ]
        received = _received_words(
            table.choices, sent, config.p, random.Random(rng.getrandbits(64))
        )
        restored = True
        for x, r in zip(sent, received):
            kind, decoded, _ = verdict(r)
            kinds[kind] += 1
            corrupted += r != x
            if decoded != x:
                restored = False
                miscorrected += kind == "corrected"
        restored_messages += restored
    return ExperimentReport(
        config_seed=config.seed,
        trials=config.trials,
        blocks=config.trials * config.message_length,
        corrupted=corrupted,
        **kinds,
        miscorrected=miscorrected,
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
