"""Independence, error correction and maximality under an edit channel.

A set is independent of a relation when no member maps to another
member; for reflexive relations the comparison always uses the
antireflexive restriction.  Three regimes on infinite regular inputs
are open problems and surface as UnsupportedError: independence for
S_k and Lambda_k with k >= 2 (Q1), error correction (Q2), and
code-ness of the antireflexive image in the same S/Lambda regime (Q3).
A finite set, whatever its form, is read member by member, and a
dependent set gives one witness: the least member x whose image meets
X, then x's least hit; an infinite set finds x in the image of X under
the inverse relation.  Error correction reads the channel's image
table, ``channel._ChannelTable``, over the members in length-lex
order: every image is spelled once, and the words two images share are
found by set operations.  Completeness, its witnesses and the code precondition live
in ``analysis``, from which ``er_complete`` takes the trim table of
factors(X*) and its unbordered walk.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import (
    CodeVerdict,
    _code_star_factors,
    _least_non_factor,
    _least_unbordered_exit,
    _require_code,
    is_code,
    is_complete,
    sardinas_patterson,
    verify_double_factorization,
)
from .automata import (
    Language,
    complement,
    concat,
    least_member,
    nfa_universal,
    star,
    union,
)
from .channel import _ChannelTable
from .errors import PreconditionError, UnsupportedError
from .transducers import (
    EditRelationSpec,
    _least_hit,
    build,
    inverse_spec,
    relation_image,
    relation_image_word,
)
from .words import sort_words, unbordered_extension


@dataclass(frozen=True)
class IndependenceReport:
    independent: bool
    witness: tuple[str, str] | None  # (x, y) with y in the image of x, both members


@dataclass(frozen=True)
class ErrorCorrectionReport:
    correcting: bool
    witness: tuple[str, str, str] | None  # (x, y, common corrupted word)


def is_independent(x_lang: Language, spec: EditRelationSpec) -> IndependenceReport:
    """Decide whether the antireflexive relation maps no member to
    another member."""
    alphabet = x_lang.alphabet
    bar = spec.with_closure("antireflexive")
    if x_lang.to_finite() is not None:
        members = x_lang.words()
        for x in sort_words(members, alphabet):
            hits = relation_image_word(bar, alphabet, x) & members
            if hits:
                y = min(hits, key=alphabet.lex_key)
                return IndependenceReport(False, (x, y))
        return IndependenceReport(True, None)
    if not spec.is_antireflexive_already:
        raise UnsupportedError(
            "Q1", f"independence of an infinite regular set under {spec.render()}"
        )
    x = least_member(relation_image(inverse_spec(bar), alphabet, x_lang), x_lang, True)
    if x is None:
        return IndependenceReport(True, None)
    y = _least_hit(build(spec.with_closure("plain"), alphabet), x, x_lang)
    return IndependenceReport(False, (x, y))


def is_error_correcting(
    x_lang: Language, spec: EditRelationSpec
) -> ErrorCorrectionReport:
    """No corrupted block can have come from two different codewords.

    Read off one ``channel._ChannelTable`` over the members in
    length-lex order.  The witness is the first colliding pair (x, y)
    and their least common word z.  x is the first member whose image
    meets ``shared``, the words two images hold, since the other holder
    of such a word comes after x; y is the first other member whose
    image meets x's shared words; z is the least word of both images.
    """
    if x_lang.to_finite() is None:
        raise UnsupportedError(
            "Q2", f"error correction of an infinite regular set under {spec.render()}"
        )
    alphabet = x_lang.alphabet
    members = sort_words(x_lang.words(), alphabet)
    table = _ChannelTable(spec, alphabet, members)
    image, shared = table.image, table.shared
    x = next((x for x in members if not shared.isdisjoint(image(x))), None)
    if x is None:
        return ErrorCorrectionReport(True, None)
    common = image(x) & shared
    y = next(y for y in members if y != x and not common.isdisjoint(image(y)))
    z = min(common & image(y), key=alphabet.lex_key)
    return ErrorCorrectionReport(False, (x, y, z))


def hat_image_is_code(x_lang: Language, spec: EditRelationSpec) -> CodeVerdict:
    """Code-ness of the reflexive image X union tau(X)."""
    img = relation_image(
        spec.with_closure("reflexive"), x_lang.alphabet, x_lang
    )
    return sardinas_patterson(img)


def underline_image_is_code(x_lang: Language, spec: EditRelationSpec) -> CodeVerdict:
    """Code-ness of the antireflexive image."""
    if not spec.is_antireflexive_already and x_lang.to_finite() is None:
        raise UnsupportedError(
            "Q3", f"antireflexive image of an infinite regular set under {spec.render()}"
        )
    img = relation_image(spec.with_closure("antireflexive"), x_lang.alphabet, x_lang)
    return sardinas_patterson(img)


def _require_independent_code(x_lang: Language, spec: EditRelationSpec) -> None:
    _require_code(x_lang)
    if not is_independent(x_lang, spec).independent:
        raise PreconditionError(
            f"precondition failed: input is not independent under {spec.render()}"
        )


def is_maximal_independent(x_lang: Language, spec: EditRelationSpec) -> bool:
    """Within the family of independent codes, maximal iff complete."""
    _require_independent_code(x_lang, spec)
    return is_complete(x_lang, known_code=True)


def witness_independent_extension(x_lang: Language, spec: EditRelationSpec) -> str:
    """A word enlarging a non-complete independent code.

    Takes a word v no product of codewords contains, pumps it k+1 times
    so that k defects always leave one copy intact, and pads to an
    unbordered word.  The result is verified before being returned.
    """
    alphabet = x_lang.alphabet
    _require_independent_code(x_lang, spec)
    v = _least_non_factor(x_lang, known_code=True)
    if v is None:
        raise PreconditionError("precondition failed: input is already complete")
    base = v * (spec.k + 1)
    w = base + unbordered_extension(base, alphabet)
    extended = union(x_lang, Language.finite((w,), alphabet))
    # X lies in the extension, so its independence covers the hits of w
    ok = is_independent(extended, spec).independent and is_code(extended)
    if x_lang.member(w) or not ok:
        raise RuntimeError("internal: constructed extension failed verification")
    return w


def er_complete(x_lang: Language) -> Language:
    """Embed a non-complete code into a complete one (Ehrenfeucht &
    Rozenberg 1986): with w the least unbordered non-factor of X*, read
    off the trim table of F = factors(X*) by
    ``analysis._least_unbordered_exit``, and U the words avoiding both X*
    and w, X union w(Uw)* is a complete code containing X."""
    alphabet = x_lang.alphabet
    f = _code_star_factors(x_lang)
    w = None if f is None else _least_unbordered_exit(f.trim()[0], alphabet)
    if w is None:
        raise PreconditionError("precondition failed: input is already complete")
    universe = Language.regular(nfa_universal(alphabet))
    w_lang = Language.finite((w,), alphabet)
    surrounded = concat(universe, w_lang, universe)
    u_lang = complement(union(star(x_lang), surrounded))
    y_lang = union(x_lang, concat(w_lang, star(concat(u_lang, w_lang))))
    if not is_code(y_lang) or not is_complete(y_lang, known_code=True):
        raise RuntimeError("internal: completion failed verification")
    return y_lang


@dataclass(frozen=True)
class ConstraintStatus:
    status: str  # holds | fails | unsupported
    witness: object = None
    question: str | None = None


@dataclass(frozen=True)
class ChannelCheckReport:
    independent: ConstraintStatus
    error_correcting: ConstraintStatus
    maximal_independent: ConstraintStatus
    hat_image_code: ConstraintStatus
    underline_image_code: ConstraintStatus


def check_constraints(x_lang: Language, spec: EditRelationSpec) -> ChannelCheckReport:
    """Evaluate the channel-facing constraints in one sweep.  A report's
    witness is None exactly when its property holds; maximality, a bool,
    has none."""

    def guard(decide):
        try:
            report = decide(x_lang, spec)
        except UnsupportedError as e:
            return ConstraintStatus("unsupported", question=e.question)
        except PreconditionError as e:
            return ConstraintStatus("fails", witness=str(e))
        if isinstance(report, bool):
            return ConstraintStatus("holds" if report else "fails")
        holds = report.witness is None
        return ConstraintStatus("holds" if holds else "fails", witness=report.witness)

    return ChannelCheckReport(
        independent=guard(is_independent),
        error_correcting=guard(is_error_correcting),
        maximal_independent=guard(is_maximal_independent),
        hat_image_code=guard(hat_image_is_code),
        underline_image_code=guard(underline_image_is_code),
    )


__all__ = [
    "IndependenceReport",
    "ErrorCorrectionReport",
    "ConstraintStatus",
    "ChannelCheckReport",
    "is_independent",
    "is_error_correcting",
    "hat_image_is_code",
    "underline_image_is_code",
    "is_maximal_independent",
    "witness_independent_extension",
    "er_complete",
    "check_constraints",
    "verify_double_factorization",
]
