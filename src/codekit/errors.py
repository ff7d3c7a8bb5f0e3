"""Shared exception types.

Every failure mode that the command line maps to a dedicated exit status
has its own class here, so library callers can catch them selectively.
"""


class CodekitError(Exception):
    """Base class for all library errors."""


class ParseError(CodekitError):
    """Malformed expression, relation spec, or language file."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class UnsupportedError(CodekitError):
    """Input combination whose decidability is an open problem.

    `question` identifies which open problem blocks the computation
    (Q1: independence for S_k / Lambda_k with k >= 2 on infinite
    regular sets; Q2: error correction on infinite regular sets;
    Q3: code-ness of the antireflexive image in the same regime).
    """

    def __init__(self, question, message):
        self.question = question
        super().__init__(f"unsupported ({question}): {message}")


class BudgetExceededError(CodekitError):
    """A configured resource cap (states, candidates, search length) was hit."""

    def __init__(self, message, budget=None, observed=None):
        self.budget = budget
        self.observed = observed
        super().__init__(message)


class UsageError(CodekitError, ValueError):
    """Input a user gave outside what a routine accepts: an alphabet or
    a letter, a negative limit or length, a defect count below 1,
    letter probabilities, channel parameters, or an infinite or empty
    set where a finite nonempty one is needed.

    It is a ValueError too, as these checks raised one before it had a
    type of its own.
    """


class PreconditionError(CodekitError, ValueError):
    """An input outside a routine's domain: not a code, not closed or
    independent as required, or already complete.

    It is a ValueError too, as those routines documented before it had
    a type of its own.
    """
