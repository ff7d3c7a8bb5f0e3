"""Brute-force reference implementations used to cross-check the library.

Everything here is written from the definitions, by enumeration or
breadth-first search, deliberately sharing no code with the package.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache


def brute_subsequences(w, m):
    """Length-m scattered subwords via explicit index subsets."""
    return frozenset(
        "".join(w[i] for i in combo) for combo in itertools.combinations(range(len(w)), m)
    )


def brute_factors(w):
    return frozenset(w[i:j] for i in range(len(w) + 1) for j in range(i, len(w) + 1))


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
    later unit ``(words, needs)`` is tested, joins when the set holds all
    of ``needs``, spends one budget unit when it joins, and the joined
    set is yielded and extended when ``sardinas_patterson`` calls it a
    code.  Takes the same arguments as the search it checks.
    """
    # imported here so that merely importing this module loads no codekit
    from codekit.analysis import sardinas_patterson
    from codekit.automata import Language

    def walk(current, start):
        for i in range(start, len(units)):
            words, needs = units[i]
            if not needs <= current:
                continue
            candidate = current.union(words)
            budget.spend()
            if sardinas_patterson(Language.finite(candidate, alphabet)).is_code:
                yield candidate
                yield from walk(candidate, i + 1)

    return walk(base, 0)
