"""Spans around every call into codekit, installed from outside.

``Tracer.install`` replaces each public function of the eight layer
modules, in every codekit namespace that binds it, by a wrapper that
records a span: id, parent id, name, start, end and whether it raised.
Calls between codekit modules go through those bindings, so internal
calls are traced too.  Spans stay in memory until ``write``.  Counts
come from arguments and return values only.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import types
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli", "channel", "closed", "independence",
    "analysis", "transducers", "automata", "words",
)
_TRACEABLE = (types.FunctionType, functools._lru_cache_wrapper)
SP = "analysis.sardinas_patterson"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, raised)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[tuple] = []  # (id, parent, name, start)
        self._next_id = 0
        self._built: set = set()
        self._undo: list[tuple] = []

    # --- recording -----------------------------------------------------------

    def _begin(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((self._next_id, parent, name, perf_counter()))
        self._next_id += 1

    def _end(self, raised: bool) -> None:
        end = perf_counter()
        sid, parent, name, start = self._stack.pop()
        self.spans.append((sid, parent, name, start, end, raised))

    def _count(self, name: str, args, kwargs, result) -> None:
        """Counters read off one call's arguments and return value."""
        c = self.counts
        if name == "transducers.image_word":
            c["transducers.image_word.out_words"] += len(result)
        elif name == SP:
            lang = args[0] if args else kwargs["x_lang"]
            c[SP + ".finite_calls"] += lang.is_finite_repr
            c[SP + ".not_code"] += not result.is_code
            if self._stack and self._stack[-1][2].startswith("closed."):
                c["closed.candidates"] += 1
                c["closed.codes"] += result.is_code
        elif name == "automata.determinize":
            c["automata.determinize.states"] += result.n
        elif name == "automata.minimize":
            c["automata.minimize.states_out"] += result.n
        elif name == "transducers.build":
            key = (args, tuple(sorted(kwargs.items())))
            c["transducers.build.cache_hits"] += key in self._built
            self._built.add(key)

    def wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def stepped(*args, **kwargs):
                self.calls[name] += 1
                inner = fn(*args, **kwargs)
                while True:
                    self._begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._end(False)
                        return
                    except BaseException:
                        self._end(True)
                        raise
                    self._end(False)
                    yield item

            return stepped

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            self._begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._end(True)
                raise
            self._end(False)
            self._count(name, args, kwargs, result)
            return result

        return traced

    # --- installing ----------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "codekit" or n.startswith("codekit.")]
        layer_modules = {f"codekit.{layer}" for layer in LAYERS}
        wrappers = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not (isinstance(obj, _TRACEABLE)
                        and obj.__module__ in layer_modules
                        and not obj.__name__.startswith("_")):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.split(".")[1]
                    wrappers[id(obj)] = self.wrap(obj, f"{layer}.{obj.__name__}")
                self._undo.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        alphabet = sys.modules["codekit.words"].Alphabet
        check_word = alphabet.check_word

        def counted(alpha, w):
            self.counts["words.check_word.calls"] += 1
            return check_word(alpha, w)

        self._undo.append((alphabet, "check_word", check_word))
        alphabet.check_word = counted

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, start, end, raised in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                      "start": start, "end": end, "raised": raised}))
                out.write("\n")


# --- analysis ----------------------------------------------------------------

def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Calls are synchronous and single-threaded, so the children of one
    span never overlap and their durations simply add up.
    """
    covered = defaultdict(float)
    for sid, parent, _, start, end, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _, _, start, end, _ in spans}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer and function-level metrics of one traced run."""
    own = self_times(tracer.spans)
    fn_self = Counter()
    raised = Counter()
    names = {}
    for sid, _, name, _, _, failed in tracer.spans:
        fn_self[name] += own[sid]
        raised[name] += failed
        names[sid] = name
    out: dict[str, float] = {}
    for layer in LAYERS:
        mine = [n for n in set(fn_self) | set(tracer.calls) if n.startswith(layer + ".")]
        out[f"{layer}.self_s"] = sum(fn_self[n] for n in mine)
        out[f"{layer}.calls"] = sum(tracer.calls[n] for n in mine)
        out[f"{layer}.errors"] = sum(raised[n] for n in mine)
    for name in (
        "transducers.image_word", "words.sort_words", "channel.corrupt",
        "channel.decode", SP, "closed.enumerate_delta_closed",
        "words.subsequences", "automata.determinize", "automata.minimize",
        "automata.intersect", "automata.left_quotient",
        "automata.compile_expression", "transducers.image",
        "independence.is_independent", "independence.is_error_correcting",
        "analysis.is_complete", "cli.main", "cli.build_parser",
    ):
        out[f"{name}.self_s"] = fn_self[name]
    for name in ("transducers.image_word", "channel.decode", SP):
        out[f"{name}.calls"] = tracer.calls[name]
    c = tracer.counts
    for name in (
        "transducers.image_word.out_words", SP + ".finite_calls",
        "closed.candidates", "words.check_word.calls",
        "automata.determinize.states", "automata.minimize.states_out",
        "transducers.build.cache_hits",
    ):
        out[name] = c[name]
    calls = tracer.calls[SP]
    out[SP + ".not_code_share"] = c[SP + ".not_code"] / calls if calls else 0.0
    out["closed.useful_ratio"] = (
        c["closed.codes"] / c["closed.candidates"] if c["closed.candidates"] else 0.0
    )
    # candidates per second of time spent inside the outermost closed spans
    outer = sum(end - start for sid, parent, name, start, end, _ in tracer.spans
                if name.startswith("closed.")
                and not names.get(parent, "").startswith("closed."))
    out["closed.candidates_per_s"] = c["closed.candidates"] / outer if outer else 0.0
    return out
