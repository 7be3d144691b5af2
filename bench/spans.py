"""Spans around kwl's layer boundaries, recorded from outside the package.

A Tracer replaces kwl functions by timing wrappers.  It replaces every
binding of the same function object in every loaded kwl module, so a name
that one module imports from another (kwl.decide.reduce, kwl.proof.parse,
...) is wrapped as well and the time inside sat or check_derivation splits
by layer.  Spans stay in memory; the metrics are computed after the traced
work ends, so that the work of computing them lands in no span.
"""

from __future__ import annotations

import sys
import time

# module -> functions wrapped; a span is named "<module>.<function>"
TARGETS = {
    "decide": ("sat", "valid"),
    "semantics": ("mc", "model_valid", "frame_valid", "frame_properties", "restrict",
                  "load_model"),
    "translate": ("reduce", "kw_to_el"),
    "proof": ("check_derivation", "load_derivation", "is_bool_taut", "match_axiom"),
    "formula": ("parse",),
    "cli": ("main",),
}

class Span:
    __slots__ = ("name", "start", "end", "parent", "outermost", "ok", "args", "result",
                 "task")

    def __init__(self, name, parent, outermost, task):
        self.name = name
        self.parent = parent
        self.outermost = outermost
        self.task = task
        self.ok = False
        self.args = self.result = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = {}
        self.task = -1
        self.saved: list = []

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "kwl" or name.startswith("kwl.")]
        for mod_name, names in TARGETS.items():
            mod = sys.modules.get(f"kwl.{mod_name}")
            if mod is None:
                continue
            for fn_name in names:
                original = getattr(mod, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self.saved.append((m, attr, value))
                            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, value in reversed(self.saved):
            setattr(m, attr, value)
        self.saved.clear()

    def _wrap(self, name, fn):
        spans, stack, depth = self.spans, self.stack, self.depth
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            level = depth.get(name, 0)
            span = Span(name, stack[-1] if stack else -1, level == 0, self.task)
            keep = _KEEP_ARGS.get(name)
            if keep is not None:
                span.args = keep(args)
            stack.append(len(spans))
            spans.append(span)
            depth[name] = level + 1
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                span.ok = True
            finally:
                span.end = clock()
                depth[name] = level
                stack.pop()
            if name in _KEEP_RESULT:
                span.result = result
            return result

        traced.__wrapped__ = fn
        return traced

    # -- metrics -------------------------------------------------------------

    def metrics(self, overhead_s: float) -> dict:
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_ns[s.parent] += s.end - s.start

        def total_ms(name):
            return sum(s.end - s.start for s in spans if s.name == name and s.outermost) / 1e6

        def self_ms(name):
            return sum(s.end - s.start - child_ns[k] for k, s in enumerate(spans)
                       if s.name == name) / 1e6

        def count(name):
            return sum(1 for s in spans if s.name == name)

        def under(name, parent):
            return [s for s in spans if s.name == name and s.parent >= 0
                    and spans[s.parent].name == parent]

        sats = [s for s in spans if s.name == "decide.sat" and s.ok]
        restricts = [s for s in spans if s.name == "semantics.restrict"]
        distinct = {(s.task,) + s.args for s in restricts}
        reduces = [s for s in spans if s.name == "translate.reduce" and s.outermost and s.ok]
        tauts = [s for s in spans if s.name == "proof.is_bool_taut" and s.ok]
        verify = under("semantics.mc", "decide.sat") + under("semantics.frame_properties",
                                                              "decide.sat")
        out = {
            "decide.search_self_ms": self_ms("decide.sat"),
            "decide.prefixes": sum(s.result.prefixes for s in sats),
            "decide.branches": sum(s.result.branches for s in sats),
            "decide.verify_ms": sum(s.end - s.start for s in verify) / 1e6,
            "translate.reduce_ms": total_ms("translate.reduce"),
            "translate.reduce_out_nodes": sum(node_count(s.result) for s in reduces),
            "semantics.model_valid_ms": total_ms("semantics.model_valid"),
            "semantics.restrict_ms": total_ms("semantics.restrict"),
            "semantics.restrict_calls": len(restricts),
            "semantics.restrict_distinct": len(distinct),
            "semantics.restrict_useful_ratio": len(distinct) / len(restricts) if restricts else 0.0,
            "semantics.mc_ms": total_ms("semantics.mc"),
            "semantics.frame_valid_ms": total_ms("semantics.frame_valid"),
            "semantics.frame_valid_valuations": len(under("semantics.model_valid",
                                                          "semantics.frame_valid")),
            "semantics.load_model_ms": total_ms("semantics.load_model"),
            "cli.main_ms": total_ms("cli.main"),
            "cli.calls": count("cli.main"),
            "proof.taut_ms": total_ms("proof.is_bool_taut"),
            "proof.taut_calls": count("proof.is_bool_taut"),
            "proof.taut_rows": sum(1 << letter_count(s.args) for s in tauts),
            "proof.match_axiom_ms": total_ms("proof.match_axiom"),
            "proof.check_self_ms": self_ms("proof.check_derivation"),
            "proof.load_ms": total_ms("proof.load_derivation"),
            "formula.parse_ms": total_ms("formula.parse"),
            "trace.overhead_s": overhead_s,
        }
        return out


# what a span keeps of its arguments: the restricted worlds and the announced
# formula, which identify a restriction within one task; the formula whose
# abstraction letters are counted
_KEEP_ARGS = {"semantics.restrict": lambda args: (args[0].worlds, args[1]),
              "proof.is_bool_taut": lambda args: args[0]}
_KEEP_RESULT = {"decide.sat", "translate.reduce"}

_BOOLEAN = {"Not", "And", "Or", "Implies", "Iff"}
_LEAF = {"Top", "Bot"}


def _children(f):
    name = type(f).__name__
    if name in ("Not", "Kw", "K"):
        return (f.sub,)
    if name == "Announce":
        return (f.announced, f.body)
    if name in _BOOLEAN:
        return (f.left, f.right)
    return ()


def node_count(f) -> int:
    count, todo = 0, [f]
    while todo:
        g = todo.pop()
        count += 1
        todo.extend(_children(g))
    return count


def letter_count(f) -> int:
    """Distinct letters of the boolean abstraction: the propositions and the
    outermost modal or announcement subformulas under boolean connectives."""
    letters, todo = set(), [f]
    while todo:
        g = todo.pop()
        name = type(g).__name__
        if name in _BOOLEAN:
            todo.extend(_children(g))
        elif name not in _LEAF:
            letters.add(g)
    return len(letters)
