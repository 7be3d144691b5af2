"""Embeddings between the Kw and K languages, and announcement elimination.

kw_to_el rewrites Kw[i]g as K[i]g | K[i]~g and is truth preserving on every
model.  el_to_kw rewrites K[i]g as g & Kw[i]g and is truth preserving on
reflexive models only (on a non-reflexive model the conjunct g can fail at
the evaluation world while K[i]g holds).  reduce eliminates announcements
with the usual reduction equivalences, asserting on every rewrite that the
weighted complexity of the redex strictly drops.
"""

from __future__ import annotations

from typing import Callable

from .formula import (
    TOP,
    And,
    Announce,
    Binary,
    Bot,
    Formula,
    Implies,
    K,
    Kw,
    Language,
    Not,
    Or,
    Prop,
    Top,
    complexity,
    in_language,
)


def kw_to_el(f: Formula) -> Formula:
    """Kw[i]g becomes K[i]g' | K[i]~g'; Boolean structure is untouched.

    Memoised on the node for the call, as reduce is, so a subformula that
    reduce shares is checked and expanded once and its expansion shared."""
    memo: dict = {}

    def expand(g: Formula) -> Formula:
        out = memo.get(g)
        if out is not None:
            return out
        if isinstance(g, (K, Announce)):
            raise ValueError(f"kw_to_el is defined on the Kw language, got: {g}")
        if isinstance(g, Kw):
            inner = expand(g.sub)
            out = Or(K(g.agent, inner), K(g.agent, Not(inner)))
        else:
            out = g.map(expand)
        memo[g] = out
        return out

    return expand(f)


def el_to_kw(f: Formula) -> Formula:
    """K[i]g becomes g' & Kw[i]g'; faithful on reflexive models only."""
    if isinstance(f, K):
        inner = el_to_kw(f.sub)
        return And(inner, Kw(f.agent, inner))
    if isinstance(f, (Kw, Announce)):
        raise ValueError(f"el_to_kw is defined on the K-only language, got: {f}")
    return f.map(el_to_kw)


# ---------------------------------------------------------------------------
# announcement elimination


def reduce(f: Formula, *, tick: Callable[[], None] = lambda: None) -> Formula:
    """Announcement-free equivalent of f; rejects formulas mentioning K.

    The rewrites copy their subformulas, so the output can be exponentially
    larger than f as a tree, but not as a DAG: each node is reduced and
    weighed once per call, and the nodes are shared.  tick is called once
    for each compound node reduced; sat passes its budget's counter."""
    if not in_language(f, Language.PLKwA):
        raise ValueError(f"reduce handles the Kw language with announcements, got: {f}")
    return _Reduction(tick).walk(f)


class _Reduction:
    """The memos of one call of reduce, keyed on the interned node."""

    def __init__(self, tick):
        self.memo: dict = {}
        self.weights: dict = {}
        self.tick = tick

    def walk(self, f: Formula) -> Formula:
        out = self.memo.get(f)
        if out is not None:
            return out
        kind = type(f)
        if kind is Announce:
            # innermost-first on the announced part, then peel the redex
            redex = Announce(self.walk(f.announced), f.body)
            rewritten = _step(redex.announced, redex.body)
            assert (complexity(rewritten, self.weights)
                    < complexity(redex, self.weights)), f"rewrite did not shrink: {redex}"
            out = self.walk(rewritten)
        elif kind is Prop or kind is Top or kind is Bot:
            return f  # builds nothing
        else:
            out = f.map(self.walk)
        self.memo[f] = out
        self.tick()
        return out


def _step(announced: Formula, body: Formula) -> Formula:
    """One rewrite of the redex [announced]body, dispatching on the body."""
    match body:
        case Top():
            return TOP
        case Bot():
            return Not(announced)
        case Prop(_):
            return Implies(announced, body)
        case Not(sub):
            return Implies(announced, Not(Announce(announced, sub)))
        case Binary():
            return body.map(lambda part: Announce(announced, part))
        case Kw(agent, sub):
            return Implies(
                announced,
                Or(Kw(agent, Announce(announced, sub)),
                   Kw(agent, Announce(announced, Not(sub)))))
        case Announce(inner, sub):
            return Announce(And(announced, Announce(announced, inner)), sub)
    raise TypeError(f"not a formula: {body!r}")
