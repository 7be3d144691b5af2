"""Embeddings between the Kw and K languages, and announcement elimination.

kw_to_el rewrites Kw[i]g as K[i]g | K[i]~g and is truth preserving on every
model.  el_to_kw rewrites K[i]g as g & Kw[i]g and is truth preserving on
reflexive models only (on a non-reflexive model the conjunct g can fail at
the evaluation world while K[i]g holds).  step rewrites one announcement by
the usual reduction equivalences, asserting that the weighted complexity of
the redex strictly drops; reduce applies it until no announcement is left,
and the negation normal form pass of kwl.decide applies it as it goes.
"""

from __future__ import annotations

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
    Not,
    Or,
    Prop,
    Top,
    complexity,
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


def reduce(f: Formula) -> Formula:
    """Announcement-free equivalent of f.

    The rewrites copy their subformulas, so the output can be exponentially
    larger than f as a tree, but not as a DAG: each node is reduced and
    weighed once per call, and the nodes are shared."""
    memo: dict = {}
    weights: dict = {}

    def walk(g: Formula) -> Formula:
        out = memo.get(g)
        if out is not None:
            return out
        kind = type(g)
        if kind is Announce:
            # innermost-first on the announced part, then peel the redex
            out = walk(step(Announce(walk(g.announced), g.body), weights))
        elif kind is Prop or kind is Top or kind is Bot:
            return g  # builds nothing
        else:
            out = g.map(walk)
        memo[g] = out
        return out

    return walk(f)


def step(redex: Announce, weights: dict) -> Formula:
    """One rewrite of the redex [a]b by the reduction axiom for b's shape.

    Asserts that the weighted complexity strictly drops, so that rewriting
    until no announcement is left terminates.  weights is complexity's memo,
    kept by the caller across its steps, so each node is weighed once."""
    announced, body = redex.announced, redex.body
    match body:
        case Top():
            out = TOP
        case Bot():
            out = Not(announced)
        case Prop(_):
            out = Implies(announced, body)
        case Not(sub):
            out = Implies(announced, Not(Announce(announced, sub)))
        case Binary():
            out = body.map(lambda part: Announce(announced, part))
        case Kw(agent, sub):
            out = Implies(
                announced,
                Or(Kw(agent, Announce(announced, sub)),
                   Kw(agent, Announce(announced, Not(sub)))))
        case K(agent, sub):
            out = Implies(announced, K(agent, Announce(announced, sub)))
        case Announce(inner, sub):
            out = Announce(And(announced, Announce(announced, inner)), sub)
        case _:
            raise TypeError(f"not a formula: {body!r}")
    assert complexity(out, weights) < complexity(redex, weights), f"rewrite did not shrink: {redex}"
    return out
