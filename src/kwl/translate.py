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
    fold,
)


def kw_to_el(f: Formula) -> Formula:
    """Kw[i]g becomes K[i]g' | K[i]~g'; Boolean structure is untouched."""

    def rule(g: Formula, image) -> Formula:
        if isinstance(g, (K, Announce)):
            raise ValueError(f"kw_to_el is defined on the Kw language, got: {g}")
        if isinstance(g, Kw):
            inner = image(g.sub)
            return Or(K(g.agent, inner), K(g.agent, Not(inner)))
        return g.map(image)

    return fold(f, rule)


def el_to_kw(f: Formula) -> Formula:
    """K[i]g becomes g' & Kw[i]g'; faithful on reflexive models only."""

    def rule(g: Formula, image) -> Formula:
        if isinstance(g, K):
            inner = image(g.sub)
            return And(inner, Kw(g.agent, inner))
        if isinstance(g, (Kw, Announce)):
            raise ValueError(f"el_to_kw is defined on the K-only language, got: {g}")
        return g.map(image)

    return fold(f, rule)


# ---------------------------------------------------------------------------
# announcement elimination


def reduce(f: Formula) -> Formula:
    """Announcement-free equivalent of f.

    An announcement is rewritten by step before its parts are reduced, and
    the copies step makes of a part are one node, reduced once.  So the output
    can be exponentially larger than f as a tree, but not as a DAG."""
    return fold(f, lambda g, image: image(step(g)) if type(g) is Announce else g.map(image))


def step(redex: Announce) -> Formula:
    """One rewrite of the redex [a]b by the reduction axiom for b's shape.

    Asserts that the weighted complexity strictly drops, so that rewriting
    until no announcement is left terminates."""
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
    assert complexity(out) < complexity(redex), f"rewrite did not shrink: {redex}"
    return out
