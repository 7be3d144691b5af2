"""Embeddings between the Kw and K languages, and announcement elimination.

kw_to_el rewrites Kw[i]g as K[i]g | K[i]~g and is truth preserving on every
model.  el_to_kw rewrites K[i]g as g & Kw[i]g and is truth preserving on
reflexive models only (on a non-reflexive model the conjunct g can fail at
the evaluation world while K[i]g holds).  step rewrites one announcement by
the usual reduction equivalences, and weighs nothing.  reduce applies it
until no announcement is left, asserting on every rewrite that the weighted
complexity of the redex strictly drops; the negation normal form pass of
kwl.decide applies it as it goes, each rewrite after a tick of its budget,
and proof.AXIOMS states the reduction axioms as its rewrites.
"""

from __future__ import annotations

from .formula import (
    TOP,
    And,
    Announce,
    Bot,
    Formula,
    Iff,
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
    can be exponentially larger than f as a tree, but not as a DAG.  Asserts
    on every rewrite that the weighted complexity strictly drops, so that
    rewriting until no announcement is left terminates."""

    def rule(g: Formula, image) -> Formula:
        if type(g) is not Announce:
            return g.map(image)
        out = step(g)
        assert complexity(out) < complexity(g), f"rewrite did not shrink: {g}"
        return image(out)

    return fold(f, rule)


def step(redex: Announce) -> Formula:
    """One rewrite of the redex [a]b by the reduction axiom for b's shape."""
    announced, body = redex.announced, redex.body
    t = type(body)  # an if-chain on the exact type, as in semantics._ext
    if t is Top:
        return TOP
    if t is Bot:
        return Not(announced)
    if t is Prop:
        return Implies(announced, body)
    if t is Not:
        return Implies(announced, Not(Announce(announced, body.sub)))
    if t is And or t is Or or t is Implies or t is Iff:
        return body.map(lambda part: Announce(announced, part))
    if t is Kw:
        return Implies(
            announced,
            Or(Kw(body.agent, Announce(announced, body.sub)),
               Kw(body.agent, Announce(announced, Not(body.sub)))))
    if t is K:
        return Implies(announced, K(body.agent, Announce(announced, body.sub)))
    if t is Announce:
        return Announce(And(announced, Announce(announced, body.announced)), body.body)
    raise TypeError(f"not a formula: {body!r}")
