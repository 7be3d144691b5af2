"""Embeddings between the Kw and K languages, and announcement elimination.

kw_to_el rewrites Kw[i]g as K[i]g | K[i]~g and is truth preserving on every
model.  el_to_kw rewrites K[i]g as g & Kw[i]g and is truth preserving on
reflexive models only (on a non-reflexive model the conjunct g can fail at
the evaluation world while K[i]g holds).  reduce eliminates announcements
with the usual reduction equivalences, asserting on every rewrite that the
weighted complexity of the redex strictly drops.
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
    Language,
    Not,
    Or,
    Prop,
    Top,
    complexity,
    in_language,
    subformulas,
)


def kw_to_el(f: Formula) -> Formula:
    """Kw[i]g becomes K[i]g' | K[i]~g'; Boolean structure is untouched."""
    for g in subformulas(f):
        if isinstance(g, (K, Announce)):
            raise ValueError(f"kw_to_el is defined on the Kw language, got: {g}")
    return expand_kw(f)


def expand_kw(f: Formula) -> Formula:
    """kw_to_el without its language check: K is kept as it is (announcement-free input)."""
    if isinstance(f, Kw):
        inner = expand_kw(f.sub)
        return Or(K(f.agent, inner), K(f.agent, Not(inner)))
    return f.map(expand_kw)


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
    """Announcement-free equivalent of f; rejects formulas mentioning K."""
    if not in_language(f, Language.PLKwA):
        raise ValueError(f"reduce handles the Kw language with announcements, got: {f}")
    return _reduce(f)


def _reduce(f: Formula) -> Formula:
    if isinstance(f, Announce):
        # innermost-first on the announced part, then peel the redex
        return _eliminate(_reduce(f.announced), f.body)
    return f.map(_reduce)


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


def _eliminate(announced: Formula, body: Formula) -> Formula:
    redex = Announce(announced, body)
    out = _step(announced, body)
    assert complexity(out) < complexity(redex), f"rewrite did not shrink: {redex}"
    return _reduce(out)
