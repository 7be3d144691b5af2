"""Seeded random formulas and models, in the oracle's tuple form.

Everything here is drawn from a random.Random seeded by the caller and never
iterates over a set or dict whose order could follow the string-hash seed,
so a seed always gives the same inputs.
"""

from __future__ import annotations

import random

_BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def render(f) -> str:
    """kwl's concrete syntax, with every binary node in parentheses."""
    op = f[0]
    if op in ("top", "bot"):
        return op
    if op == "p":
        return f[1]
    if op == "not":
        return "~" + render(f[1])
    if op in _BINARY:
        return f"({render(f[1])} {_BINARY[op]} {render(f[2])})"
    if op == "kw":
        return f"Kw[{f[1]}]{render(f[2])}"
    if op == "k":
        return f"K[{f[1]}]{render(f[2])}"
    if op == "ann":
        return f"[{render(f[1])}]{render(f[2])}"
    raise TypeError(f"not a formula: {f!r}")


def random_formula(rng: random.Random, depth: int, modal_depth: int, props, agents,
                   modals) -> tuple:
    """A formula of at most the given depth and modal depth over props and agents.

    modals holds the operators allowed besides the boolean ones, out of
    "kw", "k" and "ann".  What an announcement announces is boolean, of
    depth at most one, which keeps its reduction small.
    """
    if depth == 0 or rng.random() < 0.2:
        return ("p", rng.choice(props))
    roll = rng.random()
    if roll < 0.15:
        return ("not", random_formula(rng, depth - 1, modal_depth, props, agents, modals))
    if roll < 0.5 or modal_depth == 0:
        op = rng.choice(("and", "or", "imp", "iff"))
        return (op, random_formula(rng, depth - 1, modal_depth, props, agents, modals),
                random_formula(rng, depth - 1, modal_depth, props, agents, modals))
    op = rng.choice(modals)
    body = random_formula(rng, depth - 1, modal_depth - 1, props, agents, modals)
    if op == "ann":
        return ("ann", random_formula(rng, 1, 0, props, agents, ()), body)
    return (op, rng.choice(agents), body)


def rename(f, names: dict) -> tuple:
    """f with its propositions and agents renamed by the mapping names."""
    op = f[0]
    if op == "p":
        return ("p", names.get(f[1], f[1]))
    if op in ("kw", "k"):
        return (op, names.get(f[1], f[1]), rename(f[2], names))
    return (op,) + tuple(rename(part, names) for part in f[1:])


def operators(f) -> set[str]:
    out = {f[0]}
    for part in f[1:]:
        if isinstance(part, tuple):
            out |= operators(part)
    return out


def formula_with(rng, depth, modal_depth, props, agents, modals):
    """Draw until the formula uses every operator in modals."""
    while True:
        f = random_formula(rng, depth, modal_depth, props, agents, modals)
        if set(modals) <= operators(f):
            return f


OUT_DEGREE = 2  # successors of every world under agent j in random_model


def random_model(rng: random.Random, n: int, props, *, block: int = 4) -> dict:
    """A model document in kwl's JSON form with agents i and j.

    Agent i's relation is an equivalence with blocks of `block` worlds (the
    last one may be smaller); agent j's relation gives every world
    OUT_DEGREE random successors.  Every proposition holds at half of the
    worlds.  Fixed degrees and densities keep the evaluator's work alike
    across seeds.
    """
    worlds = [f"w{k}" for k in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    rel_i = []
    for start in range(0, n, block):
        members = order[start:start + block]
        rel_i += [[worlds[s], worlds[t]] for s in members for t in members]
    rel_j = []
    for s in range(n):
        for t in sorted(rng.sample(range(n), OUT_DEGREE)):
            rel_j.append([worlds[s], worlds[t]])
    val = {p: sorted(rng.sample(worlds, n // 2), key=worlds.index) for p in props}
    return {"worlds": worlds, "agents": ["i", "j"], "rel": {"i": rel_i, "j": rel_j},
            "val": val}
