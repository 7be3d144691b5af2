"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import pathlib

from kwl.formula import (
    BOT,
    TOP,
    And,
    Announce,
    Bot,
    Formula,
    Iff,
    Implies,
    K,
    Kw,
    Language,
    Not,
    Or,
    Prop,
    Top,
    conj,
    disj,
    props_of,
)
from kwl.semantics import FrameClass, FrameProperty, KripkeModel, satisfies_class

ROOT = pathlib.Path(__file__).resolve().parent.parent


def abstraction_letters(f: Formula) -> dict:
    """The letters of f's boolean abstraction, numbered in left-to-right
    preorder: its propositions and maximal Kw, K and announcement subformulas."""
    letters: dict = {}
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, (Prop, Kw, K, Announce)):
            letters.setdefault(g, len(letters))
        else:
            stack += g.children()[::-1]
    return letters


def reference_taut(f: Formula) -> bool:
    """Truth-table tautology check under the same abstraction as
    kwl.proof.is_bool_taut: one bit per row of a 2^n-bit integer, and each
    letter reads an alternating mask.  The oracle for the DPLL check;
    exponential in the number of letters."""
    letters = abstraction_letters(f)
    full = (1 << (1 << len(letters))) - 1
    masks = {}
    for g, i in letters.items():
        run = 1 << i
        masks[g] = (((1 << run) - 1) << run) * (full // ((1 << (2 * run)) - 1))

    def bits(g):
        match g:
            case Not(sub):
                return full ^ bits(sub)
            case And(a, b):
                return bits(a) & bits(b)
            case Or(a, b):
                return bits(a) | bits(b)
            case Implies(a, b):
                return (full ^ bits(a)) | bits(b)
            case Iff(a, b):
                return full ^ bits(a) ^ bits(b)
            case Top():
                return full
            case Bot():
                return 0
        return masks[g]

    return bits(f) == full


def pigeonhole(holes: int) -> Formula:
    """The pigeonhole tautology for holes + 1 pigeons: if every pigeon sits in
    some hole, two pigeons share one.  Hard for DPLL (Haken 1985)."""
    at = lambda i, j: Prop(f"p{i}_{j}")
    pigeons = range(holes + 1)
    placed = conj([disj([at(i, j) for j in range(holes)]) for i in pigeons])
    shared = disj([And(at(i, j), at(k, j))
                   for j in range(holes) for i in pigeons for k in pigeons if i < k])
    return Implies(placed, shared)


def node_count(f: Formula) -> int:
    """Number of AST nodes, the enumerator's notion of size."""
    match f:
        case Not(sub) | Kw(_, sub) | K(_, sub):
            return 1 + node_count(sub)
        case And(a, b) | Or(a, b) | Implies(a, b) | Iff(a, b):
            return 1 + node_count(a) + node_count(b)
        case Announce(a, b):
            return 1 + node_count(a) + node_count(b)
    return 1


def count_formulas(n_props: int, n_agents: int, lang: Language, max_size: int) -> int:
    """Closed-form count of the enumeration grammar, summed over sizes."""
    unary = 1 + n_agents * (2 if lang in (Language.PLKwK, Language.PLKwAK) else 1)
    binary = 2 if lang in (Language.PLKwA, Language.PLKwAK) else 1
    per_size = [0, 1 + n_props]
    for size in range(2, max_size + 1):
        total = unary * per_size[size - 1]
        total += binary * sum(per_size[i] * per_size[size - 1 - i]
                              for i in range(1, size - 1))
        per_size.append(total)
    return sum(per_size)


def close_relation(pairs, worlds, props):
    """Least extension of pairs satisfying the Horn frame properties in props."""
    rel = set(pairs)
    if FrameProperty.REFLEXIVE in props:
        rel |= {(w, w) for w in worlds}
    while True:
        add = set()
        if FrameProperty.SYMMETRIC in props:
            add |= {(t, s) for (s, t) in rel}
        if FrameProperty.TRANSITIVE in props:
            add |= {(s, u) for (s, t) in rel for (t2, u) in rel if t == t2}
        if FrameProperty.EUCLIDEAN in props:
            add |= {(t, u) for (s, t) in rel for (s2, u) in rel if s == s2}
        if add <= rel:
            return rel
        rel |= add


def random_model(rng, frame_class: FrameClass, max_worlds: int = 4,
                 props=("p", "q"), agents=("i",)) -> KripkeModel:
    """A random model whose relations satisfy the given frame class."""
    n = rng.randint(1, max_worlds)
    worlds = [f"w{k}" for k in range(n)]
    requirements = frame_class.requirements
    rel = {}
    for agent in agents:
        if FrameProperty.PARTIAL_FUNCTIONAL in requirements:
            pairs = {(w, rng.choice(worlds)) for w in worlds if rng.random() < 0.7}
        else:
            pairs = {(u, v) for u in worlds for v in worlds if rng.random() < 0.45}
            if FrameProperty.SERIAL in requirements:
                for w in worlds:
                    if not any(u == w for (u, _) in pairs):
                        pairs.add((w, rng.choice(worlds)))
            pairs = close_relation(pairs, worlds, requirements)
        rel[agent] = sorted(pairs)
    val = {p: [w for w in worlds if rng.random() < 0.5] for p in props}
    model = KripkeModel(worlds, list(agents), rel, val)
    assert satisfies_class(model, frame_class)
    return model


def random_formula(rng, depth: int, props=("p", "q"), agents=("i",),
                   lang: Language = Language.PLKw) -> Formula:
    """A random formula of the given language with nesting depth at most depth."""
    if depth == 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.85:
            return Prop(rng.choice(props))
        return TOP if r < 0.93 else BOT
    ops = ["not", "and", "or", "implies", "iff"]
    if lang != Language.EL:
        ops += ["kw", "kw"]
    if lang in (Language.EL, Language.PLKwK, Language.PLKwAK):
        ops += ["k", "k"]
    if lang in (Language.PLKwA, Language.PLKwAK):
        ops += ["announce", "announce"]
    op = rng.choice(ops)

    def sub():
        return random_formula(rng, depth - 1, props, agents, lang)

    if op == "not":
        return Not(sub())
    if op == "kw":
        return Kw(rng.choice(agents), sub())
    if op == "k":
        return K(rng.choice(agents), sub())
    if op == "announce":
        return Announce(sub(), sub())
    return {"and": And, "or": Or, "implies": Implies, "iff": Iff}[op](sub(), sub())


def enumerate_class_models(n_max: int, frame_class: FrameClass,
                           props=("p",), agent="i"):
    """Every pointed-free model with at most n_max worlds satisfying the class."""
    out = []
    for n in range(1, n_max + 1):
        worlds = [f"w{k}" for k in range(n)]
        pairs = list(itertools.product(worlds, worlds))
        for rel_bits in range(1 << len(pairs)):
            rel = {agent: [pairs[j] for j in range(len(pairs)) if rel_bits >> j & 1]}
            base = KripkeModel(worlds, [agent], rel, {p: [] for p in props})
            if not satisfies_class(base, frame_class):
                continue
            for val_bits in range(1 << (n * len(props))):
                val = {p: [worlds[k] for k in range(n) if val_bits >> (pi * n + k) & 1]
                       for pi, p in enumerate(props)}
                out.append(KripkeModel(worlds, [agent], rel, val))
    return out


def reference_mc(m: KripkeModel, w: str, f: Formula) -> bool:
    """Truth of f at world w, world by world from the definitions.

    The oracle for kwl.semantics: successors come from scanning the edges,
    and [a]b at w enters the restriction to the a-worlds when a holds at w."""
    match f:
        case Top():
            return True
        case Bot():
            return False
        case Prop(name):
            return w in m.val.get(name, frozenset())
        case Not(sub):
            return not reference_mc(m, w, sub)
        case And(a, b):
            return reference_mc(m, w, a) and reference_mc(m, w, b)
        case Or(a, b):
            return reference_mc(m, w, a) or reference_mc(m, w, b)
        case Implies(a, b):
            return (not reference_mc(m, w, a)) or reference_mc(m, w, b)
        case Iff(a, b):
            return reference_mc(m, w, a) == reference_mc(m, w, b)
        case K(agent, sub):
            return all(reference_mc(m, t, sub) for s, t in m.rel.get(agent, ()) if s == w)
        case Kw(agent, sub):
            return len({reference_mc(m, t, sub)
                        for s, t in m.rel.get(agent, ()) if s == w}) <= 1
        case Announce(announced, body):
            if not reference_mc(m, w, announced):
                return True
            return reference_mc(reference_restrict(m, announced), w, body)
    raise TypeError(f"not a formula: {f!r}")


def reference_restrict(m: KripkeModel, f: Formula):
    """The submodel on the worlds where f holds, or None when there are none."""
    keep = [w for w in m.worlds if reference_mc(m, w, f)]
    if not keep:
        return None
    return KripkeModel(keep, m.agents,
                       {a: [(s, t) for s, t in pairs if s in keep and t in keep]
                        for a, pairs in m.rel.items()},
                       {p: [w for w in keep if w in where] for p, where in m.val.items()},
                       point=m.point if m.point in keep else None)


def reference_frame_valid(m: KripkeModel, f: Formula) -> bool:
    """Truth of f at every world of m's frame under every valuation of its props."""
    props = sorted(props_of(f))
    for choice in itertools.product(*[[False, True]] * (len(props) * len(m.worlds))):
        val = {p: [w for j, w in enumerate(m.worlds) if choice[i * len(m.worlds) + j]]
               for i, p in enumerate(props)}
        candidate = KripkeModel(m.worlds, m.agents, m.rel, val)
        if not all(reference_mc(candidate, w, f) for w in m.worlds):
            return False
    return True
