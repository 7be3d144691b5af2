"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import pathlib
from typing import Iterator, Sequence

from kwl import decide
from kwl.formula import (
    _CONNECTIVES,
    _IDENT_RE,
    _LEVEL,
    _tokenize,
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
    Modal,
    Not,
    Or,
    ParseError,
    Prop,
    Top,
    conj,
    disj,
    in_language,
    node_class,
    props_of,
    subformulas,
)
from kwl.semantics import FrameClass, FrameProperty, KripkeModel, satisfies_class

ROOT = pathlib.Path(__file__).resolve().parent.parent


@node_class
class Dia(Modal):
    """A modal node that kwl does not define: the diamond of agent over sub,
    read as ~K[agent]~sub.  It spells the diamonds of the tableau's normal
    form (decode_nnf), and is a node that kwl's walks do not know."""

    agent: str
    sub: Formula


def decode_nnf(tab: decide._Tableau, code: int) -> Formula:
    """The formula that a code of tab's normal form stands for, its diamonds
    spelt with Dia."""
    kind, x, y = tab.kind[code], tab.x[code], tab.y[code]
    if kind in (decide._PROP, decide._NEG):
        return Prop(x) if kind == decide._PROP else Not(Prop(x))
    if kind in (decide._TOP, decide._BOT):
        return TOP if kind == decide._TOP else BOT
    if kind in (decide._AND, decide._OR):
        return (And if kind == decide._AND else Or)(decode_nnf(tab, x), decode_nnf(tab, y))
    return (K if kind == decide._BOX else Dia)(x, decode_nnf(tab, y))


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


def reference_match(schema: Formula, f: Formula) -> dict | None:
    """Bindings under which f instantiates schema, or None, by a recursive
    walk over both trees: the referee for kwl.proof.match_axiom.  An
    uppercase letter is a metavariable, ATOM admits only a proposition, and
    an uppercase agent is bound to the agent met at its first occurrence."""
    b: dict = {}

    def bind(meta: str, value) -> bool:
        return b.setdefault(meta, value) == value

    def match(schema: Formula, f: Formula) -> bool:
        if isinstance(schema, Prop) and schema.name.isupper():
            if schema.name == "ATOM" and not isinstance(f, Prop):
                return False
            return bind(schema.name, f)
        if type(schema) is not type(f):
            return False
        if isinstance(schema, Prop):
            return schema.name == f.name
        if isinstance(schema, Modal):
            agent = schema.agent
            if not (bind(agent, f.agent) if agent.isupper() else agent == f.agent):
                return False
        return all(match(x, y) for x, y in zip(schema.children(), f.children()))

    return b if match(schema, f) else None


class _Parser:
    """Recursive descent over the token list.

    The binary connectives bind as _CONNECTIVES says, then come the unary
    prefixes ~, Kw[i], K[i] and [f].  A parenthesis costs two stack frames.
    """

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.next()
        if tok[0] != kind and tok[1] != kind:
            raise ParseError(f"unexpected {tok[1]!r}" if tok[1] else "unexpected end of input",
                             tok[2], (what,))
        return tok

    def formula(self, limit: int = 0) -> Formula:
        """A formula whose connectives sit at level limit or tighter, by
        precedence climbing: an operand, then each following connective of
        such a level with its right operand."""
        left = self.unary()
        while (level := _LEVEL.get(self.peek()[1], -1)) >= limit:
            self.next()
            kind, _, right_assoc = _CONNECTIVES[level]
            left = kind(left, self.formula(level + 1 - right_assoc))
        return left

    def agent_name(self) -> str:
        tok = self.expect("word", "agent name")
        name = tok[1]
        if not _IDENT_RE.match(name):
            raise ParseError(f"bad agent name {name!r}", tok[2], ("agent name",))
        return name

    def unary(self) -> Formula:
        kind, text, offset = self.peek()
        if text == "~":
            self.next()
            return Not(self.unary())
        if text == "[":
            self.next()
            announced = self.formula()
            self.expect("]", "]")
            return Announce(announced, self.unary())
        if text == "(":
            self.next()
            inner = self.formula()
            self.expect(")", ")")
            return inner
        if kind == "word":
            self.next()
            if text == "Kw" or text == "K":
                self.expect("[", "[")
                agent = self.agent_name()
                self.expect("]", "]")
                sub = self.unary()
                return Kw(agent, sub) if text == "Kw" else K(agent, sub)
            if text == "top":
                return TOP
            if text == "bot":
                return BOT
            if not _IDENT_RE.match(text):
                raise ParseError(f"bad proposition name {text!r}", offset)
            return Prop(text)
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input",
                         offset, ("~", "[", "(", "Kw", "K", "top", "bot", "proposition"))


def reference_parse(text: str) -> Formula:
    """The recursive-descent parser that kwl.formula.parse replaced, kept
    as its referee: the same node, or a ParseError with the same message,
    offset and expected tokens, on any text it reads within the stack."""
    parser = _Parser(_tokenize(text))
    f = parser.formula()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return f


class ReferenceTableau(decide._Tableau):
    """The tableau with the recursive search that _Tableau.search replaced,
    kept as its referee: one stack frame per split, the split at depth level
    carrying bit level.  Its search is the old one but for the two lines
    that called _resolve_splits after _saturate, which now does so itself.
    Patched in for decide._Tableau, it gives sat the same verdict, prefixes,
    branches, ticks and model as the loop, on any input it searches within
    the stack."""

    def search(self, level: int = 0):
        while True:
            clash = self._saturate()
            if clash is not None:
                self.branches += 1
                return clash
            if self.det:
                continue
            if self.splits:
                w, f = self.splits.pop()
                bit = 1 << level
                mask = self.labels[w][f] | bit
                splits, mark, clashes = self.splits, len(self.trail), 0
                for right, piece in enumerate((self.x[f], self.y[f])):
                    # nothing reads splits after the loop, so the right child takes it
                    self.splits = splits if right else list(splits)
                    self._add(w, piece, mask)
                    found = self.search(level + 1)
                    # an open branch, or a clash that this split's choice did not cause
                    if found is None or not found & bit:
                        return found
                    clashes |= found
                    self._undo(mark)
                return clashes & ~bit
            if not self._fire_one():
                self.branches += 1
                return None


def balanced_disjunctions(n: int) -> str:
    """The text of a balanced conjunction of (p0 | q0), ..., (p(n-1) | q(n-1)):
    about log2(n) levels of &, and n splits on its one open branch."""
    def text(lo, hi):
        if hi - lo == 1:
            return f"(p{lo} | q{lo})"
        mid = (lo + hi) // 2
        return f"({text(lo, mid)} & {text(mid, hi)})"

    return text(0, n)


def pigeonhole(holes: int) -> Formula:
    """The pigeonhole tautology for holes + 1 pigeons: if every pigeon sits in
    some hole, two pigeons share one.  Hard for DPLL (Haken 1985)."""
    at = lambda i, j: Prop(f"p{i}_{j}")
    pigeons = range(holes + 1)
    placed = conj([disj([at(i, j) for j in range(holes)]) for i in pigeons])
    shared = disj([And(at(i, j), at(k, j))
                   for j in range(holes) for i in pigeons for k in pigeons if i < k])
    return Implies(placed, shared)


def enumerate_formulas(props: Sequence[str], agents: Sequence[str],
                       lang: Language, max_size: int) -> Iterator[Formula]:
    """All core-connective formulas (top, p, ~, &, modalities, and for the
    announcement languages [f]g) of lang with at most max_size AST nodes,
    smallest first.  Every tree is produced exactly once."""
    modals = [m for m in (Kw, K) if in_language(m("i", TOP), lang)]
    announcements = in_language(Announce(TOP, TOP), lang)
    by_size: list[list[Formula]] = [[]]  # index 0 unused

    for size in range(1, max_size + 1):
        layer: list[Formula] = []
        if size == 1:
            layer.append(TOP)
            layer.extend(Prop(p) for p in props)
        else:
            for sub in by_size[size - 1]:
                layer.append(Not(sub))
            for mod in modals:
                for agent in agents:
                    for sub in by_size[size - 1]:
                        layer.append(mod(agent, sub))
            for left_size in range(1, size - 1):
                right_size = size - 1 - left_size
                for a in by_size[left_size]:
                    for b in by_size[right_size]:
                        layer.append(And(a, b))
                        if announcements:
                            layer.append(Announce(a, b))
        by_size.append(layer)
        yield from layer


def reference_operators(f: Formula) -> set:
    """The operator classes among Kw, K and Announce that occur in f, by a
    walk over every node: the referee for formula's per-node summaries."""
    return {type(g) for g in subformulas(f) if isinstance(g, (Kw, K, Announce))}


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
                           props=("p",), agents=("i",)):
    """Every pointed-free model with at most n_max worlds satisfying the class.

    Each agent's relation ranges over the relations of the class on the
    worlds; each frame condition constrains one relation at a time."""
    out = []
    for n in range(1, n_max + 1):
        worlds = [f"w{k}" for k in range(n)]
        pairs = list(itertools.product(worlds, worlds))
        relations = []
        for rel_bits in range(1 << len(pairs)):
            edges = [pairs[j] for j in range(len(pairs)) if rel_bits >> j & 1]
            frame = KripkeModel(worlds, ["a"], {"a": edges}, {p: [] for p in props})
            if satisfies_class(frame, frame_class):
                relations.append(edges)
        for choice in itertools.product(relations, repeat=len(agents)):
            rel = dict(zip(agents, choice))
            for val_bits in range(1 << (n * len(props))):
                val = {p: [worlds[k] for k in range(n) if val_bits >> (pi * n + k) & 1]
                       for pi, p in enumerate(props)}
                out.append(KripkeModel(worlds, list(agents), rel, val))
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
