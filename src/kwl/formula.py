"""Formula AST, concrete syntax, and structural operations.

The core language is built from top, propositions, negation and conjunction,
plus the modalities Kw[i] ("the agent knows whether") and K[i] ("the agent
knows that") and public announcements [f]g.  bot, |, -> and <-> are first
class nodes as well, so parse/render round-trips keep the shape the user
wrote; only operations that need a small core (reduction, enumeration)
normalise them away.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Optional, Sequence
from weakref import ref

# The intern table: (class, *fields) -> a weak reference to the one node with
# those fields.  The fields of a key are interned already, so the key hashes
# in C without walking the subtree.  The table pins nothing: a node's entry
# goes when the node dies.
_NODES: dict = {}


class _KeyedRef(ref):
    """A weak reference that knows its table key.  weakref.KeyedRef is the
    same with a constructor written in Python, which costs a new node as
    much as building the rest of it."""

    __slots__ = ("key",)


_new, _set = object.__new__, object.__setattr__  # past the read-only guard


def _forget(dead: _KeyedRef, _nodes=_NODES):
    # the table is bound as a default: at interpreter exit the module's globals
    # may be gone before the last nodes die.  A node built after this one died
    # may own the entry by now.
    if _nodes.get(dead.key) is dead:
        del _nodes[dead.key]


class Formula:
    """Base class; all nodes are interned, read-only dataclasses.

    Building a node whose class and fields equal those of a live node returns
    that node, so equal formulas are the same object, and == and hash are
    those of object: identity, in constant time at any depth.  A node's
    fields are its dataclass fields, in order (__match_args__).

    children() lists a node's immediate subformulas, left to right, and
    map(fn) returns the same node with fn applied to each of them.  Leaves
    have no children and map to themselves.
    """

    __slots__ = ("__weakref__",)

    def __new__(cls, *fields, **named):
        if named:
            fields = _positional(cls, fields, named)
        key = (cls, *fields)
        entry = _NODES.get(key)
        node = entry() if entry is not None else None
        if node is None:
            names = cls.__match_args__
            if len(fields) != len(names):
                raise TypeError(f"{cls.__name__} takes the fields {', '.join(names)}")
            node = _new(cls)
            # a node has at most two fields; unrolled, this costs half a loop's time
            if names:
                _set(node, names[0], fields[0])
                if len(names) == 2:
                    _set(node, names[1], fields[1])
            entry = _NODES[key] = _KeyedRef(node, _forget)
            entry.key = key
        return node

    def __reduce__(self):
        # rebuilt through __new__, so copy, deepcopy and pickle give back the interned node
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)

    def children(self) -> tuple:
        return ()

    def map(self, fn: Callable[[Formula], Formula]) -> Formula:
        return self

    def __str__(self) -> str:
        return render(self)


class Modal(Formula):
    """Shape of the modalities: an agent and one subformula, `sub`."""

    __slots__ = ()

    def children(self) -> tuple:
        return (self.sub,)

    def map(self, fn):
        return type(self)(self.agent, fn(self.sub))


class Binary(Formula):
    """Shape of the binary connectives: subformulas `left` and `right`."""

    __slots__ = ()

    def children(self) -> tuple:
        return (self.left, self.right)

    def map(self, fn):
        return type(self)(fn(self.left), fn(self.right))


def _positional(cls, fields: tuple, named: dict) -> tuple:
    """The fields of a call that names some of them, in declaration order."""
    rest = cls.__match_args__[len(fields):]
    unknown = set(named) - set(rest)
    if unknown:
        raise TypeError(f"{cls.__name__} got unexpected fields {', '.join(sorted(unknown))}")
    return fields + tuple(named[name] for name in rest if name in named)


# The dataclass options of a node class: read-only fields in slots, the
# identity == and hash of object, and no __init__, since Formula.__new__ sets
# the fields once, when it builds the node.
node_class = dataclass(frozen=True, eq=False, init=False, slots=True)


@node_class
class Top(Formula):
    pass


@node_class
class Bot(Formula):
    pass


@node_class
class Prop(Formula):
    name: str


@node_class
class Not(Formula):
    sub: Formula

    def children(self) -> tuple:
        return (self.sub,)

    def map(self, fn):
        return Not(fn(self.sub))


@node_class
class And(Binary):
    left: Formula
    right: Formula


@node_class
class Or(Binary):
    left: Formula
    right: Formula


@node_class
class Implies(Binary):
    left: Formula
    right: Formula


@node_class
class Iff(Binary):
    left: Formula
    right: Formula


@node_class
class Kw(Modal):
    agent: str
    sub: Formula


@node_class
class K(Modal):
    agent: str
    sub: Formula


@node_class
class Announce(Formula):
    announced: Formula
    body: Formula

    def children(self) -> tuple:
        return (self.announced, self.body)

    def map(self, fn):
        return Announce(fn(self.announced), fn(self.body))


TOP = Top()
BOT = Bot()

# the binary connectives, loosest first: (node, symbol, right associative).
# parse and render both read it; a connective's level is its index.
_CONNECTIVES = (
    (Iff, "<->", True),
    (Implies, "->", True),
    (Or, "|", False),
    (And, "&", False),
)
_LEVEL = {kind: level for level, (kind, _, _) in enumerate(_CONNECTIVES)}
_UNARY = len(_CONNECTIVES)  # the level of every other node


def conj(parts: Sequence[Formula]) -> Formula:
    """Left-associated conjunction of a non-empty-or-empty sequence."""
    if not parts:
        return TOP
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts: Sequence[Formula]) -> Formula:
    if not parts:
        return BOT
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def subformulas(f: Formula) -> Iterator[Formula]:
    """Every distinct node of f, f itself first, in the left-to-right preorder
    of first occurrence.

    A node that several paths share is yielded, and its children walked, once,
    so the walk is linear in f as a DAG however large f is as a tree.
    Iterative, so a formula nested deeper than the interpreter's stack is
    walked whole."""
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        yield g
        stack += g.children()[::-1]


# ---------------------------------------------------------------------------
# language classification


class Language(Enum):
    # ordered so that the first tag admitting a formula is its least (classify_language)
    EL = "EL"
    PLKw = "PLKw"
    PLKwK = "PLKwK"
    PLKwA = "PLKwA"
    PLKwAK = "PLKwAK"


# operators admitted by each language tag
_ALLOWED = {
    Language.EL: {K},
    Language.PLKw: {Kw},
    Language.PLKwK: {K, Kw},
    Language.PLKwA: {Kw, Announce},
    Language.PLKwAK: {K, Kw, Announce},
}


def _operators(f: Formula) -> set:
    return {type(g) for g in subformulas(f) if isinstance(g, (Kw, K, Announce))}


def in_language(f: Formula, lang: Language) -> bool:
    return _operators(f) <= _ALLOWED[lang]


def classify_language(f: Formula) -> Language:
    """Least language tag containing f: the first in declaration order whose
    operator set holds f's operators.

    A purely Boolean formula sits in both EL and PLKw; EL is returned as the
    canonical answer for that corner.
    """
    ops = _operators(f)
    return next(lang for lang in Language if ops <= _ALLOWED[lang])


def props_of(f: Formula) -> set[str]:
    return {g.name for g in subformulas(f) if isinstance(g, Prop)}


def agents_of(f: Formula) -> set[str]:
    return {g.agent for g in subformulas(f) if isinstance(g, Modal)}


# ---------------------------------------------------------------------------
# substitution


def substitute(f: Formula, prop: str, replacement: Formula) -> Formula:
    """Uniform substitution f[replacement/prop].

    Memoised on the node for the call, so a subformula that f shares is
    substituted once and its result shared."""
    memo: dict = {}

    def walk(g: Formula) -> Formula:
        out = memo.get(g)
        if out is None:
            if isinstance(g, Prop):
                out = replacement if g.name == prop else g
            else:
                out = g.map(walk)
            memo[g] = out
        return out

    return walk(f)


# ---------------------------------------------------------------------------
# complexity

# Weight of an announcement prefix.  The multiplicative clause is the usual
# one for announcement logics; the modal clause must weigh Kw/K heavier than
# negation (2 + c rather than 1 + c) or the Kw reduction axiom, whose right
# hand side mentions both [f]g and [f]~g, would not shrink.  translate.step
# asserts the strict decrease on every rewrite it performs.


def complexity(f: Formula, memo: Optional[dict] = None) -> int:
    """The weight of f.  memo, when given, maps nodes to their weights and is
    kept across calls; each node is weighed once either way, so shared
    subformulas cost nothing more."""
    kind = type(f)
    if kind is Top or kind is Bot or kind is Prop:
        return 1  # no children() call, which would cost a leaf one more frame
    if memo is None:
        memo = {}
    weight = memo.get(f)
    if weight is not None:
        return weight
    if kind is Announce:
        weight = (4 + complexity(f.announced, memo)) * complexity(f.body, memo)
    else:
        # a plain loop: a generator or map() inside max() costs a stack frame per level
        deepest = 0
        for g in f.children():
            c = complexity(g, memo)
            if c > deepest:
                deepest = c
        weight = (2 if isinstance(f, Modal) else 1) + deepest
    memo[f] = weight
    return weight


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<op><->|->|[~&|()\[\]])"
    r"|(?P<word>[A-Za-z][A-Za-z0-9_]*)"
)

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

_RESERVED = {"top", "bot", "Kw", "K"}


class ParseError(ValueError):
    """Syntax error carrying the byte offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)
        self.offset = offset
        self.expected = expected


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            toks.append((kind, m.group(), pos))
        pos = m.end()
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    """Recursive descent over the token list.

    The binary connectives bind as _CONNECTIVES says, then come the unary
    prefixes ~, Kw[i], K[i] and [f].
    """

    def __init__(self, toks, props, agents):
        self.toks = toks
        self.pos = 0
        self.props = props
        self.agents = agents

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

    def formula(self, level: int = 0) -> Formula:
        """A formula whose binary connectives bind no looser than _CONNECTIVES[level]."""
        kind, symbol, right_assoc = _CONNECTIVES[level]
        # the tightest level calls unary() itself, so that each parenthesis
        # costs no more stack frames than one per level
        tightest = level + 1 == _UNARY
        left = self.unary() if tightest else self.formula(level + 1)
        if right_assoc:
            if self.peek()[1] != symbol:
                return left
            self.next()
            return kind(left, self.formula(level))
        while self.peek()[1] == symbol:
            self.next()
            left = kind(left, self.unary() if tightest else self.formula(level + 1))
        return left

    def agent_name(self) -> str:
        tok = self.expect("word", "agent name")
        name = tok[1]
        if not _IDENT_RE.match(name):
            raise ParseError(f"bad agent name {name!r}", tok[2], ("agent name",))
        if self.agents is not None and name not in self.agents:
            raise ParseError(f"unknown agent {name!r}", tok[2])
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
            if self.props is not None and text not in self.props:
                raise ParseError(f"unknown proposition {text!r}", offset)
            return Prop(text)
        raise ParseError(f"unexpected {text!r}" if text else "unexpected end of input",
                         offset, ("~", "[", "(", "Kw", "K", "top", "bot", "proposition"))


def parse(text: str, *, props: Optional[set] = None, agents: Optional[set] = None) -> Formula:
    """Parse the ASCII syntax.  props/agents, when given, restrict the
    identifiers accepted (a declared-symbol session)."""
    parser = _Parser(_tokenize(text), props, agents)
    f = parser.formula()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return f


# ---------------------------------------------------------------------------
# rendering

def _wrap(f: Formula, limit: int) -> str:
    s = render(f)
    if _LEVEL.get(type(f), _UNARY) < limit:
        return "(" + s + ")"
    return s


def render(f: Formula) -> str:
    """Minimal-parenthesis concrete syntax; parse(render(f)) == f."""
    match f:
        case Top():
            return "top"
        case Bot():
            return "bot"
        case Prop(name):
            return name
        case Not(sub):
            return "~" + _wrap(sub, _UNARY)
        case Kw(agent, sub):
            return f"Kw[{agent}]" + _wrap(sub, _UNARY)
        case K(agent, sub):
            return f"K[{agent}]" + _wrap(sub, _UNARY)
        case Announce(announced, body):
            return "[" + render(announced) + "]" + _wrap(body, _UNARY)
        case Binary(left=a, right=b):
            level = _LEVEL[type(f)]
            _, symbol, right_assoc = _CONNECTIVES[level]
            # the operand on the associative side may sit at the same level
            return f"{_wrap(a, level + right_assoc)} {symbol} {_wrap(b, level + 1 - right_assoc)}"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# enumeration

def enumerate_formulas(props: Sequence[str], agents: Sequence[str],
                       lang: Language, max_size: int) -> Iterator[Formula]:
    """All core-connective formulas (top, p, ~, &, modalities, and for the
    announcement languages [f]g) with at most max_size AST nodes, smallest
    first.  Every tree is produced exactly once."""
    modals = [m for m in (Kw, K) if m in _ALLOWED[lang]]
    announcements = Announce in _ALLOWED[lang]
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
