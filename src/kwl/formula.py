"""Formula AST, concrete syntax, and structural operations.

The core language is built from top, propositions, negation and conjunction,
plus the modalities Kw[i] ("the agent knows whether") and K[i] ("the agent
knows that") and public announcements [f]g.  bot, |, -> and <-> are first
class nodes as well, so parse/render round-trips keep the shape the user
wrote; only operations that need a small core (reduction, enumeration)
normalise them away.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence
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
    fields are its dataclass fields, in order (__match_args__).  The private
    slot _ops holds the _BIT mask of the operators that occur in the node,
    set when the node is built from its children's masks.  The slot _weight
    holds its complexity, which can be 5**n for n nested announcements: it
    stays unset until complexity() is called on a formula that holds the
    node.

    children() lists a node's immediate subformulas, left to right, and
    map(fn) returns the same node with fn applied to each of them.  Leaves
    have no children and map to themselves.
    """

    __slots__ = ("__weakref__", "_ops", "_weight")

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
            ops = _BIT.get(cls, 0)
            # a node has at most two fields; unrolled, this costs half a loop's time.
            # A field that is no node (a name or an agent) has no mask.
            if names:
                _set(node, names[0], fields[0])
                ops |= getattr(fields[0], "_ops", 0)
                if len(names) == 2:
                    _set(node, names[1], fields[1])
                    ops |= getattr(fields[1], "_ops", 0)
            _set(node, "_ops", ops)
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


# one bit per operator that a language may leave out: a node's _ops holds
# the bits of the operators that occur in it
_BIT = {Kw: 1, K: 2, Announce: 4}

TOP = Top()
BOT = Bot()

# the binary connectives, loosest first: (node, symbol, right associative).
# parse and render both read it; a connective's level is its index, which
# _LEVEL gives by node (render) and by symbol (parse).
_CONNECTIVES = (
    (Iff, "<->", True),
    (Implies, "->", True),
    (Or, "|", False),
    (And, "&", False),
)
_LEVEL = {key: level for level, entry in enumerate(_CONNECTIVES) for key in entry[:2]}
_UNARY = len(_CONNECTIVES)  # the level of every other node


def conj(parts: Sequence[Formula]) -> Formula:
    """Left-associated conjunction of the parts; top when there are none."""
    return functools.reduce(And, parts) if parts else TOP


def disj(parts: Sequence[Formula]) -> Formula:
    """Left-associated disjunction of the parts; bot when there are none."""
    return functools.reduce(Or, parts) if parts else BOT


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


class _Missing(Exception):
    """fold's signal: the image of the node in args[0] is not known yet."""


def fold(f: Formula, rule: Callable) -> object:
    """The image of f under rule(g, image), computed once per distinct node.

    image(h) gives the image of h, a child of g or a node the rule has built.
    An image not known yet is computed first and g's rule is run again, so a
    rule may have no effect but its result or an exception of its own.  Rules
    that ask for children left to right are entered in the preorder of first
    occurrence.  Iterative, so any depth is folded whole."""
    images: dict = {}

    def image(h: Formula):
        if h in images:
            return images[h]
        raise _Missing(h)

    stack = [f]
    while stack:
        g = stack.pop()
        try:
            images[g] = rule(g, image)
        except _Missing as missing:
            stack += g, missing.args[0]
    return images[f]


def substitute(f: Formula, prop: str, replacement: Formula) -> Formula:
    """Uniform substitution f[replacement/prop]."""
    target = Prop(prop)
    return fold(f, lambda g, image: replacement if g is target else g.map(image))


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


# the operators outside each language, as a mask of _BIT's bits
_OUTSIDE = {lang: ~sum(_BIT[op] for op in ops) for lang, ops in _ALLOWED.items()}


def in_language(f: Formula, lang: Language) -> bool:
    """Whether every operator of f is one that lang admits.  Reads the
    operator mask that f got when it was built, so a query costs O(1)."""
    return not f._ops & _OUTSIDE[lang]


def classify_language(f: Formula) -> Language:
    """Least language tag containing f: the first in declaration order whose
    operator set holds f's operators.

    A purely Boolean formula sits in both EL and PLKw; EL is returned as the
    canonical answer for that corner.
    """
    ops = f._ops
    return next(lang for lang in Language if not ops & _OUTSIDE[lang])


def vocabulary(f: Formula) -> tuple[set[str], set[str]]:
    """The letters and the agents of f, from one walk."""
    props, agents = set(), set()
    for g in subformulas(f):
        if type(g) is Prop:
            props.add(g.name)
        elif isinstance(g, Modal):
            agents.add(g.agent)
    return props, agents


def props_of(f: Formula) -> set[str]:
    return vocabulary(f)[0]


def agents_of(f: Formula) -> set[str]:
    return vocabulary(f)[1]


# ---------------------------------------------------------------------------
# complexity

# Weight of an announcement prefix.  The multiplicative clause is the usual
# one for announcement logics; the modal clause must weigh Kw/K heavier than
# negation (2 + c rather than 1 + c) or the Kw reduction axiom, whose right
# hand side mentions both [f]g and [f]~g, would not shrink.  translate.reduce
# asserts the strict decrease on every rewrite it performs.


def _weigh(g: Formula, image) -> int:
    # a child weighed before, by this fold or an earlier call, is read from
    # its slot; fold enters only the others.  Every weight is at least 1.
    weights = [getattr(h, "_weight", None) or image(h) for h in g.children()]
    if type(g) is Announce:
        weight = (4 + weights[0]) * weights[1]
    else:
        weight = (2 if isinstance(g, Modal) else 1) + max(weights, default=0)
    _set(g, "_weight", weight)
    return weight


def complexity(f: Formula) -> int:
    """The weight of f: 1 for a leaf, 1 plus the heaviest child for ~ and the
    binary connectives, 2 plus the argument for Kw[i] and K[i], and
    (4 + weight of a) * (weight of b) for [a]b.  Kept in each node's _weight
    slot once weighed, so a shared subformula is weighed once across calls.
    The first call on a node weighs the nodes not weighed yet, with one fold,
    so any depth is weighed whole; building a node weighs nothing."""
    return getattr(f, "_weight", None) or fold(f, _weigh)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<op><->|->|[~&|()\[\]])"
    r"|(?P<word>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<bad>.)"  # any other character; a newline is whitespace
)

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


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
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", m.start())
        if kind != "ws":
            toks.append((kind, m.group(), m.start()))
    toks.append(("eof", "", len(text)))
    return toks


def _expect(tok: tuple, want: str, expected: tuple[str, ...]) -> tuple:
    # tok, which must be of kind or text want
    if want not in tok[:2]:
        raise ParseError(f"unexpected {tok[1]!r}" if tok[1] else "unexpected end of input",
                         tok[2], expected)
    return tok


def parse(text: str) -> Formula:
    """Parse the ASCII syntax into a formula.

    One loop over the tokens, with a stack of what waits for an operand: an
    entry (level, build, arg) takes the operand as build's last field, after
    arg unless that is None.  The prefixes ~, Kw[i], K[i] and [f] sit at
    _UNARY, and a binary connective at its level with its left operand.  An
    open bracket sits at -1 with its closer, and so does the bottom entry,
    with none: it stands for the whole input.  Once an operand is read, the
    entries that bind at least as tightly as the token after it are built
    into it (Dijkstra's shunting-yard), so _CONNECTIVES decides precedence
    and associativity, and any depth is read whole."""
    toks = iter(_tokenize(text))
    stack: list = [(-1, "", None)]
    while True:
        tok = next(toks)  # an operand starts here
        word = tok[1]
        if word == "~":
            stack.append((_UNARY, Not, None))
            continue
        if word == "[" or word == "(":
            stack.append((-1, ")" if word == "(" else "]", None))
            continue
        if word == "Kw" or word == "K":
            _expect(next(toks), "[", ("[",))
            _, agent, offset = _expect(next(toks), "word", ("agent name",))
            if not _IDENT_RE.match(agent):
                raise ParseError(f"bad agent name {agent!r}", offset, ("agent name",))
            _expect(next(toks), "]", ("]",))
            stack.append((_UNARY, Kw if word == "Kw" else K, agent))
            continue
        if tok[0] != "word":  # tested before the call, as an operand is most often a word
            _expect(tok, "word", ("~", "[", "(", "Kw", "K", "top", "bot", "proposition"))
        if word == "top" or word == "bot":
            f = TOP if word == "top" else BOT
        elif _IDENT_RE.match(word):
            f = Prop(word)
        else:
            raise ParseError(f"bad proposition name {word!r}", tok[2])
        while True:  # f is read; build what binds to it before the next token
            tok = next(toks)
            level = _LEVEL.get(tok[1], -1)
            # a right associative connective leaves one of its own level waiting
            floor = level + _CONNECTIVES[level][2] if level >= 0 else 0
            while stack[-1][0] >= floor:
                _, build, arg = stack.pop()
                f = build(f) if arg is None else build(arg, f)
            if level >= 0:
                stack.append((level, _CONNECTIVES[level][0], f))
                break
            closer = stack.pop()[1]
            if not closer:
                if tok[0] != "eof":
                    raise ParseError(f"trailing input {tok[1]!r}", tok[2])
                return f
            _expect(tok, closer, (closer,))
            if closer == "]":
                stack.append((_UNARY, Announce, f))
                break


# ---------------------------------------------------------------------------
# rendering

def render(f: Formula) -> str:
    """Minimal-parenthesis concrete syntax; parse(render(f)) == f for every f
    that parse can return (not for Prop("top"), which parses back as TOP).

    One loop over a stack of pending pieces, each literal text or a
    subformula with the level of its enclosing connective, which is written
    in parentheses when its own binds looser.  So any depth is written whole."""
    out = []
    pending: list = [(f, 0)]
    while pending:
        piece = pending.pop()
        if type(piece) is str:
            out.append(piece)
            continue
        g, limit = piece
        kind = type(g)
        if kind is Prop:
            out.append(g.name)
        elif kind is Not:
            out.append("~")
            pending.append((g.sub, _UNARY))
        elif kind is Kw or kind is K:  # the modalities are written with their class names
            out.append(f"{kind.__name__}[{g.agent}]")
            pending.append((g.sub, _UNARY))
        elif kind is Announce:
            out.append("[")
            pending += (g.body, _UNARY), "]", (g.announced, 0)
        elif kind is Top or kind is Bot:
            out.append("top" if kind is Top else "bot")
        elif isinstance(g, Binary):
            level = _LEVEL[kind]
            _, symbol, right_assoc = _CONNECTIVES[level]
            # the operand on the associative side may sit at the same level;
            # pushed last piece first
            if level < limit:
                out.append("(")
                pending.append(")")
            pending += (g.right, level + 1 - right_assoc), f" {symbol} ", (g.left, level + right_assoc)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)
