"""Kripke models, model checking, announcements, and frame properties."""

from __future__ import annotations

import json
from enum import Enum
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Optional

from kwl.formula import (
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
    props_of,
)


class FrameProperty(Enum):
    # declared in the order `kwl frame` prints them
    REFLEXIVE = "reflexive"
    SERIAL = "serial"
    TRANSITIVE = "transitive"
    SYMMETRIC = "symmetric"
    EUCLIDEAN = "euclidean"
    PARTIAL_FUNCTIONAL = "partial-functional"


class FrameClass(Enum):
    K = "K"
    D = "D"
    T = "T"
    B = "B"
    K4 = "K4"
    K5 = "K5"
    K45 = "K45"
    S4 = "S4"
    S5 = "S5"
    PF = "PF"

    @property
    def requirements(self) -> frozenset[FrameProperty]:
        return _CLASS_REQUIREMENTS[self]

    @classmethod
    def parse(cls, name: str) -> "FrameClass":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown frame class {name!r}; "
                             f"one of {', '.join(c.name for c in cls)}") from None


_P = FrameProperty
_CLASS_REQUIREMENTS = {
    FrameClass.K: frozenset(),
    FrameClass.D: frozenset({_P.SERIAL}),
    FrameClass.T: frozenset({_P.REFLEXIVE}),
    FrameClass.B: frozenset({_P.SYMMETRIC}),
    FrameClass.K4: frozenset({_P.TRANSITIVE}),
    FrameClass.K5: frozenset({_P.EUCLIDEAN}),
    FrameClass.K45: frozenset({_P.TRANSITIVE, _P.EUCLIDEAN}),
    FrameClass.S4: frozenset({_P.REFLEXIVE, _P.TRANSITIVE}),
    FrameClass.S5: frozenset({_P.REFLEXIVE, _P.EUCLIDEAN}),
    FrameClass.PF: frozenset({_P.PARTIAL_FUNCTIONAL}),
}


class ModelError(ValueError):
    pass


class KripkeModel:
    """Finite Kripke model, with an optional point.

    worlds: ordered, duplicate-free world names.
    rel: agent -> set of (source, target) pairs.
    val: proposition -> set of worlds where it is true.
    point: an optional designated world, such as a countermodel's root.
    Order of the worlds list is preserved through JSON round trips so that
    countermodels print stably.  The evaluator reads the same relations and
    valuation as masks over world indices (bit k is worlds[k]), built with
    the model.
    """

    def __init__(self, worlds: Iterable[str], agents: Iterable[str],
                 rel: dict[str, Iterable[tuple[str, str]]],
                 val: dict[str, Iterable[str]],
                 point: Optional[str] = None):
        self.worlds = tuple(worlds)
        self.agents = tuple(agents)
        if not self.worlds:
            raise ModelError("a model needs at least one world")
        index = {w: k for k, w in enumerate(self.worlds)}
        if len(index) != len(self.worlds):
            raise ModelError("duplicate world names")
        if len(set(self.agents)) != len(self.agents):
            raise ModelError("duplicate agent names")
        self.rel: dict[str, frozenset[tuple[str, str]]] = {}
        edges = {}  # agent -> its edges in the caller's order, so an error names the first bad one
        for agent, pairs in rel.items():
            if agent not in self.agents:
                raise ModelError(f"relation for undeclared agent {agent!r}")
            edges[agent] = pairs = list(map(tuple, pairs))
            self.rel[agent] = frozenset(pairs)
        n = len(self.worlds)
        bit = [1 << k for k in range(n)]
        succ, pred = {}, {}  # agent -> one mask per world
        for agent in self.agents:
            out, back = [0] * n, [0] * n
            self.rel.setdefault(agent, frozenset())
            try:
                for s, t in edges.get(agent, ()):
                    ks, kt = index[s], index[t]
                    out[ks] |= bit[kt]
                    back[kt] |= bit[ks]
            except KeyError:
                raise ModelError(f"edge ({s!r}, {t!r}) mentions an unknown world") from None
            succ[agent], pred[agent] = out, back
        self.val: dict[str, frozenset[str]] = {}
        masks = {}
        for prop, where in val.items():
            self.val[prop] = where = frozenset(where)
            try:
                masks[prop] = sum(bit[index[w]] for w in where)
            except KeyError:
                raise ModelError(f"valuation of {prop!r} mentions unknown worlds") from None
        if point is not None and point not in index:
            raise ModelError(f"point {point!r} is not a world")
        self.point = point
        self._index = index
        self._space = _Space(n, succ, pred, masks)

    def successors(self, agent: str, world: str) -> frozenset[str]:
        return frozenset(t for s, t in self.rel.get(agent, ()) if s == world)

    def __eq__(self, other) -> bool:
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return (self.worlds == other.worlds and self.agents == other.agents
                and self.rel == other.rel and self.val == other.val
                and self.point == other.point)

    def __repr__(self) -> str:
        return (f"KripkeModel(worlds={list(self.worlds)}, agents={list(self.agents)}, "
                f"rel={{{', '.join(f'{a!r}: {sorted(p)}' for a, p in self.rel.items())}}}, "
                f"val={{{', '.join(f'{p!r}: {sorted(w)}' for p, w in sorted(self.val.items()))}}})")

    # -- JSON ----------------------------------------------------------------

    def to_dict(self) -> dict:
        order = self._index
        doc = {
            "worlds": list(self.worlds),
            "agents": list(self.agents),
            "rel": {a: sorted([list(e) for e in self.rel[a]],
                              key=lambda e: (order[e[0]], order[e[1]]))
                    for a in self.agents},
            "val": {p: sorted(self.val[p], key=order.__getitem__)
                    for p in sorted(self.val)},
        }
        if self.point is not None:
            doc["point"] = self.point
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_dict(cls, data: dict) -> "KripkeModel":
        if not isinstance(data, dict):
            raise ModelError("malformed model document: not an object")
        try:
            worlds, agents = data["worlds"], data["agents"]
        except KeyError as exc:
            raise ModelError(f"malformed model document: {exc}") from None
        rel, val, point = data.get("rel", {}), data.get("val", {}), data.get("point")
        for ok, what in (
                (_is_names(worlds), "worlds must be a list of strings"),
                (_is_names(agents), "agents must be a list of strings"),
                (isinstance(rel, dict) and all(isinstance(edges, list) and all(
                    isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                    and isinstance(e[1], str) for e in edges) for edges in rel.values()),
                 "rel must map each agent to a list of [source, target] world pairs"),
                (isinstance(val, dict) and all(map(_is_names, val.values())),
                 "val must map each proposition to a list of worlds"),
                ("point" not in data or isinstance(point, str), "point must be a world")):
            if not ok:
                raise ModelError(f"malformed model document: {what}")
        return cls(worlds, agents, rel, val, point=point)

    @classmethod
    def from_json(cls, text: str) -> "KripkeModel":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelError(f"not valid JSON: {exc}") from None
        return cls.from_dict(data)


def load_model(path) -> KripkeModel:
    with open(path, encoding="utf-8") as fh:
        return KripkeModel.from_json(fh.read())


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# ---------------------------------------------------------------------------
# model checking


# up to this many worlds, a loop over the bits of a world set beats selecting
# the rows in C; the selectors are the binary digits, lowest first
_FEW_WORLDS = 12
_BINARY = bytes.maketrans(b"01", b"\0\1")


class _Space:
    """The worlds 0..n-1 of a frame under `copies` valuations side by side:
    bit v*n + k of a world set stands for world k under valuation v, and
    copies is a power of two.  succ/pred: agent -> one mask per world of
    its successors/predecessors in copy 0.  val: proposition -> world set.
    full: every position.  unit: bit 0 of every copy."""

    __slots__ = ("succ", "pred", "val", "full", "unit")

    def __init__(self, n: int, succ: dict, pred: dict, val: dict, copies: int = 1):
        self.succ, self.pred, self.val = succ, pred, val
        self.full = (1 << n * copies) - 1
        self.unit = 1
        while copies > 1:  # doubling, so no big-int division
            self.unit |= self.unit << n
            n, copies = n << 1, copies >> 1

    def image(self, rel: list[int], ws: int) -> int:
        """The positions that rel relates to some position of ws, copy by copy."""
        if self.unit != 1:  # one multiply tiles a world's row over the copies it is in
            unit = self.unit
            return reduce(or_, [(ws >> k & unit) * row for k, row in enumerate(rel)], 0)
        if ws.bit_count() > _FEW_WORLDS:
            return reduce(or_, compress(rel, bin(ws)[:1:-1].encode().translate(_BINARY)), 0)
        out = 0
        while ws:
            bit = ws & -ws
            out |= rel[bit.bit_length() - 1]
            ws ^= bit
        return out


def mc(model: KripkeModel, world: str, f: Formula) -> bool:
    """Truth of f at world."""
    k = model._index.get(world)
    if k is None:
        raise ModelError(f"unknown world {world!r}")
    return bool(_ext(model._space, f, 1 << k, model._space.full, {}))


def model_valid(model: KripkeModel, f: Formula) -> bool:
    full = model._space.full
    return _ext(model._space, f, full, full, {}) == full


def restrict(model: KripkeModel, f: Formula) -> Optional[KripkeModel]:
    """Submodel on the worlds satisfying f, or None when no world does."""
    full = model._space.full
    mask = _ext(model._space, f, full, full, {})
    if not mask:
        return None
    keep = {w for k, w in enumerate(model.worlds) if mask >> k & 1}
    return KripkeModel(
        [w for w in model.worlds if w in keep],
        model.agents,
        {a: [(s, t) for s, t in pairs if s in keep and t in keep]
         for a, pairs in model.rel.items()},
        {p: where & keep for p, where in model.val.items()},
        point=model.point if model.point in keep else None,
    )


_UNASKED = (0, 0)


def _ext(sp: _Space, f: Formula, ws: int, dom: int, memo: dict) -> int:
    """The worlds of ws where f holds in the submodel on the worlds dom
    (ws <= dom).  The right side of And/Or/Implies is evaluated on the
    worlds its left side leaves open, the argument of K[i]/Kw[i] once on
    all successors of ws.  The announced formula a of [a]b is asked once on
    the whole of dom, and the body b under the domain dom & ext(a).  memo
    maps (K/Kw node or announced formula, dom) to (worlds asked, worlds
    found true), for one top-level call, so that no world is asked twice."""
    if not ws:
        return ws
    # an if-chain on the exact type: class patterns in a match cost twice as much
    kind = type(f)
    if kind is Prop:
        return ws & sp.val.get(f.name, 0)
    if kind is K or kind is Kw:
        rel = sp.succ.get(f.agent)
        if rel is None:  # an agent the model does not know sees nothing
            return ws
        key = (f, dom)
        asked, true = memo.get(key, _UNASKED)
        todo = ws & ~asked
        if todo:
            reach = sp.image(rel, todo) & dom
            holds = _ext(sp, f.sub, reach, dom, memo)
            back = sp.pred[f.agent]
            fails = sp.image(back, reach & ~holds)
            if kind is Kw:  # fails only with successors on both sides
                fails &= sp.image(back, holds)
            true |= todo & ~fails
            memo[key] = (asked | todo, true)
        return ws & true
    if kind is Not:
        while type(f.sub) is Not:  # ~~g holds where g does
            f = f.sub.sub
            if type(f) is not Not:
                return _ext(sp, f, ws, dom, memo)
        return ws & ~_ext(sp, f.sub, ws, dom, memo)
    if kind is And:
        return _ext(sp, f.right, _ext(sp, f.left, ws, dom, memo), dom, memo)
    if kind is Or:
        left = _ext(sp, f.left, ws, dom, memo)
        return left | _ext(sp, f.right, ws & ~left, dom, memo)
    if kind is Implies:
        left = _ext(sp, f.left, ws, dom, memo)
        return ws & ~left | _ext(sp, f.right, left, dom, memo)
    if kind is Iff:
        return ws & ~(_ext(sp, f.left, ws, dom, memo) ^ _ext(sp, f.right, ws, dom, memo))
    if kind is Top:
        return ws
    if kind is Bot:
        return 0
    if kind is Announce:
        key = (f.announced, dom)
        asked, true = memo.get(key, _UNASKED)
        if asked != dom:  # K/Kw may have left the entry partial
            true |= _ext(sp, f.announced, dom & ~asked, dom, memo)
            memo[key] = (dom, true)
        held = ws & true
        return ws & ~held | _ext(sp, f.body, held, true, memo)
    raise TypeError(f"not a formula: {f!r}")


_FRAME_VALID_BITS = 20
_BLOCK_BITS = 10  # valuation bits that vary within one pass of _ext


def frame_valid(model: KripkeModel, f: Formula) -> bool:
    """Truth of f at every world under every valuation of its propositions
    over the model's frame.  Exhaustive, so the number of proposition/world
    bits is capped.  Valuation index bit i*n + k says whether the i-th
    proposition holds at world k.  One pass of _ext takes a block of up to
    2^_BLOCK_BITS valuations side by side, in which the low bits vary and
    the others are fixed; the blocks are swept in order up to the first
    one with a failing valuation."""
    props, n = sorted(props_of(f)), len(model.worlds)
    bits = len(props) * n
    if bits > _FRAME_VALID_BITS:
        raise ValueError(f"{bits} valuation bits exceed the cap of {_FRAME_VALID_BITS}")
    inner = min(bits, _BLOCK_BITS)
    sp = _Space(n, model._space.succ, model._space.pred, {}, 1 << inner)
    fixed = {p: 0 for p in props}
    for j in range(inner):
        # bit 0 of the copies whose index has bit j set: the copy 2^j, doubled
        # along every other index bit
        tile = 1 << (n << j)
        for other in range(inner):
            if other != j:
                tile |= tile << (n << other)
        fixed[props[j // n]] |= tile << j % n
    for block in range(1 << (bits - inner)):
        sp.val = dict(fixed)
        for j in range(inner, bits):
            if block >> (j - inner) & 1:
                sp.val[props[j // n]] |= sp.unit << j % n
        if _ext(sp, f, sp.full, sp.full, {}) != sp.full:
            return False
    return True


# ---------------------------------------------------------------------------
# frame properties


# each property's test of one agent's relation, as successor and predecessor
# masks per world
_PROPERTY_TESTS = {
    FrameProperty.SERIAL: lambda sp, succ, pred: all(succ),
    FrameProperty.REFLEXIVE: lambda sp, succ, pred: all(m >> k & 1 for k, m in enumerate(succ)),
    FrameProperty.SYMMETRIC: lambda sp, succ, pred: succ == pred,
    # sRt and tRu imply sRu
    FrameProperty.TRANSITIVE: lambda sp, succ, pred: all(not sp.image(succ, m) & ~m for m in succ),
    # sRt and sRu imply tRu
    FrameProperty.EUCLIDEAN: lambda sp, succ, pred: all(
        not sp.image(succ, p) & ~m for m, p in zip(succ, pred)),
    FrameProperty.PARTIAL_FUNCTIONAL: lambda sp, succ, pred: all(not m & (m - 1) for m in succ),
}


def _has_properties(model: KripkeModel, properties) -> bool:
    """Whether every agent's relation has each of the properties; only those
    are tested."""
    sp = model._space
    return all(_PROPERTY_TESTS[p](sp, sp.succ[a], sp.pred[a])
               for p in properties for a in model.agents)


def frame_properties(model: KripkeModel) -> set[FrameProperty]:
    """Properties holding for every agent's relation."""
    return {p for p in FrameProperty if _has_properties(model, (p,))}


def satisfies_class(model: KripkeModel, frame_class: FrameClass) -> bool:
    return _has_properties(model, frame_class.requirements)
