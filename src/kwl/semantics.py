"""Kripke models, model checking, announcements, and frame properties."""

from __future__ import annotations

import json
from enum import Enum
from functools import cached_property, reduce
from itertools import compress, repeat
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
    point: an optional designated world, such as a countermodel's root.
    Order of the worlds list is preserved through JSON round trips so that
    countermodels print stably.  The model's one store is masks over world
    indices (bit k is worlds[k]): per agent, one successor and one
    predecessor mask per world, and one mask per proposition.  rel (agent
    -> set of (source, target) pairs, in the order of agents) and val
    (proposition -> set of worlds where it is true) are views of the masks,
    built when first read and then kept.
    """

    def __init__(self, worlds: Iterable[str], agents: Iterable[str],
                 rel: dict[str, Iterable[tuple[str, str]]],
                 val: dict[str, Iterable[str]],
                 point: Optional[str] = None):
        worlds, agents = tuple(worlds), tuple(agents)
        if not worlds:
            raise ModelError("a model needs at least one world")
        index = {w: k for k, w in enumerate(worlds)}
        if len(index) != len(worlds):
            raise ModelError("duplicate world names")
        if len(set(agents)) != len(agents):
            raise ModelError("duplicate agent names")
        for agent in rel:
            if agent not in agents:
                raise ModelError(f"relation for undeclared agent {agent!r}")
        bit = [1 << k for k in range(len(worlds))]
        succ, pred = {}, {}  # agent -> one mask per world
        for agent in agents:
            succ[agent], pred[agent] = out, back = [0] * len(worlds), [0] * len(worlds)
            try:  # the edges in the caller's order, so an error names the first bad one
                for s, t in rel.get(agent, ()):
                    ks, kt = index[s], index[t]
                    out[ks] |= bit[kt]
                    back[kt] |= bit[ks]
            except KeyError:
                raise ModelError(f"edge ({s!r}, {t!r}) mentions an unknown world") from None
        masks = {}
        for prop, where in val.items():
            try:
                masks[prop] = reduce(or_, map(bit.__getitem__, map(index.__getitem__, where)), 0)
            except KeyError:
                raise ModelError(f"valuation of {prop!r} mentions unknown worlds") from None
        if point is not None and point not in index:
            raise ModelError(f"point {point!r} is not a world")
        self._store(worlds, agents, point, index, succ, pred, masks)

    @classmethod
    def _from_rows(cls, worlds, agents, point, succ, val) -> "KripkeModel":
        """The model with these successor rows (agent -> one mask per world,
        bit t of row s for the edge s -> t) and valuation masks, unchecked:
        the library builds it from masks that it made.  The predecessor rows
        and the index of the worlds are derived here."""
        pred = {}
        for agent, rows in succ.items():
            pred[agent] = back = [0] * len(worlds)
            for s, row in enumerate(rows):
                for t in _bits(row):
                    back[t] |= 1 << s
        index = {w: k for k, w in enumerate(worlds)}
        return cls.__new__(cls)._store(worlds, agents, point, index, succ, pred, val)

    def _store(self, worlds, agents, point, index, succ, pred, val) -> "KripkeModel":
        """Set the model's fields, unchecked, and return it: the names, the
        index of the worlds (world -> bit position), one successor and one
        predecessor mask per world for every agent (succ, pred), and one
        mask per proposition (val).  Its two callers are __init__, when its
        checks have passed, and _from_rows, on a blank instance."""
        self.worlds, self.agents, self.point, self._index = worlds, agents, point, index
        self._space = _Space(len(worlds), succ, pred, val)
        return self

    def _named(self, mask: int):
        """The worlds of a mask, in order: a loop over its set bits, or past
        _FEW_WORLDS of them a selection in C, as in _Space.image."""
        if mask.bit_count() > _FEW_WORLDS:
            return compress(self.worlds, bin(mask)[:1:-1].encode().translate(_BINARY))
        worlds, named = self.worlds, []
        while mask:
            bit = mask & -mask
            named.append(worlds[bit.bit_length() - 1])
            mask ^= bit
        return named

    @cached_property
    def rel(self) -> dict[str, frozenset[tuple[str, str]]]:
        return {a: frozenset((s, t) for s, row in zip(self.worlds, rows) for t in self._named(row))
                for a, rows in self._space.succ.items()}

    @cached_property
    def val(self) -> dict[str, frozenset[str]]:
        return {p: frozenset(self._named(mask)) for p, mask in self._space.val.items()}

    def successors(self, agent: str, world: str) -> frozenset[str]:
        k, rows = self._index.get(world), self._space.succ.get(agent)
        return frozenset() if k is None or rows is None else frozenset(self._named(rows[k]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KripkeModel):
            return NotImplemented
        return ((self.worlds, self.agents, self.point, self._space.succ, self._space.val)
                == (other.worlds, other.agents, other.point, other._space.succ, other._space.val))

    def __repr__(self) -> str:
        return (f"KripkeModel(worlds={list(self.worlds)}, agents={list(self.agents)}, "
                f"rel={{{', '.join(f'{a!r}: {sorted(p)}' for a, p in self.rel.items())}}}, "
                f"val={{{', '.join(f'{p!r}: {sorted(w)}' for p, w in sorted(self.val.items()))}}})")

    # -- JSON ----------------------------------------------------------------

    def to_dict(self) -> dict:
        sp = self._space
        doc = {
            "worlds": list(self.worlds),
            "agents": list(self.agents),
            "rel": {a: [[s, t] for s, row in zip(self.worlds, sp.succ[a]) for t in self._named(row)]
                    for a in self.agents},
            "val": {p: list(self._named(sp.val[p])) for p in sorted(sp.val)},
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

        def faults(pairs: bool) -> list:  # the document's shape faults, in the order reported
            return [what for ok, what in (
                (_is_names(worlds), "worlds must be a list of strings"),
                (_is_names(agents), "agents must be a list of strings"),
                (isinstance(rel, dict) and all(_is_edges(e, pairs) for e in rel.values()),
                 "rel must map each agent to a list of [source, target] world pairs"),
                (isinstance(val, dict) and all(map(_is_names, val.values())),
                 "val must map each proposition to a list of worlds"),
                ("point" not in data or isinstance(point, str), "point must be a world")) if not ok]

        # __init__'s loop that sets an edge's bits checks the rest of its
        # shape: the edge must unpack into two names, and only strings name
        # worlds.  So the first pass checks only that each edge is a list (a
        # string or dict of two world names would unpack too), and a document
        # that fails it or __init__ is checked in full, so that its first shape
        # fault is reported before any fault of the model it describes
        try:
            if not faults(False):
                return cls(worlds, agents, rel, val, point=point)
        except (TypeError, ValueError):
            if not faults(True):
                raise
        raise ModelError(f"malformed model document: {faults(True)[0]}") from None

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
    return isinstance(value, list) and all(map(isinstance, value, repeat(str)))  # a loop in C


def _is_edges(value, pairs: bool) -> bool:
    """Whether value is a list of lists, and if pairs, each of two strings."""
    return (isinstance(value, list) and all(map(isinstance, value, repeat(list)))
            and (not pairs or all(len(e) == 2 and _is_names(e) for e in value)))


def _bits(mask: int):
    """The positions of mask's set bits, lowest first."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


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
        self.unit = self.full // ((1 << n) - 1)

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
    keep = list(model._named(mask))  # read from the masks: rel and val stay unbuilt
    return KripkeModel(
        keep,
        model.agents,
        {a: [(s, t) for s in keep for t in model._named(rows[model._index[s]] & mask)]
         for a, rows in model._space.succ.items()},
        {p: model._named(where & mask) for p, where in model._space.val.items()},
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
    _P.SERIAL: lambda sp, succ, pred: all(succ),
    _P.REFLEXIVE: lambda sp, succ, pred: all(m >> k & 1 for k, m in enumerate(succ)),
    _P.SYMMETRIC: lambda sp, succ, pred: succ == pred,
    # sRt and tRu imply sRu; each distinct row is imaged once
    _P.TRANSITIVE: lambda sp, succ, pred: all(not sp.image(succ, m) & ~m for m in set(succ)),
    # sRt and sRu imply tRu; each distinct (row, column) pair is imaged once
    _P.EUCLIDEAN: lambda sp, succ, pred: all(
        not sp.image(succ, p) & ~m for m, p in set(zip(succ, pred))),
    _P.PARTIAL_FUNCTIONAL: lambda sp, succ, pred: all(not m & (m - 1) for m in succ),
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
