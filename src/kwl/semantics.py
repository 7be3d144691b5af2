"""Kripke models, model checking, announcements, and frame properties."""

from __future__ import annotations

import json
from enum import Enum
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
_EMPTY: frozenset[str] = frozenset()


class ModelError(ValueError):
    pass


class KripkeModel:
    """Finite pointed-less Kripke model.

    worlds: ordered, duplicate-free world names.
    rel: agent -> set of (source, target) pairs.
    val: proposition -> set of worlds where it is true.
    Order of the worlds list is preserved through JSON round trips so that
    countermodels print stably.
    """

    def __init__(self, worlds: Iterable[str], agents: Iterable[str],
                 rel: dict[str, Iterable[tuple[str, str]]],
                 val: dict[str, Iterable[str]],
                 point: Optional[str] = None):
        self.worlds = tuple(worlds)
        self.agents = tuple(agents)
        if not self.worlds:
            raise ModelError("a model needs at least one world")
        if len(set(self.worlds)) != len(self.worlds):
            raise ModelError("duplicate world names")
        if len(set(self.agents)) != len(self.agents):
            raise ModelError("duplicate agent names")
        wset = set(self.worlds)
        self.rel: dict[str, frozenset[tuple[str, str]]] = {}
        for agent, pairs in rel.items():
            if agent not in self.agents:
                raise ModelError(f"relation for undeclared agent {agent!r}")
            self.rel[agent] = frozenset((s, t) for s, t in pairs)
        self.succ: dict[str, dict[str, frozenset[str]]] = {}  # agent -> world -> successors
        for agent in self.agents:
            succ = {w: [] for w in self.worlds}
            for s, t in self.rel.setdefault(agent, frozenset()):
                if s not in wset or t not in wset:
                    raise ModelError(f"edge ({s!r}, {t!r}) mentions an unknown world")
                succ[s].append(t)
            self.succ[agent] = {w: frozenset(ts) for w, ts in succ.items()}
        self.val: dict[str, frozenset[str]] = {}
        for prop, where in val.items():
            where = frozenset(where)
            if not where <= wset:
                raise ModelError(f"valuation of {prop!r} mentions unknown worlds")
            self.val[prop] = where
        if point is not None and point not in wset:
            raise ModelError(f"point {point!r} is not a world")
        self.point = point

    def successors(self, agent: str, world: str) -> frozenset[str]:
        return self.succ.get(agent, {}).get(world, _EMPTY)

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
        order = {w: n for n, w in enumerate(self.worlds)}
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
        return cls(worlds, agents, {a: [tuple(e) for e in edges] for a, edges in rel.items()},
                   val, point=point)

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


def mc(model: KripkeModel, world: str, f: Formula) -> bool:
    """Truth of f at world."""
    if world not in model.worlds:
        raise ModelError(f"unknown world {world!r}")
    return bool(_ext(model, f, frozenset((world,)), {}))


def model_valid(model: KripkeModel, f: Formula) -> bool:
    return len(_ext(model, f, frozenset(model.worlds), {})) == len(model.worlds)


def restrict(model: KripkeModel, f: Formula, *, _memo: Optional[dict] = None) -> Optional[KripkeModel]:
    """Submodel on the worlds satisfying f, or None when no world does."""
    keep = _ext(model, f, frozenset(model.worlds), {} if _memo is None else _memo)
    if not keep:
        return None
    return KripkeModel(
        [w for w in model.worlds if w in keep],
        model.agents,
        {a: [(s, t) for s, t in pairs if s in keep and t in keep]
         for a, pairs in model.rel.items()},
        {p: where & keep for p, where in model.val.items()},
        point=model.point if model.point in keep else None,
    )


def _ext(m: KripkeModel, f: Formula, ws: frozenset[str], memo: dict) -> frozenset[str]:
    """The worlds of ws where f holds in m.  The right side of And/Or/Implies
    is evaluated on the worlds its left side leaves open, the argument of
    K[i]/Kw[i] once on all successors of ws.  memo maps (id of a model,
    announced formula) to the restriction, for one top-level call."""
    if not ws:
        return ws
    # an if-chain on the exact type: class patterns in a match cost twice as much
    kind = type(f)
    if kind is Prop:
        return ws & m.val.get(f.name, _EMPTY)
    if kind is K or kind is Kw:
        succ = m.succ.get(f.agent)
        if succ is None:  # an agent the model does not know sees nothing
            return ws
        holds = _ext(m, f.sub, _EMPTY.union(*map(succ.__getitem__, ws)), memo)
        return frozenset(w for w in ws if succ[w] <= holds
                         or kind is Kw and succ[w].isdisjoint(holds))
    if kind is Not:
        return ws - _ext(m, f.sub, ws, memo)
    if kind is And:
        return _ext(m, f.right, _ext(m, f.left, ws, memo), memo)
    if kind is Or:
        left = _ext(m, f.left, ws, memo)
        return left | _ext(m, f.right, ws - left, memo)
    if kind is Implies:
        left = _ext(m, f.left, ws, memo)
        return (ws - left) | _ext(m, f.right, left, memo)
    if kind is Iff:
        return ws - (_ext(m, f.left, ws, memo) ^ _ext(m, f.right, ws, memo))
    if kind is Top:
        return ws
    if kind is Bot:
        return _EMPTY
    if kind is Announce:
        held = _ext(m, f.announced, ws, memo)
        if not held:
            return ws
        key = (id(m), f.announced)
        if key not in memo:
            memo[key] = restrict(m, f.announced, _memo=memo)
        return (ws - held) | _ext(memo[key], f.body, held, memo)
    raise TypeError(f"not a formula: {f!r}")


_FRAME_VALID_BITS = 20


def frame_valid(model: KripkeModel, f: Formula) -> bool:
    """Truth of f at every world under every valuation of its propositions
    over the model's frame.  Exhaustive, so the number of proposition/world
    bits is capped.  One model of the frame takes each valuation in turn."""
    props, n = sorted(props_of(f)), len(model.worlds)
    bits = len(props) * n
    if bits > _FRAME_VALID_BITS:
        raise ValueError(f"{bits} valuation bits exceed the cap of {_FRAME_VALID_BITS}")
    candidate = KripkeModel(model.worlds, model.agents, model.rel, {})
    for mask in range(1 << bits):
        candidate.val = {p: frozenset(w for j, w in enumerate(model.worlds)
                                      if mask >> (i * n + j) & 1)
                         for i, p in enumerate(props)}
        if not model_valid(candidate, f):
            return False
    return True


# ---------------------------------------------------------------------------
# frame properties


def frame_properties(model: KripkeModel) -> set[FrameProperty]:
    """Properties holding for every agent's relation."""
    ws = model.worlds
    tests = {
        FrameProperty.SERIAL: lambda succ: all(succ[w] for w in ws),
        FrameProperty.REFLEXIVE: lambda succ: all(w in succ[w] for w in ws),
        FrameProperty.SYMMETRIC: lambda succ: all(s in succ[t] for s in ws for t in succ[s]),
        FrameProperty.TRANSITIVE: lambda succ: all(succ[t] <= succ[s] for s in ws for t in succ[s]),
        # sRt and sRu imply tRu
        FrameProperty.EUCLIDEAN: lambda succ: all(succ[s] <= succ[t] for s in ws for t in succ[s]),
        FrameProperty.PARTIAL_FUNCTIONAL: lambda succ: all(len(succ[w]) <= 1 for w in ws),
    }
    return {p for p, holds in tests.items() if all(holds(model.succ[a]) for a in model.agents)}


def satisfies_class(model: KripkeModel, frame_class: FrameClass) -> bool:
    return frame_class.requirements <= frame_properties(model)
