"""Frame-class-aware satisfiability and validity via a labelled tableau.

Announcements are reduced away first.  One pass, _Tableau.nnf, then takes
the formula to negation normal form and removes Kw with it: Kw[i]g becomes
K[i]g | K[i]~g in general, and top over partial-functional frames, where it
holds everywhere.  A tableau whose accessibility relations are kept closed
under the frame conditions of the requested class searches for a model.  A
satisfiable verdict carries a pointed model that has been re-checked against
the original formula with the model checker; nothing is returned on faith.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .formula import (
    BOT,
    TOP,
    And,
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
    Prop,
    Top,
    agents_of,
    classify_language,
    node_class,
    props_of,
)
from .semantics import (
    FrameClass,
    FrameProperty,
    KripkeModel,
    frame_properties,
    mc,
)
from .translate import reduce


class BudgetExceeded(Exception):
    """sat ran out of budget before reaching a verdict (see _Tableau)."""


@dataclass(frozen=True)
class DecisionResult:
    satisfiable: bool
    model: Optional[KripkeModel]
    prefixes: int
    branches: int


@dataclass(frozen=True)
class Validity:
    valid: bool
    countermodel: Optional[KripkeModel]
    prefixes: int
    branches: int


@node_class
class _Dia(Modal):
    """Internal NNF-only dual of K; never rendered."""

    agent: str
    sub: Formula


# ---------------------------------------------------------------------------
# relation closure


# the Horn frame conditions, in the order of _close's flags
_HORN = (FrameProperty.REFLEXIVE, FrameProperty.SYMMETRIC, FrameProperty.TRANSITIVE,
         FrameProperty.EUCLIDEAN)


def _close(worlds, pairs, reflexive, symmetric, transitive, euclidean) -> set:
    """Least superset of pairs closed under the Horn frame conditions flagged."""
    closed = set(pairs)
    if reflexive:
        closed |= {(w, w) for w in worlds}
    while True:
        new = set()
        if symmetric:
            new |= {(t, s) for (s, t) in closed} - closed
        if transitive:
            new |= {(s, u) for (s, t) in closed for (t2, u) in closed if t == t2} - closed
        if euclidean:
            new |= {(t, u) for (s, t) in closed for (s2, u) in closed if s == s2} - closed
        if not new:
            return closed
        closed |= new


# ---------------------------------------------------------------------------
# branch state


class _Branch:
    # labels and boxes are dicts used as insertion-ordered sets (every value
    # None), so that diamonds fire and boxes re-fire in the order the formulas
    # arrived, whatever the string-hash seed.  The worlds are the keys of
    # labels, numbered 0, 1, ... in creation order; world 0 is the root.
    __slots__ = ("labels", "base", "boxes", "fired", "det", "splits")

    def __init__(self):
        self.labels: dict[int, dict] = {}
        self.base: dict[str, set] = {}
        self.boxes: dict[tuple, dict] = {}
        self.fired: set = set()
        self.det: deque = deque()
        self.splits: list = []

    def copy(self) -> "_Branch":
        br = _Branch.__new__(_Branch)
        br.labels = {w: dict(s) for w, s in self.labels.items()}
        br.base = {a: set(p) for a, p in self.base.items()}
        br.boxes = {k: dict(s) for k, s in self.boxes.items()}
        br.fired = set(self.fired)
        br.det = deque(self.det)
        br.splits = list(self.splits)
        return br


_CLOSED = "closed"


def _rep(br, w) -> int:
    """The first world whose label equals w's: w itself unless w is blocked."""
    return next(u for u in br.labels if br.labels[u] == br.labels[w])


class _Tableau:
    """One call's search.  work is counted against the budget, preprocessing
    included: one tick per new world, label entry, reduced node and NNF memo
    entry."""

    def __init__(self, props, agents, budget, pf):
        self.agents = agents
        self.budget = budget
        self.pf = pf
        # the frame conditions, worked out once: _close runs on every new edge
        self.horn = tuple(p in props for p in _HORN)
        self.serial = FrameProperty.SERIAL in props
        self.blocking = bool(props & {FrameProperty.TRANSITIVE, FrameProperty.EUCLIDEAN})
        self.prefixes = 0
        self.branches = 0
        self.work = 0
        self.nnf_memo: dict = {}

    def _tick(self):
        self.work += 1
        if self.work > self.budget:
            raise BudgetExceeded(f"tableau budget of {self.budget} nodes exhausted")

    def nnf(self, f: Formula, neg: bool) -> Formula:
        """Negation normal form of f, or of ~f when neg is set, with Kw expanded.

        Kw[i]g becomes K[i]g | K[i]~g, and ~Kw[i]g becomes _Dia(i,~g) & _Dia(i,g);
        over partial-functional frames (pf) Kw[i]g holds everywhere and becomes
        top.  The output has negation on propositions only, and no ->, <->, Kw or
        announcement.  Memoised on (node, neg) for the call, so a subformula
        that Kw or <-> copies is translated once per polarity, and _resolve_splits
        finds a disjunct's complement here.
        """
        key = (f, neg)
        out = self.nnf_memo.get(key)
        if out is not None:
            return out
        nnf, t = self.nnf, type(f)
        if t is Prop:
            out = Not(f) if neg else f
        elif t is Not:
            out = nnf(f.sub, not neg)
        elif t is And or t is Or:
            op = (Or if t is And else And) if neg else t
            out = op(nnf(f.left, neg), nnf(f.right, neg))
        elif t is K or t is _Dia:
            op = (_Dia if t is K else K) if neg else t
            out = op(f.agent, nnf(f.sub, neg))
        elif t is Top or t is Bot:
            out = (BOT if t is Top else TOP) if neg else f
        elif t is Implies:
            a, b = nnf(f.left, not neg), nnf(f.right, neg)
            out = And(a, b) if neg else Or(a, b)
        elif t is Iff:
            out = Or(And(nnf(f.left, False), nnf(f.right, neg)),
                     And(nnf(f.left, True), nnf(f.right, not neg)))
        elif t is Kw:
            if self.pf:
                out = BOT if neg else TOP
            else:
                pos, negd = nnf(f.sub, False), nnf(f.sub, True)
                out = (And(_Dia(f.agent, negd), _Dia(f.agent, pos)) if neg
                       else Or(K(f.agent, pos), K(f.agent, negd)))
        else:
            raise TypeError(f"not an announcement-free formula: {f!r}")
        self.nnf_memo[key] = out
        self._tick()
        return out

    def _closed_rel(self, br, agent):
        return _close(br.labels, br.base.get(agent, set()), *self.horn)

    def _new_world(self, br) -> int:
        w = len(br.labels)
        br.labels[w] = {}
        self.prefixes += 1
        self._tick()
        return w

    def _add(self, br, w, f):
        if f in br.labels[w]:
            return
        self._tick()
        br.labels[w][f] = None
        br.det.append((w, f))

    def _add_edge(self, br, agent, u, v):
        br.base.setdefault(agent, set()).add((u, v))
        # boxes re-fire over the whole closed relation; _add deduplicates
        closed = self._closed_rel(br, agent)
        for (x, y) in closed:
            for body in br.boxes.get((x, agent), ()):
                self._add(br, y, body)

    def _saturate(self, br) -> Optional[str]:
        while br.det:
            w, f = br.det.popleft()
            match f:
                case Bot():
                    return _CLOSED
                case Top():
                    pass
                case Prop(_):
                    if Not(f) in br.labels[w]:
                        return _CLOSED
                case Not(sub):
                    if sub in br.labels[w]:
                        return _CLOSED
                case And(a, b):
                    self._add(br, w, a)
                    self._add(br, w, b)
                case Or(_, _):
                    br.splits.append((w, f))
                case K(agent, body):
                    br.boxes.setdefault((w, agent), {})[body] = None
                    for (x, y) in self._closed_rel(br, agent):
                        if x == w:
                            self._add(br, y, body)
                case _Dia(_, _):
                    pass
        return None

    def _fire_one(self, br) -> bool:
        """Expand the diamonds of one world (or one seriality obligation); True on progress."""
        # both loops return right after _new_world, so labels never grows under them
        for w in br.labels:
            dias = [f for f in br.labels[w]
                    if isinstance(f, _Dia) and (w, f) not in br.fired]
            if not dias:
                continue
            if self.blocking and _rep(br, w) != w:
                continue
            # the order in which box and diamond bodies reach the successor's
            # label orders its splits, and so the search and the model
            if self.pf:
                # at most one successor per world and agent: all of the least
                # agent's diamonds fire into it, after its boxes
                agent = min(f.agent for f in dias)
                fire = [f for f in dias if f.agent == agent]
                succ = [y for (x, y) in br.base.get(agent, set()) if x == w]
                v = succ[0] if succ else self._new_world(br)
                if not succ:
                    self._add_edge(br, agent, w, v)
            else:
                agent, fire = dias[0].agent, dias[:1]
                v = self._new_world(br)
            for f in fire:
                br.fired.add((w, f))
                self._add(br, v, f.sub)
            if not self.pf:
                self._add_edge(br, agent, w, v)
            return True
        if self.serial:
            for w in br.labels:
                for agent in self.agents:
                    if not br.boxes.get((w, agent)):
                        continue
                    if any(x == w for (x, _) in self._closed_rel(br, agent)):
                        continue
                    v = self._new_world(br)
                    self._add_edge(br, agent, w, v)
                    return True
        return False

    def _resolve_splits(self, br):
        """Discharge pending disjunctions that need no branching.

        A split whose disjunct is already on the label is satisfied and
        dropped; one refuted disjunct forces the other (unit propagation);
        two refuted disjuncts close the branch.  Returns _CLOSED, True when
        something was propagated, or False when only genuine splits remain.
        """
        pending = []
        progress = False
        for w, f in br.splits:
            labs = br.labels[w]
            if f.left in labs or f.right in labs:
                continue
            left_out = self.nnf(f.left, True) in labs
            right_out = self.nnf(f.right, True) in labs
            if left_out and right_out:
                return _CLOSED
            if left_out:
                self._add(br, w, f.right)
                progress = True
            elif right_out:
                self._add(br, w, f.left)
                progress = True
            else:
                pending.append((w, f))
        br.splits = pending
        return progress

    def search(self, br) -> Optional[_Branch]:
        while True:
            if self._saturate(br) == _CLOSED:
                self.branches += 1
                return None
            resolved = self._resolve_splits(br)
            if resolved == _CLOSED:
                self.branches += 1
                return None
            if resolved:
                continue
            if br.splits:
                w, f = br.splits.pop()
                for piece in (f.left, f.right):
                    child = br.copy()
                    self._add(child, w, piece)
                    found = self.search(child)
                    if found is not None:
                        return found
                return None
            if not self._fire_one(br):
                self.branches += 1
                return br

    def solve(self, root: Formula) -> Optional[_Branch]:
        br = _Branch()
        w0 = self._new_world(br)
        self._add(br, w0, root)
        return self.search(br)

    def extract(self, br, original: Formula, requirements) -> KripkeModel:
        rep = {w: _rep(br, w) if self.blocking else w for w in br.labels}
        keep = [w for w in br.labels if rep[w] == w]
        name = {w: f"w{idx}" for idx, w in enumerate(keep)}
        rel = {}
        for agent in self.agents:
            pairs = {(rep[x], rep[y]) for (x, y) in br.base.get(agent, set())}
            closed = _close(keep, pairs, *self.horn)
            if self.serial:
                for w in keep:
                    if not any(x == w for (x, _) in closed):
                        closed.add((w, w))
            rel[agent] = [(name[x], name[y]) for (x, y) in sorted(closed)]
        val = {p: [name[w] for w in keep if Prop(p) in br.labels[w]]
               for p in sorted(props_of(original))}
        point = name[rep[0]]
        model = KripkeModel([name[w] for w in keep], self.agents, rel, val, point=point)
        if not mc(model, point, original):
            raise RuntimeError(f"extracted model fails {original}")
        if not requirements <= frame_properties(model):
            raise RuntimeError("extracted model leaves the frame class")
        return model


# ---------------------------------------------------------------------------
# entry points


def sat(f: Formula, frame_class: FrameClass, *, budget: int = 10**6) -> DecisionResult:
    """Satisfiability of f over the class; a SAT verdict carries a verified model."""
    lang = classify_language(f)
    if lang == Language.PLKwAK:
        raise ValueError("announcements together with K are not supported")
    requirements = frame_class.requirements
    pf = FrameProperty.PARTIAL_FUNCTIONAL in requirements
    agents = sorted(agents_of(f))
    tab = _Tableau(requirements - {FrameProperty.PARTIAL_FUNCTIONAL}, agents, budget, pf)
    g = reduce(f, tick=tab._tick) if lang == Language.PLKwA else f
    open_branch = tab.solve(tab.nnf(g, False))
    if open_branch is None:
        return DecisionResult(False, None, tab.prefixes, tab.branches)
    model = tab.extract(open_branch, f, requirements)
    return DecisionResult(True, model, tab.prefixes, tab.branches)


def valid(f: Formula, frame_class: FrameClass, *, budget: int = 10**6) -> Validity:
    """Validity of f over the class; an invalid verdict carries a countermodel."""
    r = sat(Not(f), frame_class, budget=budget)
    return Validity(not r.satisfiable, r.model, r.prefixes, r.branches)
