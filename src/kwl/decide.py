"""Frame-class-aware satisfiability and validity via a labelled tableau.

One pass, _Tableau.nnf, takes the formula to negation normal form and
removes announcements and Kw with it.  An announcement is rewritten by one
reduction axiom (kwl.translate.step) and the pass goes on with the result,
so no announcement-free copy is built first.  Kw[i]g becomes K[i]g | K[i]~g
in general, and top over partial-functional frames, where it holds
everywhere.  The normal form is not made of formula nodes but of ints that
live for the call, one per distinct node, with each node's complement at
code ^ 1 (as concepts in FaCT++: Tsarkov & Horrocks, IJCAR 2006).  So a
clash of p with ~p, or a disjunct against its complement, is one lookup,
and without announcements sat builds no formula node.  A tableau then
searches for a model; a satisfiable verdict carries one, re-checked against
the original formula by the model checker and with satisfies_class against
the frame class.

Each world but the root is made by one diamond of its parent, so the edges
form a tree, and a box moves along it one edge at a time by single-step
rules (Massacci, "Single step tableaux for modal logics", JAR 2000): K[a]b
at w sends b to w's a-children (K), keeps b at w (T), sends K[a]b to the
a-children (4) and b to w's a-parent (B).  Over euclidean frames u R w gives
R(u) within R(w), a cluster that its members see, so a world with an
a-parent, or any world over reflexive frames, lies in its own a-cluster (5):
b stays at w, and K[a]b goes to w's a-children, a-parent and a-siblings.
Only extract closes the relation: it builds one successor row per world
and agent, an int whose bit v is set for the edge to world v, closes the
rows in place, and hands them with the valuation masks to
KripkeModel._from_rows, which derives the rest of the model.  Over
transitive and euclidean frames a world with the formulas of an earlier one
is blocked: its diamonds do not fire, and in the model its row also gets
its blocker's.

The search backjumps (dependency-directed backtracking).  Every label entry
carries a mask, an int whose bit n is set when the entry depends on the
disjunct chosen at the n-th split above it: a conjunct inherits its
conjunction's mask, a diamond's body the diamond's, what a box sends over
an edge the box's and the edge's (an edge has its diamond's), and a
disjunct that unit propagation forces the disjunction's and the refuted
complement's.  A clash returns the union of its two entries' masks.  When a
child of the n-th split closes by a clash whose mask lacks bit n, the
choice made there played no part in it: the right child is not tried, and
the mask goes up to the nearest split that the clash does depend on.  Only
subtrees in which every branch closes are skipped, so the first open branch,
and with it the model, is the one the exhaustive search reaches; the right
child gets no complement of the left disjunct (no semantic branching).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .formula import (
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
    vocabulary,
)
from .semantics import (
    FrameClass,
    FrameProperty,
    KripkeModel,
    _bits,
    mc,
    satisfies_class,
)
from .translate import step


class BudgetExceeded(Exception):
    """sat ran out of budget before reaching a verdict (see _Tableau)."""


@dataclass(frozen=True)
class DecisionResult:
    satisfiable: bool
    model: Optional[KripkeModel]
    prefixes: int
    branches: int
    ticks: int


@dataclass(frozen=True)
class Validity:
    valid: bool
    countermodel: Optional[KripkeModel]
    prefixes: int
    branches: int
    ticks: int


# The kinds of normal-form nodes, in complementary pairs: the complement of
# a code is code ^ 1, and its kind is the kind ^ 1.
_PROP, _NEG, _TOP, _BOT, _AND, _OR, _BOX, _DIA = range(8)


class _Tableau:
    """One call's search, on one branch that it changes in place.  work is
    counted against the budget, preprocessing included: one tick per nnf
    memo miss, new world and label entry.  extract's closure of the relation
    is not counted: its time is polynomial in the number of worlds, and each
    world has ticked.

    The normal form is made of codes, ints that live for the call.  Code c
    is the node (kind[c], x[c], y[c]): a letter's name and None, an agent
    and the code of its body, or the codes of two children (None and None
    for top and bot).  codes maps each node back to its code.  A code's
    complement is code ^ 1, made with it: ~p for p, bot for top, ~x | ~y
    for x & y, and the diamond of ~y for K[a]y.

    labels maps each world to its codes, each with its mask (module
    docstring), in arrival order, so that boxes move in that order whatever
    the string-hash seed.  Worlds are the keys of labels, 0, 1, ... in
    creation order; 0 is the root.  succ[w][a] maps w's a-children to their
    edges' masks, and boxes[w][a] maps w's boxes K[a]b to their masks;
    parent maps (world, agent) to (parent, mask) when the edge into the
    world is the agent's.  fired holds the (world, diamond) pairs that have
    fired.  These dicts only gain keys, and trail lists each (dict, key)
    pair added since the search began, so _undo winds the branch back to
    any earlier length of the trail.
    """

    def __init__(self, frame_class, agents, budget):
        props = frame_class.requirements
        self.frame_class = frame_class
        self.agents = agents
        self.budget = budget
        self.pf = FrameProperty.PARTIAL_FUNCTIONAL in props
        self.reflexive = FrameProperty.REFLEXIVE in props
        self.symmetric = FrameProperty.SYMMETRIC in props
        self.transitive = FrameProperty.TRANSITIVE in props
        self.euclidean = FrameProperty.EUCLIDEAN in props
        self.serial = FrameProperty.SERIAL in props
        self.prefixes = self.branches = self.work = 0
        self.nnf_memo: dict = {}
        self.kind, self.x, self.y = [], [], []
        self.codes: dict = {}
        self.labels: dict[int, dict] = {}
        self.succ: dict[int, dict] = {}
        self.parent: dict[tuple, tuple] = {}
        self.boxes: dict[int, dict] = {}
        self.fired: dict[tuple, bool] = {}
        self.det: deque = deque()
        self.splits: list = []
        self.trail: list = []

    def _tick(self):
        self.work += 1
        if self.work > self.budget:
            raise BudgetExceeded(f"tableau budget of {self.budget} nodes exhausted")

    def _code(self, kind, x, y) -> int:
        """The code of the node (kind, x, y), made on first use together with
        its complement."""
        key = (kind, x, y)
        code = self.codes.get(key)
        if code is None:
            if kind < _AND:  # a letter, top or bot
                twin = (kind ^ 1, x, y)
            elif kind < _BOX:  # a connective: both children complemented
                twin = (kind ^ 1, x ^ 1, y ^ 1)
            else:  # a modality: its body complemented
                twin = (kind ^ 1, x, y ^ 1)
            code = self.codes[key] = len(self.kind)
            self.codes[twin] = code + 1
            self.kind += kind, twin[0]
            self.x += x, twin[1]
            self.y += y, twin[2]
        return code

    def nnf(self, f: Formula, neg: bool) -> int:
        """The code of the negation normal form of f, or of ~f when neg is
        set, with Kw and announcements expanded.

        Kw[i]g becomes K[i]g | K[i]~g, and ~Kw[i]g becomes ~K[i]g & ~K[i]~g,
        two diamonds; over partial-functional frames (pf) Kw[i]g holds
        everywhere and becomes top.  [a]b becomes the normal form of
        step([a]b), its one-step rewrite, which is the normal form of
        reduce([a]b) node for node.  The output has negation on letters
        only, and no ->, <->, Kw or announcement.  Memoised on (node, neg)
        for the call, so a subformula that Kw, <-> or a reduction axiom
        copies is translated once per polarity.  A memo miss ticks the
        budget before it recurses or rewrites, and step weighs nothing, so a
        blow-up stops after budget misses.
        A code's complement is made with it, so it costs no tick.
        """
        while type(f) is Not:  # a ~ flips neg: no stack frame, memo entry or tick
            f, neg = f.sub, not neg
        key = (f, neg)
        out = self.nnf_memo.get(key)
        if out is not None:
            return out
        self._tick()
        nnf, code, t = self.nnf, self._code, type(f)
        if t is Prop:
            out = code(_NEG if neg else _PROP, f.name, None)
        elif t is And or t is Or:
            out = code(_OR if (t is Or) != neg else _AND, nnf(f.left, neg), nnf(f.right, neg))
        elif t is K:
            out = code(_DIA if neg else _BOX, f.agent, nnf(f.sub, neg))
        elif t is Top or t is Bot:
            out = code(_BOT if (t is Top) == neg else _TOP, None, None)
        elif t is Implies:
            out = code(_AND if neg else _OR, nnf(f.left, not neg), nnf(f.right, neg))
        elif t is Iff:
            out = code(_OR, code(_AND, nnf(f.left, False), nnf(f.right, neg)),
                       code(_AND, nnf(f.left, True), nnf(f.right, not neg)))
        elif t is Kw:
            if self.pf:
                out = code(_BOT if neg else _TOP, None, None)
            else:
                pos, negd = nnf(f.sub, False), nnf(f.sub, True)
                out = (code(_AND, code(_DIA, f.agent, negd), code(_DIA, f.agent, pos)) if neg
                       else code(_OR, code(_BOX, f.agent, pos), code(_BOX, f.agent, negd)))
        elif t is Announce:
            out = nnf(step(f), neg)
        else:
            raise TypeError(f"not a formula: {f!r}")
        self.nnf_memo[key] = out
        return out

    def _blocker(self, w) -> int:
        """The first world with w's formulas over transitive and euclidean frames, else w."""
        if not (self.transitive or self.euclidean):
            return w
        own = self.labels[w].keys()
        return next(u for u in self.labels if self.labels[u].keys() == own)

    def _put(self, d, key, value):
        d[key] = value
        self.trail.append((d, key))

    def _undo(self, mark):
        """Wind the branch back to the trail's length mark."""
        for d, key in self.trail[mark:]:
            del d[key]
        del self.trail[mark:]
        self.det.clear()

    def _new_world(self) -> int:
        w = len(self.labels)
        self._put(self.labels, w, {})
        self._put(self.succ, w, {agent: {} for agent in self.agents})
        self._put(self.boxes, w, {agent: {} for agent in self.agents})
        self.prefixes += 1
        self._tick()
        return w

    def _add(self, w, f, mask):
        labs = self.labels[w]
        if f in labs:
            return
        self._tick()
        labs[f] = mask  # _put, inline on the hot path
        self.trail.append((labs, f))
        self.det.append((w, f))

    def _move_box(self, w, box, mask):
        """Send the box K[a]b at w one step along w's a-edges (module docstring)."""
        agent, sub = self.x[box], self.y[box]
        up = self.parent.get((w, agent))
        if self.reflexive or (self.euclidean and up is not None):
            self._add(w, sub, mask)
        for v, edge in self.succ[w][agent].items():
            self._cross(w, v, agent, box, mask | edge)
        if up is None:
            return
        u, edge = up
        if self.symmetric:
            self._add(u, sub, mask | edge)
        if self.euclidean:
            # R(u) lies within R(w), and a sibling in w's cluster gets b by its own rules
            self._add(u, box, mask | edge)
            for s, edge in self.succ[u][agent].items():
                self._add(s, box, mask | edge)

    def _cross(self, u, v, agent, box, mask):
        """Send a box at u over the edge u -> v: its body (K), and itself over
        transitive frames (4) or, from u's own cluster, euclidean ones (5)."""
        self._add(v, self.y[box], mask)
        if self.transitive or (self.euclidean and (self.reflexive or (u, agent) in self.parent)):
            self._add(v, box, mask)

    def _add_edge(self, agent, u, v, mask):
        """Add the edge u -> v and send v the boxes that it lets reach v: u's,
        and over euclidean frames those of v's siblings."""
        self._put(self.succ[u][agent], v, mask)
        self._put(self.parent, (v, agent), (u, mask))
        for box, m in self.boxes[u][agent].items():
            self._cross(u, v, agent, box, m | mask)
        if self.euclidean:
            for s in self.succ[u][agent]:  # v itself has no boxes yet
                for box, m in self.boxes[s][agent].items():
                    self._add(v, box, m | mask)

    def _saturate(self) -> Optional[int]:
        """Apply the deterministic rules, then _resolve_splits; the mask of a
        clash, or None.  Entries that unit propagation forces wait in det."""
        kinds, det = self.kind, self.det
        while det:
            w, f = det.popleft()
            labs = self.labels[w]
            mask = labs[f]
            # an if-chain on the kind; top and diamonds do nothing here
            kind = kinds[f]
            if kind == _AND:
                self._add(w, self.x[f], mask)
                self._add(w, self.y[f], mask)
            elif kind == _OR:
                self.splits.append((w, f))
            elif kind == _BOX:
                self._put(self.boxes[w][self.x[f]], f, mask)
                self._move_box(w, f, mask)
            elif kind < _TOP:  # a letter or its negation, against its complement
                other = labs.get(f ^ 1)
                if other is not None:
                    return mask | other
            elif kind == _BOT:
                return mask
        return self._resolve_splits()

    def _fire_one(self) -> bool:
        """Expand the diamonds of one world (or one seriality obligation); True on progress."""
        # both loops return right after _new_world, so no dict grows under them
        kind, agent_of = self.kind, self.x
        for w, labs in self.labels.items():
            # its pending diamonds: the unfired ones on its label, in label order
            dias = [f for f in labs if kind[f] == _DIA and (w, f) not in self.fired]
            if not dias or self._blocker(w) != w:
                continue
            # the order in which box and diamond bodies reach the successor's
            # label orders its splits, and so the search and the model
            if self.pf:
                # at most one successor per world and agent: all of the least
                # agent's diamonds fire into it, after its boxes
                agent = min(agent_of[f] for f in dias)
                fire = [f for f in dias if agent_of[f] == agent]
                succ = self.succ[w][agent]
                v = next(iter(succ)) if succ else self._new_world()
                if not succ:
                    self._add_edge(agent, w, v, labs[fire[0]])
            else:
                agent, fire = agent_of[dias[0]], dias[:1]
                v = self._new_world()
            for f in fire:
                self._put(self.fired, (w, f), True)
                self._add(v, self.y[f], labs[f])
            if not self.pf:
                self._add_edge(agent, w, v, labs[fire[0]])
            return True
        if self.serial:
            for w in self.labels:
                for agent in self.agents:
                    if self.boxes[w][agent] and not self.succ[w][agent]:
                        self._add_edge(agent, w, self._new_world(), 0)
                        return True
        return False

    def _resolve_splits(self) -> Optional[int]:
        """Discharge pending disjunctions that need no branching; the mask of
        a clash, or None.  Two refuted disjuncts close the branch even when
        one is on the label (a sibling's box can bring it early).  Otherwise
        a disjunct on the label drops the split, and one refuted disjunct
        forces the other (unit propagation) through det.  A disjunct's
        complement is its code ^ 1, made with it, so finding it ticks nothing.
        """
        pending = []
        for w, f in self.splits:
            labs = self.labels[w]
            left, right = self.x[f], self.y[f]
            left_out, right_out = labs.get(left ^ 1), labs.get(right ^ 1)
            if left_out is not None and right_out is not None:
                return labs[f] | left_out | right_out
            if left in labs or right in labs:
                continue
            if left_out is not None:
                self._add(w, right, labs[f] | left_out)
            elif right_out is not None:
                self._add(w, left, labs[f] | right_out)
            else:
                pending.append((w, f))
        self.splits = pending
        return None

    def search(self) -> Optional[int]:
        """None once the branch is open, which is then left as it is for
        extract; else the mask of the clashes that closed every branch.

        One loop, over a list of choice points: one per split whose child is
        being searched, (world, disjunction, the splits pending beside it, the
        trail's length before it, its left child's clash or None), the n-th
        carrying bit n.  A clash pops each point whose bit it lacks, without
        trying that split's right child (module docstring).  At the first
        point that it depends on, the branch is wound back to the point's
        trail mark, and the right child is searched; or, when both children
        have closed, their clashes without the bit go on to the next point.
        """
        points = []
        while True:
            clash = self._saturate()
            if clash is None:
                # forced entries to saturate, or no split pending and a diamond fired
                if self.det or not self.splits and self._fire_one():
                    continue
                if not self.splits:
                    self.branches += 1
                    return None
                # the left child goes on with the pending splits, the right takes a copy
                w, f = self.splits.pop()
                points.append((w, f, list(self.splits), len(self.trail), None))
                self._add(w, self.x[f], self.labels[w][f] | 1 << len(points) - 1)
                continue
            self.branches += 1
            while True:
                if not points:
                    return clash
                w, f, splits, mark, left = points.pop()
                bit = 1 << len(points)
                if clash & bit:
                    if left is None:
                        break
                    clash = (left | clash) & ~bit
            self._undo(mark)
            points.append((w, f, splits, mark, clash))
            self.splits = splits
            self._add(w, self.y[f], self.labels[w][f] | bit)

    def extract(self, original: Formula, props) -> KripkeModel:
        blockers = [self._blocker(w) for w in self.labels]
        # world w is bit w of the masks; a blocked world keeps its own
        # successors and borrows its blocker's
        succ = {agent: self._close([sum(1 << v for v in {*self.succ[w][agent], *self.succ[b][agent]})
                                    for w, b in enumerate(blockers)]) for agent in self.agents}
        val = {}
        for p in sorted(props):
            code = self.codes.get((_PROP, p, None))  # None for a letter that nnf dropped
            val[p] = sum(1 << w for w, labs in self.labels.items() if code in labs)
        model = KripkeModel._from_rows(tuple(f"w{w}" for w in self.labels), tuple(self.agents),
                                       "w0", succ, val)
        if not mc(model, "w0", original):
            raise RuntimeError(f"extracted model fails {original}")
        if not satisfies_class(model, self.frame_class):
            raise RuntimeError("extracted model leaves the frame class")
        return model

    def _close(self, rows: list[int]) -> list[int]:
        """Close the successor rows (bit t of rows[s] for the edge s -> t) in
        place to the least relation that holds them and meets the Horn frame
        conditions, and return them.  Reflexive sets each world's own bit;
        then, for each edge s -> t, symmetric gives t the bit of s,
        transitive ORs t's row into s's and euclidean s's row into t's, in
        passes until one changes nothing.  Serial: a dead end then loops."""
        if self.reflexive:
            rows[:] = [row | 1 << w for w, row in enumerate(rows)]
        before = None
        while before != (before := rows[:]):
            for s, row in enumerate(rows):
                for t in _bits(row):
                    rows[s] |= rows[t] if self.transitive else 0
                    rows[t] |= (1 << s if self.symmetric else 0) | (rows[s] if self.euclidean else 0)
        if self.serial:
            rows[:] = [row or 1 << w for w, row in enumerate(rows)]
        return rows


# ---------------------------------------------------------------------------
# entry points


def sat(f: Formula, frame_class: FrameClass, *, budget: int = 10**6) -> DecisionResult:
    """Satisfiability of f over the class; a SAT verdict carries a verified model."""
    props, agents = vocabulary(f)
    tab = _Tableau(frame_class, sorted(agents), budget)
    root = tab.nnf(f, False)  # nnf ticks before the root world does
    tab._add(tab._new_world(), root, 0)
    model = None if tab.search() is not None else tab.extract(f, props)
    return DecisionResult(model is not None, model, tab.prefixes, tab.branches, tab.work)


def valid(f: Formula, frame_class: FrameClass, *, budget: int = 10**6) -> Validity:
    """Validity of f over the class; an invalid verdict carries a countermodel."""
    r = sat(Not(f), frame_class, budget=budget)
    return Validity(not r.satisfiable, r.model, r.prefixes, r.branches, r.ticks)
