"""Reference semantics for the benchmark's checks, written from the definitions.

It shares no code with kwl.semantics.  Formulas are nested tuples:

    ("top",) ("bot",) ("p", name) ("not", a)
    ("and" | "or" | "imp" | "iff", a, b)
    ("kw", agent, a) ("k", agent, a) ("ann", announced, body)

A Space is a frame of n worlds with one or more valuations laid side by side:
bit v*n + w of an extension says whether a formula holds at world w under
valuation v.  A single model is a Space with one valuation; all valuations of
a frame are one Space evaluated in a single pass.  Every subformula is
evaluated to its extension, and an announcement restricts the domain to the
extension of what is announced.
"""

from __future__ import annotations

import itertools

SERIAL, REFLEXIVE, SYMMETRIC = "serial", "reflexive", "symmetric"
TRANSITIVE, EUCLIDEAN, PARTIAL_FUNCTIONAL = "transitive", "euclidean", "partial-functional"
PROPERTIES = frozenset({SERIAL, REFLEXIVE, SYMMETRIC, TRANSITIVE, EUCLIDEAN,
                        PARTIAL_FUNCTIONAL})

CLASS_REQUIREMENTS = {
    "K": frozenset(),
    "D": frozenset({SERIAL}),
    "T": frozenset({REFLEXIVE}),
    "B": frozenset({SYMMETRIC}),
    "K4": frozenset({TRANSITIVE}),
    "K5": frozenset({EUCLIDEAN}),
    "K45": frozenset({TRANSITIVE, EUCLIDEAN}),
    "S4": frozenset({REFLEXIVE, TRANSITIVE}),
    "S5": frozenset({REFLEXIVE, EUCLIDEAN}),
    "PF": frozenset({PARTIAL_FUNCTIONAL}),
}

# (narrower, wider): every frame of the first class is a frame of the second.
# A reflexive euclidean relation is symmetric and transitive; reflexive
# implies serial.
SUBCLASS = frozenset({
    ("D", "K"), ("T", "D"), ("B", "K"), ("K4", "K"), ("K5", "K"), ("PF", "K"),
    ("K45", "K4"), ("K45", "K5"), ("S4", "T"), ("S4", "K4"),
    ("S5", "S4"), ("S5", "K45"), ("S5", "B"),
})


def subclass_pairs() -> set[tuple[str, str]]:
    """Transitive closure of SUBCLASS."""
    pairs = set(SUBCLASS)
    while True:
        more = {(a, d) for a, b in pairs for c, d in pairs if b == c} - pairs
        if not more:
            return pairs
        pairs |= more


def props_of(f) -> set[str]:
    if f[0] == "p":
        return {f[1]}
    out = set()
    for part in f[1:]:
        if isinstance(part, tuple):
            out |= props_of(part)
    return out


def agents_of(f) -> set[str]:
    out = {f[1]} if f[0] in ("kw", "k") else set()
    for part in f[1:]:
        if isinstance(part, tuple):
            out |= agents_of(part)
    return out


_KWL_BINARY = {"And": "and", "Or": "or", "Implies": "imp", "Iff": "iff"}


def from_kwl(f) -> tuple:
    """The tuple form of a kwl formula object, read from its fields."""
    name = type(f).__name__
    if name == "Top":
        return ("top",)
    if name == "Bot":
        return ("bot",)
    if name == "Prop":
        return ("p", f.name)
    if name == "Not":
        return ("not", from_kwl(f.sub))
    if name in _KWL_BINARY:
        return (_KWL_BINARY[name], from_kwl(f.left), from_kwl(f.right))
    if name in ("Kw", "K"):
        return (name.lower(), f.agent, from_kwl(f.sub))
    if name == "Announce":
        return ("ann", from_kwl(f.announced), from_kwl(f.body))
    raise TypeError(f"not a formula: {f!r}")


class Space:
    """A frame over worlds 0..n-1 with `copies` valuations side by side.

    succ: agent -> list of successor lists, one per world.
    val:  proposition -> bit mask over n * copies positions.
    """

    def __init__(self, n: int, succ: dict, val: dict, copies: int = 1):
        self.n = n
        self.succ = succ
        self.val = val
        self.full = (1 << (n * copies)) - 1
        unit = self.full // ((1 << n) - 1)  # bit 0 of every copy
        self.at = [unit << w for w in range(n)]

    def ext(self, f, dom: int | None = None) -> int:
        """Positions where f holds, within the domain dom (default: all)."""
        if dom is None:
            dom = self.full
        op = f[0]
        if op == "top":
            return dom
        if op == "bot":
            return 0
        if op == "p":
            return self.val.get(f[1], 0) & dom
        if op == "not":
            return dom & ~self.ext(f[1], dom)
        if op == "kw":
            x = self.ext(f[2], dom)
            return self._box(f[1], x, dom) | self._box(f[1], dom & ~x, dom)
        if op == "k":
            return self._box(f[1], self.ext(f[2], dom), dom)
        if op == "ann":
            announced = self.ext(f[1], dom)
            return dom & (~announced | self.ext(f[2], announced))
        a, b = self.ext(f[1], dom), self.ext(f[2], dom)
        if op == "and":
            return a & b
        if op == "or":
            return a | b
        if op == "imp":
            return dom & (~a | b)
        if op == "iff":
            return dom & ~(a ^ b)
        raise TypeError(f"not a formula: {f!r}")

    def _box(self, agent, x: int, dom: int) -> int:
        """Positions in dom all of whose successors inside dom lie in x."""
        lists = self.succ.get(agent)
        if lists is None:
            return dom
        good = (x | ~dom) & self.full
        out = 0
        for w, targets in enumerate(lists):
            acc = self.at[w]
            for t in targets:
                moved = good & self.at[t]
                acc &= moved << (w - t) if w >= t else moved >> (t - w)
                if not acc:
                    break
            out |= acc
        return out & dom


# ---------------------------------------------------------------------------
# models in kwl's JSON form


def space_of(doc: dict) -> tuple[Space, dict]:
    """A one-valuation Space from a model document, and world name -> index."""
    index = {w: i for i, w in enumerate(doc["worlds"])}
    n = len(index)
    succ = {}
    for agent in doc["agents"]:
        lists = [[] for _ in range(n)]
        for s, t in doc.get("rel", {}).get(agent, []):
            lists[index[s]].append(index[t])
        succ[agent] = lists
    val = {p: sum(1 << index[w] for w in where) for p, where in doc.get("val", {}).items()}
    return Space(n, succ, val), index


def holds(doc: dict, world: str, f) -> bool:
    space, index = space_of(doc)
    return bool(space.ext(f) >> index[world] & 1)


def frame_valid(doc: dict, f) -> bool:
    """f holds at every world under every valuation of its propositions."""
    space, _ = space_of(doc)
    return sweep(space.n, space.succ, sorted(props_of(f)), f) is None


# ---------------------------------------------------------------------------
# frame properties


def relation_properties(succ_lists: list) -> frozenset[str]:
    n = len(succ_lists)
    succ = [set(ts) for ts in succ_lists]
    edges = [(s, t) for s in range(n) for t in succ[s]]
    found = set()
    if all(succ):
        found.add(SERIAL)
    if all(w in succ[w] for w in range(n)):
        found.add(REFLEXIVE)
    if all(s in succ[t] for s, t in edges):
        found.add(SYMMETRIC)
    if all(succ[t] <= succ[s] for s, t in edges):  # sRt and tRu give sRu
        found.add(TRANSITIVE)
    if all(succ[s] <= succ[t] for s, t in edges):  # sRt and sRu give tRu
        found.add(EUCLIDEAN)
    if all(len(ts) <= 1 for ts in succ):
        found.add(PARTIAL_FUNCTIONAL)
    return frozenset(found)


def frame_properties(doc: dict) -> frozenset[str]:
    """Properties every agent's relation has (all of them when there are no agents)."""
    space, _ = space_of(doc)
    out = PROPERTIES
    for lists in space.succ.values():
        out &= relation_properties(lists)
    return out


def in_class(doc: dict, frame_class: str) -> bool:
    return CLASS_REQUIREMENTS[frame_class] <= frame_properties(doc)


# ---------------------------------------------------------------------------
# exhaustive sweeps


_VALUATIONS: dict = {}
_RELATIONS: dict = {}


def valuation_masks(n: int, props: list) -> tuple[int, dict]:
    """Every valuation of props over n worlds, as (copies, prop -> mask)."""
    key = (n, tuple(props))
    if key not in _VALUATIONS:
        copies = 1 << (n * len(props))
        val = {p: 0 for p in props}
        for v in range(copies):
            for j, p in enumerate(props):
                for w in range(n):
                    if v >> (j * n + w) & 1:
                        val[p] |= 1 << (v * n + w)
        _VALUATIONS[key] = (copies, val)
    return _VALUATIONS[key]


def sweep(n: int, succ: dict, props: list, f):
    """None when f holds everywhere under every valuation, else a failing valuation index."""
    copies, val = valuation_masks(n, props)
    space = Space(n, succ, val, copies)
    missing = space.full & ~space.ext(f)
    if not missing:
        return None
    return ((missing & -missing).bit_length() - 1) // n


def class_relations(n: int, frame_class: str) -> list:
    """Every relation on n worlds whose frame lies in the class."""
    key = (n, frame_class)
    if key not in _RELATIONS:
        need = CLASS_REQUIREMENTS[frame_class]
        out = []
        for bits in range(1 << (n * n)):
            lists = [[t for t in range(n) if bits >> (s * n + t) & 1] for s in range(n)]
            if need <= relation_properties(lists):
                out.append(lists)
        _RELATIONS[key] = out
    return _RELATIONS[key]


def class_frames(frame_class: str, agents: list, n: int):
    """Every frame on n worlds for the agents, each relation in the class."""
    rels = class_relations(n, frame_class)
    for combo in itertools.product(rels, repeat=len(agents)):
        yield dict(zip(agents, combo))


# valid_on_small_models stops at this many worlds, or earlier where a size
# would have more frames or more valuation bits than these caps
MAX_WORLDS, MAX_FRAMES, MAX_BITS = 3, 600, 12


def valid_on_small_models(f, frame_class: str):
    """Check f on every class model with up to MAX_WORLDS worlds.

    Sizes stop where the frames or the valuation bits would pass their caps,
    so the sweep stays small.  Returns None when f holds everywhere, else a
    description of a refuting model.
    """
    agents = sorted(agents_of(f)) or ["i"]
    props = sorted(props_of(f))
    for n in range(1, MAX_WORLDS + 1):
        frames = len(class_relations(n, frame_class)) ** len(agents)
        if n * len(props) > MAX_BITS or frames > MAX_FRAMES:
            break
        for succ in class_frames(frame_class, agents, n):
            bad = sweep(n, succ, props, f)
            if bad is not None:
                return f"{n} worlds, relations {succ}, valuation #{bad} of {props}"
    return None
