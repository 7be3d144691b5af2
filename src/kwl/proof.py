"""Hilbert-style derivation checking for the Kw proof systems.

Axiom schemas use uppercase proposition names (PHI, PSI, CHI, CHI1, CHI2,
ATOM) as metavariables and the uppercase agent I; the concrete syntax only
admits lowercase identifiers, so instances can never collide with schema
variables.  A derivation file declares its proof system, then numbered
steps `k. <formula> ; <justification>`; every justification cites earlier
lines only and is replayed from scratch by the checker.  Each rule is one
function that reads all of its arguments, in order, before any check of the
rule's own, so the first faulty argument is the one reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .formula import (
    TOP,
    _IDENT_RE,
    And,
    Announce,
    Binary,
    Bot,
    Formula,
    Iff,
    Implies,
    Kw,
    Language,
    Modal,
    Not,
    Or,
    Prop,
    Top,
    conj,
    disj,
    fold,
    in_language,
    parse,
    render,
    substitute,
)
from .semantics import FrameClass
from .translate import step

# ---------------------------------------------------------------------------
# axiom schemas

_PHI = Prop("PHI")
_PSI = Prop("PSI")
_CHI = Prop("CHI")
_CHI1 = Prop("CHI1")
_CHI2 = Prop("CHI2")
_ATOM = Prop("ATOM")  # matches atomic propositions only
_I = "I"


def _kw(f: Formula) -> Kw:
    return Kw(_I, f)


AXIOMS: dict[str, Formula] = {
    "KwCon": Implies(And(_kw(Implies(_CHI, _PHI)), _kw(Implies(Not(_CHI), _PHI))),
                     _kw(_PHI)),
    "KwDis": Implies(_kw(_PHI),
                     Or(_kw(Implies(_PHI, _PSI)), _kw(Implies(Not(_PHI), _CHI)))),
    "Kw<->": Iff(_kw(_PHI), _kw(Not(_PHI))),
    "KwT": Implies(And(And(_kw(_PHI), _kw(Implies(_PHI, _PSI))), _PHI), _kw(_PSI)),
    "Kw4": Implies(_kw(_PHI), _kw(Or(_kw(_PHI), _PSI))),
    "Kw5": Implies(Not(_kw(_PHI)), _kw(Or(Not(_kw(_PHI)), _PSI))),
    "wKw4": Implies(_kw(_PHI), _kw(_kw(_PHI))),
    "wKw5": Implies(Not(_kw(_PHI)), _kw(Not(_kw(_PHI)))),
    # the reduction axioms: each redex is equivalent to its one-step rewrite
    **{name: Iff(redex, step(redex)) for name, redex in (
        ("!ATOM", Announce(_PHI, _ATOM)),
        ("!NEG", Announce(_PHI, Not(_PSI))),
        ("!COM", Announce(_PHI, And(_PSI, _CHI))),
        ("!!", Announce(_PHI, Announce(_PSI, _CHI))),
        ("!Kw", Announce(_PHI, _kw(_PSI))))},
    "I1": Iff(Not(_kw(_PHI)), Not(_kw(Not(_PHI)))),
    "I2": Implies(Not(_kw(And(_PHI, _PSI))), Or(Not(_kw(_PHI)), Not(_kw(_PSI)))),
    "I3": Implies(conj([_kw(_PHI),
                        Not(_kw(And(_CHI1, _PHI))),
                        _kw(Implies(_PHI, _PSI)),
                        Not(_kw(And(_CHI2, Implies(_PHI, _PSI))))]),
                  And(_kw(_PSI), Not(_kw(And(_CHI1, _PSI))))),
    "I4": Implies(And(_kw(_PSI), Not(_kw(_CHI))),
                  Or(Not(_kw(And(_CHI, _PSI))), Not(_kw(And(_CHI, Not(_PSI)))))),
    "N": Iff(_kw(TOP), TOP),
    "Z": Iff(_kw(_PHI), _kw(Not(_PHI))),
    "R": Implies(And(_kw(_PHI), _kw(_PSI)), _kw(And(_PHI, _PSI))),
    "G4": Implies(Not(_kw(_CHI)),
                  Implies(And(_kw(_PHI), Not(_kw(And(_PHI, _CHI)))),
                          And(_kw(And(_kw(_PHI), Not(_kw(And(_CHI, _PHI))))),
                              Not(_kw(conj([_kw(_PHI),
                                            Not(_kw(And(_PHI, _CHI))),
                                            _CHI])))))),
}

# alternate spelling accepted in derivation files
_AXIOM_ALIASES = {"!CON": "!COM"}


def _is_meta(name: str) -> bool:
    return name.isupper()


# A schema is matched through its program: one entry (cls, x, how) per node
# of its tree, in preorder.  _run reads f in the same preorder from a list,
# the entry's node of f on top: that node must be of class cls, unless cls is
# None, and how says what else to check and which children to push.  A
# metavariable x binds the node itself (ATOM's cls is Prop), and a letter,
# top or bot must be the node x; a modality binds its metavariable agent x,
# or compares its fixed agent x.  Nodes are interned, so a metavariable met
# again is checked by identity.
_META, _SAME, _NOT, _MODAL, _AGENT, _BINARY, _ANNOUNCE = range(7)
_PROGRAMS: dict = {}  # schema name -> its program, built at first use


def _flatten(schema: Formula) -> tuple:
    """The program of schema (see _run)."""

    def rule(g: Formula, image) -> tuple:
        kind = type(g)
        if kind is Prop and _is_meta(g.name):
            return ((Prop if g.name == "ATOM" else None, g.name, _META),)
        if isinstance(g, Modal):
            entry = (kind, g.agent, _MODAL if _is_meta(g.agent) else _AGENT)
        else:
            how = (_BINARY if isinstance(g, Binary) else _NOT if kind is Not
                   else _ANNOUNCE if kind is Announce else _SAME)
            entry = (kind, g if how == _SAME else None, how)
        return sum(map(image, g.children()), (entry,))

    return fold(schema, rule)


def _run(program: tuple, f: Formula) -> Optional[dict]:
    """Bindings under which f matches the schema of program, or None."""
    b: dict = {}
    todo = [f]
    for kind, x, how in program:
        g = todo.pop()
        if kind is not None and type(g) is not kind:
            return None
        if how == _META:
            if b.setdefault(x, g) is not g:
                return None
        elif how == _BINARY:
            todo += (g.right, g.left)
        elif how == _ANNOUNCE:
            todo += (g.body, g.announced)
        elif how == _SAME:
            if g is not x:
                return None
        else:  # Not, or a modality
            if how != _NOT and (b.setdefault(x, g.agent) if how == _MODAL else x) != g.agent:
                return None
            todo.append(g.sub)
    return b


def match_axiom(name: str, f: Formula) -> Optional[dict]:
    """Bindings under which f instantiates the named schema, or None."""
    program = _PROGRAMS.get(name) or _PROGRAMS.setdefault(name, _flatten(AXIOMS[name]))
    return _run(program, f)


def instantiate(schema: Formula, bindings: dict) -> Formula:
    """Fill a schema's metavariables from bindings (agent under key I)."""

    def rule(g: Formula, image) -> Formula:
        if isinstance(g, Prop) and _is_meta(g.name):
            return bindings[g.name]
        if isinstance(g, Modal) and _is_meta(g.agent):
            return type(g)(bindings[g.agent], image(g.sub))
        return g.map(image)

    return fold(schema, rule)


# ---------------------------------------------------------------------------
# boolean reasoning under modal abstraction
#
# A taut step holds when its formula is a tautology, and a pc step when its
# formula is true in every row where its cited lines are, once the
# propositions and the maximal Kw, K and announcement subformulas are read as
# letters.  Up to _TABLE_LETTERS letters the step is decided by its truth
# table; past that, the cited lines and the formula's negation are put in a
# definitional clause form (Tseitin 1968, one-sided definitions) and searched
# by DPLL with unit propagation (Davis, Logemann & Loveland 1962).  Only the
# search can give up.

# up to this many letters a formula is decided by its truth table: one bit per
# row of a 2^_TABLE_LETTERS-bit column, and the k-th letter met reads the k-th
# alternating mask of _COLUMNS
_TABLE_LETTERS = 12
_FULL = (1 << (1 << _TABLE_LETTERS)) - 1
_COLUMNS = tuple((((1 << (1 << k)) - 1) << (1 << k)) * (_FULL // ((1 << (2 << k)) - 1))
                 for k in range(_TABLE_LETTERS))

# literals scanned during propagation before a check gives up, counted as the
# lengths of the clauses visited: about a second.  The cost of a decision grows
# with the number and length of the clauses, so a cap on decisions alone would
# not bound the time.
_WORK_CAP = 1 << 23


def _clauses(f: Formula, premises: Sequence[Formula] = ()) -> list:
    """Clauses, lists of nonzero ints, satisfiable exactly when the premises
    and ~f can all hold at once.

    A goal is a clause under construction: literals so far, and (formula,
    polarity) items still to flatten into it.  Each premise is a goal, and ~f
    the goal taken first.  Disjunctive shapes flatten in place.  A conjunctive
    shape that is the whole goal splits into one goal per conjunct; inside a
    larger clause it becomes a fresh variable x, one per node and polarity,
    with the clauses ~x | conjunct."""
    letters: dict = {}
    fresh: dict = {}  # (id of a node, polarity) -> its variable
    clauses = []
    goals = [([], [(g, True)]) for g in premises]
    goals.append(([], [(f, False)]))
    while goals:
        clause, items = goals.pop()
        while items:
            g, pos = items.pop()
            # an if-chain on the exact type, as in semantics._ext
            kind = type(g)
            if kind is Not:
                items.append((g.sub, not pos))
                continue
            if kind is Top or kind is Bot:
                if (kind is Top) == pos:
                    break  # the clause holds
                continue
            if kind is And or kind is Or or kind is Implies:
                left = (g.left, pos != (kind is Implies))  # a -> b is ~a | b
                if (kind is And) != pos:  # a disjunction
                    items += ((g.right, pos), left)
                    continue
                conjuncts = ([left], [(g.right, pos)])
            elif kind is Iff:
                conjuncts = ([(g.left, not pos), (g.right, True)],
                             [(g.left, pos), (g.right, False)])
            else:
                var = letters.setdefault(g, len(letters) + len(fresh) + 1)
                clause.append(var if pos else -var)
                continue
            if not clause and not items:
                goals += [([], c) for c in conjuncts]
                break
            key = (id(g), pos)
            var = fresh.get(key)
            if var is None:
                var = fresh[key] = len(letters) + len(fresh) + 1
                goals += [([-var], c) for c in conjuncts]
            clause.append(var)
        else:
            clauses.append(clause)
    return clauses


def _satisfiable(clauses: list) -> bool:
    """DPLL: propagate unit clauses, then branch on a literal of the shortest
    open clause; on a conflict flip the latest decision not yet flipped.
    Raises ValueError once the clauses visited hold more than _WORK_CAP
    literals in all."""
    true: set = set()  # the literals assigned true
    trail = []  # the same literals in the order assigned
    decisions = []  # (trail length before it, literal) of each unflipped decision
    work = 0
    while True:
        changed, conflict = True, False
        while changed and not conflict:
            changed, branch, shortest = False, None, 0
            for clause in clauses:
                work += len(clause)
                n = 0
                for lit in clause:
                    if lit in true:
                        break
                    if -lit not in true:
                        n += 1
                        last = lit
                else:
                    if n == 1:
                        true.add(last)
                        trail.append(last)
                        changed = True
                    elif n == 0:
                        conflict = True
                        break
                    elif branch is None or n < shortest:
                        branch, shortest = last, n
            if work > _WORK_CAP:
                raise ValueError(f"tautology check gave up after scanning {work} literals "
                                 f"(limit {_WORK_CAP})")
        if conflict:
            if not decisions:
                return False
            mark, lit = decisions.pop()
            true.difference_update(trail[mark:])
            del trail[mark:]
            lit = -lit
        elif branch is None:
            return True
        else:
            decisions.append((len(trail), branch))
            lit = branch
        true.add(lit)
        trail.append(lit)


def _columns(roots) -> Optional[dict]:
    """The truth table of every node under roots, each one column of
    _COLUMNS' rows, or None once they have more than _TABLE_LETTERS letters
    between them.  A post-order walk with a list, not the interpreter's
    stack; each distinct node is evaluated once."""
    col: dict = {}  # node -> its column
    letters = 0
    stack = list(roots)
    while stack:
        g = stack.pop()
        if g in col:
            continue
        kind = type(g)
        if kind is Not:
            a = col.get(g.sub)
            if a is None:
                stack += (g, g.sub)
                continue
            col[g] = _FULL ^ a
        elif kind is And or kind is Or or kind is Implies or kind is Iff:
            a, b = col.get(g.left), col.get(g.right)
            if a is None or b is None:
                stack += (g, g.right, g.left)
                continue
            if kind is And:
                col[g] = a & b
            elif kind is Or:
                col[g] = a | b
            elif kind is Implies:
                col[g] = (_FULL ^ a) | b
            else:
                col[g] = _FULL ^ a ^ b
        elif kind is Top:
            col[g] = _FULL
        elif kind is Bot:
            col[g] = 0
        elif letters == _TABLE_LETTERS:
            return None
        else:
            col[g] = _COLUMNS[letters]
            letters += 1
    return col


def is_bool_taut(f: Formula, premises: Sequence[Formula] = ()) -> bool:
    """Whether f is true in every row of the truth table where all the
    premises are, after abstracting maximal modal subformulas; with no
    premises, whether f is a tautology.

    The letters are the propositions and the maximal Kw, K and announcement
    subformulas, compared by value.  Up to _TABLE_LETTERS letters the truth
    table answers; past that DPLL does, and raises ValueError when the search
    passes its work cap: f is then neither confirmed nor refuted."""
    col = _columns((f, *premises))
    if col is None:
        return not _satisfiable(_clauses(f, premises))
    rows = _FULL
    for g in premises:
        rows &= col[g]
    return col[f] & rows == rows


# ---------------------------------------------------------------------------
# proof systems


@dataclass(frozen=True)
class ProofSystem:
    name: str
    language: Language
    frame_class: FrameClass
    axioms: frozenset
    rules: frozenset


_PLKW_RULES = frozenset({"mp", "neckw", "rekw", "sub", "taut", "pc"})
_PLKW_AXIOMS = frozenset({"KwCon", "KwDis", "Kw<->"})
_PLKWA_AXIOMS = _PLKW_AXIOMS | {"!ATOM", "!NEG", "!COM", "!!", "!Kw"}


def _system(name, lang, cls, axioms, rules=_PLKW_RULES):
    return ProofSystem(name, lang, FrameClass.parse(cls), frozenset(axioms), rules)


SYSTEMS: dict[str, ProofSystem] = {s.name: s for s in [
    _system("PLKw", Language.PLKw, "K", _PLKW_AXIOMS),
    _system("PLKwT", Language.PLKw, "T", _PLKW_AXIOMS | {"KwT"}),
    _system("PLKw4", Language.PLKw, "K4", _PLKW_AXIOMS | {"Kw4"}),
    _system("PLKw5", Language.PLKw, "K5", _PLKW_AXIOMS | {"Kw5"}),
    _system("PLKw45", Language.PLKw, "K45", _PLKW_AXIOMS | {"Kw4", "Kw5"}),
    _system("PLKwS4", Language.PLKw, "S4", _PLKW_AXIOMS | {"KwT", "wKw4"}),
    _system("PLKwS5", Language.PLKw, "S5", _PLKW_AXIOMS | {"KwT", "wKw5"}),
    _system("PLKwA", Language.PLKwA, "K", _PLKWA_AXIOMS),
    _system("PLKwAS5", Language.PLKwA, "S5", _PLKWA_AXIOMS | {"KwT", "wKw5"}),
    _system("Ig", Language.PLKw, "K", {"I1", "I2", "I3", "I4"},
            frozenset({"mp", "ri", "sub", "taut", "pc"})),
    _system("LB", Language.PLKw, "S4", {"N", "Z", "R"},
            frozenset({"mp", "wm", "sub", "taut", "pc"})),
]}


# ---------------------------------------------------------------------------
# derivations


@dataclass(frozen=True)
class Step:
    index: int
    formula: Formula
    justification: str


@dataclass(frozen=True)
class Derivation:
    system: str
    steps: tuple


class DerivationError(ValueError):
    """A step failed to check; carries the 1-based step index (0 = header)."""

    def __init__(self, index: int, message: str):
        super().__init__(f"step {index}: {message}" if index else message)
        self.index = index


class StepUndecided(DerivationError):
    """The tautology check of a taut or pc step passed its work cap: the step
    is left unchecked, not refuted."""


_STEP_RE = re.compile(r"(\d+)\.\s*(.*?)\s*;\s*(.*)$")
_HEADER_RE = re.compile(r"system\s+(\S+)\s*$")


def parse_derivation(text: str) -> Derivation:
    system = None
    steps = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if system is None:
            m = _HEADER_RE.match(line)
            if m is None:
                raise ValueError(f"line {lineno}: expected 'system <name>'")
            system = m.group(1)
            continue
        m = _STEP_RE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: expected '<k>. <formula> ; <justification>'")
        index = int(m.group(1))
        if index != len(steps) + 1:
            raise ValueError(f"line {lineno}: step numbered {index}, expected {len(steps) + 1}")
        try:
            f = parse(m.group(2))
        except ValueError as e:
            raise ValueError(f"line {lineno}: {e}") from None
        steps.append(Step(index, f, m.group(3).strip()))
    if system is None:
        raise ValueError("missing 'system <name>' header")
    return Derivation(system, tuple(steps))


def load_derivation(path) -> Derivation:
    with open(path, encoding="utf-8") as fh:
        return parse_derivation(fh.read())


def format_derivation(d: Derivation) -> str:
    lines = [f"system {d.system}", ""]
    lines += [f"{s.index}. {render(s.formula)} ; {s.justification}" for s in d.steps]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# checking
#
# Each rule is one function (system, d, step, *words) -> Formula.  It reads
# its arguments in the order _SHAPES lists them, runs its own check and
# returns the one formula that the step may state: the step's own for axiom,
# taut, pc and mp, the licensed conclusion for the other rules.  taut and pc
# share one function: a taut step is a pc step that cites no lines.


def _line(d: Derivation, step: Step, word: str) -> Formula:
    """The formula of the earlier step that word cites."""
    r = int(word) if word.isdecimal() else 0
    if not 0 < r < step.index:
        raise DerivationError(step.index, f"line {word} is not an earlier step")
    return d.steps[r - 1].formula


def _name(step: Step, word: str, noun: str) -> str:
    """word, when it names an agent or a variable.  top and bot are not
    variables: parse reads them as constants, never as propositions."""
    if not _IDENT_RE.match(word) or noun == "variable" and word in ("top", "bot"):
        raise DerivationError(step.index, f"bad {noun} {word!r}")
    return word


def _formula(step: Step, words) -> Formula:
    try:
        return parse(" ".join(words))
    except ValueError as e:
        raise DerivationError(step.index, f"bad formula argument: {e}") from None


def _equivalence(step: Step, g: Formula):
    if not isinstance(g, Iff):
        raise DerivationError(step.index, "the cited line is not an equivalence")


def _axiom(system, d, step, name):
    name = _AXIOM_ALIASES.get(name, name)
    if name not in system.axioms:
        raise DerivationError(step.index, f"axiom {name} is not part of {system.name}"
                              if name in AXIOMS else f"unknown axiom {name!r}")
    if match_axiom(name, step.formula) is None:
        near = [other for other in system.axioms
                if other != name and match_axiom(other, step.formula) is not None]
        hint = f" (it is an instance of {', '.join(sorted(near))})" if near else \
               f" (schema: {render(AXIOMS[name])})"
        raise DerivationError(step.index, f"not an instance of {name}{hint}")
    return step.formula


def _entailed(system, d, step, *lines):
    cited = [_line(d, step, word) for word in lines]
    try:
        ok = is_bool_taut(step.formula, cited)
    except ValueError as e:
        raise StepUndecided(step.index, str(e)) from None
    if not ok:
        raise DerivationError(step.index, "not a boolean consequence of the cited lines"
                              if lines else "not a boolean tautology")
    return step.formula


def _mp(system, d, step, first, second):
    f, g, h = _line(d, step, first), _line(d, step, second), step.formula
    if g != Implies(f, h) and f != Implies(g, h):
        raise DerivationError(step.index, "modus ponens does not apply to the cited lines")
    return h


def _neckw(system, d, step, line, agent):
    f = _line(d, step, line)
    return Kw(_name(step, agent, "agent"), f)


def _rekw(system, d, step, line, agent):
    g, agent = _line(d, step, line), _name(step, agent, "agent")
    _equivalence(step, g)
    return Iff(Kw(agent, g.left), Kw(agent, g.right))


def _sub(system, d, step, line, *words):
    g, context = _line(d, step, line), _formula(step, words[:-1])
    var = _name(step, words[-1], "variable")
    _equivalence(step, g)
    return Iff(substitute(context, var, g.left), substitute(context, var, g.right))


def _ri(system, d, step, line, *words):
    g, h, f = _line(d, step, line), _formula(step, words), step.formula
    if not (isinstance(f, And) and isinstance(f.left, Kw)):
        raise DerivationError(step.index, "conclusion must start with Kw[<agent>]")
    kw = lambda x: Kw(f.left.agent, x)
    return And(kw(g), Implies(Not(kw(h)), Not(kw(And(h, g)))))


def _wm(system, d, step, line):
    """From Kw[i]f & f -> g infer Kw[i]f & f -> Kw[i]g & g."""
    g = _line(d, step, line)
    if not (isinstance(g, Implies) and isinstance(g.left, And)
            and isinstance(g.left.left, Kw) and g.left.left.sub == g.left.right):
        raise DerivationError(step.index, "the cited line does not have the shape Kw[i]f & f -> g")
    return Implies(g.left, And(Kw(g.left.left.agent, g.right), g.right))


# Each rule's arguments, in order, and its function.  A line cites an earlier
# step and lines cite one or more; an agent, a var (a proposition letter) and
# a name (of an axiom) are one token each; a formula takes the tokens that
# the other arguments leave.
_SHAPES = {
    "axiom": (("name",), _axiom),
    "taut": ((), _entailed),
    "pc": (("lines",), _entailed),
    "mp": (("line", "line"), _mp),
    "neckw": (("line", "agent"), _neckw),
    "rekw": (("line", "agent"), _rekw),
    "sub": (("line", "formula", "var"), _sub),
    "ri": (("line", "formula"), _ri),
    "wm": (("line",), _wm),
}


def check_derivation(d: Derivation) -> Formula:
    """Replay every step; returns the conclusion or raises DerivationError.

    Step k of d.steps must carry the index k, since a justification cites
    lines by index."""
    if d.system not in SYSTEMS:
        raise DerivationError(0, f"unknown system {d.system!r} "
                                 f"(known: {', '.join(sorted(SYSTEMS))})")
    if not d.steps:
        raise DerivationError(0, "derivation has no steps")
    system = SYSTEMS[d.system]
    for k, step in enumerate(d.steps, 1):
        f = step.formula
        if step.index != k:
            raise DerivationError(k, f"step numbered {step.index}, expected {k}")
        if not in_language(f, system.language):
            raise DerivationError(k, f"formula leaves the {system.language.value} language")
        tokens = step.justification.replace(",", " ").split()
        if not tokens:
            raise DerivationError(k, "empty justification")
        rule, words = tokens[0].lower(), tokens[1:]
        if rule != "axiom" and rule not in system.rules:  # axioms are gated by name
            raise DerivationError(k, f"rule {rule!r} is not available in {system.name}")
        kinds, licensed = _SHAPES[rule]
        # lines and formula take one token or more, the other kinds one each
        if len(words) < len(kinds) or (len(words) > len(kinds)
                                       and "lines" not in kinds and "formula" not in kinds):
            raise DerivationError(k, " ".join(["usage:", rule, *(f"<{kind}>" for kind in kinds)]))
        if f != (want := licensed(system, d, step, *words)):
            raise DerivationError(k, f"expected {render(want)}")
    return d.steps[-1].formula


# ---------------------------------------------------------------------------
# generated derivations


class _Builder:
    def __init__(self, system: str):
        self.system = system
        self.steps: list[Step] = []

    def add(self, f: Formula, justification: str) -> int:
        self.steps.append(Step(len(self.steps) + 1, f, justification))
        return len(self.steps)

    def derivation(self) -> Derivation:
        return Derivation(self.system, tuple(self.steps))


def _emit_transfer(b: _Builder, chi, phi, psi, agent="i") -> int:
    """Derive Kw chi & Kw(~chi -> phi) & ~Kw phi & Kw(chi -> psi) -> Kw psi."""
    kw = lambda g: Kw(agent, g)
    s1 = b.add(Implies(And(kw(Implies(chi, phi)), kw(Implies(Not(chi), phi))), kw(phi)),
               "axiom KwCon")
    s2 = b.add(Implies(And(kw(Implies(Not(chi), phi)), Not(kw(phi))),
                       Not(kw(Implies(chi, phi)))),
               f"pc {s1}")
    s3 = b.add(Implies(kw(chi), Or(kw(Implies(chi, phi)), kw(Implies(Not(chi), psi)))),
               "axiom KwDis")
    s4 = b.add(Implies(And(kw(Implies(chi, psi)), kw(Implies(Not(chi), psi))), kw(psi)),
               "axiom KwCon")
    s5 = b.add(Implies(conj([kw(chi), kw(Implies(Not(chi), phi)), Not(kw(phi))]),
                       kw(Implies(Not(chi), psi))),
               f"pc {s2},{s3}")
    return b.add(Implies(conj([kw(chi), kw(Implies(Not(chi), phi)), Not(kw(phi)),
                               kw(Implies(chi, psi))]),
                         kw(psi)),
                 f"pc {s4},{s5}")


def _emit_discharge(b: _Builder, phi, psi, chi, delta, agent="i") -> int:
    """Derive Kw(phi & ~psi -> chi) & Kw psi & Kw(psi -> delta) & ~Kw delta -> Kw(phi -> chi)."""
    kw = lambda g: Kw(agent, g)
    inner = Implies(phi, chi)
    s6 = _emit_transfer(b, psi, inner, delta, agent)
    s7 = b.add(Implies(conj([kw(Implies(Not(psi), inner)), kw(psi),
                             kw(Implies(psi, delta)), Not(kw(delta))]),
                       kw(inner)),
               f"pc {s6}")
    s8 = b.add(Iff(Implies(And(phi, Not(psi)), chi), Implies(Not(psi), inner)), "taut")
    s9 = b.add(Iff(kw(Implies(And(phi, Not(psi)), chi)), kw(Implies(Not(psi), inner))),
               f"rekw {s8} {agent}")
    return b.add(Implies(conj([kw(Implies(And(phi, Not(psi)), chi)), kw(psi),
                               kw(Implies(psi, delta)), Not(kw(delta))]),
                         kw(inner)),
                 f"pc {s7},{s9}")


def _chain_conclusion(chis, psis, phi, agent="i") -> Formula:
    kw = lambda g: Kw(agent, g)
    ant = conj([kw(c) for c in chis]
               + [kw(Implies(conj([Not(c) for c in chis]), phi)), Not(kw(phi))]
               + [kw(Implies(c, y)) for c, y in zip(chis, psis)])
    return Implies(ant, disj([kw(y) for y in psis]))


def gen_prop19(k: int, agent: str = "i") -> Derivation:
    """PLKw derivation of the k-alternative transfer rule over x1..xk, y1..yk, z."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if not _IDENT_RE.match(agent):
        raise ValueError(f"bad agent name {agent!r}")
    chis = [Prop(f"x{j}") for j in range(1, k + 1)]
    psis = [Prop(f"y{j}") for j in range(1, k + 1)]
    phi = Prop("z")
    b = _Builder("PLKw")
    concl = _emit_transfer(b, chis[0], phi, psis[0], agent)
    for m in range(1, k):
        packed = conj([Not(c) for c in chis[:m]])
        step = _emit_discharge(b, packed, chis[m], phi, psis[m], agent)
        concl = b.add(_chain_conclusion(chis[:m + 1], psis[:m + 1], phi, agent),
                      f"pc {concl},{step}")
    return b.derivation()
