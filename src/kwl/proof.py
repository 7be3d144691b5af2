"""Hilbert-style derivation checking for the Kw proof systems.

Axiom schemas use uppercase proposition names (PHI, PSI, CHI, CHI1, CHI2,
ATOM) as metavariables and the uppercase agent I; the concrete syntax only
admits lowercase identifiers, so instances can never collide with schema
variables.  A derivation file declares its proof system, then numbered
steps `k. <formula> ; <justification>`; every justification cites earlier
lines only and is replayed from scratch by the checker.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

from .formula import (
    TOP,
    And,
    Announce,
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
    in_language,
    parse,
    render,
    substitute,
)
from .semantics import FrameClass

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
    "!ATOM": Iff(Announce(_PHI, _ATOM), Implies(_PHI, _ATOM)),
    "!NEG": Iff(Announce(_PHI, Not(_PSI)),
                Implies(_PHI, Not(Announce(_PHI, _PSI)))),
    "!COM": Iff(Announce(_PHI, And(_PSI, _CHI)),
                And(Announce(_PHI, _PSI), Announce(_PHI, _CHI))),
    "!!": Iff(Announce(_PHI, Announce(_PSI, _CHI)),
              Announce(And(_PHI, Announce(_PHI, _PSI)), _CHI)),
    "!Kw": Iff(Announce(_PHI, _kw(_PSI)),
               Implies(_PHI, Or(_kw(Announce(_PHI, _PSI)),
                                _kw(Announce(_PHI, Not(_PSI)))))),
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


def _match(schema: Formula, f: Formula, b: dict) -> bool:
    """Match f against the schema, growing the binding dict b."""
    if isinstance(schema, Prop) and _is_meta(schema.name):
        name = schema.name
        if name == "ATOM" and not isinstance(f, Prop):
            return False
        if name in b:
            return b[name] == f
        b[name] = f
        return True
    if type(schema) is not type(f):
        return False
    if isinstance(schema, Prop):
        return schema.name == f.name
    if isinstance(schema, Modal) and not _match_agent(schema.agent, f.agent, b):
        return False
    for x, y in zip(schema.children(), f.children()):
        if not _match(x, y, b):
            return False
    return True


def _match_agent(meta: str, actual: str, b: dict) -> bool:
    if not _is_meta(meta):
        return meta == actual
    if meta in b:
        return b[meta] == actual
    b[meta] = actual
    return True


def match_axiom(name: str, f: Formula) -> Optional[dict]:
    """Bindings under which f instantiates the named schema, or None."""
    b: dict = {}
    return b if _match(AXIOMS[name], f, b) else None


def instantiate(schema: Formula, bindings: dict) -> Formula:
    """Fill a schema's metavariables from bindings (agent under key I)."""
    if isinstance(schema, Prop) and _is_meta(schema.name):
        return bindings[schema.name]
    if isinstance(schema, Modal) and _is_meta(schema.agent):
        schema = type(schema)(bindings[schema.agent], schema.sub)
    return schema.map(lambda g: instantiate(g, bindings))


# ---------------------------------------------------------------------------
# boolean reasoning under modal abstraction
#
# A taut or pc step holds when the negation of its formula is unsatisfiable
# once the propositions and the maximal Kw, K and announcement subformulas
# are read as letters.  The negation is put in a definitional clause form
# (Tseitin 1968, one-sided definitions) and searched by DPLL with unit
# propagation (Davis, Logemann & Loveland 1962).

# literals scanned during propagation before a check gives up, counted as the
# lengths of the clauses visited: about a second.  The cost of a decision grows
# with the number and length of the clauses, so a cap on decisions alone would
# not bound the time.
_WORK_CAP = 1 << 23


def _clauses(f: Formula) -> list:
    """Clauses, lists of nonzero ints, satisfiable exactly when ~f is.

    A goal is a clause under construction: literals so far, and (formula,
    polarity) items still to flatten into it.  Disjunctive shapes flatten in
    place.  A conjunctive shape that is the whole goal splits into one goal per
    conjunct; inside a larger clause it becomes a fresh variable x, one per
    node and polarity, with the clauses ~x | conjunct."""
    letters: dict = {}
    fresh: dict = {}  # (id of a node, polarity) -> its variable
    clauses = []
    goals = [([], [(f, False)])]
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


def is_bool_taut(f: Formula) -> bool:
    """Tautology after abstracting maximal modal subformulas.

    The letters are the propositions and the maximal Kw, K and announcement
    subformulas, compared by value.  Raises ValueError when the search passes
    its work cap: the formula is then neither confirmed nor refuted."""
    return not _satisfiable(_clauses(f))


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


def _refs(tokens, step, count=None):
    try:
        refs = [int(t) for t in tokens]
    except ValueError:
        raise DerivationError(step.index, f"bad line reference in {step.justification!r}") from None
    if count is not None and len(refs) != count:
        raise DerivationError(step.index, f"expected {count} line reference(s), got {len(refs)}")
    if not refs:
        raise DerivationError(step.index, "expected at least one line reference")
    for r in refs:
        if not 1 <= r < step.index:
            raise DerivationError(step.index, f"reference {r} is not an earlier step")
    return refs


def _taut(step, f, what):
    try:
        ok = is_bool_taut(f)
    except ValueError as e:
        raise StepUndecided(step.index, str(e)) from None
    if not ok:
        raise DerivationError(step.index, what)


def _check_axiom(system: ProofSystem, step: Step, name: str):
    name = _AXIOM_ALIASES.get(name, name)
    if name not in AXIOMS:
        raise DerivationError(step.index, f"unknown axiom {name!r}")
    if name not in system.axioms:
        raise DerivationError(step.index, f"axiom {name} is not part of {system.name}")
    if match_axiom(name, step.formula) is None:
        near = [other for other in system.axioms
                if other != name and match_axiom(other, step.formula) is not None]
        hint = f" (it is an instance of {', '.join(sorted(near))})" if near else \
               f" (schema: {render(AXIOMS[name])})"
        raise DerivationError(step.index, f"not an instance of {name}{hint}")


def _check_step(system: ProofSystem, d: Derivation, step: Step):
    if not in_language(step.formula, system.language):
        raise DerivationError(step.index,
                              f"formula leaves the {system.language.value} language")
    tokens = step.justification.replace(",", " ").split()
    if not tokens:
        raise DerivationError(step.index, "empty justification")
    rule = tokens[0].lower()
    if rule == "axiom":
        if len(tokens) != 2:
            raise DerivationError(step.index, "axiom justification needs exactly one name")
        _check_axiom(system, step, tokens[1])
        return
    if rule not in system.rules:
        raise DerivationError(step.index, f"rule {rule!r} is not available in {system.name}")
    f = step.formula
    prem = lambda r: d.steps[r - 1].formula

    if rule == "taut":
        _taut(step, f, "not a boolean tautology")
    elif rule == "pc":
        refs = _refs(tokens[1:], step)
        _taut(step, Implies(conj([prem(r) for r in refs]), f),
              "not a boolean consequence of the cited lines")
    elif rule == "mp":
        a, b = _refs(tokens[1:], step, 2)
        fa, fb = prem(a), prem(b)
        ok = (isinstance(fb, Implies) and fb.left == fa and fb.right == f) or \
             (isinstance(fa, Implies) and fa.left == fb and fa.right == f)
        if not ok:
            raise DerivationError(step.index, "modus ponens does not apply to the cited lines")
    elif rule == "neckw":
        if len(tokens) != 3:
            raise DerivationError(step.index, "usage: neckw <line> <agent>")
        (a,) = _refs(tokens[1:2], step, 1)
        if f != Kw(tokens[2], prem(a)):
            raise DerivationError(step.index, f"expected Kw[{tokens[2]}] applied to line {a}")
    elif rule == "rekw":
        if len(tokens) != 3:
            raise DerivationError(step.index, "usage: rekw <line> <agent>")
        (a,) = _refs(tokens[1:2], step, 1)
        g = prem(a)
        if not isinstance(g, Iff):
            raise DerivationError(step.index, f"line {a} is not an equivalence")
        if f != Iff(Kw(tokens[2], g.left), Kw(tokens[2], g.right)):
            raise DerivationError(step.index, "replacement of equivalents under Kw does not match")
    elif rule == "sub":
        if len(tokens) < 4:
            raise DerivationError(step.index, "usage: sub <line> <context formula> <variable>")
        (a,) = _refs(tokens[1:2], step, 1)
        var = tokens[-1]
        if not re.fullmatch(r"[a-z][a-z0-9_]*", var):
            raise DerivationError(step.index, f"bad substitution variable {var!r}")
        try:
            ctx = parse(" ".join(tokens[2:-1]))
        except ValueError as e:
            raise DerivationError(step.index, f"bad context formula: {e}") from None
        g = prem(a)
        if not isinstance(g, Iff):
            raise DerivationError(step.index, f"line {a} is not an equivalence")
        if f != Iff(substitute(ctx, var, g.left), substitute(ctx, var, g.right)):
            raise DerivationError(step.index, "substitution of equivalents does not match")
    elif rule == "ri":
        if len(tokens) < 3:
            raise DerivationError(step.index, "usage: ri <line> <formula>")
        (a,) = _refs(tokens[1:2], step, 1)
        try:
            chi = parse(" ".join(tokens[2:]))
        except ValueError as e:
            raise DerivationError(step.index, f"bad formula argument: {e}") from None
        g = prem(a)
        if not (isinstance(f, And) and isinstance(f.left, Kw) and f.left.sub == g):
            raise DerivationError(step.index, "conclusion must start with Kw applied to the cited line")
        agent = f.left.agent
        want = And(Kw(agent, g),
                   Implies(Not(Kw(agent, chi)), Not(Kw(agent, And(chi, g)))))
        if f != want:
            raise DerivationError(step.index, f"expected {render(want)}")
    elif rule == "wm":
        (a,) = _refs(tokens[1:], step, 1)
        g = prem(a)
        ok = (isinstance(g, Implies) and isinstance(g.left, And)
              and isinstance(g.left.left, Kw) and g.left.left.sub == g.left.right)
        if not ok:
            raise DerivationError(step.index, f"line {a} does not have the shape Kw[i]f & f -> g")
        agent = g.left.left.agent
        if f != Implies(g.left, And(Kw(agent, g.right), g.right)):
            raise DerivationError(step.index, "weak monotonicity conclusion does not match")
    else:
        raise DerivationError(step.index, f"unknown rule {rule!r}")


def check_derivation(d: Derivation) -> Formula:
    """Replay every step; returns the conclusion or raises DerivationError."""
    if d.system not in SYSTEMS:
        raise DerivationError(0, f"unknown system {d.system!r} "
                                 f"(known: {', '.join(sorted(SYSTEMS))})")
    if not d.steps:
        raise DerivationError(0, "derivation has no steps")
    system = SYSTEMS[d.system]
    for step in d.steps:
        _check_step(system, d, step)
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
