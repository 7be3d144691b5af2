"""Small bundled models exercised throughout the docs and tests.

Every claim made about a fixture is asserted by verify_fixtures(); the test
suite runs it before anything else, and `kwl fixtures verify` exposes it on
the command line.  Builders are the source of truth; the JSON files under
fixtures/ must stay equal to them (there is a test for that too).
"""

from __future__ import annotations

from kwl.formula import parse
from kwl.semantics import FrameProperty, KripkeModel, frame_properties, mc, model_valid, restrict


def m1() -> KripkeModel:
    """Two worlds, a self-loop and an escape; shows Kw is not a normal box:
    Kw[i](p -> q) and Kw[i]p hold at s while Kw[i]q fails."""
    return KripkeModel(["s", "t"], ["i"],
                       {"i": [("s", "s"), ("s", "t")]},
                       {"q": ["t"]})


def pair_serial_m() -> KripkeModel:
    """With pair_serial_n: same serial/transitive/euclidean one-successor
    frame, differing valuation; K[i]p tells the points apart, no Kw formula
    does."""
    return KripkeModel(["s", "t"], ["i"],
                       {"i": [("s", "t"), ("t", "t")]},
                       {"p": ["t"]})


def pair_serial_n() -> KripkeModel:
    return KripkeModel(["s", "t"], ["i"],
                       {"i": [("s", "t"), ("t", "t")]},
                       {"p": []})


def pair_sym_m() -> KripkeModel:
    """With pair_sym_n: the symmetric variant of the serial pair."""
    return KripkeModel(["s", "t"], ["i"],
                       {"i": [("s", "t"), ("t", "s")]},
                       {"p": ["t"]})


def pair_sym_n() -> KripkeModel:
    return KripkeModel(["s", "t"], ["i"],
                       {"i": [("s", "t"), ("t", "s")]},
                       {"p": []})


def f1() -> KripkeModel:
    """Three-world chain s -> t -> u; partial-functional and nothing else."""
    return KripkeModel(["s", "t", "u"], ["i"],
                       {"i": [("s", "t"), ("t", "u")]},
                       {})


def f2() -> KripkeModel:
    """Single reflexive world; has every frame property at once."""
    return KripkeModel(["s"], ["i"], {"i": [("s", "s")]}, {})


def m27() -> KripkeModel:
    """Seven-world tree on which wKw4 is valid but the stronger
    Kw[i]p -> Kw[i](Kw[i]p | q) fails at the root: the four leaves agree
    pairwise on everything, so second-order Kw facts stay uniform."""
    return KripkeModel(
        ["s", "t", "u", "t1", "t2", "u1", "u2"], ["i"],
        {"i": [("s", "t"), ("s", "u"),
               ("t", "t1"), ("t", "t2"),
               ("u", "u1"), ("u", "u2")]},
        {"p": ["t1", "u1"], "q": ["t"]})


def n28() -> KripkeModel:
    """Fork on which wKw5 is valid but ~Kw[i]p -> Kw[i](~Kw[i]p | q) fails
    at the root."""
    return KripkeModel(["s", "t", "u"], ["i"],
                       {"i": [("s", "t"), ("s", "u")]},
                       {"p": ["t"], "q": ["t"]})


def announce() -> KripkeModel:
    """Announcing q erases the q-ignorance it reports: ~Kw[i]q holds at s
    but [q]~Kw[i]q does not.  Announcement validities are therefore not
    closed under substituting ~Kw[i]q for p in p -> [q]p."""
    return KripkeModel(["s", "t1", "t2"], ["i"],
                       {"i": [("s", "t1"), ("s", "t2")]},
                       {"q": ["s", "t1"]})


def g4() -> KripkeModel:
    """Transitive three-world model refuting the G4 introspection schema
    at s (instance with q for the known part and p for the unknown one)."""
    return KripkeModel(["s", "t", "u"], ["i"],
                       {"i": [("s", "t"), ("s", "u"), ("t", "t"), ("t", "u")]},
                       {"p": ["t"], "q": ["t", "u"]})


FIXTURES = {
    "m1": m1,
    "pair_serial_m": pair_serial_m,
    "pair_serial_n": pair_serial_n,
    "pair_sym_m": pair_sym_m,
    "pair_sym_n": pair_sym_n,
    "f1": f1,
    "f2": f2,
    "m27": m27,
    "n28": n28,
    "announce": announce,
    "g4": g4,
}


G4_INSTANCE = ("~Kw[i]p -> (Kw[i]q & ~Kw[i](q & p) -> "
               "Kw[i](Kw[i]q & ~Kw[i](p & q)) & ~Kw[i](Kw[i]q & ~Kw[i](q & p) & p))")


def verify_fixtures() -> list[str]:
    """Assert every documented claim about the bundled models.  Returns the
    list of checked claims (one human-readable line each); raises
    AssertionError on the first violation."""
    checked = []
    P = FrameProperty

    def claim(text, ok):
        assert ok, f"fixture claim failed: {text}"
        checked.append(text)

    M = m1()
    claim("m1: Kw[i](p -> q) at s", mc(M, "s", parse("Kw[i](p -> q)")))
    claim("m1: Kw[i]p at s", mc(M, "s", parse("Kw[i]p")))
    claim("m1: not Kw[i]q at s", not mc(M, "s", parse("Kw[i]q")))
    claim("m1: K-distribution instance fails at s",
          not mc(M, "s", parse("Kw[i](p -> q) -> (Kw[i]p -> Kw[i]q)")))
    claim("m1: Kw[i]p -> Kw[i]~p valid on the model",
          model_valid(M, parse("Kw[i]p -> Kw[i]~p")))
    R = restrict(M, parse("q"))
    claim("m1: restricting to q leaves the single world t",
          R is not None and R.worlds == ("t",) and R.rel["i"] == frozenset()
          and R.val["q"] == frozenset({"t"}))

    for name, build in (("pair_serial_m", pair_serial_m), ("pair_serial_n", pair_serial_n)):
        props = frame_properties(build())
        claim(f"{name}: serial, transitive, euclidean, partial-functional",
              {P.SERIAL, P.TRANSITIVE, P.EUCLIDEAN, P.PARTIAL_FUNCTIONAL} <= props)
        claim(f"{name}: not reflexive, not symmetric",
              not ({P.REFLEXIVE, P.SYMMETRIC} & props))
    claim("pair_serial: K[i]p distinguishes the points",
          mc(pair_serial_m(), "s", parse("K[i]p"))
          and not mc(pair_serial_n(), "s", parse("K[i]p")))

    for name, build in (("pair_sym_m", pair_sym_m), ("pair_sym_n", pair_sym_n)):
        props = frame_properties(build())
        claim(f"{name}: symmetric and partial-functional",
              {P.SYMMETRIC, P.PARTIAL_FUNCTIONAL} <= props)
    claim("pair_sym: K[i]p distinguishes the points",
          mc(pair_sym_m(), "s", parse("K[i]p"))
          and not mc(pair_sym_n(), "s", parse("K[i]p")))

    claim("f1: partial-functional and nothing else",
          frame_properties(f1()) == {P.PARTIAL_FUNCTIONAL})
    claim("f2: all six frame properties", frame_properties(f2()) == set(P))

    M = m27()
    claim("m27: Kw[i]p at s", mc(M, "s", parse("Kw[i]p")))
    claim("m27: Kw[i]p -> Kw[i](Kw[i]p | q) fails at s",
          not mc(M, "s", parse("Kw[i]p -> Kw[i](Kw[i]p | q)")))
    claim("m27: Kw[i]p -> Kw[i]Kw[i]p valid on the model",
          model_valid(M, parse("Kw[i]p -> Kw[i]Kw[i]p")))

    M = n28()
    claim("n28: ~Kw[i]p at s", mc(M, "s", parse("~Kw[i]p")))
    claim("n28: ~Kw[i]p -> Kw[i](~Kw[i]p | q) fails at s",
          not mc(M, "s", parse("~Kw[i]p -> Kw[i](~Kw[i]p | q)")))
    claim("n28: ~Kw[i]p -> Kw[i]~Kw[i]p valid on the model",
          model_valid(M, parse("~Kw[i]p -> Kw[i]~Kw[i]p")))

    M = announce()
    claim("announce: ~Kw[i]q at s", mc(M, "s", parse("~Kw[i]q")))
    claim("announce: [q]~Kw[i]q fails at s", not mc(M, "s", parse("[q]~Kw[i]q")))
    claim("announce: ~Kw[i]q -> [q]~Kw[i]q fails at s",
          not mc(M, "s", parse("~Kw[i]q -> [q]~Kw[i]q")))
    R = restrict(M, parse("q"))
    claim("announce: q-worlds are s and t1",
          R is not None and R.worlds == ("s", "t1"))

    M = g4()
    claim("g4: transitive", P.TRANSITIVE in frame_properties(M))
    claim("g4: ~Kw[i]p at s", mc(M, "s", parse("~Kw[i]p")))
    claim("g4: Kw[i]q & ~Kw[i](q & p) at s",
          mc(M, "s", parse("Kw[i]q & ~Kw[i](q & p)")))
    claim("g4: Kw[i](Kw[i]q & ~Kw[i](p & q)) fails at s",
          not mc(M, "s", parse("Kw[i](Kw[i]q & ~Kw[i](p & q))")))
    claim("g4: the G4 instance fails at s", not mc(M, "s", parse(G4_INSTANCE)))

    return checked
