"""The three workloads: inputs drawn from a seed, the battery, and the checks.

Each workload has four parts:

  inputs(seed, small, workdir)     runs in run.py's own process; draws the inputs
                                   and writes the files kwl will load
  load(kwl, inp, root)             the set-up a user pays: kwl's own loaders
  tasks(kwl, inp, loaded, workdir) the battery, a list of Task
  check(kwl, inp, loaded, tasks, answers, workdir)
                                   problems found in the answers, checked
                                   against the oracle or stated properties

A battery mixes many cheap tasks, which set the median task time, with a
block of costly tasks that take most of the time and set the 90th
percentile.  The costly block holds more than a tenth of the tasks, so the
90th percentile falls inside it and not on the edge between the two kinds.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

CLASSES = ["K", "D", "T", "B", "K4", "K5", "K45", "S4", "S5", "PF"]
PROPS = ["p", "q", "r"]
AGENTS = ["i", "j"]


class Task:
    """One call in the battery.  `scaled` is False for a task whose time does
    not follow the interpreter's speed, so that the worker leaves it unscaled."""

    __slots__ = ("label", "fn", "meta", "scaled")

    def __init__(self, label, fn, meta, scaled=True):
        self.label = label
        self.fn = fn
        self.meta = meta
        self.scaled = scaled


def _as_tuple(f):
    """A formula read back from JSON lists into the oracle's tuples."""
    return tuple(_as_tuple(x) if isinstance(x, list) else x for x in f)


def _cli(kwl, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kwl.cli.main(argv)
    return code, out.getvalue().strip()


# ---------------------------------------------------------------------------
# decide


# the seed the cheap formulas' shapes are drawn from, the same in every run
POOL_SEED = 0


class Decide:
    """sat and valid calls, nearly all their time in the tableau.

    Cheap: random PLKw, PLKwK and PLKwA formulas (depth 4, modal depth 2),
    each asked over all ten classes, one class of each through kwl.cli.main.
    Their shapes are drawn once from POOL_SEED; a run's seed renames their
    propositions and agents, picks the class asked through the CLI and the
    order.  Drawing the shapes anew for every seed moved the median task
    time by a quarter between seeds, since a few dozen shapes set it.
    Costly: the conclusions of gen_prop19(3) over nine classes and
    Kw[a]^10 x over three, for seeded agent names.  The 90th percentile
    falls among gen_prop19(3) over K, D, B and K4, a block of 24 tasks of
    about the same cost.
    """

    uses_cli = True

    @staticmethod
    def inputs(seed, small, workdir):
        import gen

        pool = random.Random(POOL_SEED)
        rng = random.Random(seed)
        names = dict(zip(PROPS, rng.sample(["p", "q", "r", "s", "u", "v", "x", "y"], 3)))
        agents = rng.sample(["i", "j", "a", "b", "c", "d", "e", "g"], 6)
        names.update(zip(AGENTS, agents))
        langs = [("kw",), ("kw", "k"), ("kw", "ann")]
        formulas, tasks = [], []
        for j in range(3 if small else 14):
            shape = gen.formula_with(pool, 4, 2, PROPS, AGENTS, langs[j % 3])
            f = gen.rename(shape, names)
            formulas.append({"text": gen.render(f), "tuple": f})
            kind = pool.choice(("valid", "sat"))
            via_cli = rng.choice(CLASSES)
            for cls in CLASSES:
                tasks.append({"kind": kind, "formula": j, "class": cls,
                              "cli": cls == via_cli})
        atom = names["p"]
        if small:
            costly = [("prop19", 2, ["K", "S5", "K4"], 1), ("kwn", 4, ["K", "T"], 1)]
        else:
            costly = [("prop19", 3, ["K", "D", "B", "K4"], 6),
                      ("prop19", 3, ["T", "K5", "K45", "S4", "S5"], 1),
                      ("kwn", 10, ["K", "T", "K4"], 1)]
        families = []
        for family, k, classes, n_agents in costly:
            for agent in agents[:n_agents]:
                families.append({"family": family, "k": k, "agent": agent, "atom": atom})
                for cls in classes:
                    tasks.append({"kind": "valid", "family": len(families) - 1,
                                  "class": cls, "cli": False})
        rng.shuffle(tasks)
        return {"formulas": formulas, "families": families, "tasks": tasks}

    @staticmethod
    def load(kwl, inp, root):
        parsed = [kwl.parse(f["text"]) for f in inp["formulas"]]
        families = []
        for fam in inp["families"]:
            if fam["family"] == "prop19":
                families.append(kwl.gen_prop19(fam["k"], fam["agent"]).steps[-1].formula)
            else:
                families.append(kwl.parse(f"Kw[{fam['agent']}]" * fam["k"] + fam["atom"]))
        return {"formulas": parsed, "families": families}

    @staticmethod
    def tasks(kwl, inp, loaded, workdir):
        out = []
        for n, t in enumerate(inp["tasks"]):
            cls = kwl.FrameClass.parse(t["class"])
            if "formula" in t:
                f, text = loaded["formulas"][t["formula"]], inp["formulas"][t["formula"]]["text"]
            else:
                f, text = loaded["families"][t["family"]], None
            if t["cli"]:
                path = os.path.join(workdir, f"decide-{n}.json")
                flag = "--countermodel" if t["kind"] == "valid" else "--model"
                argv = ["decide" if t["kind"] == "valid" else "sat", text,
                        "--class", t["class"], flag, path]
                fn = (lambda argv=argv: _cli(kwl, argv))
            elif t["kind"] == "valid":
                fn = (lambda f=f, cls=cls: kwl.valid(f, cls))
            else:
                fn = (lambda f=f, cls=cls: kwl.sat(f, cls))
            out.append(Task(f"{t['kind']} {t['class']} #{n}", fn, t))
        return out

    @staticmethod
    def check(kwl, inp, loaded, tasks, answers, workdir):
        import oracle

        problems = []
        verdicts = {}  # (formula key, kind) -> {class: positive verdict}
        for n, (task, seen) in enumerate(zip(tasks, answers)):
            t = task.meta
            if "formula" in t:
                f, key = _as_tuple(inp["formulas"][t["formula"]]["tuple"]), ("f", t["formula"])
            else:
                f, key = oracle.from_kwl(loaded["families"][t["family"]]), ("fam", t["family"])
            for answer in seen:
                if t["cli"]:
                    code, text = answer
                    positive = code == 0
                    expected = {("valid", 0): "valid", ("valid", 1): "invalid",
                                ("sat", 0): "satisfiable", ("sat", 1): "unsatisfiable"}
                    if expected.get((t["kind"], code)) != text:
                        problems.append(f"{task.label}: cli exit {code} printed {text!r}")
                        continue
                    model = None
                    if (t["kind"] == "valid") != positive:
                        with open(os.path.join(workdir, f"decide-{n}.json"),
                                  encoding="utf-8") as fh:
                            model = json.load(fh)
                else:
                    positive = answer.valid if t["kind"] == "valid" else answer.satisfiable
                    m = answer.countermodel if t["kind"] == "valid" else answer.model
                    model = m.to_dict() if m is not None else None
                problems += _check_verdict(oracle, task.label, t["kind"], t["class"], f,
                                           positive, model)
                verdicts.setdefault((key, t["kind"]), {})[t["class"]] = positive
            if len(seen) > 1:
                problems.append(f"{task.label}: answers differ between rounds")
        for (key, kind), by_class in verdicts.items():
            for narrow, wide in oracle.subclass_pairs():
                if narrow not in by_class or wide not in by_class:
                    continue
                if kind == "valid" and by_class[wide] and not by_class[narrow]:
                    problems.append(f"{key}: valid over {wide} but not over {narrow}")
                if kind == "sat" and by_class[narrow] and not by_class[wide]:
                    problems.append(f"{key}: satisfiable over {narrow} but not over {wide}")
            if key[0] == "fam" and inp["families"][key[1]]["family"] == "prop19":
                if not all(by_class.values()):
                    problems.append(f"gen_prop19 conclusion {key}: not valid over every class")
        return problems


def _check_verdict(oracle, label, kind, cls, f, positive, model):
    """A model must satisfy (sat) or refute (invalid) f at its point and lie in
    the class; a valid or unsat verdict must hold on every small class model."""
    if model is not None:
        want = kind == "sat"
        if oracle.holds(model, model["point"], f) != want:
            return [f"{label}: the returned model does not {'satisfy' if want else 'refute'} "
                    f"the formula at its point"]
        if not oracle.in_class(model, cls):
            return [f"{label}: the returned model is not a {cls} model"]
        return []
    if kind == "sat" and positive or kind == "valid" and not positive:
        return [f"{label}: verdict without a model"]
    target = f if kind == "valid" else ("not", f)
    bad = oracle.valid_on_small_models(target, cls)
    return [f"{label}: {kind} verdict refuted on {bad}"] if bad else []


# ---------------------------------------------------------------------------
# modelcheck


class ModelCheck:
    """The semantic evaluator on seeded random 100-world models with two agents.

    Cheap: single-world mc queries, three in four of PLKw formulas, the rest
    of PLKwA formulas, some through kwl.cli.main reading the model file, and
    kwl frame on every model.  The announcement-free queries are enough for
    the median to fall among them; they keep an evaluator that labels every
    world from winning on the sweeps while it slows them down.  As in
    decide, the formula shapes come from POOL_SEED and a run's seed renames
    them.  Costly: model_valid of instances of the reduction axiom for Kw
    with two nested announcements, all of one shape, which hold the 90th
    percentile, and frame_valid of the Kw axioms over 5-world frames.  Every
    one is valid, so that model_valid visits every world and frame_valid
    every valuation; a false one stops at its first counterexample, and its
    cost would follow the seed.
    """

    uses_cli = True

    @staticmethod
    def inputs(seed, small, workdir):
        import gen

        pool = random.Random(POOL_SEED)
        rng = random.Random(seed)
        names = dict(zip(PROPS, rng.sample(PROPS, 3)))
        n_worlds, n_models, n_frames, frame_size = (12, 1, 2, 3) if small else (100, 3, 4, 5)
        n_plain, n_ann, n_cli, n_valid = (12, 3, 3, 4) if small else (70, 14, 7, 12)
        files = [_write(workdir, f"model{m}.json", gen.random_model(rng, n_worlds, PROPS))
                 for m in range(n_models)]
        frames = [_write(workdir, f"frame{m}.json", gen.random_model(rng, frame_size, [], block=2))
                  for m in range(n_frames)]
        formulas, tasks = [], []

        def add(f):
            formulas.append({"text": gen.render(f), "tuple": f})
            return len(formulas) - 1

        for j in range(n_plain + n_ann + n_cli):
            modals = ("kw",) if j < n_plain or j % 2 else ("kw", "ann")
            f = gen.rename(gen.formula_with(pool, 4, 2, PROPS, AGENTS, modals), names)
            tasks.append({"kind": "mc", "model": rng.randrange(n_models),
                          "world": f"w{rng.randrange(n_worlds)}", "formula": add(f),
                          "cli": j >= n_plain + n_ann})
        for m in range(n_models):
            tasks.append({"kind": "frame", "model": m, "cli": True})

        for j in range(n_valid):
            # an instance of the reduction axiom for Kw, valid on every model:
            # [a]Kw[i]g <-> (a -> Kw[i][a]g | Kw[i][a]~g) with g = [b]Kw[j](c | ~a)
            a, b, c = (("p", name) for name in rng.sample(PROPS, 3))
            g = ("ann", b, ("kw", "j", ("or", c, ("not", a))))
            f = ("iff", ("ann", a, ("kw", "i", g)),
                 ("imp", a, ("or", ("kw", "i", ("ann", a, g)),
                             ("kw", "i", ("ann", a, ("not", g))))))
            tasks.append({"kind": "model_valid", "model": j % n_models,
                          "formula": add(f)})
        x, y = ("p", "x"), ("p", "y")
        kw_x = ("kw", "i", x)
        shapes = [  # Kw axioms valid on every frame, and on agent i's equivalences
            ("imp", ("and", ("kw", "i", ("imp", y, x)), ("kw", "i", ("imp", ("not", y), x))),
             kw_x),
            ("imp", kw_x, ("or", ("kw", "i", ("imp", x, y)), ("kw", "i", ("imp", ("not", x), y)))),
            ("imp", kw_x, ("kw", "i", ("or", kw_x, y))),
            ("imp", ("not", kw_x), ("kw", "i", ("or", ("not", kw_x), y))),
            ("imp", ("and", ("and", kw_x, ("kw", "i", ("imp", x, y))), x), ("kw", "i", y)),
        ]
        for j, shape in enumerate(shapes):
            tasks.append({"kind": "frame_valid", "frame": j % n_frames, "formula": add(shape)})
        rng.shuffle(tasks)
        return {"models": files, "frames": frames, "formulas": formulas, "tasks": tasks}

    @staticmethod
    def load(kwl, inp, root):
        return {"models": [kwl.load_model(p) for p in inp["models"]],
                "frames": [kwl.load_model(p) for p in inp["frames"]],
                "formulas": [kwl.parse(f["text"]) for f in inp["formulas"]]}

    @staticmethod
    def tasks(kwl, inp, loaded, workdir):
        out = []
        for n, t in enumerate(inp["tasks"]):
            kind = t["kind"]
            f = loaded["formulas"][t["formula"]] if "formula" in t else None
            if kind == "mc" and t["cli"]:
                argv = ["mc", inp["models"][t["model"]], t["world"],
                        inp["formulas"][t["formula"]]["text"]]
                fn = (lambda argv=argv: _cli(kwl, argv))
            elif kind == "mc":
                fn = (lambda m=loaded["models"][t["model"]], w=t["world"], f=f: kwl.mc(m, w, f))
            elif kind == "frame":
                fn = (lambda argv=["frame", inp["models"][t["model"]]]: _cli(kwl, argv))
            elif kind == "model_valid":
                fn = (lambda m=loaded["models"][t["model"]], f=f: kwl.model_valid(m, f))
            else:
                fn = (lambda m=loaded["frames"][t["frame"]], f=f: kwl.frame_valid(m, f))
            out.append(Task(f"{kind} #{n}", fn, t))
        return out

    @staticmethod
    def check(kwl, inp, loaded, tasks, answers, workdir):
        import oracle

        problems = []
        docs = {}

        def doc(path):
            if path not in docs:
                with open(path, encoding="utf-8") as fh:
                    docs[path] = json.load(fh)
            return docs[path]

        for task, seen in zip(tasks, answers):
            t = task.meta
            if len(seen) > 1:
                problems.append(f"{task.label}: answers differ between rounds")
            if not seen:
                continue
            answer = seen[0]
            kind = t["kind"]
            if kind == "frame":
                d = doc(inp["models"][t["model"]])
                want = oracle.frame_properties(d)
                if answer[0] != 0 or set(answer[1].split()) != want:
                    problems.append(f"{task.label}: kwl frame said {answer}, oracle {sorted(want)}")
                continue
            f = _as_tuple(inp["formulas"][t["formula"]]["tuple"])
            if kind == "frame_valid":
                want = oracle.frame_valid(doc(inp["frames"][t["frame"]]), f)
                if answer != want:
                    problems.append(f"{task.label}: frame_valid {answer}, oracle {want}")
                continue
            d = doc(inp["models"][t["model"]])
            space, index = oracle.space_of(d)
            if kind == "mc":
                worlds = 1 << index[t["world"]]
                value = answer[0] == 0 if t["cli"] else answer
                if t["cli"] and answer[1] != ("true" if value else "false"):
                    problems.append(f"{task.label}: cli exit {answer[0]} printed {answer[1]!r}")
            else:
                worlds = space.full
                value = answer
            ext = space.ext(f)
            if value != (ext & worlds == worlds):
                problems.append(f"{task.label}: kwl says {value}, oracle disagrees")
            # the reductions preserve truth at every world checked
            g = kwl.reduce(loaded["formulas"][t["formula"]])
            h = kwl.kw_to_el(g)
            for name, other in (("reduce", g), ("kw_to_el(reduce)", h)):
                if space.ext(oracle.from_kwl(other)) & worlds != ext & worlds:
                    problems.append(f"{task.label}: {name} changes the truth value")
            if kind == "mc":
                m = loaded["models"][t["model"]]
                if not kwl.mc(m, t["world"], g) == kwl.mc(m, t["world"], h) == value:
                    problems.append(f"{task.label}: mc differs on reduce or kw_to_el")
        for path, model in zip(inp["models"] + inp["frames"], loaded["models"] + loaded["frames"]):
            got = {p.value for p in kwl.frame_properties(model)}
            if got != oracle.frame_properties(doc(path)):
                problems.append(f"{path}: frame_properties {sorted(got)}")
        return problems


def _write(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# ---------------------------------------------------------------------------
# proofcheck

# the frame class each proof system is sound for
SYSTEM_CLASS = {"PLKw": "K", "PLKwT": "T", "PLKw4": "K4", "PLKw5": "K5", "PLKw45": "K45",
                "PLKwS4": "S4", "PLKwS5": "S5", "PLKwA": "K", "PLKwAS5": "S5", "Ig": "K",
                "LB": "S4"}
FAILING_K = 6  # gen_prop19(6) needs 21 letters at step 61, over the 20-letter cap


class ProofCheck:
    """check_derivation on the 29-file corpus and on gen_prop19(k).

    Cheap: the corpus, three times over, and gen_prop19(k) for k = 1..4.
    Costly: gen_prop19(5) for fifteen seeded agent names, dominated by
    truth-table tautology checks of up to 19 letters.  gen_prop19(6) is
    kept and fails every time.
    """

    uses_cli = False

    @staticmethod
    def inputs(seed, small, workdir):
        rng = random.Random(seed)
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        corpus = sorted(f"proofs/{name}" for name in os.listdir(os.path.join(root, "proofs"))
                        if name.endswith(".prf"))
        tasks = [{"file": n} for n in range(len(corpus))] * (1 if small else 3)
        top = 3 if small else 5
        tasks += [{"k": k, "agent": "i"} for k in range(1, top)]
        agents = rng.sample(range(1000), 3 if small else 15)
        tasks += [{"k": top, "agent": f"a{a}"} for a in agents]
        tasks.append({"k": FAILING_K, "agent": "i"})
        rng.shuffle(tasks)
        mutations = [{"seed": rng.randrange(1 << 30), "kind": kind}
                     for kind in ("axiom", "line") * (1 if small else 3)]
        return {"corpus": corpus, "tasks": tasks, "mutations": mutations}

    @staticmethod
    def load(kwl, inp, root):
        corpus = [kwl.load_derivation(os.path.join(root, p)) for p in inp["corpus"]]
        generated = {}
        for t in inp["tasks"]:
            if "k" in t:
                generated[(t["k"], t["agent"])] = kwl.gen_prop19(t["k"], t["agent"])
        return {"corpus": corpus, "generated": generated}

    @staticmethod
    def tasks(kwl, inp, loaded, workdir):
        out = []
        for n, t in enumerate(inp["tasks"]):
            if "file" in t:
                d, label = loaded["corpus"][t["file"]], inp["corpus"][t["file"]]
            else:
                d, label = loaded["generated"][(t["k"], t["agent"])], f"gen_prop19({t['k']})"
            # gen_prop19(k) for k >= 5 spends its time on big-integer truth
            # tables, whose speed does not follow the interpreter's: fitted
            # over the rounds of five runs, their times moved with the probe
            # to the power 0.10 to 0.15, the corpus's to about 0.8
            out.append(Task(f"{label} #{n}", lambda d=d: kwl.check_derivation(d), t,
                            scaled=t.get("k", 0) < 5))
        return out

    @staticmethod
    def check(kwl, inp, loaded, tasks, answers, workdir):
        import oracle

        problems = []
        for task, seen in zip(tasks, answers):
            t = task.meta
            d = (loaded["corpus"][t["file"]] if "file" in t
                 else loaded["generated"][(t["k"], t["agent"])])
            if len(seen) > 1:
                problems.append(f"{task.label}: answers differ between rounds")
            if seen and seen[0] != d.steps[-1].formula:
                problems.append(f"{task.label}: returned {seen[0]}, not the last step")
            if "k" in t and len(d.steps) != 11 * t["k"] - 5:
                problems.append(f"{task.label}: {len(d.steps)} steps, not {11 * t['k'] - 5}")
        checked = set()
        for t in inp["tasks"]:
            d = (loaded["corpus"][t["file"]] if "file" in t
                 else loaded["generated"][(t["k"], t["agent"])])
            key = t.get("file", (t.get("k"), t.get("agent")))
            if key in checked:
                continue
            checked.add(key)
            bad = oracle.valid_on_small_models(oracle.from_kwl(d.steps[-1].formula),
                                               SYSTEM_CLASS[d.system])
            if bad:
                problems.append(f"{key}: conclusion refuted on {bad}")
        for mutation in inp["mutations"]:
            problems += _check_mutation(kwl, loaded, mutation)
        return problems

    @staticmethod
    def failure_ok(kwl, task, exc) -> bool:
        """The one failure kept: gen_prop19(6) stops at step 61 on the letter cap.

        Any other failure is a problem.  Once the cap is lifted the task
        succeeds and its answer is checked like every other."""
        return (task.meta.get("k") == FAILING_K and isinstance(exc, kwl.DerivationError)
                and exc.index == 11 * FAILING_K - 5 and "21 letters" in str(exc))


def _check_mutation(kwl, loaded, mutation):
    """Break one step of a seeded derivation; the checker must stop exactly there."""
    import dataclasses

    rng = random.Random(mutation["seed"])
    # gen_prop19(6) is left out while its check stops at step 61 on the letter cap
    pool = loaded["corpus"] + [d for (k, _), d in sorted(loaded["generated"].items())
                               if k != FAILING_K]
    kind = mutation["kind"]
    candidates = []
    for d in pool:
        for step in d.steps:
            words = step.justification.replace(",", " ").split()
            if kind == "axiom" and words[0] == "axiom":
                candidates.append((d, step, words))
            if kind == "line" and len(words) > 1 and words[1].isdigit():
                candidates.append((d, step, words))
    d, step, words = rng.choice(candidates)
    if kind == "axiom":
        foreign = sorted(set(kwl.AXIOMS) - set(kwl.SYSTEMS[d.system].axioms))
        words = ["axiom", rng.choice(foreign)]
    else:
        words = [words[0], str(rng.randint(step.index, step.index + 5))] + words[2:]
    broken = dataclasses.replace(step, justification=" ".join(words))
    steps = d.steps[:step.index - 1] + (broken,) + d.steps[step.index:]
    where = f"mutated {kind} at step {step.index} ({broken.justification})"
    try:
        kwl.check_derivation(dataclasses.replace(d, steps=steps))
    except kwl.DerivationError as exc:
        if exc.index != step.index:
            return [f"{where}: rejected at step {exc.index}"]
        return []
    return [f"{where}: accepted"]


WORKLOADS = {"decide": Decide, "modelcheck": ModelCheck, "proofcheck": ProofCheck}
