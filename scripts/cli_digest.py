"""One digest of what the kwl command line answers on a fixed set of calls.

Runs a fixed list of `kwl` invocations: help and usage errors; mc and frame
on every fixtures/*.json model and on hostile model files; decide and sat
over the ten frame classes, writing their models to files; check on every
proof in proofs/ and on broken derivations; reduce and translate.  Each one
runs twice in a row through kwl.cli.main in this process, and every
SUBPROCESS_EVERY-th one also in a fresh `python -m kwl.cli` process.  The
digest covers each run's argv, exit code, stdout, stderr and the bytes of
the file it wrote, with the scratch directory's path replaced by $TMP.  Two
checkouts that print the same digest answered every call alike.  Standard
library only; run from the repository root:

    PYTHONPATH=src python3 scripts/cli_digest.py [--out FILE]

When two digests differ, --out FILE writes the per-run records, one a line,
so that diff lists the runs that differ.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

from kwl.cli import main as kwl_main
from kwl.semantics import FrameClass

SUBPROCESS_EVERY = 25  # about twenty fresh processes
MC_FORMULAS = ("p", "Kw[i]q", "K[i]p -> p", "Kw[i](p -> q) -> (Kw[i]p -> Kw[i]q)",
               "[q]~Kw[i]q", "[p & ~p]bot", "Kw[j]p", "~" * 3000 + "p")
DECIDE_FORMULAS = ("Kw[i]p <-> Kw[i]~p", "Kw[i]p -> Kw[i]Kw[i]p",
                   "Kw[i](p -> q) -> (Kw[i]p -> Kw[i]q)", "Kw[i]p & ~p",
                   "K[i]p -> Kw[j]K[i]p", "[p]Kw[i]q <-> (p -> Kw[i](p -> q) | Kw[i](p -> ~q))",
                   "Kw[i]p & ~Kw[i]p", "K[i]bot", "[p]K[i]q")
TEXT_FORMULAS = ("[p]q", "[p][q]r", "[p]K[i]q", "Kw[i]p", "K[i]p", "p &", "Kw[i]" * 700 + "p",
                 "~" * 900 + "Kw[i]p")
COMMANDS = ("mc", "decide", "sat", "reduce", "translate", "check", "frame", "fixtures")


def balanced_disjunctions(lo: int, hi: int) -> str:
    """The text of a balanced conjunction of (p_k | q_k) for lo <= k < hi."""
    if hi - lo == 1:
        return f"(p{lo} | q{lo})"
    mid = (lo + hi) // 2
    return f"({balanced_disjunctions(lo, mid)} & {balanced_disjunctions(mid, hi)})"


def hostile_models(good: dict) -> dict:
    """name -> text of a model file that kwl must refuse with exit 2."""
    docs = {
        "no_worlds": {**good, "worlds": []},
        "string_worlds": {**good, "worlds": "st"},
        "list_world_name": {**good, "worlds": [["s"], "t"]},
        "duplicate_worlds": {**good, "worlds": ["s", "s"]},
        "duplicate_agents": {**good, "agents": ["i", "i"]},
        "missing_agents": {k: v for k, v in good.items() if k != "agents"},
        "three_element_edge": {**good, "rel": {"i": [["s", "t", "s"]]}},
        "unknown_edge_world": {**good, "rel": {"i": [["s", "s"], ["s", "u"]]}},
        "undeclared_agent": {**good, "rel": {"j": []}},
        "string_val": {**good, "val": {"q": "t"}},
        "unknown_val_world": {**good, "val": {"q": ["u"]}},
        "unknown_point": {**good, "point": "u"},
        "list_point": {**good, "point": ["s"]},
        "edge_and_val": {**good, "rel": {"i": [["u", "s"]]}, "val": {"q": ["u"]}},
        "agent_and_point": {**good, "rel": {"j": []}, "point": ["s"]},
    }
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    texts.update(not_an_object="[1, 2]", truncated=json.dumps(good)[:40],
                 deep="[" * 100000, empty="")
    return texts


def invocations(tmp: str) -> list[list[str]]:
    calls = [["--help"], [], ["bogus"], ["--budget", "5"]]
    calls += [[command, "--help"] for command in COMMANDS]
    calls += [[command] for command in COMMANDS]
    calls += [["mc", "fixtures/m1.json", "s"], ["decide", "p", "--budget", "0"],
              ["sat", "p", "--budget", "many"], ["decide", "p", "--class", "Z9"],
              ["translate", "x", "p"], ["fixtures", "run"], ["reduce", "p", "q"]]
    for path in sorted(pathlib.Path("fixtures").glob("*.json")):
        calls.append(["frame", str(path)])
        for world in json.loads(path.read_text())["worlds"]:
            calls += [["mc", str(path), world, f] for f in MC_FORMULAS]
        calls.append(["mc", str(path), "nowhere", "p"])
    good = json.loads(pathlib.Path("fixtures/m1.json").read_text())
    for name, text in hostile_models(good).items():
        path = os.path.join(tmp, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        calls += [["frame", path], ["mc", path, "s", "p"]]
    calls += [["frame", os.path.join(tmp, "missing.json")]]
    written = os.path.join(tmp, "written.json")
    for frame_class in FrameClass:
        for f in DECIDE_FORMULAS:
            calls += [["decide", f, "--class", frame_class.value, "--countermodel", written],
                      ["sat", f, "--class", frame_class.value, "--model", written]]
    calls += [["decide", "Kw[i]p -> Kw[i]Kw[i]p", "--class", "K4", "--budget", "5"],
              ["sat", "~(Kw[i]p -> Kw[i]Kw[i]p)", "--class", "K4", "--budget", "5"]]
    calls += [["check", str(path)] for path in sorted(pathlib.Path("proofs").glob("*.prf"))]
    for name, text in (("bad_step", "system PLKw\n\n1. Kw[i]p ; axiom KwCon\n"),
                       ("garbled", "system PLKw\n\n7. p ; taut\n"),
                       ("no_system", "1. p | ~p ; taut\n")):
        path = os.path.join(tmp, f"{name}.prf")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        calls.append(["check", path])
    calls += [["check", os.path.join(tmp, "missing.prf")]]
    for f in TEXT_FORMULAS:
        calls += [["reduce", f], ["translate", "t", f], ["translate", "tprime", f]]
    # deep input: the model checker and the normal form pass take a stack
    # frame per Kw level, and the search none per split
    calls += [["mc", "fixtures/m1.json", "s", "Kw[i]" * 3000 + "p"],
              ["decide", "Kw[i]" * 3000 + "p"], ["sat", balanced_disjunctions(0, 1200)]]
    return calls


def written_files(tmp: str) -> dict:
    """name -> text of each model file a decide or sat call wrote into tmp;
    the files are removed, so the next call starts without them."""
    out = {}
    for name in sorted(os.listdir(tmp)):
        if name.startswith("written"):
            path = os.path.join(tmp, name)
            with open(path, "rb") as fh:
                out[name] = fh.read().decode("utf-8", "replace")
            os.remove(path)
    return out


def in_process(argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = kwl_main(argv)
    return code, out.getvalue(), err.getvalue()


def fresh_process(argv: list[str]) -> tuple:
    proc = subprocess.run([sys.executable, "-m", "kwl.cli", *argv], capture_output=True,
                          text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", help="write the per-run records to this file")
    args = parser.parse_args(argv)
    os.environ["COLUMNS"] = "80"  # help text wraps at the terminal's width

    digest = hashlib.sha256()
    lines = []
    tmp = tempfile.mkdtemp(prefix="cli-digest-")
    repeats_differ = fresh_differ = fresh = 0
    try:
        calls = invocations(tmp)
        for n, call in enumerate(calls):
            runs = [("first", in_process), ("second", in_process)]
            if n % SUBPROCESS_EVERY == 0:
                runs.append(("fresh", fresh_process))
                fresh += 1
            records = []
            for how, run in runs:
                code, out, err = run(call)
                records.append([code, out, err, written_files(tmp)])
                line = json.dumps([how, call, *records[-1]]).replace(tmp, "$TMP")
                digest.update(line.encode() + b"\n")
                lines.append(line)
            repeats_differ += records[1] != records[0]
            fresh_differ += len(records) > 2 and records[2] != records[0]
    finally:
        shutil.rmtree(tmp)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    print(f"calls {len(calls)}  runs {len(lines)}  fresh {fresh}  "
          f"repeats-differ {repeats_differ}  fresh-differ {fresh_differ}")
    print(f"sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
