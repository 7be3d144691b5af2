"""One workload process: set up, run the battery in whole rounds, check the answers.

    python3 worker.py INPUTS_JSON setup|run|trace SECONDS

`setup` prints the set-up time and exits.  `run` repeats the battery until
SECONDS have passed, after one warm-up round, then checks every answer.
Times are scaled to a reference speed.  On a shared machine the speed of
the interpreter can change by 40% within seconds and stay changed for
minutes.  A fixed probe of interpreter work runs before every task, and a
task's time is multiplied by PROBE_REF_NS over the mean of the probes on
either side of it; the set-up time is scaled the same way by a probe of
import work run right after it.  A task's time is then the median over the
timed rounds.
`trace` runs one warm-up round, then one untraced and one traced pass, each
loading the inputs again and running the battery once, and adds the
per-layer metrics.  The last line of standard output is one JSON object.
run.py starts this script with PYTHONHASHSEED set.
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402  (a built-in module: importing it costs microseconds)
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup(path):
    """import kwl and load the inputs with kwl's loaders; the cost a user pays first."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import json

    import kwl
    import workloads

    with open(path, encoding="utf-8") as fh:
        inp = json.load(fh)
    wl = workloads.WORKLOADS[inp["workload"]]
    if wl.uses_cli:
        import kwl.cli  # noqa: F401
    loaded = wl.load(kwl, inp, ROOT)
    return kwl, wl, inp, loaded


PROBE_REF_NS = 250_000  # the probe's time at the reference speed task times are scaled to


def probe() -> int:
    """A fixed piece of interpreter work of the kind kwl does: tuples, hashing, sets, dicts."""
    seen, index = set(), {}
    for i in range(300):
        key = (i, i * 7 % 13, "x")
        seen.add(key)
        index[key] = len(seen)
        _ = [part for part in key]
    return len(index)


def timed_probe() -> int:
    """The probe's time with the collector off, so that no collection of kwl's
    objects lands in it; a collection it defers falls into the next task."""
    gc.disable()
    start = time.perf_counter_ns()
    probe()
    elapsed = time.perf_counter_ns() - start
    gc.enable()
    return elapsed


SETUP_PROBE_REF_NS = 4_000_000  # the set-up probe's time at the reference speed


def module_code() -> bytes:
    """Compiled code like a module of kwl's: frozen dataclasses and small functions."""
    import marshal

    parts = ["import dataclasses"]
    for c in range(4):
        parts.append(f"@dataclasses.dataclass(frozen=True)\nclass C{c}:\n    a: int\n"
                     f"    b: str = 'x'\n\n    def f(self):\n        return (self.a, self.b)\n")
        parts += [f"def g{c}_{m}(x, y={m}):\n    return [x + y for _ in range({m})]\n"
                  for m in range(10)]
    return marshal.dumps(compile("\n".join(parts), "<probe>", "exec"))


def timed_setup_probe(code: bytes) -> int:
    """The time to load and run module code, the work set-up is made of.

    Set-up scales by this and not by the task probe.  In a fresh process the
    task probe read 130 or 250 to 300 us, as the machine's phase went, while
    set-up moved far less; scaled by it, decide's setup_s spread 0.26 over
    ten runs, and 0.06 scaled by this probe.
    """
    import marshal

    gc.disable()
    start = time.perf_counter_ns()
    exec(marshal.loads(code), {"__name__": "probe"})
    elapsed = time.perf_counter_ns() - start
    gc.enable()
    return elapsed


def run_round(tasks, answers, failures, tracer=None):
    """Run every task once, a probe before each and after the last.

    Returns each task's time in ns, scaled to the reference speed by the
    mean of the probes on either side unless the task is marked unscaled.
    """
    clock = time.perf_counter_ns
    raw, probes = [], []
    for k, task in enumerate(tasks):
        probes.append(timed_probe())
        if tracer is not None:
            tracer.task = k
        start = clock()
        try:
            answer = task.fn()
        except Exception as exc:  # a failed task is counted, not fatal
            raw.append(clock() - start)
            failures.append((k, exc))
            continue
        raw.append(clock() - start)
        if answer not in answers[k]:
            answers[k].append(answer)
    probes.append(timed_probe())
    return [ns * 2 * PROBE_REF_NS / (probes[k] + probes[k + 1]) if task.scaled else ns
            for k, (task, ns) in enumerate(zip(tasks, raw))]


def main():
    path, mode = sys.argv[1], sys.argv[2]
    seconds = float(sys.argv[3]) if len(sys.argv) > 3 else 0.0
    kwl, wl, inp, loaded = setup(path)
    setup_s = time.perf_counter() - T0
    if not os.path.realpath(kwl.__file__).startswith(os.path.realpath(ROOT) + os.sep):
        sys.exit(f"kwl was imported from {kwl.__file__}, outside {ROOT}")
    if mode == "setup":
        code = module_code()
        print(setup_s * SETUP_PROBE_REF_NS / sorted(timed_setup_probe(code) for _ in range(3))[1])
        return

    import json
    import resource
    import statistics

    workdir = os.path.dirname(path)
    tasks = wl.tasks(kwl, inp, loaded, workdir)
    answers = [[] for _ in tasks]
    failures = []
    rounds = 1
    run_round(tasks, answers, failures)  # warm-up; its answers are checked too
    rounds_ns = []
    result = {}
    if mode == "trace":
        from spans import Tracer

        def timed_pass(tracer=None):
            start = time.perf_counter()
            wl.load(kwl, inp, ROOT)
            times = run_round(tasks, answers, failures, tracer)
            return time.perf_counter() - start, times

        untraced_s, times = timed_pass()
        rounds_ns.append(times)
        tracer = Tracer()
        tracer.install()
        traced_s, _ = timed_pass(tracer)
        tracer.uninstall()
        rounds += 2
        result["trace"] = tracer.metrics(traced_s - untraced_s)
    else:
        start = time.perf_counter()
        while True:
            rounds_ns.append(run_round(tasks, answers, failures))
            rounds += 1
            if time.perf_counter() - start >= seconds:
                break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = wl.check(kwl, inp, loaded, tasks, answers, workdir)
    failure_ok = getattr(wl, "failure_ok", lambda kwl, task, exc: False)
    problems += dict.fromkeys(f"{tasks[k].label}: {type(exc).__name__}: {exc}"
                              for k, exc in failures if not failure_ok(kwl, tasks[k], exc))
    task_ns = [statistics.median(times) for times in zip(*rounds_ns)]
    result.update(task_ns=task_ns, attempted=rounds * len(tasks),
                  failed=len(failures), rss_mb=rss_mb, problems=problems)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
