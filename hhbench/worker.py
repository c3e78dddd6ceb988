"""One benchmark process: set up, run the closed loop, report as JSON on stdout.

    python3 hhbench/worker.py --workload W --seed N --seconds S --mode setup|run|trace

All four flags are required.  ``setup`` only times the set-up.  ``run`` runs
the workload's slot list in rounds with one client, each op starting when the
previous one returns, until ``S`` seconds have passed and at least
``MIN_ROUNDS`` rounds are done, and keeps each slot's fastest latency.
``trace`` alternates untraced and traced rounds for ``S`` seconds; layer
counts come from the first traced round, so they repeat exactly for a seed.

Nothing is imported before the set-up clock starts but modules the
interpreter has loaded already, so that the import of ``hhaudit`` pays for the
standard-library modules it pulls in, as it does in a user's fresh process.

On the machine this was built on, each CPU on its own slows to two thirds of
its speed for spells of a second to several seconds.  Before the set-up clock
starts, and then at most every ``PICK_INTERVAL_S`` between ops, the process
moves itself to whichever allowed CPU a short pure-Python probe finds fastest,
and briefly waits out spells in which every CPU is slow, so that ops run on an
uncontended CPU.  Probing and waiting happen outside every timed interval;
where only one CPU is allowed, nothing moves.
"""

import importlib
import os
import sys
import time

PICK_INTERVAL_S = 0.1
MAX_WAIT_S = 0.15
SLOW = 1.2


def _probe() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        sum(i * i % 7 for i in range(2000))
        best = min(best, time.perf_counter() - t0)
    return best


class CpuPicker:
    """Moves this process to the fastest-probing CPU of those it may use, and
    waits up to ``MAX_WAIT_S`` while every CPU probes more than ``SLOW``
    times slower than the fastest probe seen so far."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = -float("inf")
        self.fastest = float("inf")

    def maybe_pick(self) -> None:
        now = time.perf_counter()
        if now - self.last < PICK_INTERVAL_S:
            return
        deadline = now + MAX_WAIT_S
        while True:
            speed = {}
            for cpu in self.cpus:
                if len(self.cpus) > 1:
                    os.sched_setaffinity(0, {cpu})
                speed[cpu] = _probe()
            cpu = min(speed, key=speed.get)
            self.fastest = min(self.fastest, speed[cpu])
            if speed[cpu] <= SLOW * self.fastest or time.perf_counter() > deadline:
                break
            time.sleep(0.01)
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {cpu})
        self.last = time.perf_counter()


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MIN_ROUNDS = 3


def setup(workload: str, seed: int, t0: float | None = None):
    """Import the package, then parse the workload's functions; returns the
    modules, a runner holding the parsed functions, and the set-up time since
    ``t0`` (by default, since this call), excluding the benchmark's own
    imports and task generation."""
    if t0 is None:
        t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    cli = importlib.import_module("hhaudit.cli")
    t_import = time.perf_counter()
    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"hhaudit imported from {cli.__file__}, not from {SRC}")
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import types

    import workloads

    hh = types.SimpleNamespace(
        **{m: sys.modules[f"hhaudit.{m}"] for m in
           ("cli", "core", "exprlang", "hh_bounds", "means", "oracle", "quadrature", "special_fns")}
    )
    texts = workloads.functions(workload, seed)
    t_parse = time.perf_counter()
    exprs = {text: hh.exprlang.parse(text) for text in texts}
    setup_s = (t_import - t0) + (time.perf_counter() - t_parse)
    return hh, workloads.Runner(hh, exprs), setup_s


def run_round(runner, tasks, keep: int, tracer=None, picker=None) -> dict:
    """Run ``tasks`` once, in order, letting ``picker`` move the process
    between ops.  Returns per-op latencies in ms, the failures, the count
    left uncertified and the texts of the first ``keep``."""
    clock = time.perf_counter
    lat: list = []
    failures: list = []
    uncertified = 0
    texts: list = []
    for index, task in enumerate(tasks):
        if tracer is not None:
            tracer.op = index
        if picker is not None:
            picker.maybe_pick()
        t0 = clock()
        try:
            result = runner.call(task)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            t1 = clock()
            outcome = None
            failures.append((index, f"{type(exc).__name__}: {exc}"))
        else:
            t1 = clock()
            outcome = runner.outcome(task, result, index < keep)
            if outcome.error is not None:
                failures.append((index, outcome.error))
            uncertified += outcome.uncertified
        lat.append((t1 - t0) * 1e3)
        if index < keep:
            texts.append(outcome.text if outcome is not None else None)
    return {"lat_ms": lat, "failures": failures, "uncertified": uncertified, "texts": texts}


class Rounds:
    """Per-slot fastest latency and failure tallies over the rounds run."""

    def __init__(self, n: int):
        self.best = [float("inf")] * n
        self.rounds = 0
        self.failures: list = []
        self.uncertified = 0
        self.texts: list = []

    def add(self, out: dict) -> None:
        if self.rounds == 0:
            self.texts = out["texts"]
        self.best = [min(a, b) for a, b in zip(self.best, out["lat_ms"])]
        self.failures += [(self.rounds, i, msg) for i, msg in out["failures"]]
        self.uncertified += out["uncertified"]
        self.rounds += 1

    def summary(self) -> dict:
        return {"best_ms": self.best, "rounds": self.rounds, "failures": self.failures,
                "uncertified": self.uncertified, "texts": self.texts}


def _known_finding(hh):
    import contextlib
    import io

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = hh.cli.main(["verify", "--target", "k2", "--fn", "x^2-5", "--a", "0", "--b", "2"])
    return [code, out.getvalue()]


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv, picker: CpuPicker, t0: float) -> int:
    # argparse would be imported before the set-up clock stops, and hhaudit's
    # own import of it would then go uncounted; the flags are fixed pairs
    opts = dict(zip(argv[::2], argv[1::2]))
    workload, seed = opts["--workload"], int(opts["--seed"])
    seconds, mode = float(opts["--seconds"]), opts["--mode"]

    hh, runner, setup_s = setup(workload, seed, t0)
    import json

    result: dict = {"setup_s": setup_s}
    if mode == "setup":
        print(json.dumps(result))
        return 0

    import workloads

    keep = workloads.CHECKED_SLOTS[workload]
    slots = workloads.slots(workload, seed)
    start = time.perf_counter()
    if mode == "run":
        rounds = Rounds(len(slots))
        while rounds.rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
            tasks = [workloads.perturbed(t, rounds.rounds) for t in slots]
            rounds.add(run_round(runner, tasks, keep if rounds.rounds == 0 else 0, picker=picker))
        result["peak_rss_mb"] = _peak_rss_mb()
        result["run"] = rounds.summary()
    else:
        from tracer import Tracer

        plain, traced = Rounds(len(slots)), Rounds(len(slots))
        tracer = Tracer(hh)
        counts = None
        r = 0
        while traced.rounds < 2 or time.perf_counter() - start < seconds:
            tasks = [workloads.perturbed(t, r) for t in slots]
            r += 1
            plain.add(run_round(runner, tasks, keep if plain.rounds == 0 else 0, picker=picker))
            tracer.install()
            try:
                traced.add(run_round(runner, tasks, keep if traced.rounds == 0 else 0, tracer, picker))
            finally:
                tracer.uninstall()
            if counts is None:
                counts = tracer.layer_metrics(len(slots))
                tracer.record_spans = False
        times = tracer.layer_metrics(len(slots) * traced.rounds)
        result["layers"] = {name: times[name] if name.endswith(".self_s") else value
                            for name, value in counts.items()}
        result["run"] = plain.summary()
        result["traced"] = traced.summary()
        result["spans"] = tracer.spans
    if workload in ("audit", "audit-fresh"):
        result["known_finding"] = _known_finding(hh)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    PICKER = CpuPicker()
    PICKER.maybe_pick()
    sys.exit(main(sys.argv[1:], PICKER, time.perf_counter()))
