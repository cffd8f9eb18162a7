#!/usr/bin/env python3
"""End-to-end benchmark of the excol command-line program.

Run from the root of a checkout of the repository:

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 32 --trace 0

The benchmark byte-compiles ``src/excol``, builds its inputs with excol
itself (set-up, timed as ``setup_s``), then runs whole rounds of the
workload's ``excol`` invocations until ``--seconds`` would be exceeded.
One client runs one ``excol`` process at a time, each waiting for the
previous one (a closed loop), so the two cores of a small machine never
run more than one excol child.  Every invocation counts as one
operation and its output is checked against reference computations in
``checks.py``, which does not import excol.

With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json, measured on subprocesses.  With ``--trace 1`` the same
invocations run in fresh processes through ``excol.cli.main(argv)``,
once plain and once with span-recording wrappers (``trace_worker.py``),
and the metrics are the per-layer metrics of BENCHMARK.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable summary, including the per-command times that
the end-to-end ``wall_s`` is made of.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
EXCOL = [sys.executable, "-c", "import sys; from excol.cli import main; sys.exit(main())"]
WORKER = [sys.executable, str(HERE / "trace_worker.py")]
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

SETUP_REPEATS = 21
RUN_LIMIT_S = 170.0  # children still running then are killed; a run must end within 180 s
VERIFY_SEEDS_PER_ROUND = 2
SUITES = ("braid", "mutation", "markov", "regions", "pn")
COMMAND_METRICS = ("verify_s", "orbit_s", "stabilizer_s", "mutate_s", "nf_s", "region_s")

# Printed decimal digits of the integers that mutations produce exceed
# CPython's default int/str conversion limit; the checks parse them exactly.
sys.set_int_max_str_digits(0)


@dataclass
class Op:
    """One excol invocation of a round.

    ``metric`` names the command metric its wall time enters; None keeps
    it out of every time metric.  An op with ``may_fail`` is the one
    known fault: its failure is counted, and only a traceback or a wrong
    output when it succeeds makes the run incorrect.
    """

    name: str
    metric: Optional[str]
    argv: list
    check: Callable[[str], Optional[str]]
    may_fail: bool = False
    before: Optional[Callable[[], None]] = None
    output: Optional[str] = None


@dataclass
class Outcome:
    op: Op
    returncode: Optional[int]  # None when killed at the run's time limit
    problem: Optional[str]
    wall_s: float = 0.0
    rss_kib: int = 0
    worker: Optional[dict] = None

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or self.problem is not None


class Deadline:
    def __init__(self, seconds):
        self.at = time.monotonic() + seconds

    def left(self):
        return max(0.0, self.at - time.monotonic())


def run_child(argv, out_path, err_path, deadline):
    """Run one child to completion; return (exit code, wall s, max RSS KiB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=CHILD_ENV, cwd=ROOT)
        reaped = False
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], deadline.left())
            finally:
                os.close(fd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            reaped = True
        finally:
            if not reaped:
                proc.kill()
                os.waitpid(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if not ready:
        return None, wall, usage.ru_maxrss
    return proc.returncode, wall, usage.ru_maxrss


def read(path):
    return Path(path).read_text(encoding="utf-8")


def judge(op, returncode, out, err):
    """The problem with an invocation's output, or None."""
    if returncode is None:
        return "did not finish before the run's time limit"
    if "Traceback" in err:
        return "printed a traceback"
    if returncode != 0:
        last = err.strip().splitlines()[-1] if err.strip() else "no message"
        return f"exit {returncode}: {last[:200]}"
    try:
        return op.check(out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {exc!r}"


class Bench:
    def __init__(self, workload, seed, work, deadline):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline

    def path(self, name):
        return str(self.work / name)

    def excol(self, args, tag):
        """Run an untimed excol command of the set-up; raise if it fails."""
        code, _, _ = run_child(EXCOL + args, self.path(tag + ".out"), self.path(tag + ".err"),
                               self.deadline)
        if code != 0:
            raise RuntimeError(f"set-up command excol {' '.join(args)} exited {code}: "
                               f"{read(self.path(tag + '.err')).strip()[:200]}")

    # ---- set-up

    def setup(self):
        """Write the input collections with excol and draw the seeded inputs.

        Every workload runs the same set-up, so ``setup_s`` compares across
        workloads.  Returns the elapsed seconds.
        """
        start = time.perf_counter()
        self.excol(["pn", "gram", "--n", "3", "-o", self.path("b3.json")], "setup-b3")
        self.excol(["pn", "gram", "--n", "8", "-o", self.path("p8.json")], "setup-p8")
        Path(self.path("id4.json")).write_text(
            '{"n":3,"gram":[[1,0,0,0],[0,1,0,0],[0,0,1,0],[0,0,0,1]],"classes":"identity"}\n',
            encoding="utf-8")
        rng = random.Random(self.seed)
        self.verify_seeds = [rng.randrange(2 ** 31) for _ in range(VERIFY_SEEDS_PER_ROUND)]
        self.nf_words = {
            strands: tuple((rng.randrange(strands - 1), rng.choice((1, -1))) for _ in range(n))
            for strands, n in ((4, 2000), (10, 300))
        }
        # fixed, seed-independent input of the known int-to-str fault
        fixed = random.Random(0)
        self.overflow_word = tuple((fixed.randrange(3), fixed.choice((1, -1))) for _ in range(70))
        elapsed = time.perf_counter() - start
        for name, n in (("b3.json", 3), ("p8.json", 8)):
            problem = checks.check_collection_file(self.path(name), checks.pn_gram(n))
            if problem:
                raise RuntimeError(f"set-up output wrong: {problem}")
        return elapsed

    # ---- workloads

    def ops(self):
        return {"verify": self.verify_ops, "explore": self.explore_ops,
                "large-inputs": self.large_ops}[self.workload]()

    def verify_ops(self):
        return [
            Op(f"verify-{s}", "verify_s", ["verify", "all", "--format", "json", "--seed", str(s)],
               lambda out: checks.check_verify(out, SUITES))
            for s in self.verify_seeds
        ]

    def explore_ops(self):
        b3, ident = checks.pn_gram(3), checks.identity(4)
        ref_b3 = Counter(
            (depth, checks.upper_entries(g))
            for (g, _), depth in checks.collection_orbit(b3, ident, 6).items())
        ref_tuple = Counter(
            (depth, t) for t, depth in checks.tuple_orbit((4, 6, 4, 4, 6, 4), 14).items())
        for _, t in list(ref_b3) + list(ref_tuple):
            checks.tuple_unipotent(t)
        stab_b3 = checks.stabilizer_words(b3, ident, 6)
        stab_id = checks.stabilizer_words(ident, ident, 6)
        l0_4 = ((0, 1),) * 4
        return [
            Op("orbit-b3", "orbit_s", ["orbit", self.path("b3.json"), "--depth", "6"],
               lambda out: checks.check_orbit(out, ref_b3)),
            Op("orbit-tuple", "orbit_s", ["orbit", "--tuple", "4,6,4,4,6,4", "--depth", "14"],
               lambda out: checks.check_orbit(out, ref_tuple)),
            Op("stabilizer-b3", "stabilizer_s",
               ["stabilizer", self.path("b3.json"), "--max-len", "6"],
               lambda out: checks.check_stabilizer(out, stab_b3, require_trivial=True)),
            Op("stabilizer-identity", "stabilizer_s",
               ["stabilizer", self.path("id4.json"), "--max-len", "6"],
               lambda out: checks.check_stabilizer(out, stab_id, require_trivial=False,
                                                   must_contain=l0_4)),
        ]

    def large_ops(self):
        b3, p8 = checks.pn_gram(3), checks.pn_gram(8)
        long_word = ((0, 1), (0, -1)) * 3000
        p8_word = tuple((i, 1) for i in range(8)) * 180
        p8_classes = checks.matpow(checks.twist_inverse(8), 180)
        if checks.apply_letters(p8, checks.identity(9), p8_word)[0] != p8:
            raise AssertionError("reference: (L0 ... L7)^180 should fix the P^8 Gram matrix")
        over_gram, over_classes = checks.apply_letters(b3, checks.identity(4), self.overflow_word)
        refs = {s: checks.WordInvariants(s, w) for s, w in self.nf_words.items()}
        out_long, out_p8, out_over = (self.path(n) for n in ("long.json", "p8-out.json",
                                                              "overflow.json"))

        def refill_overflow_target():
            shutil.copyfile(self.path("b3.json"), out_over)

        ops = [
            Op("mutate-long-word", "mutate_s",
               ["mutate", self.path("b3.json"), "--word", checks.word_text(long_word), "-o", out_long],
               lambda out: checks.check_mutate(out, out_long, b3, checks.identity(4), b3)),
            Op("mutate-p8", "mutate_s",
               ["mutate", self.path("p8.json"), "--word", checks.word_text(p8_word), "-o", out_p8],
               lambda out: checks.check_mutate(out, out_p8, p8, p8_classes, p8)),
        ]
        for strands, word in self.nf_words.items():
            ref = refs[strands]
            ops.append(Op(f"nf-{strands}-strands", "nf_s",
                          ["braid", "nf", checks.word_text(word), "--strands", str(strands)],
                          lambda out, ref=ref: checks.check_normal_form(out, ref)))
        ops.append(Op("region-strong-32", "region_s", ["region", "strong", "--n", "32"],
                      lambda out: checks.check_region_strong(out, 32)))
        ops.append(Op("mutate-overflow", None,
                      ["mutate", self.path("b3.json"), "--word",
                       checks.word_text(self.overflow_word), "-o", out_over],
                      lambda out: checks.check_mutate(out, out_over, over_gram, over_classes, b3),
                      may_fail=True, before=refill_overflow_target, output=out_over))
        return ops

    # ---- execution

    def execute(self, op, k):
        if op.before:
            op.before()
        out, err = self.path(f"op{k}.out"), self.path(f"op{k}.err")
        code, wall, rss = run_child(EXCOL + op.argv, out, err, self.deadline)
        return Outcome(op, code, judge(op, code, read(out), read(err)), wall, rss)

    def note_data_loss(self, outcome):
        """Record when a failed op left its output file empty."""
        op = outcome.op
        if outcome.failed and op.output and os.path.getsize(op.output) == 0:
            outcome.problem += "; the output file, which held a collection, was left empty"
        return outcome

    def execute_traced(self, op, k):
        """Run the op in-process twice, plain and traced; check both outputs."""
        results = []
        for trace in (0, 1):
            if op.before:
                op.before()
            res, out, err = (self.path(f"op{k}-{trace}.{x}") for x in ("json", "out", "err"))
            code, _, _ = run_child(
                WORKER + ["--trace", str(trace), "--result", res, "--stdout", out,
                          "--stderr", err, "--"] + op.argv, self.path("worker.out"),
                self.path("worker.err"), self.deadline)
            if code is None:
                return Outcome(op, code, "did not finish before the run's time limit")
            if code != 0:
                raise RuntimeError(f"trace worker failed on {op.name}: "
                                   f"{read(self.path('worker.err')).strip()[-300:]}")
            results.append(json.loads(read(res)))
            problem = judge(op, results[-1]["returncode"], read(out), read(err))
            if problem:
                return Outcome(op, results[-1]["returncode"], problem)
        plain, traced = results
        traced["overhead_s"] = traced["main_s"] - plain["main_s"]
        traced["startups"] = [plain["startup_s"], traced["startup_s"]]
        return Outcome(op, traced["returncode"], None, worker=traced)

    def rounds(self, seconds, traced):
        ops = self.ops()
        rounds = []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            run = self.execute_traced if traced else self.execute
            outcomes = [self.note_data_loss(run(op, k)) for k, op in enumerate(ops)]
            rounds.append(outcomes)
            if any(o.returncode is None for o in outcomes):
                break
            now = time.perf_counter()
            if now - start + (now - began) > seconds:
                break
        return rounds


# ---------------------------------------------------------------------------
# metrics


def op_medians(rounds):
    """Median wall time of each timed op over the rounds, in round order."""
    walls = {}
    for r in rounds:
        for o in r:
            if o.op.metric:
                walls.setdefault(o.op.name, (o.op.metric, []))[1].append(o.wall_s)
    return {name: (metric, statistics.median(w)) for name, (metric, w) in walls.items()}


def e2e_metrics(rounds, setups):
    """End-to-end metrics and per-command times.

    Each op's wall time is its median over the rounds, so one slow round
    moves no metric by more than its own share; ``wall_s`` sums these
    medians over the ops of a round.
    """
    medians = op_medians(rounds)
    timed = [o for r in rounds for o in r if o.op.metric]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(w for _, w in medians.values()),
        "peak_rss_mb": max(o.rss_kib for o in timed) * 1024 / 1e6,
    }
    commands = {}
    for name in COMMAND_METRICS:
        if name == "verify_s":
            walls = [o.wall_s for o in timed if o.op.metric == name]
            if walls:
                commands[name] = statistics.median(walls)
        elif any(metric == name for metric, _ in medians.values()):
            commands[name] = sum(w for metric, w in medians.values() if metric == name)
    return metrics, commands, medians


RATES = {
    "collection.mutations_per_s": ("collection.mutations", "collection.mutate_s"),
    "braid.nf_letters_per_s": ("braid.nf_letters", "braid.normal_form_s"),
}


def layer_metrics(rounds, names):
    """Per-layer metrics: per-round sums over the timed ops, median over rounds."""
    per_round = []
    startups = []
    for r in rounds:
        workers = [o.worker for o in r if o.op.metric and o.worker]
        sums = {}
        for w in workers:
            for key, value in w["layers"].items():
                sums[key] = sums.get(key, 0) + value
            startups.extend(w["startups"])
        for rate, (num, den) in RATES.items():
            sums[rate] = sums[num] / sums[den] if sums.get(den) else 0.0
        sums["collection.max_entry_bits"] = max((w["max_entry_bits"] for w in workers), default=0)
        sums["trace.overhead_s"] = sum(w["overhead_s"] for w in workers)
        per_round.append(sums)
    metrics = {}
    for name in names:
        if name != "cli.startup_s":
            values = [r[name] for r in per_round]
            # counts repeat exactly from round to round; keep them whole
            exact = all(isinstance(v, int) for v in values)
            metrics[name] = (statistics.median_low if exact else statistics.median)(values)
    metrics["cli.startup_s"] = statistics.median(startups)
    return metrics


def main():
    parser = argparse.ArgumentParser(description="Benchmark the excol CLI.")
    parser.add_argument("--workload", required=True, choices=("verify", "explore", "large-inputs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "excol" / "cli.py").is_file():
        sys.exit(f"error: run from the root of an excol checkout; {SRC / 'excol'} not found")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    deadline = Deadline(RUN_LIMIT_S)
    work = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        code = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "excol")],
                              env=CHILD_ENV, stdout=subprocess.DEVNULL, timeout=120).returncode
        if code != 0:
            sys.exit("error: byte-compiling src/excol failed")
        bench = Bench(args.workload, args.seed, work, deadline)
        setups = [bench.setup() for _ in range(1 if args.trace else SETUP_REPEATS)]
        rounds = bench.rounds(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = [o for r in rounds for o in r]
    failed = [o for o in outcomes if o.failed]
    # the known fault may fail with a one-line error; any other failure is wrong
    correct = all(o.op.may_fail and o.problem.startswith("exit ") for o in failed)
    if args.trace:
        metrics = layer_metrics(rounds, units)
        commands, medians = {}, {}
    else:
        metrics, commands, medians = e2e_metrics(rounds, setups)

    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds of "
          f"{len(rounds[0])} ops, {len(outcomes)} attempted, {len(failed)} failed"
          + (", traced" if args.trace else ""))
    for o in {o.op.name: o for o in failed}.values():
        print(f"  failed {o.op.name}: {o.problem}")
    for name, value in list(metrics.items()) + list(commands.items()):
        unit = units.get(name, "s")
        print(f"  {name:28s} {value:14.6f} {unit}" + ("  (command)" if name in commands else ""))
    for name, (metric, wall) in medians.items():
        print(f"  op {name:25s} {wall:14.6f} s  (median, enters {metric})")
    if commands:
        print("commands " + json.dumps(commands))
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
