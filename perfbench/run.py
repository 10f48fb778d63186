#!/usr/bin/env python3
"""spanex benchmark: one seeded workload per run, measured through the public
library API, with every answer checked against an independent reference.

    python3 perfbench/run.py --workload enum-dense --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay (and writes its spans to ``perfbench/out/``).
The last line of standard output is one JSON object; the exit code is 0
only when every check held.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import array
import functools
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("enum-dense", "enum-sparse", "join-sat", "streq")
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_s.p50": "s",
    "first_result_ms.p50": "ms",
    "tuples_per_s": "1/s",
    "delay_us.p50": "us",
    "delay_us.p95": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "query.self_s": "s",
    "formula.self_s": "s",
    "compiler.self_s": "s",
    "vsa.self_s": "s",
    "enumerator.self_s": "s",
    "query.parse_s": "s",
    "formula.check_s": "s",
    "compiler.compile_s": "s",
    "compiler.atom_states": "count",
    "compiler.join_s": "s",
    "compiler.join_states": "count",
    "compiler.join_transitions": "count",
    "compiler.eq_automaton_s": "s",
    "compiler.eq_automaton_states": "count",
    "compiler.eq_useful_ratio": "ratio",
    "compiler.eq_join_s": "s",
    "compiler.project_s": "s",
    "query.fallbacks": "ratio",
    "query.fallback_waste_s": "s",
    "query.plan_compiled_share": "ratio",
    "query.plan_regret": "ratio",
    "query.canonical_s": "s",
    "vsa.final_states": "count",
    "vsa.final_transitions": "count",
    "enumerator.graph_build_s": "s",
    "enumerator.graph_nodes": "count",
    "enumerator.graph_edges": "count",
    "enumerator.first_tuple_s": "s",
    "enumerator.enum_s": "s",
    "enumerator.scan_steps_per_tuple": "steps/tuple",
    "enumerator.fill_steps_per_tuple": "steps/tuple",
    "enumerator.useful_step_ratio": "ratio",
    "enumerator.cold_transitions": "count",
    "enumerator.max_node_set": "count",
    "enumerator.delay_growth": "ratio",
    "trace.overhead_ratio": "ratio",
}


# On the shared 2-core VM the benchmark was written on, speed drifts by 15-25 %
# between 20-second windows, the same for a fixed pure-Python loop as for the
# engine.  A fixed kernel that does not touch
# spanex is timed before every query and before every setup repeat; times and
# rates are scaled by its median, to a machine on which it takes
# CALIBRATION_NS (setup_s by the kernels timed during setup).  Raw values are
# printed as well.
CALIBRATION_NS = 2_000_000
SCALED_TIMES = ("query_s.p50", "first_result_ms.p50", "delay_us.p50",
                "delay_us.p95")
SCALED_RATES = ("queries_per_s", "tuples_per_s")


_KERNEL_TABLE = {i: i * 7919 % 1024 for i in range(1024)}
_CHAIN_SLOTS = 1 << 19


@functools.cache
def _kernel_chain() -> array.array:
    """4 MB of slots linked into one cycle by j -> (a*j + c) mod 2^19, which
    visits every slot (a = 1 mod 4, c odd)."""
    mask = _CHAIN_SLOTS - 1
    return array.array("q", ((1103515245 * j + 12345) & mask
                             for j in range(_CHAIN_SLOTS)))


def calibration_kernel() -> int:
    """Dict lookups on a small table interleaved with a walk over a 4 MB
    chain, a few ms.  The walk makes the kernel feel cache contention as the
    engine does; nothing is allocated, so the run's heap does not matter."""
    table = _KERNEL_TABLE
    chain = _kernel_chain()
    acc = 0
    slot = 0
    for i in range(10000):
        acc = table[(acc + i) & 1023]
        slot = chain[slot]
    return acc + slot


def time_kernel() -> int:
    """CPU nanoseconds of one calibration kernel.  The collector is off for
    the kernel only: a collection there would scan the run's heap and time
    its size, not the machine."""
    _kernel_chain()
    gc.disable()
    start = time.process_time_ns()
    calibration_kernel()
    elapsed = time.process_time_ns() - start
    gc.enable()
    return elapsed


def setup(workload: str, seed: int):
    """Import spanex afresh and generate the workload's inputs, several
    times; returns the median wall time, its kernel scale and the inputs."""
    times = []
    kernel_ns = []
    for _ in range(SETUP_REPEATS):
        kernel_ns.append(time_kernel())
        for name in [m for m in sys.modules
                     if m in ("spanex", "workloads") or m.startswith("spanex.")]:
            del sys.modules[name]
        start = time.perf_counter()
        workloads = importlib.import_module("workloads")
        rounds = workloads.generate(workload, seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times), CALIBRATION_NS / statistics.median(kernel_ns), rounds


def run_rounds(rounds, seconds: float, run_case) -> None:
    """Run whole rounds, cycling through the drawn ones, until the wall-clock
    window is used up to within half a round (one round at least)."""
    start = time.perf_counter()
    done = 0
    while True:
        index = done % len(rounds)
        for position, case in enumerate(rounds[index]):
            run_case((index, position), case)
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done / 2 > seconds:
            return


class Measured:
    """End-to-end samples of an untraced run (closed loop, one caller)."""

    def __init__(self, expected):
        # imported here: setup() replaced the spanex modules
        from spanex import eval_query, parse_query

        self.parse_query = parse_query
        self.eval_query = eval_query
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.tuples = 0
        self.query_ns: list[int] = []
        self.first_ns: list[int] = []
        self.delays = 0
        self.median_delays: list[float] = []
        self.p95_delays: list[int] = []
        self.calibration_ns: list[int] = []

    def run_case(self, key, case) -> None:
        self.calibration_ns.append(time_kernel())
        clock = time.process_time_ns
        # Inter-tuple gaps are stamped on the monotonic clock: on the 2-core VM
        # the benchmark was written on, reading the CPU clock is a 0.5 us
        # system call, as long as a whole gap of the canonical route, and the
        # two clocks advance together.
        stamp = time.perf_counter_ns
        stamps = array.array("q")
        rows = []
        self.attempted += 1
        try:
            start = clock()
            query = self.parse_query(case.text)
            called = clock()
            stream = self.eval_query(query, case.doc, strategy="auto")
            for row in stream:
                first = clock()
                stamps.append(stamp())
                rows.append(row)
                break
            for row in stream:
                stamps.append(stamp())
                rows.append(row)
            end = clock()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return
        expected = self.expected[key]
        if len(rows) != len(expected) or set(rows) != expected:
            print(f"wrong answer on {case.family}: {len(rows)} tuples, "
                  f"{len(set(rows))} distinct, {len(expected)} expected", file=sys.stderr)
            self.failed += 1
        self.query_ns.append(end - start)
        self.tuples += len(rows)
        if rows:
            self.first_ns.append(first - called)
        if len(rows) > 1:
            gaps = sorted(b - a for a, b in zip(stamps, stamps[1:]))
            self.delays += len(gaps)
            self.median_delays.append(statistics.median(gaps))
            self.p95_delays.append(gaps[-(-95 * len(gaps) // 100) - 1])  # nearest rank

    def speed_scale(self) -> float:
        """Below 1 when the machine ran slower than the reference."""
        return CALIBRATION_NS / statistics.median(self.calibration_ns)

    def metrics(self, setup_s: float) -> dict[str, float]:
        """Raw end-to-end metrics, before scaling to the reference speed."""
        busy_s = sum(self.query_ns) / 1e9
        return {
            "setup_s": setup_s,
            "queries_per_s": len(self.query_ns) / busy_s,
            "query_s.p50": statistics.median(self.query_ns) / 1e9,
            "first_result_ms.p50": statistics.median(self.first_ns) / 1e6,
            "tuples_per_s": self.tuples / busy_s,
            "delay_us.p50": statistics.median(self.median_delays) / 1e3,
            "delay_us.p95": statistics.median(self.p95_delays) / 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def samples(self) -> str:
        return (f"samples: {len(self.query_ns)} queries, {len(self.first_ns)} first "
                f"results, {self.delays} delays, {self.tuples} tuples")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "spanex", "__init__.py")):
        print(f"error: no spanex sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    setup_s, setup_scale, rounds = setup(args.workload, args.seed)
    # references are computed outside setup and outside every timed region
    expected = {(r, c): case.reference()
                for r, cases in enumerate(rounds) for c, case in enumerate(cases)}

    if args.trace:
        import tracing

        traced = tracing.TracedRun()
        failures = 0

        def run_case(key, case):
            nonlocal failures
            failures += not traced.run_case(key, case, expected[key])

        with tracing.cpu_cap_signal():
            run_rounds(rounds, args.seconds, run_case)
        for problem in traced.problems:
            print(problem, file=sys.stderr)
        metrics, units = traced.metrics(), PER_LAYER_UNITS
        attempted, failed = len(traced.records), failures
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "metrics": metrics, **traced.dump()}, handle)
        summary = f"samples: {attempted} traced queries; spans in {path}"
    else:
        # one untimed pass over the first round grows the heap before timing
        run_rounds(rounds[:1], 0, Measured(expected).run_case)
        measured = Measured(expected)
        run_rounds(rounds, args.seconds, measured.run_case)
        raw, units = measured.metrics(setup_s), END_TO_END_UNITS
        scale = measured.speed_scale()
        metrics = {name: value * scale if name in SCALED_TIMES
                   else value / scale if name in SCALED_RATES else value
                   for name, value in raw.items()}
        metrics["setup_s"] = setup_s * setup_scale
        attempted, failed = measured.attempted, measured.failed
        summary = (f"{measured.samples()}; machine speed scale {scale:.4f} "
                   f"(raw values in the last column)")

    correct = failed == 0
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, value in metrics.items():
        line = f"  {name:34} {value:14.6g} {units[name]:12}"
        if not args.trace:
            line += f" {raw[name]:14.6g}"
        print(line)
    print(f"  {'fail_ratio':34} {failed / attempted:14.6g} ratio")
    print(f"  {summary}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
