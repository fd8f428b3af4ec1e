"""The fractalvit benchmark: one workload per process.

    python3 fvbench/run.py --workload marked-4x4 --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. ``--trace 0`` prints the end-to-end metrics. ``--trace 1``
runs the workload untraced and then traced for half of ``--seconds`` each,
prints the per-layer metrics of the traced half, and reports the tracing
overhead as the difference between the two halves. End-to-end times and
throughputs are given at a nominal machine speed (see clock.py). The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

import os

# One BLAS thread, fixed before numpy loads: with default OpenBLAS threads a
# marked-4x4 epoch ran 5x slower while another process held the second CPU.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from clock import Clock, nominal_rate, nominal_total_seconds, totals  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_SETUPS = 3      # set-ups per untraced run; setup_s is their median
SETUP_SHARE = 0.15  # more set-ups while they take less than this share of --seconds
MIN_ROUNDS = 3      # rounds per untraced run, however long a round takes
MIN_TRACE_ROUNDS = 2  # rounds per half of a traced run

END_TO_END_UNITS = {
    "setup_s": "s",
    "task_items_per_s": "items/s",
    "infer_images_per_s": "images/s",
    "peak_rss_mb": "MB",
}


def import_library():
    """Import fractalvit from this checkout's ``src``, never from elsewhere."""
    package = SRC / "fractalvit" / "__init__.py"
    if not package.is_file():
        sys.exit(f"fvbench: no fractalvit sources at {package.parent}")
    sys.path.insert(0, str(SRC))
    import fractalvit

    if Path(fractalvit.__file__).resolve() != package.resolve():
        sys.exit(f"fvbench: imported fractalvit from {fractalvit.__file__}")


def openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)()
    return None


def environment() -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"blas_threads={openblas_threads()} "
        f"nproc={len(os.sched_getaffinity(0))} "
        f"python={platform.python_version()} numpy={numpy.__version__} "
        f"scipy={scipy.__version__} {blas.get('name')}={blas.get('version')}"
    )


@dataclass
class Pass:
    setups: Clock  # one "setup" segment per set-up
    state: object
    rounds: list   # RoundResult per round
    clocks: list   # Clock per round

    @property
    def timed(self) -> list:
        """Clocks of the rounds that count: all but the first, a warm-up."""
        return self.clocks[1:]


def timed_pass(workload, seed, seconds, min_setups, min_rounds,
               tracer=None) -> Pass:
    """At least ``min_setups`` set-ups (more while they fit in
    ``SETUP_SHARE`` of ``seconds``), then rounds until another would end
    past ``seconds`` (at least ``min_rounds``)."""
    # every set-up is dominated by init_params' Python-level RNG draws
    run = Pass(Clock("interpreter", tracer), None, [], [])
    while True:
        run.state = None  # free the previous set-up before building the next
        with run.setups.timing("setup"):
            run.state = workload.setup(seed)
        done = len(run.setups.segments)
        spent = sum(seg.seconds for seg in run.setups.segments)
        if done >= min_setups and spent * (done + 1) / done > SETUP_SHARE * seconds:
            break
    run.setups.close()

    start = time.perf_counter()
    while True:
        clock = Clock(workload.reference, tracer)
        run.rounds.append(workload.run_round(run.state, clock))
        clock.close()
        run.clocks.append(clock)
        elapsed = time.perf_counter() - start
        done = len(run.rounds)
        if done >= min_rounds and elapsed * (done + 1) / done > seconds:
            break
    return run


def nominal_round_seconds(run: Pass) -> float:
    """Mean counted round time at the nominal machine speed."""
    return nominal_total_seconds(run.timed) / len(run.timed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} {environment()}", flush=True)

    if args.trace:
        plain = timed_pass(workload, args.seed, args.seconds / 2, 1,
                           MIN_TRACE_ROUNDS)
        tracer = Tracer()
        tracer.install()
        try:
            traced = timed_pass(workload, args.seed, args.seconds / 2, 1,
                                MIN_TRACE_ROUNDS, tracer)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(tracer, len(traced.setups.segments), traced.rounds)
        metrics["trace.overhead_pct"] = (100.0 * (
            nominal_round_seconds(traced) / nominal_round_seconds(plain) - 1.0), "%")
        state, rounds = traced.state, plain.rounds + traced.rounds
    else:
        run = timed_pass(workload, args.seed, args.seconds, MIN_SETUPS,
                         MIN_ROUNDS)
        state, rounds = run.state, run.rounds
        _, seconds, scale = totals(run.timed)
        print(f"# {len(run.setups.segments)} set-ups; {len(run.timed)} rounds "
              f"after one warm-up, {seconds:.6g} s timed; {workload.reference} "
              f"reference at {scale:.4g} x its nominal speed")
        metrics = {
            "setup_s": statistics.median(
                run.setups.nominal_seconds(seg) for seg in run.setups.segments),
            "task_items_per_s": nominal_rate(run.timed, "task"),
            "infer_images_per_s": nominal_rate(run.timed, "infer"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

    # Operations: each round's own, one repeatability check per round after
    # the first, and the once-per-run model checks.
    failures = [f for r in rounds for f in r.failures]
    for r in rounds[1:]:
        failures += checks.check_repeatable(rounds[0].outcome, r.outcome)
    failed = len(failures)
    run_failures = workload.check(state)
    failures += run_failures
    failed += bool(run_failures)
    attempted = sum(r.ops for r in rounds) + len(rounds)

    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
