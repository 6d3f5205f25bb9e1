"""The repository benchmark: one command, one seeded population, three
workloads.

    python3 perfbench/run.py --workload desktop_warm --seed 1 --seconds 30 --trace 0

``--workload`` is ``desktop_warm``, ``mobile_cold`` or ``serve_mixed``
(see ``perfbench/workloads.py`` for what each exercises and why).
Run from a checkout of the repository; the program is imported from
its ``src/`` directory, so there is nothing to build.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps each layer's entry point (``perfbench/layers.py``)
and reports per-layer metrics instead. Every answer is checked
(``perfbench/checks.py``); a wrong answer makes the run exit 1. Timed
end-to-end metrics are read at a reference host speed, sampled through
the run (``perfbench/hostspeed.py``); the detail line holds them as
measured too.

Standard output ends with one JSON line::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

and the line before it is a JSON record of the host, the repeat counts,
the within-run spread (interquartile range over median) of the
metrics measured in repeats (throughput slices and set-ups) and the
raw, unscaled timed metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK_FILE = os.path.join(ROOT, "BENCHMARK.json")
# Set-up is repeated at least this many times per run, and until this
# many seconds have gone into it; setup_s is the median. A cold set-up
# (about 0.2 s) repeated only three times spread by 17% from run to run.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0


def _load_program():
    """Import the program from the checkout's ``src/``; None when the
    checkout holds no program."""
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        return None
    # Import the benchmark as the ``perfbench`` package, not its files
    # as top-level modules from the script's own directory.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [source, ROOT] + [entry for entry in sys.path if entry != here]
    from perfbench import layers, population, workloads

    from perfbench.hostspeed import HostSpeed

    return layers, population, workloads, HostSpeed


def host_facts(repeats: dict) -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "repeats": repeats,
    }


def spread(values) -> float:
    """Interquartile range as a share of the median (0.0 below 2 values)."""
    values = list(values)
    if len(values) < 2 or statistics.median(values) == 0:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = _load_program()
    if program is None:
        print("no program to benchmark: %s/src/repro is missing" % ROOT, file=sys.stderr)
        return 2
    layers, population, workloads, HostSpeed = program
    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r (have %s)"
                     % (args.workload, ", ".join(workloads.WORKLOADS)))
    with open(BENCHMARK_FILE) as handle:
        declared = json.load(handle)
    section = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[section]}

    with HostSpeed() as speed:
        return _run(args, layers, population, workloads, units, speed)


def _run(args, layers, population, workloads, units, speed) -> int:
    workload, warm = workloads.WORKLOADS[args.workload]
    tracer = layers.LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    pop = population.set_up(
        args.seed, warm=warm, repeats=SETUP_REPEATS, seconds=SETUP_SECONDS, speed=speed
    )
    storage = {}
    if tracer is not None:
        tracer.uninstall()
        storage = {
            "storage.build_s": statistics.median(
                span.self_s for span in tracer.layer_spans(layers.BUILD)
            ),
            "storage.analyze_s": statistics.median(
                span.duration_s for span in tracer.layer_spans(layers.ANALYZE)
            ),
        }
        tracer.reset()

    run = workload(pop, args.seed, args.seconds, tracer, speed)

    if tracer is None:
        values = run.end_to_end(pop.setup_times)
    else:
        # Layers a workload does not reach report 0.
        values = {**dict.fromkeys(units, 0.0), **run.per_layer, **storage}
    if set(values) != set(units):
        raise RuntimeError(
            "measured %s but %s declares %s"
            % (sorted(values), os.path.basename(BENCHMARK_FILE), sorted(units))
        )

    rates = run.rates(bool(tracer))
    raw_rates = run.rates(bool(tracer), scaled=False)
    raw_latencies = sorted(end - start for start, end in run.timings)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_facts({
            "setup": len(pop.setup_times),
            "throughput_slices": len(rates),
            "latency_samples": len(run.timings),
            "host_speed_samples": speed.samples,
        }),
        "spread": {"throughput_rps": spread(rates), "setup_s": spread(pop.setup_times)},
        "raw": {
            "throughput_rps": statistics.median(raw_rates) if raw_rates else 0.0,
            "latency_p50_ms": 1000.0 * workloads.percentile(raw_latencies, 50),
            "latency_p95_ms": 1000.0 * workloads.percentile(raw_latencies, 95),
            "setup_s": statistics.median(pop.setup_raw_times),
            "median_slowness": speed.median_probe_s() / speed.reference_s,
        },
        "answered": run.answered,
        "rejected": run.rejected,
        "errors": run.errors,
        "answers_checked": run.verdict.checked,
        "failures": run.verdict.failures[:10],
    }
    detail.update(run.detail)
    print(json.dumps(detail, sort_keys=True))
    for failure in run.verdict.failures[:10]:
        print("check failed: %s" % failure, file=sys.stderr)
    print(json.dumps({
        "correct": run.verdict.correct,
        "attempted": run.attempted,
        "failed": run.errors,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if run.verdict.correct else 1


if __name__ == "__main__":
    sys.exit(main())
