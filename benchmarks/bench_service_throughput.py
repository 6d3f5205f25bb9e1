"""Service throughput: per-request loop vs the batched path.

Quantifies the PR's three layers on one workload — the paper's 20
profiles x 10 queries population at K=30, streamed with repetition
(every pair asked R times, the service-trace regime the batched path
is built for):

* **seed_per_request** — the pre-optimization baseline: row engine,
  0-capacity parameter cache, one ``request()`` per stream element
  (since the tuple evaluation kernel was deleted it evaluates on the
  mask kernel like every other mode, so earlier trajectory points
  measured a slower baseline);
* **per_request_cold / per_request_warm** — the request loop with the
  cross-request parameter cache (first pass primes the cache, second
  pass reuses it);
* **batched_cold / batched_warm** — ``request_many`` over the whole
  stream: one solve and one execution per (user, query) group;
* **batched_multicore** — the same batch on a service with
  ``parallelism=4, backend="process"``: supergroup personalization
  fans out to forked workers;
* **compiled_snapshot** — the ladder's last rung: the population is
  compiled offline (:func:`repro.workloads.compiler.compile_workload`)
  and a *fresh* service boots from the snapshot, so the same stream is
  served entirely out of precomputed pricing, frontiers, and frames. Before the run the database's column
  arrays are exported to :mod:`multiprocessing.shared_memory` and
  attached in the parent, so every forked worker inherits zero-copy
  shm-backed column caches instead of rebuilding (and copy-on-write
  duplicating) them per process. On a single-CPU host this mode mostly
  measures pool overhead; on real hardware it scales with cores.

An **execution-heavy** section then isolates the execution engine: the
population's personalized queries are pre-solved once and each is run
through (a) the row engine, (b) the columnar kernel with frame reuse
off, and (c) the columnar kernel with one shared base-frame cache
across the whole set — the regime a batch executes under.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py [--quick]

Appends one trajectory point to ``BENCH_service_throughput.json`` at
the repo root (``--no-write`` to skip) and prints a table. The driver
asserts two ratios: batched warm >= 3x seed per-request, and
columnar+shared >= 2x the row engine on the execution-heavy set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import time
from pathlib import Path
from typing import Dict, List

from repro.core.algorithms.scheduler import fork_available
from repro.core.param_cache import ParameterCache
from repro.core.personalizer import Personalizer
from repro.core.problem import CQPProblem
from repro.core.service import BatchRequest, PersonalizationService
from repro.datasets.movies import MovieDatasetConfig, build_movie_database
from repro.sql.columnar import ColumnarExecutor, FrameCache
from repro.sql.executor import Executor
from repro.storage.shm import attach_columns, export_columns
from repro.workloads.profiles import generate_profiles
from repro.workloads.queries import generate_queries

REPO_ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY_FILE = REPO_ROOT / "BENCH_service_throughput.json"

K = 30
N_PROFILES = 20
N_QUERIES = 10
REPEATS = 3  # each (profile, query) pair appears R times in the stream
CMAX = 400.0  # the paper's default cost bound (ms)
DATASET = MovieDatasetConfig(n_movies=2000, n_directors=400, n_actors=1000)
SPEEDUP_FLOOR = 3.0
EXEC_SPEEDUP_FLOOR = 2.0  # columnar + shared frames vs the row engine


def build_stream(users: List[str], queries, repeats: int) -> List[BatchRequest]:
    problem = CQPProblem.problem2(cmax=CMAX)
    return [
        BatchRequest(user=user, query=query, problem=problem, k_limit=K)
        for _ in range(repeats)
        for user in users
        for query in queries
    ]


def make_service(
    database, profiles, seed_mode: bool,
    parallelism: int = 1, backend: str = "auto",
) -> PersonalizationService:
    service = PersonalizationService(
        database,
        param_cache=ParameterCache(capacity=0) if seed_mode else None,
        engine="row" if seed_mode else "columnar",
        parallelism=parallelism,
        backend=backend,
    )
    for index, profile in enumerate(profiles):
        service.register("user-%02d" % index, profile)
    return service


def run_loop(service: PersonalizationService, stream: List[BatchRequest]) -> Dict:
    """One request() per stream element, individually timed."""
    latencies: List[float] = []
    started = time.perf_counter()
    for req in stream:
        t0 = time.perf_counter()
        service.request(req.user, req.query, problem=req.problem, k_limit=req.k_limit)
        latencies.append(time.perf_counter() - t0)
    total = time.perf_counter() - started
    latencies.sort()
    return {
        "total_s": round(total, 4),
        "req_per_s": round(len(stream) / total, 2),
        "p50_ms": round(1000 * statistics.quantiles(latencies, n=100)[49], 3),
        "p95_ms": round(1000 * statistics.quantiles(latencies, n=100)[94], 3),
        "amortized_ms": round(1000 * total / len(stream), 3),
    }


def run_batched(service: PersonalizationService, stream: List[BatchRequest]) -> Dict:
    started = time.perf_counter()
    responses = service.request_many(stream)
    total = time.perf_counter() - started
    assert len(responses) == len(stream)
    return {
        "total_s": round(total, 4),
        "req_per_s": round(len(stream) / total, 2),
        "amortized_ms": round(1000 * total / len(stream), 3),
    }


def run_exec_heavy(database, profiles, queries) -> Dict:
    """Isolate the execution engine on the population's personalized
    queries: row engine vs columnar-cold (no frame reuse) vs columnar
    with one shared base-frame cache across the whole set."""
    personalizer = Personalizer(database)
    problem = CQPProblem.problem2(cmax=CMAX)
    targets = [
        personalizer.personalize(query, profile, problem, k_limit=K).personalized_query
        for profile in profiles
        for query in queries
    ]

    def timed(run) -> float:
        started = time.perf_counter()
        run()
        return time.perf_counter() - started

    row_engine = Executor(database, engine="row")
    row_s = timed(lambda: [row_engine.execute(t) for t in targets])

    # The cold engine doubles as the per-operator profile: exclusive
    # wall-clock per operator kind, accumulated across the whole set,
    # so a regression in any one kernel is attributable from the
    # trajectory file alone.
    cold_engine = ColumnarExecutor(database, frame_reuse=False, profile_ops=True)
    cold_s = timed(lambda: [cold_engine.execute(t) for t in targets])

    shared_engine = ColumnarExecutor(database)
    shared_frames = FrameCache()
    shared_s = timed(
        lambda: [shared_engine.execute(t, frame_cache=shared_frames) for t in targets]
    )

    return {
        "n_queries": len(targets),
        "row_s": round(row_s, 4),
        "columnar_cold_s": round(cold_s, 4),
        "columnar_shared_s": round(shared_s, 4),
        "frame_cache": shared_frames.counters(),
        "op_breakdown_cold_s": {
            op: round(seconds, 4)
            for op, seconds in sorted(
                cold_engine.op_times.items(), key=lambda kv: -kv[1]
            )
        },
        "speedup_columnar_cold_vs_row": round(row_s / cold_s, 2),
        "speedup_columnar_shared_vs_row": round(row_s / shared_s, 2),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small population for a fast sanity run")
    parser.add_argument("--no-write", action="store_true",
                        help="do not append to %s" % TRAJECTORY_FILE.name)
    args = parser.parse_args()

    n_profiles = 4 if args.quick else N_PROFILES
    n_queries = 3 if args.quick else N_QUERIES

    print("building database (%d movies)..." % DATASET.n_movies)
    database = build_movie_database(DATASET, seed=0)
    database.analyze()
    profiles = generate_profiles(database, count=n_profiles, seed=0)
    queries = generate_queries(count=n_queries, seed=0)
    users = ["user-%02d" % i for i in range(n_profiles)]
    stream = build_stream(users, queries, REPEATS)
    print("stream: %d requests (%d pairs x %d repeats), K=%d, cmax=%.0f"
          % (len(stream), n_profiles * n_queries, REPEATS, K, CMAX))

    results: Dict[str, Dict] = {}

    seed_service = make_service(database, profiles, seed_mode=True)
    results["seed_per_request"] = run_loop(seed_service, stream)
    print("seed_per_request:    %s" % results["seed_per_request"])

    loop_service = make_service(database, profiles, seed_mode=False)
    results["per_request_cold"] = run_loop(loop_service, stream)
    print("per_request_cold:    %s" % results["per_request_cold"])
    results["per_request_warm"] = run_loop(loop_service, stream)
    print("per_request_warm:    %s" % results["per_request_warm"])

    batch_service = make_service(database, profiles, seed_mode=False)
    results["batched_cold"] = run_batched(batch_service, stream)
    print("batched_cold:        %s" % results["batched_cold"])
    results["batched_warm"] = run_batched(batch_service, stream)
    print("batched_warm:        %s" % results["batched_warm"])
    cache = batch_service.param_cache.counters()
    print("parameter cache:     %s" % cache)

    shared_tables: List[str] = []
    if fork_available():
        # Multi-core mode: forked personalization workers inherit the
        # parent's shm-backed column caches zero-copy instead of
        # rebuilding them per process.
        multicore_service = make_service(
            database, profiles, seed_mode=False,
            parallelism=4, backend="process",
        )
        with export_columns(database) as export:
            shared_tables = attach_columns(database, export.handle)
            # Same protocol as batched_warm: one warm-up pass primes the
            # shared caches, the second pass is what gets reported —
            # comparing a cold multicore run against a warm single-core
            # one would conflate pool overhead with cache state.
            run_batched(multicore_service, stream)
            results["batched_multicore"] = run_batched(multicore_service, stream)
        results["batched_multicore"]["vs_warm"] = round(
            results["batched_multicore"]["req_per_s"]
            / results["batched_warm"]["req_per_s"],
            3,
        )
        print("batched_multicore:   %s (shm tables: %s)"
              % (results["batched_multicore"], ",".join(shared_tables) or "none"))

    # The compiled rung: precompute the whole population offline, then
    # serve the same stream from a freshly booted snapshot-warm service.
    from repro.workloads.compiler import compile_workload

    started = time.perf_counter()
    compiled = compile_workload(
        database, profiles, queries,
        [CQPProblem.problem2(cmax=CMAX)],
        k_limit=K,
    )
    compile_s = time.perf_counter() - started
    compiled_service = PersonalizationService(database, snapshot=compiled)
    for index, profile in enumerate(profiles):
        compiled_service.register("user-%02d" % index, profile)
    results["compiled_snapshot"] = run_batched(compiled_service, stream)
    results["compiled_snapshot"]["compile_s"] = round(compile_s, 4)
    print("compiled_snapshot:   %s" % results["compiled_snapshot"])

    exec_heavy = run_exec_heavy(database, profiles, queries)
    print("exec_heavy:          %s" % exec_heavy)

    speedup = (
        results["seed_per_request"]["total_s"] / results["batched_warm"]["total_s"]
    )
    exec_speedup = exec_heavy["speedup_columnar_shared_vs_row"]
    print("\nbatched warm vs seed per-request: %.2fx (floor %.1fx)"
          % (speedup, SPEEDUP_FLOOR))
    print("columnar+shared vs row engine:    %.2fx (floor %.1fx)"
          % (exec_speedup, EXEC_SPEEDUP_FLOOR))

    entry = {
        "date": time.strftime("%Y-%m-%d"),
        "config": {
            "n_profiles": n_profiles,
            "n_queries": n_queries,
            "repeats": REPEATS,
            "k": K,
            "cmax": CMAX,
            "n_movies": DATASET.n_movies,
            "multicore_parallelism": 4,
            "multicore_backend": "process" if fork_available() else None,
            "shm_tables": shared_tables,
            "quick": args.quick,
        },
        "modes": results,
        "param_cache": cache,
        "exec_heavy": exec_heavy,
        "speedup_batched_warm_vs_seed": round(speedup, 2),
        "batched_multicore_vs_warm": results.get("batched_multicore", {}).get(
            "vs_warm"
        ),
    }
    if not args.no_write:
        trajectory = []
        if TRAJECTORY_FILE.exists():
            trajectory = json.loads(TRAJECTORY_FILE.read_text())["trajectory"]
        trajectory.append(entry)
        TRAJECTORY_FILE.write_text(
            json.dumps({"benchmark": "service_throughput", "trajectory": trajectory},
                       indent=2) + "\n"
        )
        print("appended to %s" % TRAJECTORY_FILE)

    if not args.quick and speedup < SPEEDUP_FLOOR:
        print("FAIL: speedup %.2fx under the %.1fx floor" % (speedup, SPEEDUP_FLOOR))
        return 1
    if not args.quick and exec_speedup < EXEC_SPEEDUP_FLOOR:
        print("FAIL: exec-heavy speedup %.2fx under the %.1fx floor"
              % (exec_speedup, EXEC_SPEEDUP_FLOOR))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
