"""The population every workload shares, and the order it is walked in.

The movie database (1500 movies, the size the async bench and the
serve CLI use), 20 profiles and 10 queries are built from the fixed
``POPULATION_SEED``; the run's ``--seed`` orders the request sets (and,
in the workloads, draws tier labels and arrival times). Building the
population from ``--seed`` as well made throughput differ by about 10%
between seeds, wider than the bounds a regression is judged by. The
six search contexts are fixed and routed to Table 1 problems by
``problem_for_context``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.context import SearchContext, problem_for_context
from repro.core.problem import CQPProblem
from repro.core.service import BatchRequest, PersonalizationService
from repro.datasets import movies
from repro.workloads.profiles import generate_profiles
from repro.workloads.queries import generate_queries

from perfbench.checks import digest

DATASET = movies.MovieDatasetConfig(n_movies=1500, n_directors=300, n_actors=700)
N_PROFILES = 20
N_QUERIES = 10
DESKTOP_K = 20
# Exact Problem 3 doubles per K: about 0.1 s a solve at K=12, seconds at K=16.
MOBILE_K = 12
MIN_INTEREST = 0.5
POPULATION_SEED = 0

# (name, context, the Table 1 problem the context must route to)
CONTEXTS: Tuple[Tuple[str, SearchContext, int], ...] = (
    ("desktop", SearchContext(device="desktop", time_budget_ms=400.0), 2),
    ("laptop", SearchContext(device="laptop", max_results=20), 1),
    ("palmtop", SearchContext(device="palmtop"), 3),
    ("phone", SearchContext(device="phone"), 3),
    ("min_interest", SearchContext(device="desktop", min_interest=MIN_INTEREST), 4),
    ("phone_min_interest", SearchContext(device="phone", min_interest=MIN_INTEREST), 5),
)


@dataclass
class Request:
    """One benchmark request: what is sent, and the key its answer is
    checked under."""

    key: Tuple[str, int, str, int]  # (user, query index, context name, K)
    batch: BatchRequest
    problem: CQPProblem


@dataclass
class Population:
    service: PersonalizationService
    desktop: List[Request]  # all (user, query) pairs, desktop context, K=20
    mobile: List[Request]  # every (user, query, context) triple, K=12
    setup_times: List[float] = field(default_factory=list)  # at reference speed
    setup_raw_times: List[float] = field(default_factory=list)
    reference: Dict[Tuple, str] = field(default_factory=dict)  # key -> digest


def _check_routing() -> None:
    for name, context, number in CONTEXTS:
        problem = problem_for_context(context)
        if problem.table1_number() != number:
            raise RuntimeError(
                "context %s routes to Problem %d, expected %d"
                % (name, problem.table1_number(), number)
            )


def build(seed: int) -> Population:
    """Build the database and the request sets, in ``seed`` order;
    register every user on a fresh service. Caches stay cold."""
    _check_routing()
    database = movies.build_movie_database(DATASET, seed=POPULATION_SEED)
    profiles = generate_profiles(database, count=N_PROFILES, seed=POPULATION_SEED)
    queries = generate_queries(count=N_QUERIES, seed=POPULATION_SEED)
    service = PersonalizationService(database)
    users = []
    for index, profile in enumerate(profiles):
        user = "user-%02d" % index
        service.register(user, profile)
        users.append(user)

    def request(user: str, query_index: int, context_index: int, k: int) -> Request:
        name, context, _ = CONTEXTS[context_index]
        return Request(
            key=(user, query_index, name, k),
            batch=BatchRequest(
                user=user, query=queries[query_index], context=context, k_limit=k
            ),
            problem=problem_for_context(context),
        )

    pairs = [(user, q) for user in users for q in range(len(queries))]
    desktop = [request(user, q, 0, DESKTOP_K) for user, q in pairs]
    # Request i of the mobile set carries context i mod 6, so every
    # 24 requests (three batches of 8) hold each context four times;
    # within a context the (user, query) pairs come in seeded order.
    rng = random.Random(seed)
    per_context = []
    for _ in CONTEXTS:
        order = list(pairs)
        rng.shuffle(order)
        per_context.append(order)
    mobile = []
    for position in range(len(pairs)):
        for context_index in range(len(CONTEXTS)):
            user, q = per_context[context_index][position]
            mobile.append(request(user, q, context_index, MOBILE_K))
    return Population(service=service, desktop=desktop, mobile=mobile)


def set_up(seed: int, warm: bool, repeats: int, seconds: float, speed) -> Population:
    """Set the population up at least ``repeats`` times, and until
    ``seconds`` have gone into it; keep the last one.

    One set-up is the database build (which analyzes), user
    registration and, when ``warm``, one pass of the desktop request
    set through ``request_many`` that fills the caches; its answers are
    the reference the warm answers are checked against. Each set-up's
    time is also read at reference speed through ``speed`` (a
    ``HostSpeed`` sampling while it runs).
    """
    times = []
    intervals = []
    population = None
    while len(times) < repeats or sum(times) < seconds:
        population = None  # let the previous copy go before building
        started = time.perf_counter()
        population = build(seed)
        if warm:
            responses = population.service.request_many(
                [request.batch for request in population.desktop]
            )
        finished = time.perf_counter()
        times.append(finished - started)
        intervals.append((started, finished))
        if warm:
            population.reference = {
                request.key: digest(response)
                for request, response in zip(population.desktop, responses)
            }
    population.setup_raw_times = times
    population.setup_times = [
        taken / speed.slowness(*interval) for taken, interval in zip(times, intervals)
    ]
    return population
