"""An open-loop driver that times every request from its due time.

The schedule is fixed before the run in reference time: request ``i``
is due ``offsets[i] - offsets[i - 1]`` reference seconds after request
``i - 1``, and the gap is stretched into wall-clock time by the host's
slowness when the previous request falls due (see
``perfbench/hostspeed.py``). The generator fires each request at its
absolute due time (immediately, if it is already late) and records how
late it fired; a request's latency runs from its due time to its
answer. A stalled event loop therefore shows up twice: as generator
lateness, and in the latency of every request it delayed. (Sleeping a
relative gap after each fire, or timing from admission, would hide
both.)
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.serving.admission import AdmissionRejected


def poisson_offsets(rate_per_s: float, seconds: float, rng: random.Random) -> List[float]:
    """Seeded Poisson arrival offsets in ``[0, seconds)``, conditioned on
    the expected count: ``rate * seconds`` uniform arrival times, sorted.
    Fixing the count keeps the offered load identical from seed to seed
    while the arrival pattern varies."""
    count = round(rate_per_s * seconds)
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


@dataclass
class Outcome:
    """What became of one scheduled request."""

    index: int
    due: float
    late_s: float = 0.0
    done: Optional[float] = None  # answer time; None when rejected or failed
    answer: object = None  # what ``on_answer`` made of the ServedResponse
    error: Optional[str] = None
    rejected: bool = False

    @property
    def latency_s(self) -> float:
        return self.done - self.due


@dataclass
class OpenLoopRun:
    outcomes: List[Outcome] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0


async def run_schedule(
    server,
    requests: Sequence,
    tiers: Sequence[str],
    offsets: Sequence[float],
    seconds: float,
    slowness: Callable[[], float],
    on_answer: Callable[[int, object], object],
) -> OpenLoopRun:
    """Submit ``requests[i]`` at tier ``tiers[i]`` when ``offsets[i]``
    reference seconds have passed since the start, each gap stretched
    by ``slowness()``; stop submitting once ``seconds`` of wall-clock
    time have passed, and wait for every answer.

    ``on_answer(i, served)`` runs as each answer arrives and its result
    is kept in place of the response, so a long run holds no responses.
    """
    run = OpenLoopRun()
    loop = asyncio.get_running_loop()

    async def fire(outcome: Outcome, request, tier: str) -> None:
        try:
            served = await server.submit(request, tier=tier)
        except AdmissionRejected:
            outcome.rejected = True
            return
        except Exception as error:  # noqa: BLE001 — a failed request is counted
            outcome.error = "%s: %s" % (type(error).__name__, error)
            return
        outcome.done = time.perf_counter()
        outcome.answer = on_answer(outcome.index, served)

    tasks = []
    run.started = due = time.perf_counter()
    previous = 0.0
    for index, (request, tier, offset) in enumerate(zip(requests, tiers, offsets)):
        due += (offset - previous) * slowness()
        previous = offset
        if due >= run.started + seconds:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        outcome = Outcome(index=index, due=due, late_s=max(0.0, time.perf_counter() - due))
        run.outcomes.append(outcome)
        tasks.append(loop.create_task(fire(outcome, request, tier)))
    await asyncio.gather(*tasks)
    run.finished = time.perf_counter()
    return run
