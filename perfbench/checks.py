"""Answer checks: a digest per answer, and the feasibility of an answer.

The digest covers everything a caller could observe of an answer: the
rewritten SQL, the chosen preference indices, the solution's doi, cost
and size estimates, the executed query's cost receipt (simulated I/O
plus CPU milliseconds) and the row count. Floats enter through
``repr``, so two digests agree only when the answers are bit-identical.
"""

from __future__ import annotations

import hashlib
from typing import List, Optional

from repro.core.problem import CQPProblem
from repro.core.service import ServiceResponse


def digest(response: ServiceResponse) -> str:
    outcome = response.outcome
    solution = outcome.solution
    fields = (
        outcome.sql,
        None if solution is None else solution.pref_indices,
        None if solution is None else solution.doi,
        None if solution is None else solution.cost,
        None if solution is None else solution.size,
        response.elapsed_ms,
        len(response.rows),
    )
    return hashlib.blake2b(repr(fields).encode(), digest_size=16).hexdigest()


def infeasibility(response: ServiceResponse, problem: CQPProblem) -> Optional[str]:
    """Why ``response`` is not a feasible answer to ``problem``, or None.

    The chosen preferences are re-priced on a fresh evaluator over the
    response's own preference space; the estimates must match the
    solution's and satisfy every constraint of the problem.
    """
    outcome = response.outcome
    solution = outcome.solution
    if solution is None:
        return None  # the unpersonalized query is always an allowed answer
    if outcome.preference_space is None:
        return "the answer carries no preference space to re-price"
    evaluator = outcome.preference_space.evaluator()
    indices = solution.pref_indices
    priced = (evaluator.doi(indices), evaluator.cost(indices), evaluator.size(indices))
    if priced != (solution.doi, solution.cost, solution.size):
        return "estimates %r differ from re-priced %r" % (
            (solution.doi, solution.cost, solution.size),
            priced,
        )
    if not problem.satisfies(*priced):
        return "(doi, cost, size) = %r violates %s" % (priced, problem)
    return None


class Verdict:
    """Collects every failed check of one run."""

    def __init__(self) -> None:
        self.failures: List[str] = []
        self.checked = 0

    def expect_equal(self, what: str, got: str, want: str) -> None:
        self.checked += 1
        if got != want:
            self.failures.append("%s: digest %s != reference %s" % (what, got, want))

    def expect_feasible(self, what: str, response, problem) -> None:
        self.record(what, infeasibility(response, problem))

    def record(self, what: str, failure: Optional[str]) -> None:
        """Count one check; ``failure`` says why it failed, if it did."""
        self.checked += 1
        if failure is not None:
            self.failures.append("%s: %s" % (what, failure))

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @property
    def correct(self) -> bool:
        return not self.failures
