"""Transitions between states (Section 5.1, Tables 4 and 5).

All three transitions operate on rank tuples over an order vector of
length K. Their effects on the vector's own parameter are syntactically
known:

* ``Horizontal`` appends the rank following the state's largest rank —
  it grows the group, so the inclusion-monotone parameters move in a
  known direction (cost ↑, doi ↑, size ↓).
* ``Vertical`` replaces one rank by its successor — it stays in the
  group and moves *down* the vector's own parameter (cost ↓ on C, doi ↓
  on D, size ↑ on S) while the other parameters change unpredictably.
* ``Horizontal2`` (used by the greedy algorithms) inserts *any* absent
  rank, candidates ordered by decreasing vector parameter — i.e.
  ascending rank.

Because ranks are positions in a sorted vector, all ordering here is
syntactic: no parameter values are consulted.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.state import State, make_state


def horizontal(state: State, k: int) -> Optional[State]:
    """The Horizontal neighbor: append the successor of the largest rank.

    Returns ``None`` at the right edge of the space. An empty state's
    Horizontal neighbor is the first rank (used to seed searches).
    """
    if not state:
        return (0,) if k > 0 else None
    last = state[-1]
    if last + 1 >= k:
        return None
    return state + (last + 1,)


def vertical(state: State, k: int) -> List[State]:
    """All Vertical neighbors: each rank replaced by its (absent) successor.

    Neighbors are returned in decreasing order of the vector parameter.
    For a sorted vector the parameter drop of replacing rank ``r`` is
    ``value[r] − value[r+1]``, which is not syntactically comparable
    between ranks, so the canonical syntactic order — by replaced
    position, leftmost last — is refined by callers that know values.
    Here we return them ordered by the position replaced, rightmost
    first: replacing a *later* (already cheaper) rank perturbs the state
    least, which empirically matches the paper's traces (Figure 6).
    """
    present = set(state)
    neighbors: List[State] = []
    for index in range(len(state) - 1, -1, -1):
        rank = state[index]
        successor = rank + 1
        if successor < k and successor not in present:
            replaced = state[:index] + (successor,) + state[index + 1 :]
            neighbors.append(make_state(replaced))
    return neighbors


def horizontal2(state: State, k: int) -> List[State]:
    """All Horizontal2 neighbors: every insertion of an absent rank.

    Ordered by ascending inserted rank — i.e. decreasing vector
    parameter, as Section 5.2.1 requires ("ordered in decreasing cost").
    """
    present = set(state)
    neighbors: List[State] = []
    for rank in range(k):
        if rank not in present:
            neighbors.append(make_state(state + (rank,)))
    return neighbors


def vertical_predecessors(state: State, k: int) -> List[State]:
    """Inverse Vertical moves: each rank replaced by its (absent)
    predecessor. Used by tests to verify boundary propositions 2–3."""
    present = set(state)
    predecessors: List[State] = []
    for index, rank in enumerate(state):
        predecessor = rank - 1
        if predecessor >= 0 and predecessor not in present:
            replaced = state[:index] + (predecessor,) + state[index + 1 :]
            predecessors.append(make_state(replaced))
    return predecessors
