"""States of the CQP search space.

A state is a set of preferences represented as a sorted tuple of *ranks*
— positions into one of the order vectors D, C, S (Section 5.1). Working
with ranks instead of preference identities is what makes the paper's
transitions purely syntactic: replacing rank ``r`` by ``r + 1`` has a
known effect on the vector's parameter regardless of which preferences
are involved.

Ranks are 0-based here (the paper is 1-based).

The evaluation layer keys states as *int bitmasks* instead: one Python
int whose set bits are the P-indices a state contains
(:func:`mask_of` / :func:`state_of` convert). Every doi/cost/size
formula runs on masks — O(1) membership and single-int cache keys with
no per-call ``tuple(sorted(...))`` — while the Section 5 algorithms walk
rank tuples and their search spaces translate each state to its mask.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

State = Tuple[int, ...]

# A mask state: set bit ``r`` <=> rank/index ``r`` is in the state.
Mask = int


def make_state(ranks: Iterable[int]) -> State:
    """Normalize an iterable of ranks into a canonical state tuple."""
    state = tuple(sorted(set(ranks)))
    if any(r < 0 for r in state):
        raise ValueError("ranks must be non-negative: %r" % (state,))
    return state


def group_size(state: State) -> int:
    """The paper's *group* of a node: its number of preferences (Def. 1)."""
    return len(state)


def is_below(state: State, origin: State) -> bool:
    """True when ``state`` is reachable from ``origin`` via Vertical moves.

    Vertical transitions stay in the same group and replace one rank by
    its successor, so reachability is exactly componentwise dominance of
    the sorted rank tuples: ``state[i] >= origin[i]`` for every ``i``.
    This is the order C_FINDMAXDOI searches "below the boundaries" and
    ``prune(.)`` cuts with.
    """
    if len(state) != len(origin):
        return False
    return all(s >= o for s, o in zip(state, origin))


def states_in_group(k: int, size: int) -> Iterable[State]:
    """Enumerate all states of a group (used by tests and the oracle)."""
    from itertools import combinations

    return combinations(range(k), size)


# -- the bitmask kernel ------------------------------------------------------------


def mask_of(ranks: Iterable[int]) -> Mask:
    """The bitmask of an iterable of ranks (duplicates collapse)."""
    mask = 0
    for rank in ranks:
        mask |= 1 << rank
    return mask


def state_of(mask: Mask) -> State:
    """The canonical sorted tuple of a mask (bits ascend, so no sort)."""
    state: List[int] = []
    while mask:
        low = mask & -mask
        state.append(low.bit_length() - 1)
        mask ^= low
    return tuple(state)
