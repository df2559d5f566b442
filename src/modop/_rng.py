"""Deterministic seeding utilities.

Reproducibility across platforms and runs rests on a single
counter-based generator: splitmix64.  Its update function is

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2^64
    output <- z XOR (z >> 31)

Every random quantity in the package is obtained either directly from a
splitmix64 stream (scalar draws such as bump phases) or from
numpy's default generator seeded with a splitmix64-derived value (bulk
arrays).  Task-level seeds are derived from a master seed and integer
indices with ``derive_seed``, so results never depend on execution
order.
"""

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_next(state):
    """Advance a splitmix64 state once.

    Returns the pair ``(new_state, output)`` of 64-bit integers.
    """
    state = (state + _GAMMA) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return state, (z ^ (z >> 31)) & _MASK


def derive_seed(master, *indices):
    """Fold integer indices into a master seed, one mixing round each.

    ``derive_seed(m)`` differs from ``m``; every additional index folds
    in via XOR before a full splitmix64 round, so distinct index tuples
    give statistically independent streams.
    """
    state = master & _MASK
    state, out = splitmix64_next(state)
    for ix in indices:
        state = out ^ (int(ix) & _MASK)
        state, out = splitmix64_next(state)
    return out


def uniform_stream(seed, count):
    """First ``count`` uniform [0, 1) doubles of the splitmix64 stream at ``seed``."""
    out = np.empty(count, dtype=float)
    state = seed & _MASK
    for i in range(count):
        state, value = splitmix64_next(state)
        out[i] = value / 2.0**64
    return out


def bulk_rng(seed):
    """A numpy Generator for bulk array draws, seeded deterministically."""
    return np.random.default_rng(seed & _MASK)


def is_seed(value):
    """Whether an integer is a seed: unsigned 64-bit, 0 to 2^64 - 1."""
    return 0 <= value <= _MASK
