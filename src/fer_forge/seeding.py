"""Deterministic seed fan-out.

Every source of randomness in the toolkit (weight init, shuffling,
dropout) draws its seed from a single base seed through ``derive_seed``,
so runs are reproducible while the streams stay independent.
"""

DEFAULT_SEED = 42  # the base seed of every run, config and check not given one
_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(base_seed: int, *stream: int | str) -> int:
    """Derive a child seed from ``base_seed`` and a label path.

    The same (base_seed, labels) pair always yields the same child seed;
    distinct label paths yield statistically independent seeds.
    """
    state = _splitmix64(base_seed & _MASK64)
    for part in stream:
        if isinstance(part, str):
            for byte in part.encode("utf-8"):
                state = _splitmix64(state ^ byte)
        else:
            state = _splitmix64(state ^ (int(part) & _MASK64))
    return state & 0x7FFFFFFFFFFFFFFF
