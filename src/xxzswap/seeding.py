"""Deterministic, order-independent random streams.

Stochastic routines consume counter-keyed Philox streams: the numbers in
stream ``(seed, index)`` depend on nothing but those two integers, so sampling
can be chunked, evaluated out of order, or farmed out to workers without
changing a seeded result.
"""

import numpy as np

from .errors import ValidationError, check_integer

#: Default seed used everywhere a seed is not given explicitly.
#: The CLI can override it through the XXZSWAP_SEED environment variable.
DEFAULT_SEED = 42424242


def check_seed(seed, name: str = "seed") -> int:
    """``seed`` as an int, if it can key the streams: an integer, not a bool,
    in [0, 2**128)."""
    seed = check_integer(seed, name)
    if not 0 <= seed < 2**128:  # the seed is the Philox key
        raise ValidationError(f"{name} must lie in [0, 2**128), got {seed}")
    return seed


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for chunk ``index`` of a seeded computation.

    The chunk index occupies the high half of the 256-bit Philox counter,
    leaving 2**128 blocks of headroom per chunk.
    """
    return np.random.Generator(np.random.Philox(key=seed, counter=index << 128))
