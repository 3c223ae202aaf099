"""Keyed deterministic random draws.

Every stochastic quantity in a run is a pure function of (seed, key parts),
so replays are bit-identical regardless of event processing order and sweep
workers never share state.
"""

from __future__ import annotations

import hashlib
import struct

_U64 = 2**64


def derive_seed(seed: int, *key: object) -> int:
    """Derive a 64-bit sub-seed from a base seed and a key tuple."""
    material = repr((seed,) + key).encode()
    return int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "little")


# packers of (seed, *key) by key length; the simulator's draws use 1 to 5
_PACKERS = tuple(struct.Struct(f"<q{n}q") for n in range(8))


def _draw_u64(seed: int, key: tuple) -> int:
    # hot path: integer-only keys pack fast; anything else goes through repr
    n = len(key)
    packer = _PACKERS[n] if n < len(_PACKERS) else struct.Struct(f"<q{n}q")
    try:
        material = packer.pack(seed, *key)
    except struct.error:
        material = repr((seed,) + key).encode()
    return int.from_bytes(hashlib.blake2b(material, digest_size=8).digest(), "little")


def uniform(seed: int, *key: object) -> float:
    """Uniform draw in [0, 1), deterministic in (seed, key)."""
    return _draw_u64(seed, key) / _U64
