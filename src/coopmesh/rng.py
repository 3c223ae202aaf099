"""Keyed deterministic random draws.

Every stochastic quantity in a run is a pure function of (seed, key parts),
so replays are bit-identical regardless of event processing order and sweep
workers never share state.
"""

from __future__ import annotations

import hashlib
import struct

# a u64 times 2**-64 is the double nearest u64 / 2**64: the int converts
# with one rounding, the power-of-two scale is exact on the normal float
# it gives, and the product skips the big-int division
_SCALE = 2.0**-64
# u64 / 2**64 rounds to 1.0 from here up; those values map to the largest
# double below 1 instead, so every draw lies in [0, 1)
_TOP = 2**64 - 2**10
_BELOW_ONE = 1.0 - 2.0**-53
# blake2b fixes its digest size at construction, so a copy of this empty
# state hashes exactly as a new blake2b(digest_size=8) would, without
# parsing the keyword on every draw
_EMPTY = hashlib.blake2b(digest_size=8)


def _hash_u64(material: bytes) -> int:
    """The 8-byte blake2b digest of material, as a little-endian u64."""
    h = _EMPTY.copy()
    h.update(material)
    return int.from_bytes(h.digest(), "little")


def derive_seed(seed: int, *key: object) -> int:
    """Derive a 64-bit sub-seed from a base seed and a key tuple."""
    return _hash_u64(repr((seed,) + key).encode())


class _Packers(dict):
    """n -> struct packing n little-endian int64s, built on first use."""

    def __missing__(self, n: int) -> struct.Struct:
        packer = self[n] = struct.Struct(f"<{n}q")
        return packer


_PACKERS = _Packers()


def _draw_u64(seed: int, key: tuple) -> int:
    # integer-only keys hash their packed bytes; anything else, its repr
    try:
        material = _PACKERS[len(key) + 1].pack(seed, *key)
    except struct.error:
        return derive_seed(seed, *key)
    return _hash_u64(material)


def _unit(u64: int) -> float:
    """u64 / 2**64, except that the top 2**10 values give 1 - 2**-53."""
    return u64 * _SCALE if u64 < _TOP else _BELOW_ONE


def uniform(seed: int, *key: object) -> float:
    """Uniform draw in [0, 1), deterministic in (seed, key)."""
    return _unit(_draw_u64(seed, key))

