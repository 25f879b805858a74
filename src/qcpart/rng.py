"""Deterministic 64-bit PRNG (splitmix64).

Used wherever the partitioner or the SWAP-waiver heuristic needs
randomness, so results are reproducible across platforms and runs.

splitmix64 is counter-based: draw t depends only on ``state + t * gamma``.
``draws`` uses that to compute a block of up to 2048 draws at once, each
in its own 128-bit lane of one Python int (SWAR arithmetic). A 64 x 64-bit
product fits its lane, so no lane carries into the next, and the bits a
right shift brings in from the next lane land above bit 64, where a mask of
each lane's low 64 bits clears them. The SWAP waiver reads tens of
thousands of draws per call, and the solver's shuffles and random restart
sides read whole runs of them, all from ``draws``, which ends in the state
as many ``next_u64`` calls would.
"""

import functools
import struct

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 2048


@functools.cache
def _lane_constants(lanes: int) -> tuple[int, int, int]:
    """A 1 in every lane, the low 64 bits of every lane, and gamma * (t + 1)
    in lane t. Built on first use, so runs that never draw a block do not
    hold them."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * lanes, "little")
    steps = int.from_bytes(
        b"".join((t + 1).to_bytes(16, "little") for t in range(lanes)), "little"
    )
    return ones, ones * _MASK64, _GAMMA * steps


def _block(state: int, lanes: int) -> int:
    """The ``lanes`` draws that follow `state`, draw t in the low 64 bits of
    128-bit lane t; `lanes` is a power of two up to ``_LANES``."""
    ones, low, gamma_steps = _lane_constants(lanes)
    z = (state * ones + gamma_steps) & low
    z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
    z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
    return (z ^ (z >> 31)) & low


class SplitMix64:
    """splitmix64 generator with the standard finalizer constants."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) & _MASK64

    def next_float(self) -> float:
        """Uniform draw in [0, 1)."""
        return self.next_u64() / 2**64

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) (modulo bias is irrelevant at our sizes)."""
        return self.next_u64() % n

    def draws(self, count: int) -> list[int]:
        """The next `count` values of ``next_u64``, leaving the same state.

        Taken in blocks of up to ``_LANES`` draws, each block in as many
        lanes as the next power of two, so only those block sizes are ever
        cached.
        """
        out: list[int] = []
        while count > 0:
            n = min(count, _LANES)
            lanes = 1 << (n - 1).bit_length()
            words = _block(self.state, lanes).to_bytes(16 * lanes, "little")
            self.state = (self.state + n * _GAMMA) & _MASK64
            # each lane is a low and a high (zero) 64-bit word
            out += struct.unpack_from(f"<{2 * n}Q", words)[0::2]
            count -= n
        return out

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this generator: item i,
        from the last down to the second, swaps with item ``u % (i + 1)``
        for the next draw u, as ``next_below(i + 1)`` would pick."""
        n = len(items)
        for i, u in zip(range(n - 1, 0, -1), self.draws(n - 1)):
            j = u % (i + 1)
            items[i], items[j] = items[j], items[i]
