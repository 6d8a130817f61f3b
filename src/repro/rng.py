"""Deterministic random-stream derivation.

Every stochastic element in the simulator (silicon sampling, sensor noise,
OS background activity) draws from its own named stream so that:

* the same campaign configuration always produces identical results, and
* adding a new consumer of randomness never perturbs existing streams.

Streams are derived from a root seed plus a tuple of string/int keys::

    gen = derive_stream(42, "nexus5", "unit-363", "sensor-noise")

The derivation hashes the keys through ``numpy.random.SeedSequence`` entropy,
which gives independent, well-distributed streams.

:class:`NormalBlocks` reads standard normals from such streams a block at
a time, bit for bit as the per-call draws would give them; both engines
take their OS noise through it, and the batched engine its sensor noise.
A refill draws straight into its row of the block.
"""

from __future__ import annotations

import zlib
from typing import List, Optional, Sequence, Union

import numpy as np

StreamKey = Union[str, int]

#: Root seed used by catalog builders unless a caller overrides it.
DEFAULT_ROOT_SEED = 20190324  # ISPASS 2019 opening day.

#: Standard normals read ahead per row (see NormalBlocks).
BLOCK_LENGTH = 256


def _key_to_int(key: StreamKey) -> int:
    """Map a stream key to a stable 32-bit integer."""
    if isinstance(key, bool):  # bool is an int subclass; reject explicitly.
        raise TypeError("stream keys must be str or int, not bool")
    if isinstance(key, int):
        return key & 0xFFFFFFFF
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    raise TypeError(f"stream keys must be str or int, got {type(key).__name__}")


def derive_stream(root_seed: int, *keys: StreamKey) -> np.random.Generator:
    """Return an independent random generator for (root_seed, \\*keys).

    The same arguments always return a generator producing the same
    sequence; distinct key tuples produce statistically independent streams.
    """
    entropy = [root_seed & 0xFFFFFFFFFFFFFFFF]
    entropy.extend(_key_to_int(key) for key in keys)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def derive_seed(root_seed: int, *keys: StreamKey) -> int:
    """Return a stable derived integer seed for (root_seed, \\*keys)."""
    return int(derive_stream(root_seed, *keys).integers(0, 2**63 - 1))


class NormalBlocks:
    """Each row's upcoming standard normals, drawn a block at a time.

    Row ``i`` holds the next block of generator ``i``, read with one
    ``standard_normal(K)`` call — which consumes the stream exactly as
    ``K`` scalar ``normal`` calls do — and a per-row cursor marks the next
    unused draw.  ``normal(loc, scale)`` is then ``loc + scale * z``, the
    same two IEEE operations numpy's scalar sampler performs, so every
    value is bit-identical to the per-call draw and every row keeps its
    per-call draw order.  The batched engine holds one row per unit and
    takes whole columns (:meth:`take_all`, :meth:`take`); a serial
    device's ``OsBehavior`` holds one row and takes scalars
    (:meth:`take_one`).

    The generators run ahead of what was consumed until :meth:`hand_back`
    rewinds each one to the start of its current block and redraws
    exactly the values taken, leaving it where the per-call draws would.
    Readers of a generator's state must see it handed back: the engines
    hand back at the end of every call.  Rows whose generator is ``None``
    must never be taken from.
    """

    __slots__ = (
        "_rngs", "_length", "_block", "_rows", "_cursor", "_cursor_max", "_starts",
    )

    def __init__(self, rngs: Sequence[Optional[np.random.Generator]]) -> None:
        self._rngs = list(rngs)
        count = len(self._rngs)
        self._length = BLOCK_LENGTH
        self._block = np.empty((count, self._length))
        self._rows = np.arange(count)
        # Every row starts exhausted, so the first take fills it.
        self._cursor = np.full(count, self._length, dtype=np.int64)
        # Upper bound on every cursor: while it is below the block length
        # no row is exhausted, so the per-step all-row take skips the
        # vector scan (which would cost more than the take itself at
        # small cohort sizes).
        self._cursor_max = self._length
        #: Generator state at the start of each row's current block.
        self._starts: List[Optional[dict]] = [None] * count

    def _refill(self, row: int) -> None:
        rng = self._rngs[row]
        self._starts[row] = rng.bit_generator.state
        # Drawn straight into the row: no temporary block, same values.
        rng.standard_normal(out=self._block[row])
        self._cursor[row] = 0

    def _refill_exhausted(self, rows: np.ndarray) -> None:
        if self._cursor_max < self._length:
            return  # no cursor reaches the block end (see _cursor_max)
        for row in rows[self._cursor[rows] >= self._length].tolist():
            self._refill(row)

    def take_all(self) -> np.ndarray:
        """Every row's next standard normal."""
        cursor = self._cursor
        if self._cursor_max >= self._length:
            self._refill_exhausted(self._rows)
            self._cursor_max = int(cursor.max())
        z = self._block[self._rows, cursor]
        cursor += 1
        self._cursor_max += 1
        return z

    def take(self, rows: np.ndarray) -> np.ndarray:
        """The next standard normal of each row in ``rows`` (indices)."""
        self._refill_exhausted(rows)
        at = self._cursor[rows]
        self._cursor[rows] = at + 1
        if rows.size:
            self._cursor_max = max(self._cursor_max, int(at.max()) + 1)
        return self._block[rows, at]

    def take_one(self, row: int) -> float:
        """Row ``row``'s next standard normal, as a Python float."""
        at = self._cursor.item(row)
        if at >= self._length:
            self._refill(row)
            at = 0
        self._cursor[row] = at + 1
        if at >= self._cursor_max:
            self._cursor_max = at + 1
        return self._block.item(row, at)

    def hand_back(self) -> None:
        """Leave each generator exactly where its consumed draws end."""
        for row, start in enumerate(self._starts):
            if start is None:
                continue
            rng = self._rngs[row]
            rng.bit_generator.state = start
            rng.standard_normal(int(self._cursor[row]))
            self._starts[row] = None
        self._cursor.fill(self._length)
        self._cursor_max = self._length
