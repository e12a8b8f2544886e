"""Flow/trace primitives shared by all sketches and the benchmark harness.

Flow keys are 32-bit unsigned integers (e.g. a source IPv4 address). Key 0 is
reserved as the empty-cell sentinel and never appears in a loaded trace:
ingestion remaps zeros to REMAP_KEY and counts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EMPTY_KEY = 0
REMAP_KEY = 0xFFFFFFFF

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class TraceLoadError(Exception):
    """A trace file could not be parsed; the message names the byte/line offset."""


def mix64(x: int) -> int:
    """64-bit avalanche mixer (murmur3 finalizer constants)."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    x ^= x >> 33
    return x


def _mix64_array(x: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2**64, matching mix64 exactly
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(33)
    return x


class HashFamily:
    """Seeded family of hash rows over 32-bit keys.

    The same seed yields identical values across runs; each row is derived
    from the master seed so rows behave as independently seeded functions.
    """

    def __init__(self, seed: int, rows: int = 1):
        if rows < 1:
            raise ValueError("rows must be >= 1")
        self.seed = seed & _MASK64
        self.rows = rows
        self._row_seeds = [mix64(self.seed + (r + 1) * _GOLDEN) for r in range(rows)]

    def value(self, row: int, key: int) -> int:
        """Full 64-bit hash of key under the given row."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range [0, {self.rows})")
        return mix64(self._row_seeds[row] ^ key)

    def index(self, row: int, key: int, range_: int) -> int:
        """Hash of key mapped into [0, range_)."""
        if range_ < 1:
            raise ValueError("range must be >= 1")
        return self.value(row, key) % range_

    def index_array(self, row: int, keys: np.ndarray, range_: int) -> np.ndarray:
        """Vectorized index(); element-wise identical to the scalar version."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range [0, {self.rows})")
        if range_ < 1:
            raise ValueError("range must be >= 1")
        x = _mix64_array(keys.astype(np.uint64) ^ np.uint64(self._row_seeds[row]))
        return (x % np.uint64(range_)).astype(np.int64)

    def value_array(self, row: int, keys: np.ndarray) -> np.ndarray:
        """Vectorized value(); element-wise identical to the scalar version."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range [0, {self.rows})")
        return _mix64_array(keys.astype(np.uint64) ^ np.uint64(self._row_seeds[row]))

    def sign(self, row: int, key: int) -> int:
        """+1 or -1, from the hash parity of the given row."""
        return 1 if self.value(row, key) & 1 else -1


@dataclass(frozen=True)
class Trace:
    """Ordered packet stream of 32-bit flow keys. Replay is deterministic."""

    keys: np.ndarray
    remapped: int = 0  # number of zero keys remapped to REMAP_KEY at ingestion

    def __post_init__(self):
        keys = self.keys
        if keys.dtype != np.uint32:
            if keys.size and (keys.min() < 0 or keys.max() > 0xFFFFFFFF):
                raise ValueError(
                    f"trace keys must lie in [0, {0xFFFFFFFF}]; "
                    f"got min {keys.min()}, max {keys.max()}"
                )
            object.__setattr__(self, "keys", keys.astype(np.uint32))

    def __len__(self) -> int:
        return int(self.keys.size)


def _remap_zeros(keys: np.ndarray) -> Trace:
    remapped = int(np.count_nonzero(keys == EMPTY_KEY))
    if remapped:
        keys = np.where(keys == EMPTY_KEY, np.uint32(REMAP_KEY), keys)
    return Trace(keys.astype(np.uint32), remapped)


def load_trace(path: str | Path, fmt: str = "binary-u32") -> Trace:
    """Load a trace from disk.

    binary-u32: little-endian 32-bit keys, no header.
    csv: one unsigned decimal key per line, LF-terminated.
    """
    path = Path(path)
    if fmt == "binary-u32":
        data = path.read_bytes()
        extra = len(data) % 4
        if extra:
            raise TraceLoadError(
                f"{path}: {extra} trailing byte(s) at offset {len(data) - extra}; "
                "file length must be a multiple of 4"
            )
        keys = np.frombuffer(data, dtype="<u4")
    elif fmt == "csv":
        values = []
        with open(path, "r") as fh:
            for lineno, line in enumerate(fh, 1):
                s = line.strip()
                if not s:
                    continue
                try:
                    v = int(s, 10)
                except ValueError:
                    raise TraceLoadError(f"{path}:{lineno}: not an unsigned decimal: {s!r}") from None
                if not 0 <= v <= 0xFFFFFFFF:
                    raise TraceLoadError(f"{path}:{lineno}: key {v} outside 32-bit range")
                values.append(v)
        keys = np.array(values, dtype=np.uint32)
    else:
        raise ValueError(f"unknown trace format {fmt!r}")
    return _remap_zeros(keys)


def generate_zipf(n: int, distinct: int, skew: float, seed: int) -> Trace:
    """Synthetic Zipf trace: n packets i.i.d. over `distinct` ranked keys.

    Rank r (key value r, 1-based) is drawn with probability proportional to
    1/r**skew via inverse-CDF sampling, so the distribution is exact and
    deterministic given the seed.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if distinct < 1:
        raise ValueError("distinct must be >= 1")
    if distinct > 0xFFFFFFFE:
        raise ValueError("distinct exceeds the 32-bit key space")
    if skew <= 0:
        raise ValueError("skew must be > 0")
    ranks = np.arange(1, distinct + 1, dtype=np.float64)
    weights = ranks ** -skew
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    keys = (np.searchsorted(cdf, u, side="right") + 1).astype(np.uint32)
    return Trace(keys, 0)


def write_trace(trace: Trace, path: str | Path, fmt: str = "binary-u32") -> None:
    """Write a trace in one of the two supported on-disk formats."""
    path = Path(path)
    if fmt == "binary-u32":
        path.write_bytes(trace.keys.astype("<u4").tobytes())
    elif fmt == "csv":
        with open(path, "w") as fh:
            for k in trace.keys.tolist():
                fh.write(f"{k}\n")
    else:
        raise ValueError(f"unknown trace format {fmt!r}")


def harmonic(n: int, skew: float = 1.0) -> float:
    """Generalized harmonic number sum_{r=1..n} 1/r**skew."""
    return float(np.sum(np.arange(1, n + 1, dtype=np.float64) ** -skew))


def threshold_for(frac: float, n: int) -> int:
    """Heavy-hitter threshold: ceil(frac * n), robust to float round-off."""
    if frac < 0:
        raise ValueError("frac must be >= 0")
    return max(0, math.ceil(frac * n - 1e-9))
