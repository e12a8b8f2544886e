"""Flow/trace primitives shared by all sketches and the benchmark harness.

Flow keys are 32-bit unsigned integers (e.g. a source IPv4 address). Every
32-bit value, 0 included, is a flow: no key is reserved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_KEY_MAX = 0xFFFFFFFF

# on-disk trace formats, as load_trace, write_trace and the CLI name them
TRACE_FORMATS = ("binary-u32", "csv")


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
        # row r hashes a key as mix64(row_seeds[r] ^ key)
        self.row_seeds = [mix64(self.seed + (r + 1) * _GOLDEN) for r in range(rows)]

    def value(self, row: int, key: int) -> int:
        """Full 64-bit hash of key under the given row."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range [0, {self.rows})")
        return mix64(self.row_seeds[row] ^ key)

    def index(self, row: int, key: int, range_: int) -> int:
        """Hash of key mapped into [0, range_)."""
        if range_ < 1:
            raise ValueError("range must be >= 1")
        return self.value(row, key) % range_

    def index_array(self, row: int, keys: np.ndarray, range_: int) -> np.ndarray:
        """Vectorized index(); element-wise identical to the scalar version."""
        if range_ < 1:
            raise ValueError("range must be >= 1")
        return (self.value_array(row, keys) % np.uint64(range_)).astype(np.int64)

    def value_array(self, row: int, keys: np.ndarray) -> np.ndarray:
        """Vectorized value(); element-wise identical to the scalar version."""
        if not 0 <= row < self.rows:
            raise ValueError(f"row {row} out of range [0, {self.rows})")
        return _mix64_array(keys.astype(np.uint64) ^ np.uint64(self.row_seeds[row]))

    def sign(self, row: int, key: int) -> int:
        """+1 or -1, from the hash parity of the given row."""
        return 1 if self.value(row, key) & 1 else -1


def check_key(f) -> int:
    """f as an int if it is an integer flow key in [0, 2**32), else ValueError."""
    # a numpy integer is the same flow as its int; a bool is no flow key
    if type(f) is not int and type(f) is not bool and isinstance(f, (int, np.integer)):
        f = int(f)
    if type(f) is int and 0 <= f <= _KEY_MAX:
        return f
    raise ValueError(f"a flow key must be an integer in [0, {_KEY_MAX}]; got {f!r}")


def check_threshold(t) -> None:
    """ValueError unless t is an integer report threshold of at least 1."""
    # a bool is no threshold, as it is no flow key
    if type(t) is bool or not (isinstance(t, (int, np.integer)) and t >= 1):
        raise ValueError(f"threshold must be an integer >= 1; got {t!r}")


def key_array(keys) -> np.ndarray:
    """keys as a 1-D uint32 array of flow keys, or ValueError. A 1-D uint32
    array is returned as it is, after two attribute tests. An empty list or
    tuple is an empty batch, but an array of a dtype that is not an integer
    one is refused, even when empty."""
    arr = np.asarray(keys)
    if arr.ndim != 1:
        raise ValueError(f"trace keys must be a 1-D array; got shape {arr.shape}")
    if arr.dtype == np.uint32:
        return arr
    if not np.issubdtype(arr.dtype, np.integer):
        # numpy reads an empty list as float64, but it holds no key
        if not arr.size and isinstance(keys, (list, tuple)):
            return arr.astype(np.uint32)
        raise ValueError(f"trace keys must be integers; got dtype {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() > _KEY_MAX):
        raise ValueError(f"trace keys must lie in [0, {_KEY_MAX}]; "
                         f"got min {arr.min()}, max {arr.max()}")
    return arr.astype(np.uint32)


@dataclass(frozen=True)
class Trace:
    """Ordered packet stream of 32-bit flow keys. Replay is deterministic."""

    keys: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "keys", key_array(self.keys))

    def __len__(self) -> int:
        return int(self.keys.size)


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
        # bytes, so that a byte outside ASCII is a bad line and not a decode
        # error; bytes.isdigit() takes ASCII digits only
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                s = line.strip()
                if not s:
                    continue
                if not s.isdigit():
                    text = s.decode("ascii", "backslashreplace")
                    raise TraceLoadError(f"{path}:{lineno}: not an unsigned decimal: '{text}'")
                # int() refuses huge digit strings; over 10 significant digits is out of range
                if len(s.lstrip(b"0")) > 10 or (v := int(s)) > _KEY_MAX:
                    raise TraceLoadError(f"{path}:{lineno}: key {s.decode()} outside 32-bit range")
                values.append(v)
        keys = np.array(values, dtype=np.uint32)
    else:
        raise ValueError(f"unknown trace format {fmt!r}; choose from {TRACE_FORMATS}")
    return Trace(keys)


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
    if not (skew > 0 and math.isfinite(skew)):
        raise ValueError(f"skew must be > 0 and finite, got {skew}")
    ranks = np.arange(1, distinct + 1, dtype=np.float64)
    weights = ranks ** -skew
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    keys = (np.searchsorted(cdf, u, side="right") + 1).astype(np.uint32)
    return Trace(keys)


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
        raise ValueError(f"unknown trace format {fmt!r}; choose from {TRACE_FORMATS}")


def threshold_for(frac: float, n: int) -> int:
    """Heavy-hitter threshold: ceil(frac * n), robust to float round-off,
    and at least 1 when frac and n are positive."""
    if frac < 0:
        raise ValueError("frac must be >= 0")
    return max(int(frac > 0 and n > 0), math.ceil(frac * n - 1e-9))
