"""The native insert passes and reads: one C source, `kernels.c`, beside this file.

The source is compiled on first import into `_native/` beside this file and
loaded with ctypes. `NATIVE` is the one switch for all five sketches: the
one library, holding `elastic_pass` for both Elastic variants,
`sketch_heap_pass` for CMHeap and CountHeap and `spacesaving_pass`, and the
CMHeap and CountHeap reads `sketch_heap_query` and `sketch_heap_estimates`,
or None when it cannot be built or loaded. Then every sketch's
`insert_trace` loops its scalar `insert()`, and CMHeap and CountHeap read
through their Python `query()`: the references both paths must match. A
sketch holds no ctypes object, so it pickles alike on both paths; it reads
`native.NATIVE` at each call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import warnings
from pathlib import Path

_SOURCE = Path(__file__).parent / "kernels.c"
_CACHE = _SOURCE.parent / "_native"
_CC = ("cc", "-std=c99", "-O2", "-shared", "-fPIC")
_PTR = ctypes.c_void_p
_U64 = ctypes.c_uint64
_SIZE = ctypes.c_size_t

# function -> (argtypes, restype)
_SIGNATURES = {
    "mix64": ([_U64], _U64),
    "elastic_pass": ([_PTR, _SIZE, _PTR, _PTR, _PTR, _U64, _U64, _SIZE, ctypes.c_double,
                      ctypes.c_int, ctypes.c_int, _PTR, _PTR, _U64, _U64, _PTR], None),
    "sketch_heap_pass": ([_PTR, _SIZE, _PTR, _SIZE, _U64, _PTR, ctypes.c_int, _PTR, _PTR,
                          _PTR, _PTR, _PTR, ctypes.c_uint, _SIZE, _SIZE], _SIZE),
    "spacesaving_pass": ([_PTR, _SIZE, _PTR, _PTR, _PTR, _PTR, _PTR, ctypes.c_uint, _SIZE,
                          _SIZE], _SIZE),
    "sketch_heap_query": ([ctypes.c_uint32, _PTR, _SIZE, _U64, _PTR, ctypes.c_int, _PTR],
                          ctypes.c_uint32),
    "sketch_heap_estimates": ([_PTR, _SIZE, _PTR, _SIZE, _U64, _PTR, ctypes.c_int, _PTR,
                               _PTR], None),
}


def _build(cache: Path) -> Path:
    """The library, compiled into `cache` unless already there, under a name
    hashed from the source and the compiler command. The build goes through
    a temporary file renamed into place, so concurrent builds never load a
    partial file, and installing it removes every other build in `cache`."""
    tag = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_CC).encode()).hexdigest()[:16]
    lib = cache / f"{_SOURCE.stem}-{tag}.so"
    if not lib.is_file():
        cache.mkdir(exist_ok=True)
        tmp = cache / f"{_SOURCE.stem}-{tag}.{os.getpid()}.tmp"
        try:
            subprocess.run([*_CC, "-o", str(tmp), str(_SOURCE)], check=True,
                           capture_output=True)
            os.replace(tmp, lib)
        finally:
            tmp.unlink(missing_ok=True)
        for old in cache.iterdir():
            if old.suffix == ".so" and old != lib:
                old.unlink(missing_ok=True)
    return lib


def load_kernels(cache: Path = _CACHE) -> ctypes.CDLL | None:
    """The ctypes library of `kernels.c`, or None with one warning when it
    cannot be built or loaded."""
    try:
        lib = ctypes.CDLL(str(_build(cache)))
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or b""
        warnings.warn(f"native kernels unavailable, every insert_trace loops insert() "
                      f"and every read runs in Python: {exc} "
                      f"{detail.decode(errors='replace')}".rstrip(),
                      RuntimeWarning, stacklevel=2)
        return None
    for fn, (argtypes, restype) in _SIGNATURES.items():
        getattr(lib, fn).argtypes = argtypes
        getattr(lib, fn).restype = restype
    return lib


NATIVE = load_kernels()


def pinned(buf, nbytes: int):
    """Pointer argument for a writable buffer (an array('I'), a bytearray or a
    numpy array) that a kernel writes in place, after checking that it holds
    exactly nbytes. The call runs without the GIL; while the argument lives
    it holds an export of the buffer, so a resize from another thread raises
    BufferError instead of freeing memory the kernel writes."""
    view = memoryview(buf)
    if view.nbytes != nbytes:
        raise ValueError(f"a sketch buffer holds {view.nbytes} bytes, expected {nbytes}")
    return ctypes.byref(ctypes.c_char.from_buffer(view))
