"""The native insert passes: one loader for every `*_kernel.c` beside this file.

Each kernel is compiled on first import into `_native/` beside this file and
loaded with ctypes. `NATIVE` is the one switch for all five sketches: a
namespace holding one library per kernel (`NATIVE.elastic` for both Elastic
variants, `NATIVE.sketch_heap` for CMHeap and CountHeap, `NATIVE.spacesaving`),
or None when any kernel cannot be built or loaded, and then every sketch's
`insert_trace` loops its scalar `insert()`, the reference both paths must
match. A sketch holds no ctypes object, so it pickles alike on both paths;
it reads `native.NATIVE` at each call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import warnings
from pathlib import Path
from types import SimpleNamespace

_DIR = Path(__file__).parent
_CACHE = _DIR / "_native"
_CC = ("cc", "-std=c99", "-O2", "-shared", "-fPIC")
_PTR = ctypes.c_void_p
_U64 = ctypes.c_uint64
_SIZE = ctypes.c_size_t

# kernel name (its source is <name>_kernel.c) -> function -> (argtypes, restype)
_SIGNATURES = {
    "elastic": {
        "mix64": ([_U64], _U64),
        "elastic_pass": ([_PTR, _SIZE, _PTR, _PTR, _PTR, _U64, _U64, _SIZE, ctypes.c_double,
                          ctypes.c_int, ctypes.c_int, _PTR, _PTR, _U64, _U64, _PTR], None),
    },
    "sketch_heap": {
        "sketch_heap_pass": ([_PTR, _SIZE, _PTR, _SIZE, _U64, _PTR, ctypes.c_int, _PTR,
                              _PTR, _PTR, _PTR, _PTR, _SIZE, _SIZE, _SIZE], _SIZE),
    },
    "spacesaving": {
        "spacesaving_pass": ([_PTR, _SIZE, _PTR, _PTR, _PTR, _PTR, _PTR, _SIZE, _SIZE, _SIZE],
                             _SIZE),
    },
}


def _build(source: Path, cache: Path) -> Path:
    """The library of one kernel, compiled into `cache` unless already there,
    under a name hashed from the source and the compiler command. The build
    goes through a temporary file renamed into place, so concurrent builds
    never load a partial file, and installing it removes the kernel's older
    builds."""
    name = source.name.removesuffix("_kernel.c")
    tag = hashlib.sha256(source.read_bytes() + " ".join(_CC).encode()).hexdigest()[:16]
    lib = cache / f"{name}-{tag}.so"
    if not lib.is_file():
        cache.mkdir(exist_ok=True)
        tmp = cache / f"{name}-{tag}.{os.getpid()}.tmp"
        try:
            subprocess.run([*_CC, "-o", str(tmp), str(source)], check=True,
                           capture_output=True)
            os.replace(tmp, lib)
        finally:
            tmp.unlink(missing_ok=True)
        for old in cache.glob(f"{name}-*.so"):
            if old != lib:
                old.unlink(missing_ok=True)
    return lib


def load_kernels(cache: Path = _CACHE) -> SimpleNamespace | None:
    """One ctypes library per `*_kernel.c`, or None with one warning when any
    of them cannot be built or loaded."""
    libs = {}
    try:
        for source in sorted(_DIR.glob("*_kernel.c")):
            lib = ctypes.CDLL(str(_build(source, cache)))
            libs[source.name.removesuffix("_kernel.c")] = lib
    except (OSError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or b""
        warnings.warn(f"native insert passes unavailable, every insert_trace loops "
                      f"insert(): {exc} {detail.decode(errors='replace')}".rstrip(),
                      RuntimeWarning, stacklevel=2)
        return None
    for name, lib in libs.items():
        for fn, (argtypes, restype) in _SIGNATURES[name].items():
            getattr(lib, fn).argtypes = argtypes
            getattr(lib, fn).restype = restype
    return SimpleNamespace(**libs)


NATIVE = load_kernels()


def pinned(buf, nbytes: int):
    """Pointer argument for a writable buffer (an array('I'), a bytearray or a
    numpy array) that a kernel writes in place, after checking that it holds
    exactly nbytes. The call runs without the GIL; while the argument lives
    it holds an export of the buffer, so a resize from another thread raises
    BufferError instead of freeing memory the kernel writes."""
    if memoryview(buf).nbytes != nbytes:
        raise ValueError(f"a sketch buffer holds {memoryview(buf).nbytes} bytes, "
                         f"expected {nbytes}")
    return ctypes.byref(ctypes.c_char.from_buffer(buf))
