"""The native insert passes and reads: one C source, `kernels.c`, beside this file.

The source is compiled on first import into `_native/` beside this file and
loaded with ctypes. `NATIVE` is the one switch for all five sketches: the
one library, holding `elastic_pass` for both Elastic variants,
`sketch_heap_pass` for CMHeap and CountHeap and `spacesaving_pass`, and the
reads `elastic_query`, `sketch_heap_query` and `sketch_heap_estimates`, or
None when it cannot be built or loaded. Then every sketch's `insert_trace`
loops its scalar `insert()`, and every read is the Python rule: the
references both paths must match.

A pass pins the buffers it writes for one call and runs without the GIL. A
read goes through a view (`view`): one `ElasticView` or `SketchView` struct
over the sketch's buffers, built on the sketch's first native read and
pinning them for the sketch's life. A read export holds the GIL for its
call of about 100 ns, which makes a view's one Count-sketch scratch safe
across threads. A sketch holds one cached view, dropped on pickle, so it
pickles alike on both paths; it reads `native.NATIVE` at each call.
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


class ElasticView(ctypes.Structure):
    """An Elastic sketch's read view, kernels.c's elastic_view_t: flags and
    light are NULL when the sketch has none."""
    _fields_ = [("ids", _PTR), ("votes", _PTR), ("flags", _PTR), ("light", _PTR),
                ("bucket_seed", _U64), ("bucket_count", _U64), ("cells", _SIZE),
                ("light_seed", _U64), ("light_size", _U64)]


class SketchView(ctypes.Structure):
    """A CMHeap's or CountHeap's read view, kernels.c's sketch_view_t."""
    _fields_ = [("counters", _PTR), ("rows", _SIZE), ("width", _U64), ("seeds", _PTR),
                ("count_sketch", ctypes.c_int), ("scratch", _PTR)]


# function -> (argtypes, restype); the passes release the GIL
_SIGNATURES = {
    "mix64": ([_U64], _U64),
    "elastic_pass": ([_PTR, _SIZE, _PTR, _PTR, _PTR, _U64, _U64, _SIZE, ctypes.c_double,
                      ctypes.c_int, ctypes.c_int, _PTR, _PTR, _U64, _U64, _PTR], None),
    "sketch_heap_pass": ([_PTR, _SIZE, _PTR, _SIZE, _U64, _PTR, ctypes.c_int, _PTR, _PTR,
                          _PTR, _PTR, _PTR, ctypes.c_uint, _SIZE, _SIZE], _SIZE),
    "spacesaving_pass": ([_PTR, _SIZE, _PTR, _PTR, _PTR, _PTR, _PTR, ctypes.c_uint, _SIZE,
                          _SIZE], _SIZE),
}
# the reads, bound to hold the GIL
_READS = {
    "elastic_query": ([ctypes.POINTER(ElasticView), ctypes.c_uint32], _U64),
    "sketch_heap_query": ([ctypes.POINTER(SketchView), ctypes.c_uint32], ctypes.c_uint32),
    "sketch_heap_estimates": ([_PTR, _SIZE, ctypes.POINTER(SketchView), _PTR], None),
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
    for fn, (argtypes, restype) in _READS.items():
        setattr(lib, fn, ctypes.PYFUNCTYPE(restype, *argtypes)((fn, lib)))
    return lib


NATIVE = load_kernels()


class ViewCache:
    """Mixin of a sketch with a native read view: `_new_view()` builds it on
    the first native read and caches it in `_view`, which pickling drops,
    so a sketch pickles alike before and after a read."""

    _view = None

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_view"}


def _export(buf, nbytes: int) -> ctypes.c_char | None:
    """A c_char at the start of buf, holding an export of it, after checking
    that it holds exactly nbytes; None (a NULL pointer) for 0 bytes."""
    mem = memoryview(buf)
    if mem.nbytes != nbytes:
        raise ValueError(f"a sketch buffer holds {mem.nbytes} bytes, expected {nbytes}")
    return ctypes.c_char.from_buffer(mem) if nbytes else None


def pinned(buf, nbytes: int):
    """Pointer argument for a writable buffer (an array('I'), a bytearray or a
    numpy array) that a kernel writes in place, after checking that it holds
    exactly nbytes; None, a NULL pointer, when it is empty. A pass runs
    without the GIL; while the argument lives it holds an export of the
    buffer, so a resize from another thread raises BufferError instead of
    freeing memory the kernel writes."""
    export = _export(buf, nbytes)
    return None if export is None else ctypes.byref(export)


def view(struct: type[ctypes.Structure], buffers: dict, **scalars) -> ctypes.Structure:
    """One `struct` of the scalar fields and, for each field -> (buffer,
    nbytes) of `buffers`, a pointer to that buffer, checked as `pinned`
    checks it. The view holds the buffers' exports for its life, so a resize
    raises BufferError (numpy: ValueError) instead of moving memory it
    points at."""
    exports = {field: _export(buf, nbytes) for field, (buf, nbytes) in buffers.items()}
    pointers = {field: None if e is None else ctypes.addressof(e) for field, e in exports.items()}
    v = struct(**scalars, **pointers)
    v._exports = exports
    return v
