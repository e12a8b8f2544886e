"""The native insert passes and reads: one C source, `kernels.c`, beside this file.

The source is compiled on first import, against this interpreter's headers,
into one library in `_native/` beside this file. That library is loaded
twice: as an extension module, which holds `Reader`, the one type of every
native read, and through ctypes, which binds the passes `elastic_pass` for
both Elastic variants, `sketch_heap_pass` for CMHeap and CountHeap and
`spacesaving_pass` onto that module. `NATIVE` is the one switch for all
five sketches: that module, or None when it cannot be built or loaded.
Then every sketch's `insert_trace` loops its scalar `insert()`, and every
read is the Python rule: the references both paths must match.

A pass pins the buffers it writes for one call and runs without the GIL. A
read is a call of the sketch's `Reader`, built on its first native read
over its buffers and scalar parameters and pinning the buffers for the
sketch's life. A Reader is C-API code, so each call holds the GIL, which
keeps its one Count-sketch scratch safe across threads. A sketch caches its
Reader in `_reader`, which pickling drops, so it pickles alike on both
paths; it reads `native.NATIVE` at each call.
"""

from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import os
import subprocess
import sysconfig
import warnings
from importlib.machinery import ExtensionFileLoader
from pathlib import Path
from types import ModuleType

import numpy as np

from .core import check_key, key_array

_SOURCE = Path(__file__).parent / "kernels.c"
_CACHE = _SOURCE.parent / "_native"
_CC = ("cc", "-std=c99", "-O2", "-shared", "-fPIC")
# this interpreter's C headers, and the suffix that names its ABI
_INCLUDE = sysconfig.get_paths()["include"]
_EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")
_PTR = ctypes.c_void_p
_U64 = ctypes.c_uint64
_SIZE = ctypes.c_size_t

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


def _command() -> list[str]:
    return [*_CC, f"-I{_INCLUDE}"]


def _library(cache: Path) -> Path:
    """The library's path in `cache`, named by a hash of the source, the
    compiler command and the interpreter's extension suffix, so that no
    interpreter loads a build made for another."""
    tag = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_command()).encode()
                         + _EXT_SUFFIX.encode()).hexdigest()[:16]
    return cache / f"{_SOURCE.stem}-{tag}.so"


def _build(cache: Path) -> Path:
    """The library, compiled into `cache` unless already there. The build
    goes through a temporary file renamed into place, so concurrent builds
    never load a partial file, and installing it removes every other build
    in `cache`."""
    lib = _library(cache)
    if not lib.is_file():
        if not (Path(_INCLUDE) / "Python.h").is_file():
            raise OSError(f"Python.h is missing from {_INCLUDE}, so no Reader can be built")
        cache.mkdir(exist_ok=True)
        tmp = cache / f"{lib.stem}.{os.getpid()}.tmp"
        try:
            subprocess.run([*_command(), "-o", str(tmp), str(_SOURCE)], check=True,
                           capture_output=True)
            os.replace(tmp, lib)
        finally:
            tmp.unlink(missing_ok=True)
        for old in cache.iterdir():
            if old.suffix == ".so" and old != lib:
                old.unlink(missing_ok=True)
    return lib


def load_kernels(cache: Path = _CACHE) -> ModuleType | None:
    """The extension module of `kernels.c` with the ctypes passes bound onto
    it, or None with one warning when it cannot be built or loaded."""
    try:
        path = str(_build(cache))
        loader = ExtensionFileLoader(f"{__package__}.{_SOURCE.stem}", path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(loader.name, path, loader=loader))
        loader.exec_module(module)
        lib = ctypes.CDLL(path)
    except (OSError, ImportError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or b""
        warnings.warn(f"native kernels unavailable, every insert_trace loops insert() "
                      f"and every read runs in Python: {exc} "
                      f"{detail.decode(errors='replace')}".rstrip(),
                      RuntimeWarning, stacklevel=2)
        return None
    for fn, (argtypes, restype) in _SIGNATURES.items():
        getattr(lib, fn).argtypes = argtypes
        getattr(lib, fn).restype = restype
        setattr(module, fn, getattr(lib, fn))
    return module


NATIVE = load_kernels()


class ReaderCache:
    """Mixin of a sketch with a native `Reader`: `_new_reader()` builds it
    on the first native read from the sketch's `_read_args()`, its rule,
    buffers and parameters (see kernels.c), and caches it in `_reader`,
    which pickling drops, so a sketch pickles alike before and after a
    read. `_ESTIMATE` is the dtype of `query_array`'s estimates."""

    _reader = None
    _ESTIMATE = np.uint32

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_reader"}

    def _new_reader(self):
        """The Reader, cached in `_reader`: from here on the sketch's buffers
        cannot be resized."""
        self._reader = NATIVE.Reader(check_key, *self._read_args())
        return self._reader

    def query_array(self, keys) -> np.ndarray:
        """query() of each key, which must be a flow key (as `key_array`
        checks a trace): one batch call of the Reader, or query() per key
        when the kernels are not built."""
        keys = np.ascontiguousarray(key_array(keys))
        if NATIVE is None:
            return np.fromiter(map(self.query, keys.tolist()), self._ESTIMATE, keys.size)
        out = np.empty(keys.size, self._ESTIMATE)
        (self._reader or self._new_reader()).read_into(keys, out)
        return out


def pinned(buf, nbytes: int):
    """Pointer argument for a writable buffer (an array('I'), a bytearray or a
    numpy array) that a kernel writes in place, after checking that it holds
    exactly nbytes; None, a NULL pointer, when it is empty. A pass runs
    without the GIL; while the argument lives it holds an export of the
    buffer, so a resize from another thread raises BufferError instead of
    freeing memory the kernel writes."""
    mem = memoryview(buf)
    if mem.nbytes != nbytes:
        raise ValueError(f"a sketch buffer holds {mem.nbytes} bytes, expected {nbytes}")
    return ctypes.byref(ctypes.c_char.from_buffer(mem)) if nbytes else None
