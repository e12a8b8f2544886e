"""The native insert passes and reads: one C source, `kernels.c`, beside this file.

The source is compiled on first import, against this interpreter's headers,
into one extension module in `_native/` beside this file, loaded once. It
holds `Kernel`, the one type of every native call, and `mix64`. `NATIVE` is
the one switch for all five sketches: that module, or None when it cannot
be built or loaded. Then every sketch's `insert_trace` loops its Python
insert rule, and every read is its Python query rule: the references both
paths must match.

`Sketch` is the base class of all five sketches. On its first native call
of any kind, a sketch builds one `Kernel` over its buffers and scalar
parameters, which pins the buffers for the sketch's life. `kernel.insert`
runs the sketch's pass without the GIL (`elastic_pass` for both Elastic
variants, `sketch_heap_pass` for CMHeap and CountHeap, `spacesaving_pass`
for SpaceSaving); a read, a `query` or a `report`, is a call of the Kernel,
C-API code that holds the GIL, which keeps its one Count-sketch scratch
safe across threads. A sketch
caches its Kernel in `_kernel`, which pickling drops, so it pickles alike
on both paths; it reads `native.NATIVE` at each call.
"""

from __future__ import annotations

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

from .core import check_key, check_threshold, key_array

_SOURCE = Path(__file__).parent / "kernels.c"
_CACHE = _SOURCE.parent / "_native"
_CC = ("cc", "-std=c99", "-O2", "-shared", "-fPIC")
# this interpreter's C headers, and the suffix that names its ABI
_INCLUDE = sysconfig.get_paths()["include"]
_EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")
_U64_MAX = 2**64 - 1  # the Kernel's threshold: no estimate reaches it


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
            raise OSError(f"Python.h is missing from {_INCLUDE}, so no Kernel can be built")
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
    """The extension module of `kernels.c`, or None with one warning when it
    cannot be built or loaded."""
    try:
        path = str(_build(cache))
        loader = ExtensionFileLoader(f"{__package__}.{_SOURCE.stem}", path)
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_file_location(loader.name, path, loader=loader))
        loader.exec_module(module)
    except (OSError, ImportError, subprocess.CalledProcessError) as exc:
        detail = getattr(exc, "stderr", None) or b""
        warnings.warn(f"native kernels unavailable, every insert_trace loops insert() "
                      f"and every read runs in Python: {exc} "
                      f"{detail.decode(errors='replace')}".rstrip(),
                      RuntimeWarning, stacklevel=2)
        return None
    return module


NATIVE = load_kernels()


class Sketch:
    """Base class of every sketch: `insert_trace`, `query`, `query_array`
    and `report` call the sketch's native `Kernel`, or its Python rule when
    `NATIVE` is None. A sketch states `_kernel_args()`, its rule, buffers
    and parameters (see kernels.c); `_insert(f)` and `_query(f)`, its Python
    rules for a checked key, and `_report(t)`, for a checked threshold;
    `_pass(kernel, keys)`, which calls `kernel.insert` with the current size
    and takes in the result; and `size`, the heap's or table's slots in use,
    which `report` passes (0 for an Elastic sketch). The Kernel, built on
    the first native call, is cached in `_kernel`, which pickling drops, so
    a sketch pickles alike before and after. `_ESTIMATE` is `query_array`'s
    dtype."""

    _kernel = None
    _ESTIMATE = np.uint32
    size = 0

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_kernel"}

    def _new_kernel(self):
        """The Kernel, cached in `_kernel`: from here on the sketch's buffers
        cannot be resized."""
        self._kernel = NATIVE.Kernel(check_key, *self._kernel_args())
        return self._kernel

    def insert(self, f: int):
        """Insert one packet by the Python rule."""
        return self._insert(check_key(f))

    def insert_trace(self, keys) -> None:
        """Bulk insert pass, equivalent to insert() per key: one call of the
        sketch's Kernel, or the insert() loop when the kernels are not built."""
        keys = np.ascontiguousarray(key_array(keys))
        if NATIVE is None:
            insert = self._insert
            for f in keys.tolist():
                insert(f)
        else:
            self._pass(self._kernel or self._new_kernel(), keys)

    def query(self, f: int) -> int:
        """Estimated size of flow f: one call of the sketch's Kernel, or the
        Python rule when the kernels are not built."""
        if NATIVE is not None:
            return (self._kernel or self._new_kernel())(f)
        return self._query(check_key(f))

    def query_array(self, keys) -> np.ndarray:
        """query() of each key, which must be a flow key (as `key_array`
        checks a trace): one batch call of the Kernel, or the Python rule per
        key when the kernels are not built."""
        keys = np.ascontiguousarray(key_array(keys))
        if NATIVE is None:
            return np.fromiter(map(self._query, keys.tolist()), self._ESTIMATE, keys.size)
        out = np.empty(keys.size, self._ESTIMATE)
        (self._kernel or self._new_kernel()).read_into(keys, out)
        return out

    def report(self, threshold: int) -> list[tuple[int, int]]:
        """(flow, estimate) pairs with estimate >= threshold, an integer of
        at least 1: one call of the sketch's Kernel, or the Python rule when
        the kernels are not built."""
        check_threshold(threshold)
        if NATIVE is None:
            return self._report(threshold)
        return (self._kernel or self._new_kernel()).report(min(int(threshold), _U64_MAX),
                                                            self.size)
