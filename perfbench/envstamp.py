"""Environment stamp attached to every benchmark result.

The git revision and dirty flag are read from the `.git` directory directly,
so the stamp starts no `git` process. Outside a git checkout both are None.
"""

from __future__ import annotations

import hashlib
import os
import platform
import struct
from pathlib import Path

import numpy as np


def _git_rev(git: Path) -> str | None:
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _git_dirty(root: Path, git: Path) -> bool | None:
    """True when some tracked file's content differs from its index entry.

    Staged-but-uncommitted changes and untracked files are not checked.
    Returns None for index formats other than 2 and 3.
    """
    data = (git / "index").read_bytes()
    if data[:4] != b"DIRC":
        return None
    version, count = struct.unpack(">II", data[4:12])
    if version not in (2, 3):
        return None
    pos = 12
    for _ in range(count):
        size = struct.unpack(">I", data[pos + 36:pos + 40])[0]
        sha = data[pos + 40:pos + 60].hex()
        flags = struct.unpack(">H", data[pos + 60:pos + 62])[0]
        name_at = pos + 62 + (2 if flags & 0x4000 else 0)
        name_end = data.index(b"\0", name_at)
        # entries are NUL-padded to a multiple of 8 bytes
        pos += (name_end - pos + 8) // 8 * 8
        path = root / data[name_at:name_end].decode()
        if not path.is_file():
            return True
        body = path.read_bytes()
        if len(body) != size or hashlib.sha1(b"blob %d\0" % len(body) + body).hexdigest() != sha:
            return True
    return False


def stamp(root: Path) -> dict:
    """Git rev, dirty flag, Python/numpy versions, core count, 1-min load."""
    git = root / ".git"
    in_git = (git / "HEAD").is_file() and (git / "index").is_file()
    return {
        "git_rev": _git_rev(git) if in_git else None,
        "git_dirty": _git_dirty(root, git) if in_git else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }
