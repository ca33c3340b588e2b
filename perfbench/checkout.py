"""Locate the checkout and put its ``src`` tree first on the import path.

The benchmark always measures the package source next to it, never an
installed copy, and refuses to run when that source is missing.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "cavitypair"


class MissingSource(RuntimeError):
    pass


def use_source() -> None:
    """Make ``import cavitypair`` load ``ROOT/src/cavitypair``; raise MissingSource if absent."""
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise MissingSource(f"no {PACKAGE} package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for a child interpreter that must import the checkout's package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def git_commit() -> str:
    """Commit of the checkout read from ``.git`` without running git; "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
