"""The process entry of ``python -m accessopt`` and of the ``accessopt`` script."""

from __future__ import annotations

import gc
import os
import sys
from typing import NoReturn

from .cli import main


def run() -> NoReturn:
    """``main``, then exit with its code.

    Before exiting it freezes the collector, so the interpreter's teardown
    no longer walks every object for cycles: the operating system reclaims
    the heap.  No output waits on that walk, as every file is closed before
    ``main`` returns.  If stdout's reader has gone, stdout is pointed at
    ``os.devnull``, where the interpreter's own flush at exit cannot fail.
    A ``SystemExit`` that ``main`` raises, as argparse's ``--help`` and
    usage errors do, leaves the same way with its code.
    """
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
