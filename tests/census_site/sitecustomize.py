"""The census's profile hook (``tests/census.py``).

``tests/census.py`` puts this directory first on ``PYTHONPATH``, so every
interpreter a census command starts imports this module at start-up.
With ``CENSUS_OUT`` and ``CENSUS_SRC`` set, it records each code object
entered whose file lies under ``CENSUS_SRC``, and at exit writes one
``file<TAB>first line<TAB>qualified name`` line per code object to a
file of its own in ``CENSUS_OUT``.  Without them it does nothing.

A process that leaves through ``os._exit`` (a forked pool worker) or
``os.execve`` writes nothing.
"""

import atexit
import os
import sys
import threading


def _install(out: str, root: str) -> None:
    seen = set()
    add = seen.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    def dump():
        sys.setprofile(None)
        threading.setprofile(None)
        lines = [
            f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_qualname}\n"
            for code in seen
            if code.co_filename.startswith(root)
        ]
        path = os.path.join(out, f"{os.getpid()}-{id(seen):x}.tsv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)

    atexit.register(dump)
    threading.setprofile(hook)
    sys.setprofile(hook)


if os.environ.get("CENSUS_OUT") and os.environ.get("CENSUS_SRC"):
    _install(os.environ["CENSUS_OUT"], os.environ["CENSUS_SRC"])
