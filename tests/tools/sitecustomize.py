"""Reach probe: with this directory on PYTHONPATH, every Python process
records the functions it calls and, at exit, writes the ``src/repro`` ones
to ``.reach/<pid>.txt`` at the repository root.  ``reach.py`` reads them."""
import atexit
import os
import sys
import threading
from pathlib import Path

_OUT = Path(__file__).resolve().parents[2] / ".reach"
_codes = set()


def _profile(frame, event, arg):
    if event == "call":
        _codes.add(frame.f_code)


def _dump():
    sys.setprofile(None)
    threading.setprofile(None)
    rows = sorted(f"{c.co_filename}\t{c.co_firstlineno}\t{c.co_qualname}\n"
                  for c in _codes.copy() if f"{os.sep}repro{os.sep}" in c.co_filename)
    _OUT.mkdir(exist_ok=True)
    with open(_OUT / f"{os.getpid()}.txt", "a") as out:
        out.writelines(rows)


sys.setprofile(_profile)
threading.setprofile(_profile)
atexit.register(_dump)
