"""Read and write the recorded streams under ``tests/data``.

Each stream test (slot, learner, artifact) compares a rerun with one JSON
file there, and keeps a ``--write`` entry point that regenerates the file
through :func:`main`. The module name does not match ``test_*.py``, so
pytest does not collect it.
"""

import json
import os

DATA = os.path.join(os.path.dirname(__file__), "data")


def load(name: str) -> dict:
    """The recorded stream ``tests/data/<name>``."""
    with open(os.path.join(DATA, name), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv, doc: str, name: str, record) -> int:
    """A stream's command line: with ``--write``, write ``record()`` to
    ``tests/data/<name>`` and return 0; otherwise print doc and return 2."""
    if argv != ["--write"]:
        print(doc)
        return 2
    out = record()   # in full before the old file is truncated
    path = os.path.join(DATA, name)
    os.makedirs(DATA, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0
