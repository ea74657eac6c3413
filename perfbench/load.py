"""Import the checkout's own mergespace and load a workload's input files.

Run as a script, this is the set-up probe: a fresh interpreter that imports
mergespace, parses and validates every input file in a directory, and exits.

    python3 perfbench/load.py DIRECTORY
"""

from __future__ import annotations

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_mergespace():
    """Put the checkout's src/ first on the path; refuse any other mergespace."""
    sys.path.insert(0, str(SRC))
    try:
        import mergespace
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import mergespace from {SRC}: {exc}")
    where = Path(mergespace.__file__).resolve()
    if SRC not in where.parents:
        raise SystemExit(f"perfbench: mergespace resolves to {where}, not under {SRC}")
    return mergespace


def load_dir(directory) -> dict:
    """File name -> parsed object: matrix text for .txt, tree JSON otherwise."""
    from mergespace import parse_matrix, parse_tree

    out = {}
    for path in sorted(Path(directory).iterdir()):
        text = path.read_text()
        out[path.name] = parse_matrix(text) if path.suffix == ".txt" else parse_tree(text)
    return out


if __name__ == "__main__":
    import_mergespace()
    load_dir(sys.argv[1])
