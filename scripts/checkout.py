"""The checkout a script reads: its one optional argument ROOT, or this
repository."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path


def checkout_root(usage: str) -> Path:
    """ROOT, with ROOT/src first on the import path. Exits 2 with a one-line
    message unless ROOT holds ``src/dptisim`` and ``scenarios/`` and
    ``dptisim`` would be imported from ROOT/src. Imports nothing."""
    args = sys.argv[1:]
    root = Path(args[0] if args else Path(__file__).resolve().parent.parent).resolve()
    src = root / "src"
    if len(args) > 1 or not (src / "dptisim" / "__init__.py").is_file() or not (root / "scenarios").is_dir():
        print(f"usage: {usage}: ROOT ({root}) must hold src/dptisim and scenarios/", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    spec = importlib.util.find_spec("dptisim")
    origin = Path(spec.origin).resolve() if spec is not None and spec.origin else None
    if origin is None or src not in origin.parents:
        print(f"dptisim would be imported from {origin}, outside {src}", file=sys.stderr)
        sys.exit(2)
    return root
