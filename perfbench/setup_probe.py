"""Time one set-up in a fresh interpreter: import, load_config, build_backend.

Run by ``run.py`` as ``python3 perfbench/setup_probe.py CONFIG [SEED]``; prints
the elapsed seconds.  Interpreter start-up itself is not included.
"""

import sys
import time
from pathlib import Path

started = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import fbsdegames  # noqa: E402
from fbsdegames.cli import build_backend, load_config  # noqa: E402

cfg = load_config(sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else None)
build_backend(cfg)
elapsed = time.perf_counter() - started
if not Path(fbsdegames.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"imported fbsdegames from {fbsdegames.__file__}, not from this checkout")
print(repr(elapsed))
