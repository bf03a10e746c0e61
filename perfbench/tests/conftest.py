"""Put the checkout's ``src`` and root on the path for the benchmark's tests.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
