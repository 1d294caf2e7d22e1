"""Set-up probe: a fresh process imports the package and resolves specs.

Usage: ``python3 perfbench/setup_probe.py MANIFEST``.  Prints ``ready``
once ``import emergence`` and schema validation of every spec in the
manifest are done; the parent times the process from start to that line.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from emergence.cli import load_config  # noqa: E402

for entry in json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")):
    load_config(entry["config"])
print("ready", flush=True)
