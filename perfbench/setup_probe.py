"""What one CLI invocation does before computing: import, parse, build G.

    python3 perfbench/setup_probe.py <config> [<config> ...]

Imports orliczfrac from ``src/`` next to this directory, parses each config
and builds its growth function. ``run.py`` times whole runs of this script.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orliczfrac import cli  # noqa: E402

for path in sys.argv[1:]:
    cli.parse_config(Path(path).read_text()).growth()
