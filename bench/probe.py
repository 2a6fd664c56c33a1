"""Start-up probe for setup_s on grid and prep.

Usage: python3 bench/probe.py [CONFIG]

Imports the program's CLI module, loads and validates the experiment
config when one is given, prints "ready" and exits.  The caller times
from spawning this process to the "ready" line.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import espunct.cli

    if len(sys.argv) == 2:
        espunct.cli.load_config(sys.argv[1])
    print("ready", flush=True)
