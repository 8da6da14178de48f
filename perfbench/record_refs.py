"""Record the canonical forms of the fixed combinatorial outputs.

    python3 perfbench/record_refs.py

Runs each fixed CLI job once and writes ``refs.json`` beside this file.
The committed references were recorded at the seed commit; re-record only
when a change to the outputs is intended.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))



def main():
    refs_path = Path(__file__).with_name("refs.json")
    if not refs_path.exists():
        refs_path.write_text("{}")
    from perfbench import checks
    from perfbench.workloads import COMBINATORICS
    jobs = [("cells 3", "cells", 3), ("cells 3 --poset", "cells_dot", 3),
            ("poset 1 3", "poset", None)]
    jobs += [job for job in COMBINATORICS if "--format" not in job[0]]
    refs = {}
    for cmd, kind, n in jobs:
        out = subprocess.run(
            [sys.executable, "-m", "geomlim.cli", *cmd.split()], check=True,
            capture_output=True, text=True, cwd=ROOT,
            env={"PYTHONPATH": str(ROOT / "src")}).stdout
        refs[cmd] = checks.canon(kind, out, n)
        print(cmd, refs[cmd], flush=True)
    refs_path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
