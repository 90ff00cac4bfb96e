"""The 6^3 box verify with ``--workers 2`` under the spawn start method.

Usage: ``python scripts/spawn_box_verify.py SERIAL.json``, where SERIAL.json
is the certificate of the serial run::

    gridlab ramsey verify --kind subgrid --t 3 --r 2 --m 1 --l 2 --n 6 --out SERIAL.json

The search takes 4,858 nodes, past the 4,096-node handoff, so its frontier
goes to a pool. Spawned workers inherit no memory from the parent: the
engine and its ``Symmetry`` reach them by pickle alone. The script exits 0
when the verdict is "false" (exit code 1) and the witness is the serial
one, and names the difference otherwise.
"""

import json
import multiprocessing
import sys

from gridlab import cli
from gridlab.fileio import canonical_json

ARGV = ["--workers", "2", "ramsey", "verify", "--kind", "subgrid",
        "--t", "3", "--r", "2", "--m", "1", "--l", "2", "--n", "6"]


def main(serial_path: str) -> int:
    result = cli.run(ARGV)
    if result.exit_code != 1:
        print(f"exit code {result.exit_code}, not 1: {result.output}", file=sys.stderr)
        return 1
    with open(serial_path, encoding="utf-8") as f:
        serial = json.load(f)["witness"]
    if json.loads(canonical_json(result.certificate))["witness"] != serial:
        print(f"the spawned pool's witness is not the one in {serial_path}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    sys.exit(main(*sys.argv[1:]))
