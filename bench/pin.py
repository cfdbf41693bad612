"""Re-pin expected.json from the program as it is now.

    python3 bench/pin.py

Pins the answer fields of every parameter cell a seed can draw, and the
sha256 of one seed-0 pass of each workload.  Run it only when answers change
on purpose: the pins are what the benchmark checks answers against.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import run
import streams


def main() -> int:
    os.chdir(run.ROOT)
    cli = run.import_epsap()["cli"]
    workdir = run.WORK / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    cells = {}
    for key, argvs in streams.pinned_cells(workdir):
        for argv in argvs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.main(list(argv))
        answer = json.loads(out.getvalue())
        cells[key] = {"rc": rc, **{f: answer[f] for f in streams.PINNED_FIELDS
                                   if f in answer}}
        print(key, cells[key], file=sys.stderr)
    pins = {"cells": cells, "stdout_sha256_seed0": {}}
    for workload in streams.WORKLOADS:
        modules, units = run.set_up(workload, 0, pins)[:2]
        done = run.run_pass(modules["cli"], units)
        for argv_text, reason in done.failures:
            print(f"{workload}: {argv_text}: {reason}", file=sys.stderr)
        pins["stdout_sha256_seed0"][workload] = done.stdout.hexdigest()
    with open(streams.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
