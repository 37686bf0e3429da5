"""Run one command and write its exit code, wall seconds and peak RSS as JSON.

    python3 pipebench/launch.py RESULT.json COMMAND [ARGS...]

The kernel counts in a process's peak RSS the memory of whatever process
called exec, so a stage started straight from the benchmark, which holds its
inputs and references, would report the benchmark's size. This launcher is
small, so the peak RSS it reports is the stage's own.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    result_path, cmd = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawnp(cmd[0], cmd, os.environ)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"returncode": os.waitstatus_to_exitcode(status), "seconds": seconds,
                   "peak_rss_mb": usage.ru_maxrss / 1024.0}, fh)
