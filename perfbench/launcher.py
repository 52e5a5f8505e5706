"""Starts, times and reaps the benchmark's child processes from a small process.

Linux counts the pages a child shares with its parent when it is forked in
the child's ru_maxrss, so a child started from the benchmark process, which
holds the checker's distance matrices, could report the benchmark's memory
as its own.  Children are started from this process instead, which imports
only the standard library and stays small.

Protocol: one JSON request per stdin line, {"argv", "cwd", "env", "stderr",
"timeout"}; one JSON reply per stdout line, {"wall", "exit_code", "cpu",
"maxrss_kb"}.  The process exits at the end of stdin.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stderr"], "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "exit_code": proc.returncode, "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss}


if __name__ == "__main__":
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
