"""Run commands one at a time and report wall time and peak RSS of each.

Reads one JSON request per line on stdin:
    {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
and answers each with one JSON line on stdout:
    {"rc": exit code, negative for a signal, "wall_s": seconds, "maxrss_kb": kB}

It is a separate small process because Linux charges the resident size of
the spawning process to a child's peak RSS until the child calls exec; the
benchmark process (run.py) grows while it parses multi-megabyte outputs, so it
must not spawn the measured commands directly.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(req["timeout"], os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
