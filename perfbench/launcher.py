"""Small process that starts the benchmark's children and times them.

A child's ``ru_maxrss`` starts from the resident high-water mark of the
process that spawned it, so children are spawned from here, a process that
stays small, rather than from ``run.py``, which grows while it checks large
outputs. Reads one JSON request per line on stdin:
``{"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path,
"timeout": seconds}``, runs the child to completion, and answers with one
JSON line ``{"wall_s", "maxrss_kb", "code", "timed_out"}``. Exits at end of
input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    expired = threading.Event()
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=out, stderr=err)

        def expire() -> None:
            expired.set()
            proc.kill()

        timer = threading.Timer(req["timeout"], expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": code, "timed_out": expired.is_set()}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
