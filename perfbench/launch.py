"""Spawns and times benchmark calls on behalf of run.py.

The peak RSS that `wait4` reports for a child is at least the peak of the
address space the child was forked from, because exec folds the old
address space's high-water mark into the child's. run.py holds numpy,
scipy and the oracles, about as large as one lassodist call, so children
spawned from it would report run.py's size. This helper imports only the
standard library and spawns every timed call, so `ru_maxrss` is the call's own.

Protocol: one JSON request per line on stdin,
{"argv": [...], "out": path, "err": path, "budget_s": s}, answered by one
JSON line {"wall_s", "max_rss_kb", "returncode", "timed_out"}.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req):
    with open(req["out"], "wb") as out, open(req["err"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, stdin=subprocess.DEVNULL)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(req["budget_s"], kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "max_rss_kb": usage.ru_maxrss,
            "returncode": proc.returncode, "timed_out": killed.is_set()}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
