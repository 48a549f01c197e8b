"""Runs the benchmark's subprocesses and reports each child's own peak RSS.

On Linux a child's ru_maxrss starts from the resident high-water mark of
the process that spawned it, since exec records the old address space's
peak.  The benchmark process holds 100k-leaf trees, so a child it spawned
itself would report at least the benchmark's own peak.  This process
stays small and does the spawning instead, one child at a time.

Protocol: one JSON request per line on stdin,
{"argv": [...], "env": {...}, "cwd": "...", "timeout": seconds}, and one
JSON answer per line on stdout,
{"code": int, "out": str, "wall_s": float, "maxrss_kb": int}.
A child that outlives its timeout is killed and answered with code None.
"""

import json
import os
import select
import subprocess
import sys
import time


def run(req):
    t0 = time.perf_counter()
    proc = subprocess.Popen(req["argv"], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, env=req["env"],
                            cwd=req["cwd"])
    chunks = []
    timed_out = False
    try:
        fd = proc.stdout.fileno()
        deadline = time.monotonic() + req["timeout"]
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                proc.kill()
                timed_out = True
                break
            data = os.read(fd, 1 << 16)
            if not data:
                break
            chunks.append(data)
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    wall = time.perf_counter() - t0
    return {"code": None if timed_out else proc.returncode,
            "out": b"".join(chunks).decode(errors="replace"),
            "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
