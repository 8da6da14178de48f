"""Job launcher, kept small on purpose.

On Linux a child's peak RSS (``ru_maxrss``) starts from the high-water
mark of the process that spawned it, so CLI jobs spawned by the benchmark
itself, which holds parsed outputs and numpy, would report the
benchmark's memory.  The benchmark therefore starts this script once and
sends it one request per line::

    {"argv": [...], "stdout": PATH, "stderr": PATH, "timeout": SECONDS}

For each request it spawns the job with stdin from /dev/null, waits for
it, and answers one line: ``{"seconds", "maxrss_kb", "code"}``.  A job
still running after ``timeout`` seconds is killed.  Only one job runs at
a time.
"""

import json
import os
import signal
import sys
import time

FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def main():
    pid = None

    def kill(signum, frame):
        if pid is not None:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    signal.signal(signal.SIGALRM, kill)
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], FLAGS, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], FLAGS, 0o644),
        ]
        t0 = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                             file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, max(0.001, req["timeout"]))
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        pid = None
        sys.stdout.write(json.dumps({
            "seconds": seconds, "maxrss_kb": usage.ru_maxrss,
            "code": os.waitstatus_to_exitcode(status)}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
