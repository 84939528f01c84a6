"""Starts the CLI jobs from a small process of its own.

On Linux a child's ru_maxrss includes the resident size of the process it
was spawned from, taken when it calls exec.  Spawned straight from the
benchmark, which holds inputs, reference answers and traced runs, every job
would inherit that high-water mark.  This helper imports nearly nothing, so
its own footprint stays below that of any boardpile job, and the peak RSS it
reports is the job's own.

Protocol: one JSON request per stdin line, {"argv", "out", "err", "timeout"};
one JSON reply per stdout line, {"wall_s", "maxrss_kb", "exit_code"}.
"""

import json
import os
import signal
import sys
import time


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def main() -> None:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, request["out"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["err"], flags, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(request["argv"][0], request["argv"], os.environ,
                             file_actions=actions)
        signal.signal(signal.SIGALRM, lambda *_: _kill(pid))
        signal.alarm(request["timeout"])
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        wall = time.perf_counter() - start
        reply = {
            "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss,
            "exit_code": os.waitstatus_to_exitcode(status),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
