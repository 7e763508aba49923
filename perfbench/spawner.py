"""Spawn requests for the runner and report their latency, peak RSS and output.

Started once per run by ``run.py`` and fed one JSON line per request on
stdin: ``{"args": [...], "timeout_s": ...}``. For each it runs the
interpreter with those arguments, times it from spawn to exit, reads its
rusage with ``os.wait4`` and answers with one JSON line on stdout. It exits
when stdin closes.

Linux carries the spawning process's peak RSS into a child's ``ru_maxrss``
when the child execs, so a child can never read below its parent. This
process imports only what it needs and stays near a bare interpreter's
size, below any ``nutcirc`` request; spawned from the runner itself, every
request would read the runner's larger size instead.
"""
import base64
import json
import os
import selectors
import subprocess
import sys
import time


def _drain(proc, deadline: float) -> tuple[bytes, bytes]:
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr])


def spawn(args: list[str], timeout_s: float) -> dict:
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = _drain(proc, start + timeout_s)
    except TimeoutError:
        proc.kill()
        out, err = b"", f"killed after {timeout_s} s".encode()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "latency_s": latency,
        "rss_mb": usage.ru_maxrss / 1024,
        "rc": proc.returncode,
        "stdout": base64.b64encode(out).decode(),
        "stderr": base64.b64encode(err).decode(),
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        print(json.dumps(spawn(request["args"], request["timeout_s"])), flush=True)


if __name__ == "__main__":
    main()
