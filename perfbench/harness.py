"""Process plumbing and statistics shared by the workloads: building the
tools, running one CLI request with its own CPU and memory accounting,
talking JSON-RPC to `mixyd`, and summarising latency samples."""

import ctypes
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"   # relative to ROOT; ignored by git
RUN = ".bench_run"       # per-run scratch files; ignored by git
TOOLS = ("mixyc", "mixcheck", "mixyd")


class BenchError(Exception):
    """A failure that must end the run without a result."""


def tool(name):
    return os.path.join(BUILD, "tools", name)


def build():
    """Configures (once) and builds the three tools from the checkout's
    sources, in Release mode. Output goes to a log file, not stdout."""
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        raise BenchError("no program sources at the checkout root")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ".", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", *TOOLS])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                raise BenchError(f"build failed: {' '.join(cmd)} "
                                 f"(see {log_path})")


def fresh_run_dir():
    shutil.rmtree(RUN, ignore_errors=True)
    os.makedirs(RUN)


def write(path, text):
    with open(path, "w") as f:
        f.write(text)


class CliResult:
    def __init__(self, code, stdout, stderr, wall_ms, cpu_ms, rss_kb):
        self.code, self.stdout, self.stderr = code, stdout, stderr
        self.wall_ms, self.cpu_ms, self.rss_kb = wall_ms, cpu_ms, rss_kb


# The tool runs as a grandchild: a shell starts it in the background and
# exits, and this process, a child subreaper, adopts and reaps it. Linux
# folds the pre-exec peak of the forking process into the child's
# ru_maxrss, so a tool forked straight from this Python process would
# report this process's resident size whenever that is the larger.
SPAWN = 'exec "$@" > "$BENCH_OUT" 2> "$BENCH_ERR" < /dev/null &\necho $!'
PR_SET_CHILD_SUBREAPER = 36


def become_subreaper():
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise BenchError("prctl(PR_SET_CHILD_SUBREAPER) failed")


def run_cli(argv, timeout_s):
    """Runs one tool process to completion. CPU time and peak RSS come
    from wait4() on that process alone. A process still running after
    `timeout_s` is killed and reported with code None."""
    out_path = os.path.join(RUN, "stdout.txt")
    err_path = os.path.join(RUN, "stderr.txt")
    env = dict(os.environ, BENCH_OUT=out_path, BENCH_ERR=err_path)
    t0 = time.perf_counter()
    sh = subprocess.run(["/bin/sh", "-c", SPAWN, "sh", *argv], env=env,
                        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
                        check=True)
    pid = int(sh.stdout)
    killer = threading.Timer(timeout_s, os.kill, (pid, signal.SIGKILL))
    killer.start()
    _, status, ru = os.wait4(pid, 0)
    wall_ms = (time.perf_counter() - t0) * 1000
    timed_out = not killer.is_alive()
    killer.cancel()
    with open(out_path, errors="replace") as f:
        out = f.read()
    with open(err_path, errors="replace") as f:
        err = f.read()
    code = None if timed_out else os.waitstatus_to_exitcode(status)
    return CliResult(code, out, err, wall_ms,
                     (ru.ru_utime + ru.ru_stime) * 1000, ru.ru_maxrss)


STATS_TOTAL = re.compile(r"phase breakdown \(inclusive, total (\d+) us\)")
STATS_PHASE = re.compile(r"^\s+([a-z-]+)\s*:\s+(\d+) us", re.M)


def stats_phases(stderr):
    """The `--stats` phase table as ({phase: us}, total us)."""
    m = STATS_TOTAL.search(stderr)
    if not m:
        raise BenchError("no phase breakdown in --stats output")
    return dict((k, int(v)) for k, v in STATS_PHASE.findall(stderr)), \
        int(m.group(1))


class Daemon:
    """One `mixyd` serving a Unix socket inside the run directory."""

    def __init__(self, extra_args=()):
        self.sock_path = os.path.join(RUN, "mixyd.sock")
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        with open(os.path.join(RUN, "mixyd.stderr"), "ab") as err:
            self.proc = subprocess.Popen(
                [tool("mixyd"), f"--listen={self.sock_path}", *extra_args],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=err)
        deadline = time.monotonic() + 30
        while not os.path.exists(self.sock_path):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                raise BenchError("mixyd did not start listening")
            time.sleep(0.002)

    def connect(self, timeout_s):
        return RpcClient(self.sock_path, timeout_s)

    def cpu_ms(self):
        """User + system CPU of the daemon so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks * 1000 / os.sysconf("SC_CLK_TCK")

    def peak_rss_kb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        return 0

    def shutdown(self):
        try:
            with self.connect(30) as c:
                c.call("shutdown", {})
            self.proc.wait(timeout=60)
        except (OSError, ValueError, subprocess.TimeoutExpired):
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class RpcClient:
    """A closed-loop JSON-RPC client: one request in flight at a time, and
    no streamed notifications, so the next line is always the reply."""

    def __init__(self, path, timeout_s):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout_s)
        self.sock.connect(path)
        self.file = self.sock.makefile("rwb")
        self.next_id = 0

    def call(self, method, params, raw=False):
        """Returns (reply, latency ms): the reply object, or with `raw` its
        undecoded line. Raises OSError on a timeout or a closed
        connection, ValueError on a malformed reply."""
        self.next_id += 1
        line = json.dumps({"jsonrpc": "2.0", "id": self.next_id,
                           "method": method, "params": params})
        t0 = time.perf_counter()
        self.file.write(line.encode() + b"\n")
        self.file.flush()
        reply = self.file.readline()
        ms = (time.perf_counter() - t0) * 1000
        if not reply:
            raise OSError("mixyd closed the connection")
        if raw:
            return reply, ms
        msg = json.loads(reply)
        if msg.get("id") != self.next_id:
            raise ValueError(f"reply to request {msg.get('id')}, "
                             f"expected {self.next_id}")
        return msg, ms

    def close(self):
        self.file.close()
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    """Nearest-rank percentile and the number of samples above it."""
    s = sorted(xs)
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1], len(s) - int(rank)


def log(msg):
    print(msg, file=sys.stderr, flush=True)
