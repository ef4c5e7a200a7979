"""Runs a job inside the worker process.

A job is a list of operations, run once in order.  An operation is a
library call (``{"fn", "args", "kwargs"}``, resolved on the ``kunits``
package) or a command line for ``kunits.cli.main`` (``{"argv", "out"}``,
its stdout written to the file ``out`` in the job's work directory).  Each has a
``deadline`` in seconds of wall time, enforced by SIGALRM in the worker's
main thread, so a hang becomes a failed operation instead of a stalled
run; a missed deadline counts as the deadline itself.  With ``trace``
set, spans are installed first (see spans.py).

An operation's time is the CPU time the worker spends in it, in the
reference seconds of speed.py.  The program is single-threaded and never
waits, so on an idle machine of the reference speed this is its wall
time; on a shared virtual machine the wall time also holds the time the
hypervisor gives the CPU to other guests (steal time), and the CPU time
the speed the neighbours leave, both of which vary from minute to minute
and say nothing about the program.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import os
import resource
import signal
from fractions import Fraction


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM; a BaseException so that no handler in the library catches it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def _plain(value):
    """A JSON-ready copy of a library result."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, Fraction):
        return [value.numerator, value.denominator]
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    raise TypeError(f"no JSON form for {type(value).__name__}")


class Runner:
    def __init__(self, kunits, workdir: str, speed):
        self.kunits = kunits
        self.workdir = workdir
        self.speed = speed
        signal.signal(signal.SIGALRM, _on_alarm)

    def _call(self, op):
        """The timed call and the function that describes its result."""
        if "fn" in op:
            fn = getattr(self.kunits, op["fn"])
            args = op.get("args", [])
            kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in op.get("kwargs", {}).items()}
            return lambda: fn(*args, **kwargs), _plain
        main = importlib.import_module("kunits.cli").main
        path = os.path.join(self.workdir, op["out"])
        stderr = io.StringIO()

        def command():
            with open(path, "w", encoding="utf-8") as out:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stderr):
                    return main(op["argv"])

        def describe(rc):
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            return {
                "rc": rc,
                "bytes": os.path.getsize(path),
                "sha256": digest.hexdigest(),
                "stderr": stderr.getvalue()[-2000:],
            }

        return command, describe

    def run(self, op) -> list:
        """[status, seconds, value]; status is ok, capability, deadline or error."""
        call, describe = self._call(op)
        try:
            status, seconds, value = self._timed(call, op["deadline"])
        except DeadlineExceeded:  # the alarm fired just after the call returned
            status = "deadline"
        if status == "deadline":
            return ["deadline", op["deadline"], None]
        return [status, seconds, describe(value) if status == "ok" else value]

    def _timed(self, call, deadline: float):
        signal.setitimer(signal.ITIMER_REAL, deadline)
        start = self.speed.mark()
        try:
            value = call()
            return "ok", self.speed.since(start), value
        except DeadlineExceeded:
            return "deadline", None, None
        except self.kunits.CapabilityError as exc:
            return "capability", self.speed.since(start), str(exc)
        except Exception as exc:  # reported to run.py, which fails the run
            return "error", self.speed.since(start), f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)


def _peak_rss_mb() -> float:
    """Peak resident set of this process since it started (VmHWM).

    ru_maxrss is not used: after fork and exec it also holds the peak of
    the parent's memory, so it would grow with the results run.py keeps.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_job(kunits, job: dict, speed) -> dict:
    """Run the job's operations once, with spans installed when it asks for them."""
    runner = Runner(kunits, job["workdir"], speed)
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer(DeadlineExceeded)
        tracer.install()
    out = {"results": [runner.run(op) for op in job["ops"]]}
    if tracer is not None:
        out["spans"] = tracer.report()
    out["peak_rss_mb"] = _peak_rss_mb()
    return out
