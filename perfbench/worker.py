"""Entry point of one fresh worker process.

    python3 perfbench/worker.py probe   time `import kunits` + the first factorize(2)
    python3 perfbench/worker.py run     read a job (JSON) on stdin, run it (runner.py)

The worker prints one JSON object on stdout.  Nothing is imported before
the set-up clock starts except what the interpreter has already loaded
and speed.py, so the probe times what a user of the library pays.  Times
are in the reference seconds of speed.py.
"""

import os
import sys

from speed import SpeedProbe

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def import_kunits(speed: SpeedProbe):
    """Import kunits from <checkout>/src; returns (module, set-up seconds)."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = speed.mark()
    import kunits

    kunits.factorize(2)  # fills the small-prime table
    setup_s = speed.since(start)
    if not os.path.abspath(kunits.__file__).startswith(src + os.sep):
        raise SystemExit(f"kunits was imported from {kunits.__file__}, not from {src}")
    return kunits, setup_s


def main():
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode not in ("probe", "run"):
        raise SystemExit(__doc__)
    speed = SpeedProbe()
    speed.start()
    kunits, setup_s = import_kunits(speed)
    import json

    sys.set_int_max_str_digits(0)  # n_max of a highly composite k has thousands of digits

    if mode == "probe":
        result = {
            "setup_s": setup_s,
            "python": sys.version.split()[0],
            "numpy": getattr(sys.modules.get("numpy"), "__version__", "absent"),
        }
    else:
        from runner import run_job

        result = run_job(kunits, json.load(sys.stdin), speed)
        result["setup_s"] = setup_s
    speed.stop()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
