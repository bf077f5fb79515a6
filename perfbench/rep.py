"""One repetition of a workload, in a process of its own.

Run from the root of a checkout::

    python3 perfbench/rep.py --workload fill --seed 0

It sets the workload up from ``--seed``, runs the measured window, reads a
sample of written keys back, and prints one JSON line: host times, peak
memory, the sim-side result and its digest.  ``run.py`` starts one such
process per repetition, so every repetition starts cold.  Its ``setup_s``
runs from the first line of this script to the start of the window, and
its ``peak_rss_mb`` is that one repetition's peak, whatever the number of
repetitions in the run.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the measured set-up)
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from bisect import bisect_right  # noqa: E402

import spans  # noqa: E402
from calibrate import Calibration  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: written keys read back after every window.
READBACK_KEYS = 256


def digest(material: dict) -> str:
    """SHA-256 of the sim-side result, canonical JSON with full floats."""
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def readback_ids(seed: int, written: int) -> list:
    return random.Random(seed).sample(range(written), min(READBACK_KEYS, written))


class Rep:
    """One repetition: set-up, measured window, read-back."""

    def __init__(self, workload, seed: int, tracer=None, targets=()):
        import suite  # importable only once SRC is on the path

        self.traced = tracer is not None
        # Traced repetitions are not calibrated: a probe would land in
        # whatever span it interrupts.
        probing = not self.traced
        with Calibration(probing) as calibration:
            start = time.perf_counter()
            prepared = workload.setup(seed)
            gc.collect()
            before = suite.window_counts(prepared)
            #: set-up seconds at the reference host speed.
            self.setup_s = calibration.calibrated(time.perf_counter() - start)
        self.timings = prepared.timings
        wrapping = (spans.installed(tracer, targets) if self.traced
                    else contextlib.nullcontext())
        with Calibration(probing) as calibration, wrapping:
            start = time.perf_counter()
            self.outcome = workload.window(prepared)
            self.window_s = time.perf_counter() - start
        #: the window in seconds at the reference host speed.
        self.ref_window_s = calibration.calibrated(self.window_s)
        after = suite.window_counts(prepared, since=before["now"])
        self.delta = {k: after[k] - before[k] for k in before}
        self.digest = digest(self.outcome.material)
        ids = readback_ids(seed, prepared.written)
        self.readback_failed = suite.read_back(
            prepared.env, prepared.lookup, ids, prepared.value_size)
        self.attempted = self.outcome.ops + len(ids)
        self.failed = self.outcome.failed + self.readback_failed

    def summary(self) -> dict:
        """What ``run.py`` needs of this repetition, as plain JSON values."""
        import suite

        samples = self.outcome.samples
        p999 = suite.percentile(samples, 99.9)
        return {
            "digest": self.digest,
            "traced": self.traced,
            "ops": self.outcome.ops,
            "attempted": self.attempted,
            "failed": self.failed,
            "setup_s": self.setup_s,
            "window_s": self.window_s,
            "ref_window_s": self.ref_window_s,
            "sim_kqps": self.outcome.sim_kqps,
            "sim_p50_us": self.outcome.latency_us(50),
            "sim_p99_us": self.outcome.latency_us(99),
            "sim_p999_us": self.outcome.latency_us(99.9),
            "latency_samples": len(samples),
            "beyond_p999": len(samples) - bisect_right(samples, p999),
        }


def main(argv=None) -> int:
    with Calibration() as calibration:
        start = time.perf_counter()
        parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
        parser.add_argument("--workload", required=True)
        parser.add_argument("--seed", type=int, required=True)
        args = parser.parse_args(argv)
        sys.path.insert(0, SRC)
        import suite

        workload = suite.WORKLOADS[args.workload]
        before_rep_s = (start - PROCESS_START
                        + calibration.calibrated(time.perf_counter() - start))
    rep = Rep(workload, args.seed)
    summary = rep.summary()
    summary["setup_s"] = before_rep_s + rep.setup_s
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
