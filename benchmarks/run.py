"""marginlab benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload corr1000 --seed 3 --seconds 20 --trace 0

Run from the repository root. The workload's CLI commands are called
in-process through ``marginlab.cli.main`` by one closed-loop client (the next
command starts when the previous one returns), with BLAS pinned to one
thread. Repetitions of the command sequence continue until ``--seconds``
have passed. Every command's outputs are checked; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics: an untraced pass, one pass with every layer function
wrapped by the span recorder in ``tracer.py``, and a loss-head size sweep.

``failed`` counts commands that did not produce a valid result: an
exception, an exit code the CLI does not document for the command, a
``--corrupt`` control that passed, missing or malformed artifacts,
non-finite metrics, artifacts that differ between repetitions of one run,
or TAR / final loss outside the tolerance of the values recorded for the
seed in ``reference.json``. The per-layer ``fail_rate`` additionally counts
every gradient check whose exit code differs from the expected one (0, or
5 for a control), so threshold failures of correct gradients show there.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"    # before numpy is imported anywhere in this process

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_ROOT = os.path.join(ROOT, ".bench_out")
REFERENCE_PATH = os.path.join(BENCH_DIR, "reference.json")
SETUP_SPAWNS = 7

sys.path.insert(0, BENCH_DIR)
from workloads import WORKLOADS, reference_problems, sequence_problems  # noqa: E402

# Fresh process: import the CLI, parse the first command line and its config.
SETUP_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import marginlab.cli as cli
args = cli.build_parser().parse_args(json.loads(sys.argv[2]))
if getattr(args, "config", None):
    cli.load_config(args.config)
print(time.monotonic())
"""


def load_marginlab():
    """Import the CLI from this checkout's src/ (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "marginlab", "cli.py")):
        raise SystemExit(f"benchmark: no marginlab sources under {SRC}")
    sys.path.insert(0, SRC)
    import marginlab.cli

    if not os.path.abspath(marginlab.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported marginlab from {marginlab.cli.__file__}")
    return marginlab.cli


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be queried."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_record():
    import platform

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        try:
            with open(f"{base}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/size") as fh:
                caches[f"L{level}"] = fh.read().strip()
        except OSError:
            break
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": model, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def load_reference():
    """Recorded TAR, final loss and artifact digests per workload and seed."""
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds(first_argv):
    """Median time from spawning a fresh interpreter to the CLI imported and
    the workload's first command line and config parsed."""
    times = []
    for _ in range(SETUP_SPAWNS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, SRC, json.dumps(first_argv)],
            check=True, capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


class Client:
    """Closed-loop client: runs command sequences and checks every result."""

    def __init__(self, cli, workload, seed, config_path, out_root, reference):
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.config_path = config_path
        self.out_root = out_root
        self.reference = reference
        self.attempted = 0
        self.failed = 0            # no valid result (see module docstring)
        self.unexpected = 0        # failed, or exit code other than expected
        self.latencies_ms = []
        self.sequence_s = []
        self.peak_rss_mb = None    # after the first repetition: one fresh invocation
        self.models = {}
        self.gradcheck_errs = []
        self.digests = {}          # command index -> first repetition's digests
        self.artifacts_identical = 0
        self.artifacts_compared = 0

    def run_sequence(self):
        """Run and check one repetition; returns its wall time in seconds."""
        commands = self.workload.commands(self.seed, self.config_path, self.out_root)
        codes, problems = [], []
        total = 0.0
        for index, command in enumerate(commands):
            stdout = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(command.argv)
                error = None
            except Exception:                              # the command crashed
                code, error = None, traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
            total += elapsed
            self.latencies_ms.append(elapsed * 1e3)
            codes.append(code)
            problems.append(self._check(index, command, code, stdout.getvalue(), error))
        for index, problem in sequence_problems(commands, codes):
            problems[index].append(problem)
        for command, code, found in zip(commands, codes, problems):
            self.attempted += 1
            self.failed += bool(found)
            self.unexpected += bool(found) or code != command.expect_exit
            for problem in found:
                print(f"check failed: {' '.join(command.argv)}: {problem}", file=sys.stderr)
        self.sequence_s.append(total)
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return total

    def _check(self, index, command, code, stdout, error):
        if error:
            return [f"exception:\n{error}"]
        if code not in command.allowed_exits:
            return [f"exit code {code}"]
        if code == 0 and command.expect_exit != 0:
            return ["negative control passed"]
        outcome = command.check(command.out_dir, stdout, code)
        problems = outcome.problems + reference_problems(outcome, self.reference)
        self.models.update(outcome.models)
        if outcome.gradcheck_err is not None and command.expect_exit == 0:
            self.gradcheck_errs.append(outcome.gradcheck_err)
        if index not in self.digests:
            self.digests[index] = outcome.digests
            recorded = self.reference.get("digests", {})
            for name, digest in outcome.digests.items():
                if name in recorded:
                    self.artifacts_compared += 1
                    self.artifacts_identical += digest == recorded[name]
        elif outcome.digests != self.digests[index]:
            problems.append("artifacts differ from the first repetition")
        return problems

    def run_for(self, seconds):
        """Repeat the sequence until ``seconds`` have passed (at least once)."""
        start = time.perf_counter()
        while not self.sequence_s or time.perf_counter() - start < seconds:
            self.run_sequence()

    def quality(self):
        import numpy

        tars = [m["tar"] for m in self.models.values()]
        lat = self.latencies_ms
        return {
            "fail_rate": (self.unexpected / self.attempted, "ratio"),
            "tar_far_1e-2": (float(numpy.mean(tars)) if tars else 0.0, "ratio"),
            "gradcheck_max_rel_err": (max(self.gradcheck_errs, default=0.0), "ratio"),
            "check_ms_p50": (float(numpy.percentile(lat, 50)), "ms"),
            "check_ms_p90": (float(numpy.percentile(lat, 90)), "ms"),
            "check_ms.samples": (len(lat), "count"),
            "reports.artifacts_identical": (self.artifacts_identical, "count"),
            "reports.artifacts_compared": (self.artifacts_compared, "count"),
        }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    cli = load_marginlab()
    machine = machine_record()
    if machine["blas_threads"] not in (1, None):
        raise SystemExit(f"benchmark: BLAS runs {machine['blas_threads']} threads, not 1")
    workload = WORKLOADS[args.workload]
    reference = load_reference().get(workload.name, {}).get(str(args.seed), {})

    work_dir = os.path.join(OUT_ROOT, f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        config_path = None
        if workload.config is not None:
            config_path = os.path.join(work_dir, "workload.cfg")
            with open(config_path, "w", encoding="utf-8") as fh:
                fh.write(workload.config)
        client = Client(cli, workload, args.seed, config_path, work_dir, reference)
        if args.trace:
            import tracer

            client.run_for(args.seconds / 2)
            quality = client.quality()
            metrics = tracer.per_layer_metrics(client, statistics.median(client.sequence_s))
            metrics.update(quality)
        else:
            setup = setup_seconds(workload.commands(args.seed, config_path, work_dir)[0].argv)
            client.run_for(args.seconds)
            metrics = {
                "setup_s": (setup, "s"),
                "run_s": (statistics.median(client.sequence_s), "s"),
                "peak_rss_mb": (client.peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(OUT_ROOT)

    print(f"machine {json.dumps(machine)}")
    print(f"workload {workload.name} seed {args.seed}: {len(client.sequence_s)} repetitions, "
          f"{client.attempted} commands, {client.failed} failed, "
          f"{client.unexpected} with an unexpected exit code or check")
    print("  repetition seconds: " + " ".join(f"{t:.3f}" for t in client.sequence_s))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
