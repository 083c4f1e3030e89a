"""Digests of every artifact the benchmark's commands write, for byte-identity checks.

    python3 tools/artifact_digests.py > digests.txt

Run from the repository root; it imports ``marginlab`` from this checkout's
``src/``. BLAS is pinned to one thread before numpy loads. The commands of
the four workloads in ``benchmarks/workloads.py`` run in process at seed 0,
then ``analyze`` (default m0 and ``--m0 0``) on the corr1000 checkpoint and
``dimstudy --dims 8,12`` on the crowded config. Each output line is
``sha256  name``: every file a command writes (``*summary.json`` without
``elapsed_seconds``), its stdout with the output root masked, its stderr and
its exit code. Two checkouts wrote the same artifacts when ``diff`` of their
outputs is empty.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"    # before numpy is imported anywhere in this process

import contextlib
import hashlib
import io
import json
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks")]

from marginlab import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 0
MASK = "<out>"
PATH_FLAGS = ("--config", "--out", "--checkpoint")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path, out_root):
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith("summary.json"):
        payload = json.loads(data)
        payload.pop("elapsed_seconds", None)
        data = json.dumps(payload, indent=2).replace(out_root, MASK).encode()
    return _sha256(data)


def _short(argv):
    """``argv`` without the options whose values are paths."""
    kept = [arg for i, arg in enumerate(argv)
            if arg not in PATH_FLAGS and (i == 0 or argv[i - 1] not in PATH_FLAGS)]
    return " ".join(kept)


def run(group, argv, out_root):
    """Run one CLI command; yield the ``sha256  name`` lines of its stdout,
    stderr, exit code and written files."""
    name = f"{group}: {_short(argv)} >"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    yield f"{_sha256(stdout.getvalue().replace(out_root, MASK).encode())}  {name} stdout"
    yield f"{_sha256(stderr.getvalue().replace(out_root, MASK).encode())}  {name} stderr"
    yield f"{_sha256(str(code).encode())}  {name} exit code"
    if "--out" in argv:
        out_dir = argv[argv.index("--out") + 1]
        for file_name in sorted(os.listdir(out_dir)):
            yield f"{_file_digest(os.path.join(out_dir, file_name), out_root)}  {name} {file_name}"


def commands(out_root):
    """(group, argv) of every command, in run order."""
    paths = {}
    for workload in WORKLOADS.values():
        if workload.config is not None:
            paths[workload.name] = os.path.join(out_root, f"{workload.name}.cfg")
            with open(paths[workload.name], "w", encoding="utf-8") as fh:
                fh.write(workload.config)
        work_dir = os.path.join(out_root, workload.name)
        for command in workload.commands(SEED, paths.get(workload.name), work_dir):
            yield workload.name, command.argv
    checkpoint = os.path.join(out_root, "corr1000", "train", "checkpoint.txt")
    yield "corr1000", ["analyze", "--checkpoint", checkpoint,
                       "--out", os.path.join(out_root, "analyze")]
    yield "corr1000", ["analyze", "--checkpoint", checkpoint, "--m0", "0",
                       "--out", os.path.join(out_root, "analyze_m0")]
    yield "crowded_ablation", ["dimstudy", "--config", paths["crowded_ablation"],
                               "--dims", "8,12", "--seed", str(SEED),
                               "--out", os.path.join(out_root, "dimstudy")]


def main():
    with tempfile.TemporaryDirectory(prefix="marginlab-digests-") as out_root:
        for group, argv in commands(out_root):
            for line in run(group, argv, out_root):
                print(line, flush=True)


if __name__ == "__main__":
    main()
