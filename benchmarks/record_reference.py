"""Record each seed's TAR, final loss and artifact digests in reference.json.

    python3 benchmarks/record_reference.py --workload corr1000 --seeds 0-31

Run from the repository root on the code the references should describe.
Later benchmark runs at a recorded seed must reproduce TAR and final loss
within the tolerances in workloads.py; their digest matches are reported
as ``reports.artifacts_identical``. Entries for other seeds are kept.
"""

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["corr1000", "crowded_ablation", "default_variants"])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    parser.add_argument("--out", default=run.REFERENCE_PATH)
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    cli = run.load_marginlab()
    workload = run.WORKLOADS[args.workload]
    data = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            data = json.load(fh)
    for seed in seeds:
        work_dir = os.path.join(run.OUT_ROOT, f"record-{workload.name}-{seed}-{os.getpid()}")
        os.makedirs(work_dir)
        try:
            config_path = os.path.join(work_dir, "workload.cfg")
            with open(config_path, "w", encoding="utf-8") as fh:
                fh.write(workload.config)
            client = run.Client(cli, workload, seed, config_path, work_dir, {})
            client.run_sequence()
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if client.failed:
            raise SystemExit(f"{workload.name} seed {seed}: a command failed")
        digests = {name: d for found in client.digests.values() for name, d in found.items()}
        data.setdefault(workload.name, {})[str(seed)] = {
            "models": client.models, "digests": digests}
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{workload.name} seed {seed}: recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
