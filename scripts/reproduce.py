#!/usr/bin/env python3
"""Acceptance criteria 07-09's numbers on the desk rig, from one build.

Builds the desk rig (``artbank.desk``) once. Prints each encoder's per-seed
iterations to criterion 07's loss threshold and writes them as CSV, then the
mean SSIM and Gram style scores of the stylized contents (criteria 08 and
09). At the defaults these are the numbers the criteria check.
"""

import argparse
import os
import time

# One OpenBLAS thread per process, read when numpy loads, so the convergence
# part gets one worker per core (``metrics.job_workers``); the reports are
# the same bytes either way. An OPENBLAS_NUM_THREADS already set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from artbank import desk  # noqa: E402
from artbank.metrics import (format_convergence_table, job_summary,  # noqa: E402
                             write_convergence_csv)


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="convergence.csv")
    ap.add_argument("--seeds", type=int, default=desk.BENCH_SEEDS)
    ap.add_argument("--max-iters", type=int, default=desk.BENCH_MAX_ITERS)
    ap.add_argument("--n-content", type=int, default=desk.N_CONTENT)
    ap.add_argument("--entry-steps", type=int, default=desk.ENTRY_STEPS)
    ap.add_argument("--pretrain-steps", type=int, default=desk.PRETRAIN_STEPS)
    ap.add_argument("--seed", type=int, default=desk.ROOT_SEED)
    args = ap.parse_args(argv)

    rig = desk.build(args.seed, args.pretrain_steps, args.entry_steps)
    variants = ["ssam", "sanet", "adaattn"]
    t0 = time.perf_counter()
    reports = desk.convergence(rig, variants, args.seeds, args.max_iters)
    wall = time.perf_counter() - t0
    write_convergence_csv(reports, args.out)
    print(format_convergence_table(reports))
    print(f"csv -> {args.out}")
    print(job_summary(len(variants) * args.seeds, wall))

    for key, values in desk.stylize_scores(rig, args.n_content).items():
        print(f"mean {key}: {float(np.mean(values)):.4f}")


if __name__ == "__main__":
    main()
