#!/usr/bin/env python3
"""Attention-encoder optimization-efficiency comparison on the desk rig.

Builds the desk backbone (``artbank.desk``), then measures how many
iterations each encoder variant (ssam / sanet / adaattn) needs to pull the
100-step moving-average training loss below a fraction of its initial
(untrained, probe-evaluated) loss on the target collection. Emits a CSV
plus a table on stdout; at the defaults the ssam and sanet rows are
acceptance criterion 07's per-seed crossings. The last line is the one
``bench-attn`` ends with: the jobs, where they ran, wall time and jobs/s.
"""

import argparse
import time

from artbank import desk
from artbank.metrics import (convergence_benchmark, format_convergence_table,
                             job_summary, write_convergence_csv)
from artbank.seeding import derive_seed


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="convergence.csv")
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--max-iters", type=int, default=5000)
    ap.add_argument("--threshold", type=float, default=0.85)
    ap.add_argument("--lr", type=float, default=3e-4)
    ap.add_argument("--pretrain-steps", type=int, default=desk.PRETRAIN_STEPS)
    ap.add_argument("--seed", type=int, default=desk.ROOT_SEED)
    args = ap.parse_args(argv)

    rig = desk.build_backbone(args.seed, args.pretrain_steps)
    seeds = [derive_seed(args.seed, f"bench:{i}") for i in range(args.seeds)]
    variants = ["ssam", "sanet", "adaattn"]
    t0 = time.perf_counter()
    reports = convergence_benchmark(
        rig.backbone, rig.style_collection, variants, seeds,
        loss_threshold=args.threshold, max_iters=args.max_iters,
        sched=rig.sched, lr=args.lr)
    wall = time.perf_counter() - t0
    write_convergence_csv(reports, args.out)
    print(format_convergence_table(reports))
    print(f"csv -> {args.out}")
    print(job_summary(len(variants) * len(seeds), wall))


if __name__ == "__main__":
    main()
