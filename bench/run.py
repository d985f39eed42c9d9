#!/usr/bin/env python3
"""The artbank benchmark: one workload per run, closed loop, one caller.

    python3 bench/run.py --workload {pretrain,bank_train,stylize,convergence} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root (any directory works; paths are resolved from
this file). The program is imported from ``src/`` next to this directory;
without it the run exits with code 2 and prints no result.

A run sets up ``SETUP_REPEATS`` times (data generation, backbone pretraining,
the ABDN save -> load round trip, workload state, warm-up) and reports the
median as ``setup_s``. It then issues whole operations one after another,
each after the previous one returned, while the next is expected to end
within ``--seconds``; at least one always runs. Every operation's output is
checked, and a failed check or an ``ArtBankError`` counts the operation as
failed instead of stopping the run.

``--trace 0`` prints the end-to-end metrics; the latency is divided by the
time of a reference kernel sampled during the run (see ``speed.py``), and
the raw figures are printed too. ``--trace 1`` runs half the
time untraced and half traced (spans around every public artbank function,
see ``tracing.py``), then a probe pass and the kernel table, and prints the
per-layer metrics; the spans go to ``.bench_out/``. The last line of
standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread, set before numpy loads. The denoiser's GEMMs are small
# (at most 32 x 288 by 288 x 256); on the 2-core machine the benchmark was
# built on, OpenBLAS's default two threads made a bank-training step ~35%
# slower (4.4 vs 3.2 ms) and its run-to-run spread 4x wider.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import checks  # noqa: E402  (imports numpy)
from speed import SpeedSampler, clock  # noqa: E402
from tracing import (BENCH_PREFIX, NullTracer, Tracer, durations,  # noqa: E402
                     layer_table, self_times)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 3
PROBE_REPEATS = 3

# Per-call medians, in ms, of spans opened inside the traced operations, or
# inside the probe pass on workloads whose operations make no such call.
PER_CALL_MS = {
    "tensor.backward.ms": "tensor.backward",
    "attention.encode.ms": "attention.encode",
    "bank.encode_prompt.ms": "bank.encode_prompt",
    "bank.assemble_condition.ms": "bank.assemble_condition",
    "bank.roundtrip.ms": "bank.roundtrip",
    "diffusion.predict_noise.ms": "diffusion.predict_noise",
    "diffusion.q_sample.ms": "diffusion.q_sample",
    "diffusion.sample.ms": "diffusion.sample",
    "optim.adam_step.ms": "optim.adam_step",
    "inversion.invert.ms": "inversion.invert",
    "metrics.ssim.ms": "metrics.ssim",
    "metrics.gram_style_score.ms": "metrics.gram_style_score",
}
# Per-set-up medians, in ms.
SETUP_MS = {
    "data_io.generate.ms": "data_io.generate",
    "diffusion.checkpoint_roundtrip.ms": "diffusion.checkpoint_roundtrip",
}
CALLS_PER_OP = {
    "attention.encode.calls": "attention.encode",
    "diffusion.predict_noise.calls": "diffusion.predict_noise",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["pretrain", "bank_train", "stylize", "convergence"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


class Phase:
    def __init__(self, records, wall_s):
        self.records = records
        self.wall_s = wall_s

    def measured(self):
        """Operations that passed their checks; if none did, every operation
        whose main call returned, so a broken run still reports its timing."""
        ok = [r for r in self.records if r.ok]
        return ok or [r for r in self.records if math.isfinite(r.main_s)]


def run_phase(wl, rig, seconds, tracer, ledger, label) -> Phase:
    from workloads import OpRecord

    state = wl.start(rig)
    records = []
    start = clock()
    last = 0.0
    while not records or (clock() - start) + last <= seconds:
        rec = OpRecord(index=len(records))
        tracer.op = f"{label}:{rec.index}"
        failed_before = ledger.failed
        t0 = clock()
        rec.start = time.perf_counter()
        with ledger.op(f"{wl.name} op {rec.index}"), tracer.span("bench.op"):
            wl.op(rig, state, rec.index, rec, tracer)
        rec.end = time.perf_counter()
        rec.wall_s = last = clock() - t0
        rec.ok = ledger.failed == failed_before
        records.append(rec)
    tracer.op = None
    return Phase(records, clock() - start)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(wl, phase, setup_times) -> tuple[dict, list[str]]:
    recs = phase.measured()
    if not recs:
        raise SystemExit("bench: no operation completed; nothing to report")
    unit_ms = [1e3 * r.main_s / r.work for r in recs]
    work = sum(r.work for r in recs)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "unit_rel_p50": (statistics.median(t / r.ref_ms for t, r in zip(unit_ms, recs)), "x"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    u = wl.unit
    lines = [f"{u}_ms_p50 = {statistics.median(unit_ms):.4f} ms over {len(recs)} "
             f"operations ({work} {u}s)",
             f"unit_rel_p50 = {metrics['unit_rel_p50'][0]:.4f} (reference kernel "
             f"{statistics.median(r.ref_ms for r in recs):.4f} ms, median around operations)"]
    if len(unit_ms) >= 100:
        lines.append(f"{u}_ms_p90 = {percentile(unit_ms, 90):.4f} ms")
    lines.append(f"{u}_ms quantiles " + json.dumps(
        {f"p{q}": percentile(unit_ms, q) for q in (0, 10, 25, 50, 75, 90, 100)}))
    lines.append(f"{u}s_per_s = {work / phase.wall_s:.4f} ({work} {u}s in "
                 f"{phase.wall_s:.3f} s)")
    if u == "report":
        lines.append(f"report_s = {statistics.median(r.main_s for r in recs):.4f} s")
    lines.append(f"setup_s = {statistics.median(setup_times):.4f} s, median of "
                 f"{len(setup_times)}: {', '.join(f'{t:.3f}' for t in setup_times)}")
    return metrics, lines


def recorded_outputs(phase) -> dict:
    """Quality numbers the run produced; printed, never gated."""
    recs = phase.measured()
    out = {}
    if recs and "ssim" in recs[0].values:
        out["ssim_mean"] = statistics.fmean(r.values["ssim"] for r in recs)
        out["gram_style_score_mean"] = statistics.fmean(r.values["gram"] for r in recs)
        out["images"] = len(recs)
    if recs and "iterations" in recs[0].values:
        out["iterations_to_threshold"] = [r.values["iterations"] for r in recs]
        out["jobs_crossed"] = sum(r.values["crossed"] for r in recs)
        out["jobs"] = sum(len(v) for r in recs for v in r.values["iterations"].values())
    return out


def per_layer(tracer, base, traced, kernels) -> tuple[dict, list[str]]:
    spans = tracer.spans
    op_ids = [f"traced:{r.index}" for r in traced.records]
    probe_ids = [f"probe:{k}" for k in range(PROBE_REPEATS)]
    setup_ids = [f"setup:{r}" for r in range(SETUP_REPEATS)]
    n_ops = len(op_ids)
    metrics = {}
    for metric, name in PER_CALL_MS.items():
        d = durations(spans, name, op_ids) or durations(spans, name, probe_ids)
        metrics[metric] = (1e3 * statistics.median(d), "ms")
    for metric, name in SETUP_MS.items():
        metrics[metric] = (1e3 * statistics.median(durations(spans, name, setup_ids)), "ms")
    for metric, name in CALLS_PER_OP.items():
        metrics[metric] = (len(durations(spans, name, op_ids)) / n_ops, "count")

    def count_sum(name, ops):
        wanted = set(ops)
        return sum(v for (op, key), v in tracer.counts.items() if key == name and op in wanted)

    metrics["optim.values_updated"] = (count_sum("optim.values_updated", op_ids) / n_ops,
                                       "count")
    roundtrip_ops = op_ids if durations(spans, "bank.roundtrip", op_ids) else probe_ids
    metrics["bank.file_bytes"] = (
        count_sum("bank.file_bytes", roundtrip_ops)
        / len(durations(spans, "bank.roundtrip", roundtrip_ops)), "bytes")
    metrics["diffusion.checkpoint_bytes"] = (
        count_sum("diffusion.checkpoint_bytes", setup_ids) / len(setup_ids), "bytes")
    budget = sum(r.values.get("step_budget", 0) for r in traced.records)
    needed = sum(r.values.get("steps_needed", 0) for r in traced.records)
    metrics["metrics.step_budget"] = (budget / n_ops, "count")
    metrics["metrics.steps_needed"] = (needed / n_ops, "count")
    metrics["metrics.needed_frac"] = (needed / budget if budget else 0.0, "frac")
    metrics.update(kernels)

    own = self_times(spans)
    layer_s: dict[str, float] = {}
    for s, t in zip(spans, own):
        if s[4] in op_ids and not s[0].startswith(BENCH_PREFIX):
            layer_s[s[4]] = layer_s.get(s[4], 0.0) + t
    base_wall = statistics.median(r.wall_s for r in base.records)
    traced_wall = statistics.median(r.wall_s for r in traced.records)
    metrics["trace.coverage"] = (
        statistics.median(layer_s.get(op, 0.0) for op in op_ids) / base_wall, "frac")
    metrics["trace.overhead_frac"] = (traced_wall / base_wall - 1.0, "frac")

    table = layer_table(spans, op_ids)
    lines = [f"layer self time and calls per operation over {n_ops} traced operations "
             f"(untraced operation median {1e3 * base_wall:.3f} ms, "
             f"{len(base.records)} operations):"]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms_per_op"]):
        lines.append(f"  {name:<34} self {row['self_ms_per_op']:10.4f} ms/op  "
                     f"calls {row['calls_per_op']:10.2f} /op")
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "artbank" / "__init__.py").is_file():
        print(f"bench: no artbank sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from artbank.errors import ArtBankError

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    ledger = checks.Ledger((ArtBankError,))
    tracer = Tracer() if args.trace else NullTracer()
    env = environment()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workdir = Path(tmp)
        if args.trace:
            tracer.instrument()
        setup_times, ckpt_digests = [], []
        for r in range(SETUP_REPEATS):
            tracer.op = f"setup:{r}"
            t0 = time.perf_counter()
            rig = workloads.set_up(wl, args.seed, workdir, tracer, ledger)
            setup_times.append(time.perf_counter() - t0)
            ckpt_digests.append(sha256(rig.ckpt_bytes))
        tracer.op = None
        problems = []
        if len(set(ckpt_digests)) != 1:
            problems.append(f"set-ups gave different checkpoints: {ckpt_digests}")
        if args.trace:
            tracer.restore()
            base = run_phase(wl, rig, args.seconds / 2, NullTracer(), ledger, "untraced")
            tracer.instrument()
            traced = run_phase(wl, rig, args.seconds / 2, tracer, ledger, "traced")
            for k in range(PROBE_REPEATS):
                tracer.op = f"probe:{k}"
                workloads.probe_pass(rig, tracer)
            tracer.op = None
            tracer.restore()
            kernels = workloads.kernel_table(workloads.condition_rows())
            metrics, lines = per_layer(tracer, base, traced, kernels)
            phases = {"untraced": base, "traced": traced}
        else:
            with SpeedSampler() as sampler:
                run = run_phase(wl, rig, args.seconds, tracer, ledger, "run")
            for rec in run.records:
                rec.ref_ms = sampler.around(rec.start, rec.end)
            metrics, lines = end_to_end(wl, run, setup_times)
            phases = {"run": run}

    digests = {"checkpoint": ckpt_digests[-1]}
    for label, phase in phases.items():
        digests[f"op0_{label}"] = sha256(phase.records[0].artifact)
    if args.trace and digests["op0_untraced"] != digests["op0_traced"]:
        problems.append("tracing changed the bytes of operation 0")
    if args.trace:
        tracer.dump(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.jsonl",
                    {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                     "env": env})

    print(f"workload {wl.name}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("digests " + json.dumps(digests, sort_keys=True))
    for label, phase in phases.items():
        outputs = recorded_outputs(phase)
        if outputs:
            print(f"outputs {label} " + json.dumps(outputs, sort_keys=True))
    for line in lines:
        print(line)
    for msg in problems + ledger.messages:
        print(f"FAIL: {msg}")
    result = {
        "correct": ledger.failed == 0 and not problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
