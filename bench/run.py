"""qotsim benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {transfer,certify,attack,codes} \
        --seed N --seconds S --trace {0,1}

Run it from the repository root; it imports qotsim from ./src. The load
is a closed loop: one client in one process with one op in flight and no
think time. BLAS runs on one thread. Each run executes a fixed, seeded
list of ops (its length is the workload's nominal rate times --seconds,
rounded to whole blocks), checks every op's output, and prints as its last stdout line one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, from an untraced pass. Its ops
run in blocks of about one second with the same mix of op shapes, and the
fixed kernel of bench/calibration.py is timed before the first block and
after each one. Every time below is calibrated: scaled, block by block, to
a host that runs that kernel in calibration.CALIBRATION_MS, because the
shared host's own speed drifts far more between runs than the bounds
allow. The raw figures are printed and written beside them.
  setup_s        median over three fresh processes of the time from spawn
                 to the first timed op (imports, input generation and an
                 untimed warm-up that runs each op shape once), each
                 scaled by the mean of the kernel timings this process
                 takes just before and just after it
  ops_per_s      ops completed / calibrated wall time of all ops
  op_p50_ms, op_p90_ms   calibrated per-op wall latency
  cpu_ms_per_op  calibrated process CPU time / ops (scaled by the
                 kernel's CPU time rather than its wall time)
  peak_rss_mb    ru_maxrss of the run
  ops_ok_share   ops that returned and passed their check / ops attempted

--trace 1 runs the same ops untraced once and traced twice, and reports
the per-layer metrics of bench/tracing.py; trace.overhead_share compares
the calibrated wall times of the untraced and the first traced pass. The
counts of the two traced passes must agree exactly and the output digests
of all passes must match; otherwise the run exits with status 3.

Every run also writes bench/results/BENCH_<workload>_seed<N>_trace<T>.json
with the metrics, sample counts, output digest and a record of the
machine; traced runs add the spans as an .npz beside it.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BLAS_THREADS = 1  # no higher than nproc; eigvalsh in the certificates uses BLAS
SETUP_PROCESSES = 3
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("transfer", "certify", "attack", "codes")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("ops_ok_share", "ratio"),
)


def pin_blas_threads() -> None:
    """Must run before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import qotsim from this checkout's src; exit with status 1 when it is absent."""
    src = ROOT / "src"
    if not (src / "qotsim" / "__init__.py").is_file():
        sys.exit(f"bench: no qotsim package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import qotsim

    if Path(qotsim.__file__).resolve().parent != (src / "qotsim").resolve():
        sys.exit(f"bench: imported qotsim from {qotsim.__file__}, not from {src}")
    return qotsim


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", type=float, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------

class Pass:
    """The outcome of running an op list once."""

    def __init__(self):
        self.wall_ns = []
        self.cpu_ns = []
        self.kernel_wall_ns = []  # calibration timings around the blocks
        self.kernel_cpu_ns = []
        self.failed = 0
        self.raised = 0
        self.errors = []
        self.digest = hashlib.sha256()


def run_pass(workload, specs, calls, tracer=None, kernel=None) -> Pass:
    """Run every op once, timing each, then check its output outside the
    timed interval. An op fails when it raises or its check fails. With a
    calibration kernel, time it before the first block and after each."""
    out = Pass()
    clock, cpu = time.perf_counter_ns, time.process_time_ns
    for i, (spec, call) in enumerate(zip(specs, calls)):
        if kernel is not None and i % workload.block_ops == 0:
            _time_kernel(kernel, out)
        if tracer is not None:
            tracer.op_id = i
        c0 = cpu()
        t0 = clock()
        try:
            result, raised = call(), None
        except Exception as exc:  # a failed op is counted, and the run goes on
            result, raised = None, exc
        out.wall_ns.append(clock() - t0)
        out.cpu_ns.append(cpu() - c0)
        if raised is None:
            problem = workload.check(spec, result)
            out.digest.update(workload.canonical(spec, result) + b"\n")
        else:
            out.raised += 1
            problem = "raised:\n" + "".join(traceback.format_exception(raised))
            out.digest.update(b"raised\n")
        if problem is not None:
            out.failed += 1
            out.errors.append(f"op {i} ({spec['shape']}): {problem}")
    if kernel is not None:
        _time_kernel(kernel, out)
    return out


def _time_kernel(kernel, out: Pass) -> None:
    wall, cpu = kernel.time()
    out.kernel_wall_ns.append(wall)
    out.kernel_cpu_ns.append(cpu)


def set_up(workload_cls, seed, seconds):
    """Generate the op list and warm every op shape up once, untimed."""
    workload = workload_cls()
    specs = workload.specs(seed, workload.op_count(seconds))
    calls = [workload.prepare(s) for s in specs]
    warm_specs = workload.warmup_specs(seed)
    warm = run_pass(workload, warm_specs, [workload.prepare(s) for s in warm_specs])
    if warm.failed:
        sys.exit("bench: warm-up op failed:\n" + "\n".join(warm.errors))
    return workload, specs, calls


def measure_setup(args, kernel) -> list:
    """(raw, calibrated) spawn-to-first-timed-op times of fresh processes,
    in seconds."""
    import calibration

    samples = []
    kernel_ns = kernel.time()[0]
    for _ in range(SETUP_PROCESSES):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--setup-probe", repr(time.monotonic())]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed:\n{proc.stderr}")
        raw = float(proc.stdout.strip().splitlines()[-1])
        kernel_before, kernel_ns = kernel_ns, kernel.time()[0]
        scale = calibration.block_scales([kernel_before, kernel_ns], 1)[0]
        samples.append((raw, raw * scale))
    return samples


def environment() -> dict:
    import numpy as np

    cpu_model = platform.processor() or ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):  # numpy < 1.25 has no dict mode
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "loadavg_at_start": os.getloadavg(),
    }


def calibrated_ms(res: Pass, block_ops: int, cpu: bool = False) -> list:
    """Per-op wall (or CPU) times in ms, each scaled by its block's
    calibration; res must come from a pass that timed the kernel."""
    import calibration

    times, kernel_ns = (res.cpu_ns, res.kernel_cpu_ns) if cpu else (res.wall_ns, res.kernel_wall_ns)
    scales = calibration.block_scales(kernel_ns, len(times) // block_ops)
    return [t / 1e6 * scales[i // block_ops] for i, t in enumerate(times)]


def quantiles(values):
    """(p50, p90) by statistics.quantiles' default exclusive method."""
    cuts = statistics.quantiles(values, n=10)
    return cuts[4], cuts[8]


# ---------------------------------------------------------------------------

def end_to_end(args) -> dict:
    import calibration
    import workloads

    workload, specs, calls = set_up(workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    kernel = calibration.Kernel()
    setup_samples = measure_setup(args, kernel)
    gc.collect()
    res = run_pass(workload, specs, calls, kernel=kernel)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(specs)
    wall_ms = calibrated_ms(res, workload.block_ops)
    cpu_ms = calibrated_ms(res, workload.block_ops, cpu=True)
    p50, p90 = quantiles(wall_ms)
    raw_wall_ms = [w / 1e6 for w in res.wall_ns]
    raw_p50, raw_p90 = quantiles(raw_wall_ms)
    metrics = {
        "setup_s": statistics.median(cal for _, cal in setup_samples),
        "ops_per_s": (n - res.raised) / (sum(wall_ms) / 1e3),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "cpu_ms_per_op": sum(cpu_ms) / n,
        "peak_rss_mb": peak_kb / 1024.0,
        "ops_ok_share": (n - res.failed) / n,
    }
    raw = {
        "setup_s": statistics.median(raw for raw, _ in setup_samples),
        "ops_per_s": (n - res.raised) / (sum(raw_wall_ms) / 1e3),
        "op_p50_ms": raw_p50,
        "op_p90_ms": raw_p90,
        "cpu_ms_per_op": sum(res.cpu_ns) / 1e6 / n,
    }
    return {
        "attempted": n, "failed": res.failed, "errors": res.errors,
        "digest": res.digest.hexdigest(),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END},
        "raw": {k: {"value": raw[k], "unit": u} for k, u in END_TO_END if k in raw},
        "samples": {"op_latency": n, "beyond_p90": sum(1 for w in wall_ms if w > p90),
                    "blocks": n // workload.block_ops, "block_ops": workload.block_ops,
                    "kernel_ms": [round(k / 1e6, 3) for k in res.kernel_wall_ns],
                    "setup_processes": setup_samples},
    }


def traced_pass(workload, specs, calls, span_path=None, kernel=None):
    """One traced pass: (its Pass, its counts, its self times, span count)."""
    import tracing

    gc.collect()
    with tracing.Tracer() as tracer:
        res = run_pass(workload, specs, calls, tracer, kernel)
    if span_path is not None:
        tracer.save_spans(span_path)
    return res, tracer.counts(), tracer.self_seconds(), len(tracer.span_name)


def traced(args) -> dict:
    import calibration
    import tracing
    import workloads
    from qotsim import cli

    workload, specs, calls = set_up(workloads.WORKLOADS[args.workload], args.seed, args.seconds)
    kernel = calibration.Kernel()
    gc.collect()
    plain = run_pass(workload, specs, calls, kernel=kernel)
    RESULTS.mkdir(exist_ok=True)
    span_path = RESULTS / f"SPANS_{args.workload}.npz"
    first, counts, self_s, span_count = traced_pass(workload, specs, calls, span_path, kernel)
    second, counts_again, _, _ = traced_pass(workload, specs, calls)

    problems = []
    if counts != counts_again:
        diff = sorted(k for k in counts if counts[k] != counts_again[k])
        problems.append(f"counts differ between two traced passes on one seed: {diff}")
    if len({p.digest.hexdigest() for p in (plain, first, second)}) != 1:
        problems.append("output digests differ between passes on one seed")

    with tempfile.TemporaryDirectory(dir=RESULTS) as out_dir:
        argv = workload.cli_args(args.seed, out_dir)
        with tracing.Tracer() as cli_tracer, contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(argv)
        artifact_bytes = sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())
    if status != 0:
        problems.append(f"cli.main({argv}) exited with {status}")
    if problems:
        for problem in problems:
            print(f"bench: {problem}", file=sys.stderr)
        sys.exit(3)

    values = {**counts, **self_s,
              "cli.main.self_s": cli_tracer.self_seconds()["cli.main.self_s"],
              "cli.artifact_bytes": artifact_bytes,
              "trace.overhead_share": sum(calibrated_ms(first, workload.block_ops))
              / sum(calibrated_ms(plain, workload.block_ops)) - 1.0}
    return {
        "attempted": len(specs), "failed": max(p.failed for p in (plain, first, second)),
        "errors": plain.errors + first.errors + second.errors,
        "digest": first.digest.hexdigest(),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in tracing.LAYER_METRICS},
        "samples": {"spans": span_count, "span_file": span_path.name},
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    pin_blas_threads()
    import_program()
    if args.setup_probe is not None:
        import workloads

        set_up(workloads.WORKLOADS[args.workload], args.seed, args.seconds)
        print(repr(time.monotonic() - args.setup_probe))
        return 0

    env = environment()
    result = (traced if args.trace else end_to_end)(args)
    for err in result["errors"][:5]:
        print(err, file=sys.stderr)

    RESULTS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              **result, "errors": result["errors"][:20]}
    path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  ops {result['attempted']}  "
          f"failed {result['failed']}  sha256 {result['digest']}")
    print("environment " + json.dumps(env))
    print("samples " + json.dumps(result["samples"]))
    raw = result.get("raw", {})
    for name, m in result["metrics"].items():
        line = f"  {name:<48} {m['value']!r} {m['unit']}"
        if name in raw:
            line += f"   (raw {raw[name]['value']!r})"
        print(line)
    print(f"wrote {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
