"""Run one stableflow benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload robust --seed 0 --seconds 12 --trace 0

The workload's subcommands run in this process through
``stableflow.cli.main``, imported from the ``src`` directory next to this
one.  A round is the subcommands of one draw; a cycle is one round per
draw.  After set-up, a warm-up cycle runs and its outputs are checked in
full (checks.py).  Timed cycles then repeat until ``--seconds`` have passed,
each round reproducing its warm-up round's outputs byte for byte.
Before every subcommand and after the last, untimed, a fixed reference
kernel made for the workload (calibrate.py) is timed.  Each subcommand's time is scaled by the
kernel's reference time over its mean time just before and just after it,
and ``setup_s`` by the same ratio at the first point, so that both read as
at the reference machine speed however busy the shared host was.  A round's
time is the sum over its subcommands; ``run_s`` is the time of one cycle,
the sum over draws of each draw's median round time.  The unscaled figures
go to standard error.  The last line of standard output is one JSON object:
with ``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of one more cycle run under the tracer (tracing.py), set-up
included.
"""

import os
import sys
import time

# One BLAS thread.  On a shared two-core machine a second thread made PGD
# ~20% faster only when nothing else ran, and its gain came and went with the
# neighbours' load; one thread keeps run-to-run spread small.  Set before
# numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import traceback

_STARTED = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def process_age():
    """Seconds since this process started (since this module loaded, where
    /proc is unavailable)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return time.perf_counter() - _STARTED
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def call_cli(argv):
    """Exit code of one ``stableflow`` subcommand run in-process."""
    from stableflow import cli

    try:
        return cli.main(argv) or 0
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed operation, not a dead benchmark
        traceback.print_exc(file=sys.stderr)
        return 1


def run_round(workload, out, draw, before_op):
    """([(seconds, mark)] per subcommand, attempted, failed) of one round of
    the workload's subcommands; ``before_op()`` runs, untimed, before each
    one and returns its mark."""
    ops = workload.ops(out, draw)
    timed, codes = [], []
    for op in ops:
        mark = before_op()
        t0 = time.perf_counter()
        codes.append(call_cli(op.argv))
        timed.append((time.perf_counter() - t0, mark))
    failed = sum((code == 0) == op.expect_reject for op, code in zip(ops, codes))
    return timed, len(ops), failed


def digests(directory):
    """sha256 of every output file; run manifests lose their wall-time line."""
    out = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name == "manifest.txt":
                data = b"".join(line for line in data.splitlines(True)
                                if not line.startswith(b"wall_time_seconds"))
            out[os.path.relpath(path, directory)] = hashlib.sha256(data).hexdigest()
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import stableflow
    except ImportError as exc:
        raise SystemExit(f"cannot import stableflow from {src}: {exc}")
    if os.path.dirname(os.path.abspath(stableflow.__file__)) != os.path.join(src, "stableflow"):
        raise SystemExit(f"stableflow imported from {stableflow.__file__}, not from {src}")
    import stableflow.cli  # noqa: F401  (the whole library, before set-up ends)

    import calibrate
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    root = os.path.join(ROOT, ".bench_out", args.workload)
    shutil.rmtree(root, ignore_errors=True)
    workload = WORKLOADS[args.workload](root, args.seed)
    tracer = Tracer() if args.trace else None

    if tracer:
        tracer.install()
    workload.setup()
    setup_s = process_age()
    if tracer:
        tracer.uninstall()

    problems = []
    reference = {}
    attempted = failed = 0
    # reference-kernel time at each calibration point; a point is taken
    # before every subcommand and after the last, so the subcommand marked i
    # lies between points i and i + 1
    points = []
    parts = workload.calibration
    reference_s = calibrate.reference_s(parts)
    calibrate.kernel(parts)  # the first call pays numpy's lazy set-up; not a sample

    def calibration_point():
        points.append(calibrate.kernel(parts))
        return len(points) - 1

    def cycle(tag):
        """Timed subcommands of one round per draw; the warm-up cycle is
        checked in full, later ones against its outputs."""
        nonlocal attempted, failed
        rounds = []
        for draw in workload.draws:
            out = os.path.join(root, f"{tag}-{draw}")
            timed, n, bad = run_round(workload, out, draw, calibration_point)
            rounds.append(timed)
            attempted += n
            failed += bad
            if draw not in reference:
                try:
                    problems.extend(workload.check(out, draw))
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    problems.append(f"checks could not read the outputs: {exc!r}")
                reference[draw] = digests(out)
                continue
            if digests(out) != reference[draw]:
                problems.append(f"{tag} draw {draw}: outputs differ from the warm-up round")
            shutil.rmtree(out)
        return rounds

    def unscaled(rounds):
        return [sum(seconds for seconds, _ in timed) for timed in rounds]

    def scaled(rounds):
        """Round times at the reference speed: each subcommand's time divided
        by the speed the kernel measured just before and just after it."""
        return [sum(seconds * reference_s / ((points[i] + points[i + 1]) / 2)
                    for seconds, i in timed) for timed in rounds]

    def cycle_time(times):
        """Sum over draws of each draw's median round time."""
        n = len(workload.draws)
        return sum(statistics.median(times[k::n]) for k in range(n))

    cycle("warmup")
    rounds = []
    begin = time.perf_counter()
    while not rounds or time.perf_counter() - begin < args.seconds:
        rounds += cycle(f"cycle{len(rounds)}")
    calibration_point()
    timed = scaled(rounds)
    run_s = cycle_time(timed)
    # set-up ended just before the first calibration point
    setup_scaled = setup_s * reference_s / points[0]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{args.workload} seed {args.seed}: unscaled setup {setup_s:.3f} s, run "
          f"{cycle_time(unscaled(rounds)):.3f} s; kernel "
          + " ".join(f"{p:.4f}" for p in points) + "; rounds "
          + " ".join(f"{t:.3f}" for t in unscaled(rounds)) + "; scaled "
          + " ".join(f"{t:.3f}" for t in timed), file=sys.stderr)

    if tracer:
        tracer.install()
        traced = cycle("traced")
        tracer.uninstall()
        calibration_point()
        tracer.save(os.path.join(root, "spans.npz"))
        metrics = tracer.summary()
        metrics["trace.overhead_s"] = (sum(scaled(traced)) - run_s, "s")
        for name, value in workload.expected_counts().items():
            if metrics[name][0] != value:
                problems.append(f"traced {name} = {metrics[name][0]}, configuration gives {value}")
    else:
        metrics = {"setup_s": (setup_scaled, "s"), "run_s": (run_s, "s"),
                   "peak_rss_mib": (peak_rss_mib, "MiB")}

    for problem in problems:
        print("CHECK FAILED:", problem, file=sys.stderr)
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
