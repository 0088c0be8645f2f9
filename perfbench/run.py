"""floquet-forge benchmark: one workload, a closed loop with one client.

    python3 perfbench/run.py --workload chain-drive --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from
``src/`` (the compiled kernel is used only if it was built in place).  BLAS
is pinned to one thread and every CLI job gets ``--threads 1``.

The run times set-up (import, basis and grid construction, one warm-up call
per layer) in this process and in SETUP_PROBES fresh child processes, then
runs whole passes of the workload's menu, stopping at the pass boundary
nearest ``--seconds``.  Each job's outputs are checked; a job that raises,
exits non-zero or fails a check counts as failed.  Times are CPU seconds
at reference machine speed; see the note above CAL_REF_S.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` every layer is wrapped in spans (see tracing.py) and it carries
the per-layer metrics instead, as per-job means.  The line before it records
the environment and the raw wall times.  Traced runs also write per-job
layer times to ``.bench_work/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("chain-drive", "chain-score", "bz-solve", "bz-dense")
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60

LAYERS = ("cli", "fock", "sylvester", "fswt", "kernels", "dynamics",
          "kspace", "gamma")

# Times are CPU seconds of this process at reference machine speed.  On a
# shared VM two things move timings by 20-60% for seconds at a time: the
# hypervisor lends the machine's CPUs to other tenants ("steal", which CPU
# time leaves out), and other tenants slow the CPU it does get (which CPU
# time keeps).  For the second, a fixed probe of BLAS and interpreter work,
# independent of the package, runs between every two jobs and after each
# set-up; each time is multiplied by CAL_REF_S / (mean CPU seconds of the
# probes around it).  CAL_REF_S is about the probe's time on a 2-core Xeon
# VM with nothing else running.  The program runs single-threaded here
# (BLAS pinned, --threads 1).  Raw wall figures are on the info line.
CAL_REF_S = 0.1
CAL_SIZE = 400     # one dense inverse per round (about 85% of the probe)
CAL_LOOP = 30000   # and an interpreter loop
CAL_ROUNDS = 6


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# environment


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(inherited):
    import numpy
    import scipy

    from floquet_forge import kernels

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_inherited": inherited,
        "blas_threads_used": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": _git_commit(),
        "have_compiled": bool(kernels.HAVE_COMPILED),
    }


def calibrate():
    """CPU seconds the machine-speed probe takes now."""
    import numpy as np

    n = CAL_SIZE
    m = 40.0 * np.eye(n) + np.cos(np.arange(n * n)).reshape(n, n)
    t0 = time.process_time()
    for _ in range(CAL_ROUNDS):
        np.linalg.inv(m)
        sum(i * i for i in range(CAL_LOOP))
    return time.process_time() - t0


def to_reference(probes):
    """Factor from CPU seconds measured around ``probes`` to reference."""
    return CAL_REF_S / statistics.mean(probes)


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(slot_seconds, failed, setup_samples, peak_rss_mb):
    """Metrics a user sees.

    ``slot_seconds`` maps each slot of the menu to its job times, one per
    pass.  A slot's time is its median over passes, which keeps a burst of
    load from other processes from setting the figure; ``jobs_per_s`` is
    one pass of the menu over the summed slot medians, and ``job_s_p50`` the
    median of the slot medians.  Only jobs that passed their checks count
    as done.
    """
    medians = [statistics.median(t) for t in slot_seconds.values()]
    attempted = sum(len(t) for t in slot_seconds.values())
    total = sum(medians)
    done_share = (attempted - failed) / attempted
    return {
        "jobs_per_s": (done_share * len(medians) / total if total > 0
                       else 0.0, "1/s"),
        "job_s_p50": (statistics.median(medians), "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(tracer, jobs, failed, nrmse_err, scale=1.0):
    """Per-layer metrics from a traced run, as means per attempted job.

    Span times are CPU seconds; ``scale`` takes them to reference speed.
    """
    layer_self, func_self, func_incl, calls = tracer.summary()
    c = tracer.counts
    per = 1.0 / max(jobs, 1)

    def ratio(num, den):
        return num / den if den else 0.0

    job_total = func_incl["bench.job"]
    lanczos = c["kernels.lanczos_attempts"]
    steps = c["dynamics.exact_steps"]
    builds = c["gamma.vertex_builds"]
    m = {f"{layer}.self_s": (layer_self[layer] * per, "s")
         for layer in LAYERS}
    m.update({
        "bench.self_s": (layer_self["bench"] * per, "s"),
        "cli.bytes_written": (c["cli.bytes_written"] * per, "B"),
        "fock.build_sector_basis_s":
            (func_incl["fock.build_sector_basis"] * per, "s"),
        "fock.to_operator_s": (func_incl["fock.TermSum.to_operator"] * per,
                               "s"),
        "fock.to_operator_calls": (c["fock.to_operator_calls"] * per,
                                   "count"),
        "fock.nnz_assembled": (c["fock.nnz_assembled"] * per, "count"),
        "fock.commutator_s": (func_incl["fock.commutator"] * per, "s"),
        "sylvester.hubbard_micromotion_s":
            (func_incl["sylvester.hubbard_micromotion"] * per, "s"),
        "fswt.floquet_h4_s": (func_incl["fswt.floquet_h4"] * per, "s"),
        "kernels.lanczos_s":
            (func_incl["kernels.lanczos_expm_multiply"] * per, "s"),
        "kernels.lanczos_calls": (lanczos * per, "count"),
        "kernels.matvecs": (c["kernels.matvecs"] * per, "count"),
        "kernels.krylov_dim_mean": (ratio(c["kernels.matvecs"], lanczos),
                                    "count"),
        "kernels.lanczos_ok_ratio": (ratio(c["kernels.lanczos_ok"], lanczos),
                                     "ratio"),
        "dynamics.evolve_exact_self_s":
            (func_self["dynamics.evolve_exact"] * per, "s"),
        "dynamics.exact_steps": (steps * per, "count"),
        "dynamics.exact_ms_per_step":
            (ratio(1e3 * func_incl["dynamics.evolve_exact"], steps), "ms"),
        "dynamics.evolve_static_s":
            (func_incl["dynamics.evolve_static"] * per, "s"),
        "dynamics.static_dim": (ratio(c["dynamics.static_dim_sum"],
                                      c["dynamics.static_calls"]), "count"),
        "dynamics.return_rate_s":
            (func_incl["dynamics.return_rate"] * per, "s"),
        "dynamics.absorbance_ed_s":
            (func_incl["dynamics.absorbance_ed"] * per, "s"),
        "kspace.calls": (sum(n for f, n in calls.items()
                             if f.startswith("kspace.")) * per, "count"),
        "gamma.gamma_matrix_s": (func_incl["gamma.gamma_matrix"] * per, "s"),
        "gamma.vertex_builds": (builds * per, "count"),
        "gamma.vertex_dim": (ratio(c["gamma.vertex_dim_sum"], builds),
                             "count"),
        "gamma.scattering_strength_self_s":
            (func_self["gamma.scattering_strength"] * per, "s"),
        "gamma.series_vs_inverse_self_s":
            (func_self["gamma.series_vs_inverse"] * per, "s"),
        "gamma.eigen_sign_analysis_s":
            (func_incl["gamma.eigen_sign_analysis"] * per, "s"),
        "gamma.solve_flops_computed":
            (c["gamma.solve_flops_computed"] * per, "flop"),
        "trace.job_s": (job_total * per, "s"),
        "trace.jobs_per_s": (ratio(jobs - failed, job_total), "1/s"),
        "trace.layer_frac": (ratio(sum(layer_self[x] for x in LAYERS),
                                   job_total), "ratio"),
        "failed_frac": (failed * per, "ratio"),
        "nrmse_ref_err": (nrmse_err, "1"),
    })
    rescale = {"s": scale, "ms": scale, "1/s": 1.0 / scale}
    return {k: (v * rescale.get(u, 1.0), u) for k, (v, u) in m.items()}


def per_job_layers(tracer):
    """{job id: {layer: self seconds}} for the trace file."""
    out = {}
    for span, st in zip(tracer.spans, tracer.self_times()):
        layers = out.setdefault(span[0], {})
        layers[span[1]] = layers.get(span[1], 0.0) + st
    return out


# ---------------------------------------------------------------------------
# set-up


def probe_setup(workload):
    """Set-up seconds (wall, CPU) in a fresh interpreter."""
    env = dict(os.environ, TMPDIR=str(WORK))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         workload, "--setup-probe"],
        capture_output=True, text=True, env=env, cwd=str(ROOT),
        timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def timed_setup(workload, workdir):
    """Set-up, then the probe; returns ([wall s, reference s], context)."""
    w0, c0 = time.perf_counter(), time.process_time()
    import workloads

    ctx = workloads.setup(workload, workdir)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return [wall, cpu * to_reference([calibrate() for _ in range(3)])], ctx


# ---------------------------------------------------------------------------


def run(args, inherited):
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            seconds, _ = timed_setup(args.workload, workdir)
            print(json.dumps({"setup_s": seconds}))
            return 0
        seconds, ctx = timed_setup(args.workload, workdir)
        setups = [seconds] + [probe_setup(args.workload)
                              for _ in range(SETUP_PROBES)]
        import workloads

        env = environment(inherited)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
            ctx.tracer = tracer

        rng = random.Random(args.seed)
        job_seconds, cpu_seconds, wall_seconds, slots = [], [], [], []
        failed = 0
        probes = [calibrate()]
        start = time.perf_counter()
        passes = 0
        while True:
            for j in workloads.make_pass(args.workload, rng):
                if tracer:
                    tracer.job = len(job_seconds)
                try:
                    seconds, errors = workloads.run_job(ctx, j)
                except Exception as exc:  # a job failure, not a run failure
                    traceback.print_exc(file=sys.stderr)
                    seconds, errors = ctx.job_seconds, [f"raised {exc!r}"]
                # each job is scaled by the probes just before and after it
                probes.append(calibrate())
                cpu_seconds.append(seconds)
                job_seconds.append(seconds * to_reference(probes[-2:]))
                wall_seconds.append(ctx.job_wall)
                slots.append(j.slot)
                if errors:
                    failed += 1
                    print(f"FAILED {j.key}: {'; '.join(errors)}",
                          file=sys.stderr)
            passes += 1
            # whole passes only: stop at the pass boundary nearest --seconds
            elapsed = time.perf_counter() - start
            if elapsed * (1.0 + 0.5 / passes) >= args.seconds:
                break

        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        slot_seconds, wall_slots = {}, {}
        for slot, cpu, wall in zip(slots, job_seconds, wall_seconds):
            slot_seconds.setdefault(slot, []).append(cpu)
            wall_slots.setdefault(slot, []).append(wall)
        raw = end_to_end_metrics(wall_slots, failed, [s[0] for s in setups],
                                 peak_rss_mb)
        if tracer:
            cpu = sum(cpu_seconds)
            scale = sum(job_seconds) / cpu if cpu else 1.0
            metrics = layer_metrics(tracer, len(job_seconds), failed,
                                    ctx.nrmse_err, scale)
            WORK.mkdir(exist_ok=True)
            (WORK / f"trace-{args.workload}-{args.seed}.json").write_text(
                json.dumps({"env": env, "metrics": metrics,
                            "jobs": per_job_layers(tracer)}, indent=1))
        else:
            metrics = end_to_end_metrics(slot_seconds, failed,
                                         [s[1] for s in setups], peak_rss_mb)
        print(json.dumps({
            "env": env,
            "raw_wall": {k: v for k, (v, _) in raw.items()},
            "setup_samples_s": setups,
            "nrmse_ref_err": ctx.nrmse_err,
            "nrmse": ctx.nrmse,
            "jobs": list(zip(slots, job_seconds, wall_seconds)),
            "probes_s": probes}))
        print(json.dumps({
            "correct": failed == 0,
            "attempted": len(job_seconds),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    args = parse_args(argv)
    inherited = {v: os.environ.get(v) for v in BLAS_VARS}
    for v in BLAS_VARS:  # single-threaded BLAS, before numpy loads
        os.environ[v] = "1"
    if not (SRC / "floquet_forge" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from the root of a "
              f"floquet-forge checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    WORK.mkdir(exist_ok=True)
    return run(args, inherited)


if __name__ == "__main__":
    sys.exit(main())
