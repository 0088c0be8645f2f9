"""Run every workload untraced and traced, and write REPORT.md beside this file.

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload it runs ``run.py`` twice with the same seed (``--trace 0``
then ``--trace 1``), reports the end-to-end metrics, the tracing overhead as
the drop in jobs_per_s, and each layer's share of traced job time beside the
share predicted when the benchmark was defined.  It then times the stages of
the baseline table in ROADMAP item 1 (warm medians, in this process) and
lists the fine-step nrmse references next to the default-step values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = ("cli", "fock", "sylvester", "fswt", "kernels", "dynamics",
          "kspace", "gamma", "bench")

# Shares of job time predicted when the workloads were chosen:
# (label, per-layer metrics summed, predicted share).
PREDICTED = {
    "chain-drive": [
        ("exact propagation", ("kernels.lanczos_s",
                               "dynamics.evolve_exact_self_s"), 0.95),
        ("dense static eigensolve", ("dynamics.evolve_static_s",), 0.02),
    ],
    "chain-score": [
        ("dense static candidates", ("dynamics.evolve_static_s",), 0.60),
        ("exact propagation", ("kernels.lanczos_s",
                               "dynamics.evolve_exact_self_s"), 0.30),
        ("assembly (fock + sylvester + fswt self)",
         ("fock.self_s", "sylvester.self_s", "fswt.self_s"), 0.07),
    ],
    "bz-solve": [
        ("dense vertex inversion (scattering_strength self)",
         ("gamma.scattering_strength_self_s",), 0.95),
    ],
    "bz-dense": [
        ("cli emission (cli self)", ("cli.self_s",), 0.70),
    ],
}


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def value(result, name):
    return result["metrics"][name]["value"]


def workload_sections(seed, seconds):
    rows, shares, info = [], [], {}
    for w in SPEC["workloads"]:
        name = w["name"]
        meta, plain = run_once(name, seed, seconds, 0)
        _, traced = run_once(name, seed, seconds, 1)
        info[name] = (meta, plain, traced)
        jps, tjps = value(plain, "jobs_per_s"), value(traced,
                                                       "trace.jobs_per_s")
        raw = meta["raw_wall"]
        rows.append(
            f"| {name} | {plain['attempted']} | {plain['failed']} | "
            f"{jps:.4g} ({raw['jobs_per_s']:.4g} wall) | "
            f"{value(plain, 'job_s_p50'):.4g} | "
            f"{value(plain, 'setup_s'):.3g} | "
            f"{value(plain, 'peak_rss_mb'):.4g} | "
            f"{meta['nrmse_ref_err']:.4g} | {tjps:.4g} | "
            f"{jps - tjps:+.4g} ({(jps - tjps) / jps:+.1%}) |")
        job_s = value(traced, "trace.job_s")
        layer = "; ".join(f"{x} {value(traced, x + '.self_s') / job_s:.1%}"
                          for x in LAYERS)
        shares.append(f"| {name} | whole job | {job_s:.3f} s | | {layer} |")
        for label, names, predicted in PREDICTED[name]:
            got = sum(value(traced, n) for n in names) / job_s
            shares.append(f"| {name} | {label} | {got:.1%} | "
                          f"~{predicted:.0%} | {' + '.join(names)} |")
        untraced_job = 1.0 / jps if jps else float("nan")
        layer_sum = sum(value(traced, x + ".self_s") for x in LAYERS[:-1])
        shares.append(
            f"| {name} | layers' self time vs untraced job | "
            f"{layer_sum:.3f} s vs {untraced_job:.3f} s | | traced job "
            f"{job_s:.3f} s, overhead {job_s - untraced_job:+.3f} s |")
    return rows, shares, info


def _median_time(fn, repeats=3):
    fn()  # warm
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def baseline_table():
    """The ROADMAP item-1 stages, timed warm in this process (median of 3)."""
    for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[v] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads as wl
    from floquet_forge import dynamics, fock, fswt, gamma

    rows = []
    for L, roadmap in ((6, "0.8 ms/step"), (7, "-")):
        n = (L + 1) // 2
        b = fock.build_sector_basis(L, n, n)
        p = fock.HubbardParams(L=L, J=1.0, U=wl.CHAIN_U, g=5.0, omega=20.0)
        series = fswt.hubbard_harmonics(p, b)
        psi0 = dynamics.cdw_state(b)
        t_final = 400 * 2 * 3.141592653589793 / (40 * 20.0)  # 400 steps
        sec = _median_time(lambda: dynamics.evolve_exact(series, psi0,
                                                         t_final))
        rows.append(f"| `evolve_exact`, dim {b.dim} (L={L}, omega=20J) | "
                    f"{1e3 * sec / 400:.3f} ms/step | {roadmap} |")
    for L, roadmap in ((6, "80 ms"), (7, "-")):
        n = (L + 1) // 2
        b = fock.build_sector_basis(L, n, n)
        p = fock.HubbardParams(L=L, J=1.0, U=wl.CHAIN_U, g=5.0, omega=20.0)
        sec = _median_time(lambda: fswt.floquet_h4(p, b))
        rows.append(f"| `floquet_h4`, L={L} | {1e3 * sec:.0f} ms | "
                    f"{roadmap} |")
    grid = wl.band_grid(16)
    prof = gamma.constant_profile(grid, wl.U_COULOMB)
    sec = _median_time(lambda: gamma.coulomb_mix_selfenergy(
        grid, prof, wl.DRIVE_G, 1.8, (3, 5)))
    rows.append(f"| `coulomb_mix_selfenergy`, 16² | {1e3 * sec:.0f} ms | "
                f"998 ms |")
    grid = wl.band_grid(24)
    prof = gamma.constant_profile(grid, wl.U_COULOMB)
    sec = _median_time(lambda: gamma.series_vs_inverse(
        grid, prof, (0, 0), (0, 0), 1.8))
    rows.append(f"| `series_vs_inverse`, 24² | {sec:.2f} s | "
                f"- (5.2 s at 32²) |")
    return rows


def nrmse_rows(info):
    sys.path[:0] = [str(HERE)]
    import workloads as wl

    refs = json.loads(wl.REFS_PATH.read_text())["nrmse_fine"]
    rows = []
    for name in ("chain-drive", "chain-score"):
        measured = info[name][0]["nrmse"]
        for key in sorted(measured, key=lambda k: (len(k), k)):
            m, r = measured[key], refs[key]
            rows.append(
                f"| `{key.split(':', 1)[1]}` | {m['fswt']:.4f} | "
                f"{r['fswt']:.4f} | {m['hfe']:.4f} | {r['hfe']:.4f} | "
                f"{max(abs(m[k] - r[k]) for k in ('fswt', 'hfe')):.4f} |")
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = ap.parse_args(argv)

    rows, shares, info = workload_sections(args.seed, args.seconds)
    env = next(iter(info.values()))[0]["env"]
    base = baseline_table()
    out = [
        "# Benchmark report",
        "",
        f"Generated by `python3 perfbench/report.py --seed {args.seed} "
        f"--seconds {args.seconds:g}`.",
        "",
        "Environment: " + ", ".join(f"{k}={v}" for k, v in env.items()),
        "",
        "## End-to-end (untraced) and tracing overhead",
        "",
        "Job times count only the calls into the package; output checks run "
        "after the clock stops. Times are CPU seconds; the wall-time figure "
        "is given beside `jobs_per_s`. Overhead is untraced minus traced "
        "`jobs_per_s` on the same seed.",
        "",
        "| workload | jobs | failed | jobs_per_s | job_s_p50 (s) | setup_s |"
        " peak_rss_mb | nrmse_ref_err | traced jobs_per_s | overhead |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |",
        *rows,
        "",
        "## Layer shares of traced job time",
        "",
        "| workload | part | measured | predicted | from |",
        "| --- | --- | --- | --- | --- |",
        *shares,
        "",
        "## ROADMAP item-1 baseline, reproduced",
        "",
        "Warm medians of three calls, one thread. L=8 is replaced by L=7 "
        "throughout the benchmark: one dense static eigensolve at L=8 "
        "takes 136 s.",
        "",
        "| stage | here | ROADMAP |",
        "| --- | --- | --- |",
        *base,
        "",
        "## nrmse at the default step (T/40) against the T/640 reference",
        "",
        "| job | fswt T/40 | fswt T/640 | hfe T/40 | hfe T/640 | max error |",
        "| --- | --- | --- | --- | --- | --- |",
        *nrmse_rows(info),
        "",
    ]
    (HERE / "REPORT.md").write_text("\n".join(out))
    print("\n".join(out))


if __name__ == "__main__":
    main()
