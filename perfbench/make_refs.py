"""Regenerate references.json, the committed outputs the benchmark checks.

    python3 perfbench/make_refs.py [nrmse] [outputs]

``nrmse`` reruns every chain return-rate job with the fine reference step
dt = T/640 (about ten minutes on one core); ``outputs`` reruns every band
candidate and the L=7 scoring jobs at the commit being benchmarked.  With no
argument both sections are rebuilt.  Other sections of the file are kept.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
for _v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_v] = "1"

import workloads as wl  # noqa: E402


def fine_nrmse(ctx):
    """nrmse of every chain return-rate job at dt = T/640."""
    out = {}
    jobs = list(wl.candidates()["chain-drive"])
    jobs += [wl.job("return-rate", L=wl.SCORE_L, omega=w, t_final=wl.SCORE_T)
             for w in wl.CHAIN_OMEGAS]
    for j in jobs:
        p = j.p
        errors, nrmse = wl.return_rate_job(ctx, p["L"], p["omega"],
                                           p["t_final"],
                                           dt=wl.reference_dt(p["omega"]))
        if errors:
            raise SystemExit(f"{j.key}: {errors}")
        out[j.key] = nrmse
        print(j.key, nrmse, flush=True)
    return out


def outputs(ctx):
    out = {}
    for group in wl.candidates().values():
        for j in group:
            if j.kind not in wl.EXACT_KINDS:
                continue
            errors, values = wl.RUNNERS[j.kind](ctx, j)
            if errors:
                raise SystemExit(f"{j.key}: {errors}")
            out[j.key] = values
            print(j.key, flush=True)
    return out


def main(argv):
    sections = argv or ["nrmse", "outputs"]
    refs = json.loads(wl.REFS_PATH.read_text()) if wl.REFS_PATH.exists() \
        else {}
    root = HERE.parent / ".bench_work"
    root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        ctx = wl.Context(workdir=Path(tmp), refs=refs)
        ctx.bases[wl.SCORE_L] = wl.fock.build_sector_basis(
            wl.SCORE_L, (wl.SCORE_L + 1) // 2, (wl.SCORE_L + 1) // 2)
        for n in (wl.SOLVE_N_SMALL, wl.SOLVE_N, wl.SERIES_N, wl.SCAN_N):
            ctx.grids[n] = wl.band_grid(n)
        if "nrmse" in sections:
            refs["nrmse_fine"] = fine_nrmse(ctx)
        if "outputs" in sections:
            refs["outputs"] = outputs(ctx)
    refs["_command"] = "python3 perfbench/make_refs.py nrmse outputs"
    refs["_nrmse_fine_step"] = "dt = 2*pi/(640*omega)"
    wl.REFS_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
