"""Workloads of the floquet-forge benchmark: job menus, runners and checks.

A workload is a menu of jobs.  One pass runs every job of the menu once, in
an order the seed permutes.  Jobs that take momentum indices or profile
centres draw them, through the same seed, from a fixed list of candidates
whose outputs are committed in ``references.json``.  Every pass does the
same work whatever the seed, so throughput does not depend on it.

Each job writes its config files, then runs its calls into the package
inside ``ctx.timed()`` (the clock that job times come from), then checks
what they returned or wrote.  A job fails when a call raises, a CLI call
exits non-zero, or an output check fails.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from floquet_forge import cli, dynamics, fock, fswt, gamma, kernels, kspace
from floquet_forge.sylvester import HopExpansionCoeffs

HERE = Path(__file__).resolve().parent
REFS_PATH = HERE / "references.json"

# --- chain menus ------------------------------------------------------------
# The acceptance configuration: U = 3J, g = omega/4, omega in 9..20 J.
CHAIN_OMEGAS = (9.0, 12.0, 16.0, 20.0)
CHAIN_U = 3.0
SAMPLE_DT = 0.1
# chain-drive: L=6 (sector dim 400), t_final=60.  chain-score: L=7 (dim 1225),
# t_final=20.  L=8 is out: one dense static eigensolve there takes 136 s.
DRIVE_L, DRIVE_T = 6, 60.0
SCORE_L, SCORE_T = 7, 20.0
# Fine-step reference: dt = T/640.  The default step is T/40.
REF_STEPS_PER_PERIOD = 640
# |nrmse - reference| allowed per curve.  At T/40 the largest error on the
# menu is 0.0084 (fswt, omega = 20J, L=6), so this admits today's step and
# rejects a propagator that is markedly less accurate.
NRMSE_TOL = 0.015

# --- band menus -------------------------------------------------------------
BANDS = dict(eps21=3.7, t1=0.05, t2=-0.15, U11=1.6, U12=0.8)
U_COULOMB = 1.6
DRIVE_G = 0.02
PROFILE_WIDTH = 0.6
CAVITY = dict(g=0.03, gc0=0.08, delta_c=0.2)
# Below the interband continuum (eps21 spans 2.9..4.5 eV on these bands) and
# clear of the vertex spectrum; workloads_test checks the margins.
BZ_OMEGAS = (1.8, 2.1, 2.4)
SOLVE_N_SMALL, SOLVE_N = 16, 32
SERIES_N = 24
SCAN_N = 32
CANDIDATES_PER_KIND = 4
CANDIDATE_SEED = 20241029
PROFILE_KINDS = ("constant", "valley-dip", "phase-winding")

REL_TOL = 1e-9       # committed references, relative
SERIES_DEV_TOL = 1e-10


@dataclass(frozen=True)
class Job:
    """One unit of work: a kind and its JSON-able inputs."""

    kind: str
    params: tuple = ()

    @property
    def p(self):
        return dict(self.params)

    @property
    def key(self):
        return self.kind + ":" + json.dumps(self.p, sort_keys=True)

    @property
    def slot(self):
        """The menu entry this job fills; every pass fills each slot once."""
        p = self.p
        if self.kind == "bz-solve":
            return f"{self.kind}:{p['profile']}"
        if self.kind in ("return-rate", "score"):
            return f"{self.kind}:{p['omega']}"
        return self.kind


def job(kind, **params):
    return Job(kind, tuple(sorted(params.items())))


# ---------------------------------------------------------------------------
# menus


def _bz_candidates(kind, rng):
    """Fixed candidate inputs for the band jobs (drawn once, by CANDIDATE_SEED)."""
    def idx(m=SOLVE_N):
        return [rng.randrange(m), rng.randrange(m)]

    out = []
    for _ in range(CANDIDATES_PER_KIND):
        if kind in PROFILE_KINDS:
            centre, winding = idx(SOLVE_N_SMALL), idx(SOLVE_N_SMALL)
            out.append(job("bz-solve", profile=kind,
                           omega=rng.choice(BZ_OMEGAS),
                           centre=centre if kind != "constant" else None,
                           winding=winding if kind == "phase-winding"
                           else None,
                           K=idx(SOLVE_N_SMALL),
                           k=idx(), k1=idx(), q=idx(), kf=idx(), kfp=idx()))
        elif kind == "gamma-scan":
            out.append(job("gamma-scan", omega=rng.choice(BZ_OMEGAS),
                           k=idx(SCAN_N), q=idx(SCAN_N)))
        elif kind == "series":
            out.append(job("series", omega=rng.choice(BZ_OMEGAS),
                           k=idx(SERIES_N), q=idx(SERIES_N)))
    return out


def candidates():
    """Every job input any seed can produce, keyed by candidate group."""
    rng = random.Random(CANDIDATE_SEED)
    groups = {kind: _bz_candidates(kind, rng)
              for kind in PROFILE_KINDS + ("gamma-scan", "series")}
    groups["chain-drive"] = [job("return-rate", L=DRIVE_L, omega=w,
                                 t_final=DRIVE_T) for w in CHAIN_OMEGAS]
    groups["chain-score"] = [job("score", L=SCORE_L, omega=w)
                             for w in CHAIN_OMEGAS]
    # The four small CLI scenarios run as one job, so that no job of the
    # menu lasts only milliseconds.
    groups["bz-dense-fixed"] = [job("band-suite")]
    return groups


BAND_SUITE = (
    job("kspace-map", N=256, omega=2.5, g=0.1),
    job("exciton", N=512),
    job("pomeranchuk", N=64, kF=math.pi / 30, omega=2.5535260858801344,
        g=0.05, gc0=0.1, delta_c=0.25),
    job("absorbance", L=3, gamma_broadening=0.05, omega_min=2.0,
        omega_max=4.0, n_omega=81),
)


WORKLOADS = ("chain-drive", "chain-score", "bz-solve", "bz-dense")


def make_pass(workload, rng):
    """One pass of ``workload``: the full menu, drawn and shuffled by rng."""
    groups = candidates()
    if workload in ("chain-drive", "chain-score"):
        jobs = list(groups[workload])
    elif workload == "bz-solve":
        jobs = [rng.choice(groups[kind]) for kind in PROFILE_KINDS]
    elif workload == "bz-dense":
        jobs = [rng.choice(groups["gamma-scan"]),
                rng.choice(groups["series"])] + list(groups["bz-dense-fixed"])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# resonance margins of generated inputs (cheap: no solves)


def chain_margin(omega, U=CHAIN_U):
    """Smallest ladder denominator |n*omega -+ U| over n = 1, 2, relative.

    The package's own ladder checks run first and raise at a resonance.
    """
    fswt._first_order_ladder(U, omega)
    HopExpansionCoeffs.from_model(U, omega)
    return min(abs(n * omega + s * U) for n in (1, 2) for s in (1, -1)) / omega


def vertex_margin(grid, prof, k, q, omega):
    """Gershgorin margin of the vertex at (k, q), and the bare-transition margin.

    The vertex is diag + V_{p-p'}/N off the diagonal; every eigenvalue lies
    within sum_{q' != 0} |V_q'|/N of a diagonal entry, so a positive first
    margin means no pair resonance.  The second is min |omega + e1 - e2|,
    which the scattering resolvent divides by.
    """
    nx, ny = grid.kx.size, grid.ky.size
    n = nx * ny
    ikx, iky = k[0] % nx, k[1] % ny
    iqx, iqy = q[0] % nx, q[1] % ny
    vq = np.abs(prof.Vq)
    radius = (float(vq.sum()) - float(vq[0, 0])) / n
    sum_v = (float(np.sum(prof.Vq)) - float(prof.Vq[0, 0])) / n
    shift = np.roll(np.roll(grid.eps1, -iqx, axis=0), -iqy, axis=1)
    diag = (omega + grid.eps1[ikx, iky]
            - grid.eps1[(ikx + iqx) % nx, (iky + iqy) % ny]
            + shift - grid.eps2 - sum_v)
    bare = float(np.min(np.abs(omega + grid.eps1 - grid.eps2)))
    return float(np.min(np.abs(diag))) - radius, bare


def job_margins(j, grids):
    """Resonance margins of one generated job (chain or band)."""
    p = j.p
    if j.kind in ("return-rate", "score"):
        return [chain_margin(p["omega"])]
    if j.kind == "bz-solve":
        # the self-energy solves at every (k, K - k) of the small grid
        small = grids[SOLVE_N_SMALL]
        prof = make_profile(small, p)
        n = SOLVE_N_SMALL
        out = []
        for k in np.ndindex(n, n):
            q = ((p["K"][0] - k[0]) % n, (p["K"][1] - k[1]) % n)
            out.extend(vertex_margin(small, prof, k, q, p["omega"]))
        big = grids[SOLVE_N]
        prof = make_profile(big, p, scale=2)
        for k, q in (((0, 0), (0, 0)), (p["k"], p["q"]), (p["k1"], p["q"])):
            out.extend(vertex_margin(big, prof, k, q, p["omega"]))
        return out
    if j.kind in ("gamma-scan", "series"):
        n = SCAN_N if j.kind == "gamma-scan" else SERIES_N
        grid = grids[n]
        prof = gamma.constant_profile(grid, U_COULOMB)
        return list(vertex_margin(grid, prof, p["k"], p["q"], p["omega"]))
    return []


# ---------------------------------------------------------------------------
# run context


@dataclass
class Context:
    """What the jobs of one process share: directory, grids, bases, clock."""

    workdir: Path
    refs: dict
    grids: dict = field(default_factory=dict)
    bases: dict = field(default_factory=dict)
    tracer: object = None
    job_seconds: float = 0.0   # CPU seconds of the current job
    job_wall: float = 0.0      # and its wall seconds
    nrmse_err: float = 0.0
    nrmse: dict = field(default_factory=dict)

    @contextmanager
    def timed(self):
        """Clocks, and job span when tracing, around calls into the package."""
        span = self.tracer.open("bench.job", "bench") if self.tracer else None
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.job_seconds += time.process_time() - c0
            self.job_wall += time.perf_counter() - w0
            if span is not None:
                self.tracer.close(span)

    def jobdir(self, name):
        d = self.workdir / name
        if d.exists():
            shutil.rmtree(d)
        d.mkdir(parents=True)
        return d


def band_grid(n):
    return kspace.BandGrid.square(n, n, **BANDS)


def make_profile(grid, p, scale=1):
    """Interaction profile of a bz-solve job on a grid ``scale`` x the small one."""
    kind = p["profile"]
    if kind == "constant":
        return gamma.constant_profile(grid, U_COULOMB)
    centre = tuple(scale * c for c in p["centre"])
    if kind == "valley-dip":
        return gamma.valley_dip_profile(grid, U_COULOMB, centre,
                                        PROFILE_WIDTH)
    winding = tuple(scale * c for c in p["winding"])
    return gamma.phase_winding_profile(grid, U_COULOMB, centre, winding,
                                       PROFILE_WIDTH)


def setup(workload, workdir):
    """Basis and grid construction plus one warm-up call per layer.

    Warming each layer here keeps first-call costs (lazy imports, library
    initialisation) out of job times and inside setup_s.
    """
    refs = json.loads(REFS_PATH.read_text()) if REFS_PATH.exists() else {}
    ctx = Context(workdir=workdir, refs=refs)
    if workload == "chain-score":
        n = (SCORE_L + 1) // 2
        ctx.bases[SCORE_L] = fock.build_sector_basis(SCORE_L, n, n)
    if workload in ("bz-solve", "bz-dense"):
        sizes = ((SOLVE_N_SMALL, SOLVE_N) if workload == "bz-solve"
                 else (SERIES_N, SCAN_N))
        for n in sizes:
            ctx.grids[n] = band_grid(n)
    _warm_up(ctx)
    return ctx


def _warm_up(ctx):
    p = fock.HubbardParams(L=4, J=1.0, U=CHAIN_U, g=3.0, omega=12.0)
    b = fock.build_sector_basis(4, 2, 2)
    h2 = fswt.floquet_h2(p, b, include_J2=True)
    psi0 = dynamics.cdw_state(b)
    traj = dynamics.evolve_exact(fswt.hubbard_harmonics(p, b), psi0, 0.2)
    dynamics.return_rate(dynamics.evolve_static(h2, psi0, traj.times), psi0)
    kernels.lanczos_expm_multiply(kernels.HamiltonianAction(h2.matrix), psi0,
                                  -0.1j)
    grid = band_grid(6)
    kspace.screened_detuning(grid, 2.0)
    dynamics.absorbance_ed(fock.TwoBandChainParams(L=2, **BANDS),
                           np.linspace(2.0, 4.0, 5), 0.05)
    gamma.series_vs_inverse(grid, gamma.constant_profile(grid, U_COULOMB),
                            (0, 0), (0, 0), 2.0, n_terms=4)
    gamma.eigen_sign_analysis(
        gamma.mf_gamma_matrix(grid, gamma.constant_profile(grid, U_COULOMB),
                              2.0))
    _cli(ctx, "warm-up", "derive-hamiltonian", chain_config(4, 12.0, order=4),
         timed=False)


# ---------------------------------------------------------------------------
# output checks


def _split_tokens(line):
    # commas inside operator labels such as Cdag(1,dn) do not separate fields
    return [t for t in re.split(r"[\s=]+|,(?![^()]*\))", line) if t]


def fingerprint(path):
    """Numbers of an output file reduced to a few moments, plus its layout.

    ``layout`` hashes the file with every number replaced by '#', so labels
    and ordering are compared exactly; ``moments`` are sum, position-weighted
    sum, sum of magnitudes and 2-norm of all numbers, compared to REL_TOL of
    the largest.
    """
    data = Path(path).read_bytes()
    if path.suffix == ".csv":
        header, _, body = data.partition(b"\n")
        rows = body.count(b"\n")
        values = np.array(body.replace(b"\n", b",").rstrip(b",").split(b","),
                          dtype=np.float64)
        layout = hashlib.sha256(header + b"|%d|%d" % (rows, values.size))
    else:
        nums, skeleton = [], []
        for line in data.decode().splitlines():
            parts = []
            for tok in _split_tokens(line):
                try:
                    nums.append(float(tok))
                    parts.append("#")
                except ValueError:
                    parts.append(tok)
            skeleton.append(" ".join(parts))
        values = np.array(nums, dtype=np.float64)
        layout = hashlib.sha256("\n".join(skeleton).encode())
    weights = 1.0 + np.modf(np.arange(values.size) * 0.6180339887498949)[0]
    moments = [float(values.sum()), float(weights @ values),
               float(np.abs(values).sum()), float(np.linalg.norm(values))]
    return {"layout": layout.hexdigest()[:16], "count": int(values.size),
            "moments": moments}


def compare(values, ref, rtol=REL_TOL):
    """Errors of ``values`` against a committed reference dict."""
    if ref is None:
        return ["no committed reference for this job"]
    errors = []
    for key in sorted(set(ref) | set(values)):
        if key not in values or key not in ref:
            errors.append(f"{key}: present in only one of output/reference")
            continue
        a, b = values[key], ref[key]
        if isinstance(b, dict):
            errors.extend(f"{key}.{e}" for e in compare(a, b, rtol))
        elif isinstance(b, (str, int)):  # includes bool; counts and flags
            if a != b:
                errors.append(f"{key}: {a!r} != reference {b!r}")
        else:
            av, bv = np.atleast_1d(a).astype(float), \
                np.atleast_1d(b).astype(float)
            scale = float(np.max(np.abs(bv))) if bv.size else 0.0
            if av.shape != bv.shape or \
                    np.max(np.abs(av - bv), initial=0.0) > rtol * scale:
                errors.append(f"{key}: {a!r} differs from reference {b!r} "
                              f"beyond {rtol:g} relative")
    return errors


def check_manifest(outdir, expected):
    """Manifest lists exactly ``expected`` and each checksum matches its file."""
    sums = {}
    for line in (outdir / "manifest.txt").read_text().splitlines():
        key, _, val = line.partition(" = ")
        if key.startswith("sha256."):
            sums[key[len("sha256."):]] = val
    errors = []
    if sorted(sums) != sorted(expected):
        errors.append(f"manifest lists {sorted(sums)}, expected "
                      f"{sorted(expected)}")
    for name, digest in sums.items():
        path = outdir / name
        if not path.exists() or \
                hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            errors.append(f"checksum of {name} does not match its manifest")
    return errors


def _cli(ctx, name, scenario, config, timed=True):
    """Run one CLI scenario in-process; returns (exit code, output dir)."""
    outdir = ctx.jobdir(name)
    cfg = outdir / "config.txt"
    cfg.write_text(config)
    argv = [scenario, "--config", str(cfg), "--out", str(outdir / "out"),
            "--threads", "1"]
    if timed:
        with ctx.timed():
            rc = cli.main(argv)
    else:
        rc = cli.main(argv)
    return rc, outdir / "out"


def _cli_checked(ctx, name, scenario, config, expected):
    rc, out = _cli(ctx, name, scenario, config)
    if rc != 0:
        return out, [f"{scenario} exited {rc}"]
    return out, check_manifest(out, expected)


def _fingerprints(out, names):
    return {n: fingerprint(out / n) for n in names}


# ---------------------------------------------------------------------------
# job runners: each returns (errors, values); values are what references hold


def config_text(**keys):
    """A CLI config file; floats keep every digit."""
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float) else
                   f"{k} = {v}\n" for k, v in keys.items())


def chain_config(L, omega, **extra):
    return config_text(units="J", L=L, U=CHAIN_U, g=omega / 4.0, omega=omega,
                       **extra)


def reference_dt(omega):
    return 2.0 * math.pi / (REF_STEPS_PER_PERIOD * omega)


def read_nrmse(out):
    vals = {}
    for line in (out / "nrmse.txt").read_text().splitlines():
        key, _, val = line.partition(" = ")
        vals[key] = float(val)
    return vals


def return_rate_job(ctx, L, omega, t_final, dt=None):
    """bench-return-rate through the CLI; errors and the two nrmse values."""
    extra = dict(t_final=t_final, sample_dt=SAMPLE_DT)
    if dt is not None:
        extra["dt"] = dt
    out, errors = _cli_checked(ctx, "return-rate", "bench-return-rate",
                               chain_config(L, omega, **extra),
                               ["return_rate.csv", "nrmse.txt"])
    if errors:
        return errors, {}
    with open(out / "return_rate.csv") as fh:
        fh.readline()
        l0 = float(fh.readline().split(",")[1])
    if abs(l0 - 1.0) > 1e-12:
        errors.append(f"L_exact(0) = {l0!r}, expected 1")
    return errors, read_nrmse(out)


def _check_nrmse(ctx, j, nrmse):
    ref = ctx.refs.get("nrmse_fine", {}).get(j.key)
    if ref is None:
        return [f"no fine-step nrmse reference for {j.key}"]
    ctx.nrmse[j.key] = nrmse
    errors = []
    for label in ("fswt", "hfe"):
        err = abs(nrmse[label] - ref[label])
        ctx.nrmse_err = max(ctx.nrmse_err, err)
        if err > NRMSE_TOL:
            errors.append(f"nrmse {label} = {nrmse[label]:.6f} is "
                          f"{err:.4f} from its fine-step reference "
                          f"{ref[label]:.6f} (tolerance {NRMSE_TOL})")
    return errors


def run_return_rate(ctx, j):
    p = j.p
    errors, nrmse = return_rate_job(ctx, p["L"], p["omega"], p["t_final"])
    if errors:
        return errors, {}
    return _check_nrmse(ctx, j, nrmse), {}


def run_score(ctx, j):
    """Score one omega at L=7: exact vs two candidates, h4, derive, strong."""
    p = j.p
    L, omega = p["L"], p["omega"]
    errors, nrmse = return_rate_job(ctx, L, omega, SCORE_T)
    if not errors:
        errors += _check_nrmse(ctx, job("return-rate", L=L, omega=omega,
                                        t_final=SCORE_T), nrmse)
    params = fock.HubbardParams(L=L, J=1.0, U=CHAIN_U, g=omega / 4.0,
                                omega=omega)
    with ctx.timed():
        h4 = fswt.floquet_h4(params, ctx.bases[L])
    values = {"h4": {"fro_norm": h4.fro_norm(),
                     "trace": float(h4.diagonal().real.sum()),
                     "hermitian": bool(h4.hermitian)}}
    out, errs = _cli_checked(ctx, "derive", "derive-hamiltonian",
                             chain_config(L, omega, order=4),
                             ["hamiltonian_terms.txt"])
    errors += errs
    if not errs:
        values["derive"] = _fingerprints(out, ["hamiltonian_terms.txt"])
    out, errs = _cli_checked(ctx, "strong", "strong-drive",
                             chain_config(L, omega),
                             ["harmonics.txt", "truncation.txt"])
    errors += errs
    if not errs:
        values["strong"] = _fingerprints(out, ["harmonics.txt",
                                               "truncation.txt"])
    return errors, values


def run_bz_solve(ctx, j):
    """Vertex solves on one seed-drawn profile: 16^2 self-energy, 32^2 column reads."""
    p = j.p
    small, big = ctx.grids[SOLVE_N_SMALL], ctx.grids[SOLVE_N]
    cav = kspace.CavitySpec(**CAVITY)
    with ctx.timed():
        prof_small = make_profile(small, p)
        prof = make_profile(big, p, scale=2)
        sigma = gamma.coulomb_mix_selfenergy(small, prof_small, DRIVE_G,
                                             p["omega"], tuple(p["K"]))
        den = gamma.mf_screened_denominator(big, prof, p["omega"])
        glob = gamma.cavity_global_interaction(big, prof, cav, p["omega"],
                                               tuple(p["kf"]),
                                               tuple(p["kfp"]))
        w = gamma.interaction_weight(big, prof, DRIVE_G, p["omega"],
                                     tuple(p["k"]), tuple(p["k1"]),
                                     tuple(p["q"]))
    den = np.asarray(den)
    values = {"selfenergy": float(sigma),
              "denominator": [float(den.real.sum()), float(den.imag.sum()),
                              float(np.abs(den).sum()),
                              float(np.abs(den).max())],
              "cavity_global": float(glob),
              "weight": [float(np.real(w)), float(np.imag(w))]}
    return [], values


def run_gamma_scan(ctx, j):
    p = j.p
    config = config_text(units="eV", Nx=SCAN_N, Ny=SCAN_N, **BANDS,
                         omega=p["omega"], U_coulomb=U_COULOMB,
                         profile="constant", kx_index=p["k"][0],
                         ky_index=p["k"][1], qx_index=p["q"][0],
                         qy_index=p["q"][1])
    names = ["gamma_matrix.csv", "eigen.csv"]
    out, errors = _cli_checked(ctx, "gamma-scan", "gamma-scan", config,
                               names)
    return errors, ({} if errors else _fingerprints(out, names))


def run_series(ctx, j):
    p = j.p
    grid = ctx.grids[SERIES_N]
    with ctx.timed():
        prof = gamma.constant_profile(grid, U_COULOMB)
        res = gamma.series_vs_inverse(grid, prof, tuple(p["k"]),
                                      tuple(p["q"]), p["omega"])
    errors = []
    if res["rho"] < 1.0 and not res["max_dev"] <= SERIES_DEV_TOL:
        errors.append(f"series_vs_inverse max_dev {res['max_dev']:.3e} > "
                      f"{SERIES_DEV_TOL:g} at rho {res['rho']:.4f} < 1")
    inv = res["inverse"]
    values = {"rho": res["rho"], "converged": bool(res["converged"]),
              "inverse": [float(inv.sum()), float(np.abs(inv).sum()),
                          float(np.trace(inv))]}
    return errors, values


def _band_cli(ctx, j, scenario, names, extra):
    p = j.p
    grid = dict(Nx=p["N"], Ny=p["N"], **BANDS) if "N" in p else {}
    out, errors = _cli_checked(ctx, scenario, scenario,
                               config_text(units="eV", **grid, **extra),
                               names)
    return errors, ({} if errors else _fingerprints(out, names))


def run_kspace_map(ctx, j):
    p = j.p
    return _band_cli(ctx, j, "kspace-map", ["kspace_map.csv",
                                            "dressed_band.txt"],
                     dict(omega=p["omega"], g=p["g"], quantity="dressed"))


def run_exciton(ctx, j):
    return _band_cli(ctx, j, "exciton", ["exciton.txt"], {})


def run_pomeranchuk(ctx, j):
    p = j.p
    return _band_cli(ctx, j, "pomeranchuk", ["pomeranchuk.txt"],
                     {k: p[k] for k in ("kF", "omega", "g", "gc0",
                                        "delta_c")})


def run_absorbance(ctx, j):
    p = j.p
    extra = dict(L=p["L"], **BANDS)
    extra.update({k: p[k] for k in ("gamma_broadening", "omega_min",
                                    "omega_max", "n_omega")})
    return _band_cli(ctx, j, "absorbance-ed", ["spectrum.csv"], extra)


def run_band_suite(ctx, j):
    """kspace-map (dressed) 256^2, exciton 512^2, pomeranchuk 64^2, absorbance L=3."""
    errors, values = [], {}
    for part in BAND_SUITE:
        errs, vals = RUNNERS[part.kind](ctx, part)
        errors += [f"{part.kind}: {e}" for e in errs]
        values[part.kind] = vals
    return errors, values


RUNNERS = {
    "return-rate": run_return_rate,
    "score": run_score,
    "bz-solve": run_bz_solve,
    "gamma-scan": run_gamma_scan,
    "series": run_series,
    "kspace-map": run_kspace_map,
    "exciton": run_exciton,
    "pomeranchuk": run_pomeranchuk,
    "absorbance": run_absorbance,
    "band-suite": run_band_suite,
}
# Jobs whose whole output is compared to REL_TOL; chain return rates are
# instead compared to the fine-step nrmse with NRMSE_TOL.
EXACT_KINDS = frozenset(RUNNERS) - {"return-rate"}


def run_job(ctx, j):
    """Run and check one job; returns (CPU seconds, errors)."""
    ctx.job_seconds = ctx.job_wall = 0.0
    errors, values = RUNNERS[j.kind](ctx, j)
    if not errors and j.kind in EXACT_KINDS:
        errors = compare(values, ctx.refs.get("outputs", {}).get(j.key))
    return ctx.job_seconds, errors
