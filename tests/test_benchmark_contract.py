"""The package names and signatures the benchmark under ``perfbench/`` uses.

The benchmark imports the package from ``src/`` and calls it directly, so a
renamed function or a dropped argument breaks it without failing any other
test.  One traced bz-solve job checks both the calls and their outputs
against ``perfbench/references.json``.  It runs in a subprocess because
``tracing.install`` rewraps the package's functions for the whole process.
A second subprocess makes the calls of the chain workloads: the run
environment, the chain warm-up, the ladder margin and a small
``bench-return-rate`` through the CLI.  A third runs one bz-dense series
job, which checks ``rho`` and the inverse against the references and the
series against the inverse, and bz-dense's two CLI jobs, a gamma-scan and
the band suite, whose emitted files it checks against the references.  A
fourth runs one chain-score job, which
checks the order-g^4 block's norm and trace (roundoff of an exact zero, so
it moves with any change to the order of a sum in its assembly), the
derived terms and the strong-drive harmonics against the references.
"""
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path

    root, work = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import tracing
    import workloads

    tracing.install(tracing.Tracer())
    ctx = workloads.setup("bz-solve", work)
    job = workloads.candidates()["phase-winding"][0]
    _, errors = workloads.run_job(ctx, job)
    assert errors == [], errors
""")


def test_traced_bz_solve_job_matches_references(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


CHAIN_SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path

    root, work = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import run
    import workloads

    run.environment({})
    ctx = workloads.setup("chain-drive", work)
    workloads.chain_margin(12.0)
    errors, nrmse = workloads.return_rate_job(ctx, 4, 12.0, 1.0)
    assert errors == [], errors
    assert sorted(nrmse) == ["fswt", "hfe"], nrmse
""")


def test_chain_workload_calls_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CHAIN_SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


SERIES_SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path

    root, work = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    ctx = workloads.setup("bz-dense", work)
    job = workloads.candidates()["series"][0]
    _, errors = workloads.run_job(ctx, job)
    assert errors == [], errors
""")


def test_bz_dense_series_job_matches_references(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SERIES_SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


CLI_JOBS_SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path

    root, work = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    ctx = workloads.setup("bz-dense", work)
    groups = workloads.candidates()
    for job in (groups["gamma-scan"][0], groups["bz-dense-fixed"][0]):
        _, errors = workloads.run_job(ctx, job)
        assert errors == [], (job.kind, errors)
""")


def test_bz_dense_cli_jobs_match_references(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", CLI_JOBS_SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


SCORE_SCRIPT = textwrap.dedent("""
    import sys
    from pathlib import Path

    root, work = Path(sys.argv[1]), Path(sys.argv[2])
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    ctx = workloads.setup("chain-score", work)
    job = workloads.candidates()["chain-score"][1]
    _, errors = workloads.run_job(ctx, job)
    assert errors == [], errors
""")


def test_chain_score_job_matches_references(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCORE_SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
