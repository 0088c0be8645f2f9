"""Self-tests of the benchmark harness (no heavy runs).

    python3 -m pytest -q perfbench
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _pass_keys(workload, seed, passes=3):
    rng = random.Random(seed)
    return [[j.key for j in wl.make_pass(workload, rng)]
            for _ in range(passes)]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_determines_inputs(workload):
    assert _pass_keys(workload, 7) == _pass_keys(workload, 7)
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_pass_does_the_same_work(workload):
    def kinds(seed):
        return [sorted(j.kind for j in jobs)
                for jobs in [[wl.Job(k.split(":", 1)[0]) for k in keys]
                             for keys in _pass_keys(workload, seed)]]

    first = kinds(0)
    assert all(k == first[0] for k in first)
    for seed in range(1, 20):
        assert kinds(seed) == first


def test_drawn_inputs_have_committed_references():
    refs = json.loads(wl.REFS_PATH.read_text())
    for workload in wl.WORKLOADS:
        for seed in range(50):
            for j in wl.make_pass(workload, random.Random(seed)):
                if j.kind in wl.EXACT_KINDS:
                    assert j.key in refs["outputs"], j.key
                if j.kind == "return-rate":
                    assert j.key in refs["nrmse_fine"], j.key


def test_generators_never_draw_a_resonant_job():
    grids = {n: wl.band_grid(n) for n in (wl.SOLVE_N_SMALL, wl.SOLVE_N,
                                          wl.SERIES_N, wl.SCAN_N)}
    seen = {}
    for workload in wl.WORKLOADS:
        for seed in range(200):
            rng = random.Random(seed)
            for _ in range(3):
                for j in wl.make_pass(workload, rng):
                    if j.key not in seen:
                        seen[j.key] = min(wl.job_margins(j, grids),
                                          default=1.0)
    assert len(seen) > 20
    worst = min(seen, key=seen.get)
    assert seen[worst] > 0.1, (worst, seen[worst])


def test_span_self_time_with_nested_spans_of_one_job():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0, 9.0, 10.0, 20.0, 21.0, 23.0, 23.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    tr.job = 3
    job = tr.open("bench.job", "bench")            # 0 .. 10
    outer = tr.open("cli.main", "cli")              # 1 .. 9
    inner = tr.open("gamma.gamma_matrix", "gamma")  # 2 .. 4
    tr.close(inner)
    again = tr.open("gamma.gamma_matrix", "gamma")  # 5 .. 9
    tr.close(again)
    tr.close(outer)
    tr.close(job)
    tr.job = 4
    other = tr.open("bench.job", "bench")           # 20 .. 23
    leaf = tr.open("kspace.bare_detuning", "kspace")  # 21 .. 23
    tr.close(leaf)
    tr.close(other)

    assert tr.self_times() == [2.0, 2.0, 2.0, 4.0, 1.0, 2.0]
    layer_self, func_self, func_incl, calls = tr.summary()
    assert layer_self["bench"] == 3.0
    assert layer_self["cli"] == 2.0
    assert layer_self["gamma"] == 6.0
    assert func_incl["gamma.gamma_matrix"] == 6.0
    assert calls["gamma.gamma_matrix"] == 2
    assert sum(layer_self.values()) == func_incl["bench.job"] == 13.0
    per_job = run.per_job_layers(tr)
    assert per_job[3] == {"bench": 2.0, "cli": 2.0, "gamma": 6.0}
    assert per_job[4] == {"bench": 1.0, "kspace": 2.0}


def test_recursive_span_counts_once_inclusive():
    ticks = iter([0.0, 1.0, 3.0, 4.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    a = tr.open("dynamics.f", "dynamics")
    b = tr.open("dynamics.f", "dynamics")
    tr.close(b)
    tr.close(a)
    _, func_self, func_incl, _ = tr.summary()
    assert func_incl["dynamics.f"] == 4.0
    assert func_self["dynamics.f"] == 4.0


def test_every_benchmark_metric_is_reported_with_its_unit():
    e2e = run.end_to_end_metrics({"a": [1.0, 5.0, 1.2], "b": [2.0],
                                  "c": [3.0]}, 0, [0.5, 0.6, 0.7], 100.0)
    layers = run.layer_metrics(tracing.Tracer(), 3, 0, 0.01)
    for section, got in (("end_to_end", e2e), ("per_layer", layers)):
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: u for k, (_, u) in got.items()} == want
    assert e2e["job_s_p50"][0] == 2.0
    assert e2e["jobs_per_s"][0] == pytest.approx(3 / (1.2 + 2.0 + 3.0))
    assert e2e["setup_s"][0] == 0.6


def test_fingerprint_catches_a_changed_digit(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text("0.5 0 Cdag(1,dn) C(2,dn)\n0.25 0 N(1,up)\n")
    b = tmp_path / "b.txt"
    b.write_text("0.5 0 Cdag(1,dn) C(2,dn)\n0.2500001 0 N(1,up)\n")
    ref = wl.fingerprint(a)
    assert ref["count"] == 4
    assert wl.compare({"f": wl.fingerprint(a)}, {"f": ref}) == []
    assert wl.compare({"f": wl.fingerprint(b)}, {"f": ref})
    swapped = tmp_path / "c.txt"
    swapped.write_text("0.25 0 Cdag(1,dn) C(2,dn)\n0.5 0 N(1,up)\n")
    assert wl.compare({"f": wl.fingerprint(swapped)}, {"f": ref})


def test_run_refuses_without_package_source(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "bz-dense", "--seed", "1", "--seconds",
                     "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""


def test_reference_factor_follows_the_mean_probe():
    ref = run.CAL_REF_S
    assert run.to_reference([ref, ref]) == 1.0
    assert run.to_reference([ref, 3 * ref]) == pytest.approx(0.5)
