"""Configuration-driven scenario runner.

``floquet-forge <scenario> --config <file> [--out <dir>] [--threads N]``

Scenarios read a flat ``key = value`` config (with ``#`` comments and a
mandatory ``units`` key), emit deterministic CSV/text files plus a manifest
with input echo, library version, grid sizes, and sha256 checksums.  Exit
codes: 0 ok, 1 config error, 2 physics error.
"""

import argparse
import hashlib
import math
import os
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, PhysicsError

__all__ = ["main", "parse_config"]

# rows formatted per block by Emitter.write_csv
CSV_BLOCK = 1 << 16


def fmt(x):
    """Canonical float formatting used in every emitted file."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# config handling


def parse_config(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def _coerce(key, raw, typ):
    if typ is str:
        return raw
    if typ is bool:
        low = raw.lower()
        if low not in ("true", "false"):
            raise ConfigError(f"key {key!r}: expected true/false, got {raw!r}")
        return low == "true"
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as "
                          f"{typ.__name__}") from exc
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"key {key!r}: must be finite, got {raw!r}")
    return value


# key -> (type, required, default); units/output_dir are handled globally
_CHAIN_KEYS = {"L": (int, True, None), "U": (float, True, None),
               "g": (float, True, None), "omega": (float, True, None)}
_BAND_KEYS = {"Nx": (int, True, None), "Ny": (int, True, None),
              "eps21": (float, True, None), "t1": (float, True, None),
              "t2": (float, True, None), "U11": (float, True, None),
              "U12": (float, True, None)}
SCHEMAS = {
    "bench-return-rate": {
        "units": "J",
        "keys": {**_CHAIN_KEYS,
                 "t_final": (float, False, 60.0),
                 "dt": (float, False, None),
                 "sample_dt": (float, False, 0.1),
                 "tolerance": (float, False, 1e-10)},
    },
    "derive-hamiltonian": {
        "units": "J",
        "keys": {**_CHAIN_KEYS,
                 "order": (int, False, 2),
                 "include_J2": (bool, False, False)},
    },
    "kspace-map": {
        "units": "eV",
        "keys": {**_BAND_KEYS, "omega": (float, True, None),
                 "g": (float, False, 0.0), "kF": (float, False, None),
                 "quantity": (str, False, "screened")},
    },
    "exciton": {
        "units": "eV",
        "keys": {**_BAND_KEYS, "kF": (float, False, None)},
    },
    "gamma-scan": {
        "units": "eV",
        "keys": {**_BAND_KEYS, "omega": (float, True, None),
                 "U_coulomb": (float, True, None),
                 "profile": (str, False, "constant"),
                 "width": (float, False, None),
                 "Kx": (int, False, None), "Ky": (int, False, None),
                 "Kpx": (int, False, None), "Kpy": (int, False, None),
                 "kx_index": (int, False, 0), "ky_index": (int, False, 0),
                 "qx_index": (int, False, 0), "qy_index": (int, False, 0)},
    },
    "absorbance-ed": {
        "units": "eV",
        "keys": {"L": (int, True, None), "eps21": (float, True, None),
                 "t1": (float, True, None), "t2": (float, True, None),
                 "U11": (float, True, None), "U12": (float, True, None),
                 "gamma_broadening": (float, True, None),
                 "omega_min": (float, True, None),
                 "omega_max": (float, True, None),
                 "n_omega": (int, True, None)},
    },
    "pomeranchuk": {
        "units": "eV",
        "keys": {**_BAND_KEYS, "omega": (float, True, None),
                 "g": (float, True, None), "gc0": (float, True, None),
                 "delta_c": (float, True, None), "kF": (float, True, None)},
    },
    "strong-drive": {
        "units": "J",
        "keys": {**_CHAIN_KEYS, "jmax": (int, False, 10)},
    },
}


def validate_config(scenario, raw):
    schema = SCHEMAS[scenario]
    allowed = set(schema["keys"]) | {"units", "output_dir"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) for {scenario}: "
                          f"{', '.join(unknown)}")
    if "units" not in raw:
        raise ConfigError("mandatory key 'units' is missing")
    if raw["units"] != schema["units"]:
        raise ConfigError(f"scenario {scenario} requires units = "
                          f"{schema['units']}, got {raw['units']!r}")
    cfg = {"units": raw["units"]}
    if "output_dir" in raw:
        cfg["output_dir"] = raw["output_dir"]
    for key, (typ, required, default) in schema["keys"].items():
        if key in raw:
            cfg[key] = _coerce(key, raw[key], typ)
        elif required:
            raise ConfigError(f"scenario {scenario} requires key {key!r}")
        elif default is not None:
            cfg[key] = default
    return cfg


# ---------------------------------------------------------------------------
# output helpers


class Emitter:
    """Serialized deterministic file writes plus the closing manifest."""

    def __init__(self, outdir: Path, scenario, cfg):
        self.outdir = outdir
        self.scenario = scenario
        self.cfg = cfg
        self.files = []
        self.grid_notes = []
        outdir.mkdir(parents=True, exist_ok=True)

    def note_grid(self, label, value):
        self.grid_notes.append((label, str(value)))

    def write_text(self, name, text):
        path = self.outdir / name
        path.write_text(text)
        self.files.append(name)
        return path

    def write_csv(self, name, header, columns):
        """Write equal-length columns, each value formatted as ``fmt`` does.

        An integer column is written with ``str``, any other with ``.17g``.
        Rows are formatted from ``tolist()`` slices and streamed to the file
        in blocks, so a million-row table never sits in memory as text.
        """
        import numpy as np

        cols = [np.asarray(c) for c in columns]
        row = ",".join("{}" if c.dtype.kind in "iu" else "{:.17g}"
                       for c in cols) + "\n"
        path = self.outdir / name
        with path.open("w") as f:
            f.write(",".join(header) + "\n")
            for start in range(0, len(cols[0]), CSV_BLOCK):
                block = [c[start:start + CSV_BLOCK].tolist() for c in cols]
                f.write("".join(map(row.format, *block)))
        self.files.append(name)
        return path

    def finish(self):
        lines = [f"scenario = {self.scenario}", f"version = {__version__}"]
        for key in sorted(self.cfg):
            if key == "output_dir":
                continue
            v = self.cfg[key]
            shown = fmt(v) if isinstance(v, (bool, int, float)) else str(v)
            lines.append(f"input.{key} = {shown}")
        for label, value in self.grid_notes:
            lines.append(f"grid.{label} = {value}")
        for name in self.files:
            digest = hashlib.sha256(
                (self.outdir / name).read_bytes()).hexdigest()
            lines.append(f"sha256.{name} = {digest}")
        (self.outdir / "manifest.txt").write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# scenario runners (heavy imports stay inside so the entry point is light)


def run_bench_return_rate(cfg, em: Emitter, threads):
    from .dynamics import return_rate_benchmark
    from .fock import HubbardParams, build_sector_basis
    from .fswt import floquet_h2, hfe_h

    p = HubbardParams(L=cfg["L"], J=1.0, U=cfg["U"], g=cfg["g"],
                      omega=cfg["omega"])
    n = (p.L + 1) // 2
    b = build_sector_basis(p.L, n, n)
    em.note_grid("L", p.L)
    em.note_grid("sector_dim", b.dim)
    hams = {"fswt": floquet_h2(p, b, include_J2=True), "hfe": hfe_h(p, b)}
    res = return_rate_benchmark(p, b, hams, cfg["t_final"], dt=cfg.get("dt"),
                                sample_dt=cfg["sample_dt"],
                                tol=cfg["tolerance"], threads=threads)
    curves = res["curves"]
    em.write_csv("return_rate.csv", ["t", "L_exact", "L_fswt", "L_hfe"],
                 [res["times"], res["L_exact"], curves["fswt"],
                  curves["hfe"]])
    em.write_text("nrmse.txt",
                  "".join(f"{label} = {fmt(err)}\n"
                          for label, err in res["nrmse"].items()))


def run_derive_hamiltonian(cfg, em: Emitter):
    from .fock import HubbardParams
    from .fswt import floquet_h2_terms, floquet_h4_terms_j1

    p = HubbardParams(L=cfg["L"], J=1.0, U=cfg["U"], g=cfg["g"],
                      omega=cfg["omega"])
    em.note_grid("L", p.L)
    if cfg["order"] == 2:
        terms = floquet_h2_terms(p, include_J2=cfg["include_J2"])
    elif cfg["order"] == 4:
        terms = floquet_h4_terms_j1(p)
    else:
        raise ConfigError(f"order must be 2 or 4, got {cfg['order']}")
    em.write_text("hamiltonian_terms.txt",
                  "\n".join(terms.dump_lines()) + "\n")


def _grid_from_cfg(cfg, em: Emitter):
    from .kspace import BandGrid

    grid = BandGrid.square(cfg["Nx"], cfg["Ny"], cfg["eps21"], cfg["t1"],
                           cfg["t2"], cfg["U11"], cfg["U12"],
                           kF=cfg.get("kF"))
    em.note_grid("Nx", grid.kx.size)
    em.note_grid("Ny", grid.ky.size)
    return grid


def run_kspace_map(cfg, em: Emitter):
    import numpy as np

    from .kspace import (bare_detuning, bs_detuning, floquet_band,
                         screened_detuning)

    grid = _grid_from_cfg(cfg, em)
    q = cfg["quantity"]
    if q == "bare":
        value = bare_detuning(grid, cfg["omega"])
    elif q == "screened":
        value = screened_detuning(grid, cfg["omega"])
    elif q == "bs":
        value = bs_detuning(grid, cfg["omega"])
    elif q == "dressed":
        band = floquet_band(grid, cfg["omega"], cfg["g"])
        value = band["eps_tilde"]
        em.write_text("dressed_band.txt",
                      f"t_tilde = {fmt(band['t_tilde'])}\n")
    else:
        raise ConfigError(f"quantity must be bare/screened/bs/dressed, "
                          f"got {q!r}")
    em.write_csv("kspace_map.csv", ["kx", "ky", "value"],
                 [np.repeat(grid.kx, grid.ky.size),
                  np.tile(grid.ky, grid.kx.size), np.ravel(value)])


def run_exciton(cfg, em: Emitter):
    from .kspace import exciton_frequency

    grid = _grid_from_cfg(cfg, em)
    w = exciton_frequency(grid)
    em.write_text("exciton.txt", f"omega_ex = {fmt(w)}\nunits = eV\n")


def run_gamma_scan(cfg, em: Emitter):
    import numpy as np

    from .gamma import (constant_profile, eigen_sign_analysis, gamma_matrix,
                        phase_winding_profile, valley_dip_profile)

    grid = _grid_from_cfg(cfg, em)
    name = cfg["profile"]
    if name == "constant":
        prof = constant_profile(grid, cfg["U_coulomb"])
    elif name == "valley-dip":
        if cfg.get("width") is None or cfg.get("Kx") is None \
                or cfg.get("Ky") is None:
            raise ConfigError("valley-dip profile requires width, Kx, Ky")
        prof = valley_dip_profile(grid, cfg["U_coulomb"],
                                  (cfg["Kx"], cfg["Ky"]), cfg["width"])
    elif name == "phase-winding":
        needed = ("width", "Kx", "Ky", "Kpx", "Kpy")
        if any(cfg.get(k) is None for k in needed):
            raise ConfigError("phase-winding profile requires "
                              "width, Kx, Ky, Kpx, Kpy")
        prof = phase_winding_profile(grid, cfg["U_coulomb"],
                                     (cfg["Kx"], cfg["Ky"]),
                                     (cfg["Kpx"], cfg["Kpy"]), cfg["width"])
    else:
        raise ConfigError(f"profile must be constant/valley-dip/"
                          f"phase-winding, got {name!r}")
    gm = gamma_matrix(grid, prof, (cfg["kx_index"], cfg["ky_index"]),
                      (cfg["qx_index"], cfg["qy_index"]), cfg["omega"])
    idx = np.arange(gm.dim)
    em.write_csv("gamma_matrix.csv", ["k_index", "k1_index", "re", "im"],
                 [np.repeat(idx, gm.dim), np.tile(idx, gm.dim),
                  gm.matrix.ravel(), np.zeros(gm.dim ** 2)])
    energies = eigen_sign_analysis(gm)["energies"]
    em.write_csv("eigen.csv", ["j", "E_j"],
                 [np.arange(len(energies)), energies])


def run_absorbance_ed(cfg, em: Emitter):
    import numpy as np

    from .dynamics import absorbance_ed
    from .fock import TwoBandChainParams

    if cfg["n_omega"] < 2:
        raise ConfigError(f"n_omega must be >= 2, got {cfg['n_omega']}")
    if not cfg["omega_max"] > cfg["omega_min"]:
        raise ConfigError("omega_max must exceed omega_min")
    p = TwoBandChainParams(L=cfg["L"], eps21=cfg["eps21"], t1=cfg["t1"],
                           t2=cfg["t2"], U11=cfg["U11"], U12=cfg["U12"])
    em.note_grid("L", p.L)
    wgrid = np.linspace(cfg["omega_min"], cfg["omega_max"], cfg["n_omega"])
    alpha = absorbance_ed(p, wgrid, cfg["gamma_broadening"])
    em.write_csv("spectrum.csv", ["omega", "alpha"], [wgrid, alpha])


def run_pomeranchuk(cfg, em: Emitter):
    from .kspace import CavitySpec, pomeranchuk_check

    grid = _grid_from_cfg(cfg, em)
    cav = CavitySpec(g=cfg["g"], gc0=cfg["gc0"], delta_c=cfg["delta_c"])
    res = pomeranchuk_check(grid, cav, cfg["omega"], cfg["kF"])
    em.write_text("pomeranchuk.txt",
                  "".join(f"{key} = {fmt(res[key])}\n"
                          for key in ("lhs", "rhs", "eta", "triggered")))


def run_strong_drive(cfg, em: Emitter):
    from .fswt import strong_drive_harmonics

    static, harmonics, trunc = strong_drive_harmonics(
        cfg["L"], 1.0, cfg["U"], cfg["g"], cfg["omega"], jmax=cfg["jmax"])
    em.note_grid("L", cfg["L"])
    blocks = ["# static"] + static.dump_lines()
    for m, tsum in harmonics.items():
        blocks.append(f"# harmonic {m}")
        blocks.extend(tsum.dump_lines())
    em.write_text("harmonics.txt", "\n".join(blocks) + "\n")
    em.write_text("truncation.txt", f"truncation_error = {fmt(trunc)}\n")


RUNNERS = {
    "bench-return-rate": run_bench_return_rate,
    "derive-hamiltonian": run_derive_hamiltonian,
    "kspace-map": run_kspace_map,
    "exciton": run_exciton,
    "gamma-scan": run_gamma_scan,
    "absorbance-ed": run_absorbance_ed,
    "pomeranchuk": run_pomeranchuk,
    "strong-drive": run_strong_drive,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are config errors (exit 1)
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv=None):
    parser = _Parser(prog="floquet-forge",
                     description="driven-lattice effective Hamiltonians "
                                 "and screened interactions")
    parser.add_argument("scenario", choices=sorted(RUNNERS))
    parser.add_argument("--config", required=True, help="key = value file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="Python-level shard count (or FF_THREADS)")
    args = parser.parse_args(argv)

    threads = args.threads
    if threads is None:
        env = os.environ.get("FF_THREADS", "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                print(f"config error: FF_THREADS={env!r} is not an integer",
                      file=sys.stderr)
                return 1
        else:
            threads = 1
    if threads < 1:
        print(f"config error: thread count must be >= 1, got {threads}",
              file=sys.stderr)
        return 1

    try:
        raw = parse_config(args.config)
        cfg = validate_config(args.scenario, raw)
        outdir = Path(args.out if args.out is not None
                      else cfg.get("output_dir", "."))
        em = Emitter(outdir, args.scenario, cfg)
        # only the benchmark shards its work; no other runner takes threads
        if args.scenario == "bench-return-rate":
            run_bench_return_rate(cfg, em, threads)
        else:
            RUNNERS[args.scenario](cfg, em)
        em.finish()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
