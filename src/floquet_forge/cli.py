"""Configuration-driven scenario runner.

``floquet-forge <scenario> --config <file> [--out <dir>] [--threads 1]``

Scenarios read a flat ``key = value`` config (with ``#`` comments and a
mandatory ``units`` key), emit deterministic CSV/text files plus a manifest
with input echo, library version, grid sizes, and sha256 checksums.  The
output directory is ``--out`` (default: the working directory); it has no
second name in the config or the environment.  Every scenario runs on one
thread, and ``--threads`` accepts only 1: the benchmark harness passes it
to every job.  A key whose value a run would ignore is refused:
``include_J2`` at ``order = 4``, a nonzero ``g`` in ``kspace-map`` unless
``quantity = dressed``, and any ``gamma-scan`` profile but ``constant``.
An integer key must fit in 64 bits.  Exit codes: 0 ok, 1 config error, 2
physics error.
"""

import argparse
import hashlib
import math
import sys
from pathlib import Path

from . import __version__
from .errors import ConfigError, PhysicsError

__all__ = ["main", "parse_config"]

# rows formatted per block by Emitter.write_csv
CSV_BLOCK = 1 << 16
# largest absorbance-ed grid: absorbance_ed holds a few n_omega times
# (Krylov nodes) temporaries, and spectrum.csv has n_omega rows
MAX_N_OMEGA = 2 ** 20


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
    if typ is int and not -2 ** 63 <= value < 2 ** 63:
        raise ConfigError(f"key {key!r}: must fit in 64 bits, got {raw!r}")
    return value


# key -> (type, required, default); units is handled globally
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
                 "sample_dt": (float, False, 0.1)},
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
    allowed = set(schema["keys"]) | {"units"}
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
        """Write equal-length columns, each value formatted by ``fmt``.

        Each distinct value of a column is formatted once and every row is
        gathered from those strings; ``_distinct`` finds the values without
        sorting the column.  Rows are streamed to the file in blocks of
        ``CSV_BLOCK``, so a million-row table never sits in memory as text.
        A header whose length is not the column count, or columns of
        unequal length, raise ``ValueError`` before the file is opened.
        """
        import numpy as np

        cols = [np.ascontiguousarray(c) for c in columns]
        lengths = [len(c) for c in cols]
        if len(header) != len(cols):
            raise ValueError(f"{name}: {len(header)} header names for "
                             f"{len(cols)} columns")
        if len(set(lengths)) > 1:
            raise ValueError(f"{name}: columns of unequal lengths {lengths}")
        tables = []
        for i, c in enumerate(cols):
            values, inverse = _distinct(c)
            sep = "," if i < len(cols) - 1 else "\n"
            text = [fmt(v) + sep for v in values]
            tables.append((np.array(text, dtype=object), inverse))
        n = len(cols[0])
        path = self.outdir / name
        with path.open("w") as f:
            f.write(",".join(header) + "\n")
            for start in range(0, n, CSV_BLOCK):
                stop = min(n, start + CSV_BLOCK)
                cells = np.empty((stop - start, len(cols)), dtype=object)
                for j, (text, inverse) in enumerate(tables):
                    cells[:, j] = text[inverse[start:stop]]
                f.write("".join(cells.ravel().tolist()))
        self.files.append(name)
        return path

    def finish(self):
        lines = [f"scenario = {self.scenario}", f"version = {__version__}"]
        for key in sorted(self.cfg):
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


def _distinct(c):
    """The distinct values of column ``c`` and each row's index into them.

    An integer column whose span max - min is no longer than the column
    takes every value from min to max, indexed by its offset from min: no
    sort, no hashing.  Any other column is deduplicated by hashing, floats
    by their bits so that 0.0, -0.0 and each NaN payload keep their own
    text, and only the distinct values are sorted to look rows up.
    """
    import numpy as np

    if c.dtype.kind in "iu" and c.size:
        lo, hi = c.min(), c.max()
        if int(hi) - int(lo) <= c.size:
            # c - lo wraps in c's dtype; read unsigned, it is the exact
            # offset, because the span fits in as many bits
            return range(int(lo), int(hi) + 1), (c - lo).view(f"u{c.itemsize}")
    bits = c.view(f"u{c.itemsize}") if c.dtype.kind == "f" else c
    uniq = np.sort(np.unique(bits, sorted=False))
    return uniq.view(c.dtype).tolist(), np.searchsorted(uniq, bits)


# ---------------------------------------------------------------------------
# scenario runners (heavy imports stay inside so the entry point is light)


def _chain_from_cfg(cfg, em: Emitter):
    from .fock import HubbardParams

    p = HubbardParams(L=cfg["L"], J=1.0, U=cfg["U"], g=cfg["g"],
                      omega=cfg["omega"])
    em.note_grid("L", p.L)
    return p


def _grid_from_cfg(cfg, em: Emitter):
    from .kspace import BandGrid

    grid = BandGrid.square(cfg["Nx"], cfg["Ny"], cfg["eps21"], cfg["t1"],
                           cfg["t2"], cfg["U11"], cfg["U12"],
                           kF=cfg.get("kF"))
    em.note_grid("Nx", grid.kx.size)
    em.note_grid("Ny", grid.ky.size)
    return grid


def run_bench_return_rate(cfg, em: Emitter):
    from .dynamics import _check_static_dim, return_rate_benchmark
    from .fock import build_sector_basis
    from .fswt import floquet_h2, hfe_h

    p = _chain_from_cfg(cfg, em)
    n = (p.L + 1) // 2
    # refused before the basis is enumerated: L=16 has C(16, 8)^2 states
    _check_static_dim(math.comb(p.L, n) ** 2)
    b = build_sector_basis(p.L, n, n)
    em.note_grid("sector_dim", b.dim)
    hams = {"fswt": floquet_h2(p, b, include_J2=True), "hfe": hfe_h(p, b)}
    res = return_rate_benchmark(p, b, hams, cfg["t_final"], dt=cfg.get("dt"),
                                sample_dt=cfg["sample_dt"])
    curves = res["curves"]
    em.write_csv("return_rate.csv", ["t", "L_exact", "L_fswt", "L_hfe"],
                 [res["times"], res["L_exact"], curves["fswt"],
                  curves["hfe"]])
    em.write_text("nrmse.txt",
                  "".join(f"{label} = {fmt(err)}\n"
                          for label, err in res["nrmse"].items()))


def run_derive_hamiltonian(cfg, em: Emitter):
    from .fswt import floquet_h2_terms, floquet_h4_terms_j1

    if cfg["order"] not in (2, 4):
        raise ConfigError(f"order must be 2 or 4, got {cfg['order']}")
    if cfg["order"] == 4 and cfg["include_J2"]:
        raise ConfigError("include_J2 applies to order = 2 only; the "
                          "order-4 terms are at leading hopping order")
    p = _chain_from_cfg(cfg, em)
    if cfg["order"] == 2:
        terms = floquet_h2_terms(p, include_J2=cfg["include_J2"])
    else:
        terms = floquet_h4_terms_j1(p)
    em.write_text("hamiltonian_terms.txt",
                  "\n".join(terms.dump_lines()) + "\n")


def run_kspace_map(cfg, em: Emitter):
    import numpy as np

    from .kspace import (bare_detuning, bs_detuning, floquet_band,
                         screened_detuning)

    detunings = {"bare": bare_detuning, "screened": screened_detuning,
                 "bs": bs_detuning}
    q = cfg["quantity"]
    if q not in detunings and q != "dressed":
        raise ConfigError(f"quantity must be bare/screened/bs/dressed, "
                          f"got {q!r}")
    if q != "dressed" and cfg["g"] != 0.0:
        raise ConfigError(f"g is read only by quantity = dressed, got "
                          f"g = {fmt(cfg['g'])} with quantity = {q}")
    grid = _grid_from_cfg(cfg, em)
    if q == "dressed":
        band = floquet_band(grid, cfg["omega"], cfg["g"])
        value = band["eps_tilde"]
        em.write_text("dressed_band.txt",
                      f"t_tilde = {fmt(band['t_tilde'])}\n")
    else:
        value = detunings[q](grid, cfg["omega"])
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

    from .gamma import (MAX_DENSE, _rank_one_vertex_eigvalsh,
                        constant_profile, gamma_matrix)

    # the vertex reads V_q alone, which every coupling profile sets to
    # U_coulomb; the couplings J12 reach only the solve-based functions
    if cfg["profile"] != "constant":
        raise ConfigError(f"profile must be constant, got "
                          f"{cfg['profile']!r}: coupling profiles change the "
                          f"solve-based functions, not the vertex")
    if cfg["Nx"] * cfg["Ny"] > MAX_DENSE:
        raise ConfigError(f"dense vertex capped at {MAX_DENSE} momenta, "
                          f"got {cfg['Nx']}x{cfg['Ny']}")
    grid = _grid_from_cfg(cfg, em)
    prof = constant_profile(grid, cfg["U_coulomb"])
    k = (cfg["kx_index"], cfg["ky_index"])
    q = (cfg["qx_index"], cfg["qy_index"])
    gm = gamma_matrix(grid, prof, k, q, cfg["omega"])
    # E_j = omega - lambda_j ascending, as eigen_sign_analysis gives them,
    # without the eigenvectors nothing here reads; the constant V_q gives
    # the eigenvalues from the secular equation, found before any file is
    # written
    energies = gm.omega - _rank_one_vertex_eigvalsh(grid, prof, k, q,
                                                    cfg["omega"])[::-1]
    idx = np.arange(gm.dim)
    em.write_csv("gamma_matrix.csv", ["k_index", "k1_index", "re", "im"],
                 [np.repeat(idx, gm.dim), np.tile(idx, gm.dim),
                  gm.matrix.ravel(), np.zeros(gm.dim ** 2, dtype=np.int8)])
    em.write_csv("eigen.csv", ["j", "E_j"],
                 [np.arange(len(energies)), energies])


def run_absorbance_ed(cfg, em: Emitter):
    import numpy as np

    from .dynamics import absorbance_ed
    from .fock import TwoBandChainParams

    if cfg["n_omega"] < 2:
        raise ConfigError(f"n_omega must be >= 2, got {cfg['n_omega']}")
    if cfg["n_omega"] > MAX_N_OMEGA:
        raise ConfigError(f"n_omega capped at {MAX_N_OMEGA}, got "
                          f"{cfg['n_omega']}")
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

    if not 0.0 < cfg["kF"] < math.pi / 4.0:
        raise ConfigError(f"kF must be in (0, pi/4), got {cfg['kF']}")
    grid = _grid_from_cfg(cfg, em)
    cav = CavitySpec(g=cfg["g"], gc0=cfg["gc0"], delta_c=cfg["delta_c"])
    res = pomeranchuk_check(grid, cav, cfg["omega"])
    em.write_text("pomeranchuk.txt",
                  "".join(f"{key} = {fmt(res[key])}\n"
                          for key in ("lhs", "rhs", "eta", "triggered")))


def run_strong_drive(cfg, em: Emitter):
    from .fswt import strong_drive_harmonics

    p = _chain_from_cfg(cfg, em)
    static, harmonics, trunc = strong_drive_harmonics(p, cfg["jmax"])
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
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="thread count; only 1 is accepted")
    args = parser.parse_args(argv)
    if args.threads != 1:
        print(f"config error: thread count must be 1, got {args.threads}",
              file=sys.stderr)
        return 1

    try:
        raw = parse_config(args.config)
        cfg = validate_config(args.scenario, raw)
        em = Emitter(Path(args.out), args.scenario, cfg)
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
    except OSError as exc:
        print(f"config error: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
