"""Write a fixed corpus of seeded CLI reports, for byte-identity checks.

    python3 tests/report_corpus.py OUT_DIR

Each entry runs ``python -m whqrom.cli`` in a fresh process, on the
``src/`` next to this file, with ``--out OUT_DIR/<entry>``.  Beside the
reports and files the command writes, ``run.txt`` holds its argv, exit
code, stdout and stderr, with the output directory written as ``<out>``
and the source directory as ``<src>``.  A refactor that must keep every
report unchanged runs this script in a checkout of the parent and in the
change and compares the two with ``diff -r``.

The corpus holds ``molham`` on ten specs under both backends with
``--strategy all``, ``FULL_DVR`` and ``LCU_FBR``, plus one ``--sweep`` run;
``wht-analyze`` and ``compare`` on the harmonic, Morse and wells surfaces
at eta 8 and 12 (``compare`` also at eta 16), digits 8, 15, 24 and 33 and
epsilon 2^-6, 2^-10 and 2^-14; ``qrom-synth`` (whose ``qrom_circuit.txt``
holds the wire text) at eta 12 and 18 and ``compare`` at eta 18, on the
same surfaces with digits 15 and epsilon 2^-6 and 2^-10; ``dvr-check`` for
Hermite and Legendre at n 32 with the default segment, and at n 16, 48 and
64 with ``--segment`` 1, 2, 4, ... up to n (for Hermite, past 32 only the
refused 64 at n 64); and ``blockenc-verify`` at seeds 0-3 and with
``--input`` on three coordinate-list matrices (:data:`COO_MATRICES`).
An entry's input file (``spec.yaml`` or ``matrix.csv``) is written into its
output directory, and ``{input}`` in its argv stands for that file.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_M_H, _M_O = 1.00782503, 15.99491462
_MU = 1.0 / (1.0 / _M_H + 1.0 / _M_O)


def _water(n_r1=8, n_r2=8, n_th=8, masses=(_MU, _MU), **extra) -> dict:
    spec = {
        "basis_sizes": [n_r1, n_r2, n_th],
        "masses_da": list(masses),
        "freqs_cm": [3700.0, 3700.0],
        "r0_angstrom": 0.9578,
        "coupling_mass_da": _M_O,
        "bend_center_u": math.cos(math.radians(104.5)),
    }
    spec.update(extra)
    return spec


def _radial(sizes, **extra) -> dict:
    spec = {
        "basis_sizes": list(sizes),
        "masses_da": [1.0] * len(sizes),
        "freqs_cm": [2000.0] * len(sizes),
        "r0_angstrom": 3.0,
    }
    spec.update(extra)
    return spec


#: molham specs: (name, YAML mapping); an asymmetric water spec makes the
#: reduced strategies exit 2.  16x16x16 is the largest grid whose FULL_DVR
#: max|H| is exact.
SPECS = [
    ("water_8x8x8", _water()),
    ("water_8x8x16_j2", _water(n_th=16, theta_max=2.5, j_total=2)),
    ("water_12x12x14", _water(12, 12, 14)),
    ("water_8x16x8", _water(8, 16, 8)),
    ("water_16x16x16", _water(16, 16, 16)),
    ("water_16x16x8_j1", _water(16, 16, 8, theta_max=2.0, j_total=1)),
    ("water_asym_masses", _water(masses=(0.948, 1.896))),
    ("radial_32", _radial((32,))),
    ("radial_8x16_coupled", _radial((8, 16), coupling_mass_da=16.0)),
    ("radial_8x8", {**_radial((8, 8)), "masses_da": [0.948, 0.948], "freqs_cm": [3700.0] * 2}),
]


def _tridiagonal(n: int) -> dict:
    """Diagonal 1 + k/n and off-diagonals -(k + 1)/(2n): signed, distinct."""
    entries = {(k, k): 1.0 + k / n for k in range(n)}
    for k in range(n - 1):
        entries[k, k + 1] = entries[k + 1, k] = -(k + 1) / (2.0 * n)
    return entries


def _scattered_16() -> dict:
    """A 16 x 16 diagonal of both signs, five symmetric off-diagonal pairs
    and one explicit 0.0 (which the reader keeps out of the pattern)."""
    entries = {(k, k): (-1.0) ** k * (0.25 + k / 16.0) for k in range(16)}
    for (r, c), v in {(0, 9): 0.75, (2, 13): -0.5, (4, 5): 0.125, (7, 15): -0.875,
                      (10, 11): 0.375}.items():
        entries[r, c] = entries[c, r] = v
    entries[3, 3] = 0.0
    return entries


#: ``blockenc-verify --input`` matrices: (name, {(row, col): value}); the
#: last one is at ``blockenc.MAX_COO_DIM``.
COO_MATRICES = [
    ("tridiagonal_8", _tridiagonal(8)),
    ("scattered_16", _scattered_16()),
    ("tridiagonal_32", _tridiagonal(32)),
]


def entries() -> list:
    """(name, argv after --out, input file as (name, text) or None) in run order."""
    out = []
    for name, spec in SPECS:
        for backend in ("SELECT_SWAP", "WH"):
            for strategy in ("all", "FULL_DVR", "LCU_FBR"):
                argv = ["molham", "--config", "{input}", "--backend", backend,
                        "--strategy", strategy]
                out.append((f"molham_{name}_{backend}_{strategy}", argv,
                            ("spec.yaml", _spec_yaml(spec))))
    out.append((
        "molham_sweep",
        ["molham", "--sweep", "6", "8", "--sweep-eps", "6", "10"],
        None,
    ))
    for command in ("wht-analyze", "compare"):
        for surface in ("harmonic", "morse", "wells"):
            for eta in (8, 12, 16) if command == "compare" else (8, 12):
                for digits in (8, 15, 24, 33):
                    for log2_inv_eps in (6, 10, 14):
                        argv = [command, "--synthetic", surface, "--eta", str(eta),
                                "--digits", str(digits), "--epsilon", repr(2.0**-log2_inv_eps)]
                        name = f"{command}_{surface}_{eta}_{digits}_{log2_inv_eps}"
                        out.append((name, argv, None))
    for command, etas in (("qrom-synth", (12, 18)), ("compare", (18,))):
        for surface in ("harmonic", "morse", "wells"):
            for eta in etas:
                for log2_inv_eps in (6, 10):
                    argv = [command, "--synthetic", surface, "--eta", str(eta),
                            "--digits", "15", "--epsilon", repr(2.0**-log2_inv_eps)]
                    out.append((f"{command}_{surface}_{eta}_15_{log2_inv_eps}", argv, None))
    for kind in ("hermite", "legendre"):
        out.append((f"dvr-check_{kind}", ["dvr-check", "--kind", kind, "--n", "32"], None))
        for n in (16, 48, 64):
            for segment in (1 << i for i in range(n.bit_length())):
                argv = ["dvr-check", "--kind", kind, "--n", str(n), "--segment", str(segment)]
                out.append((f"dvr-check_{kind}_{n}_{segment}", argv, None))
    for seed in range(4):
        out.append((f"blockenc-verify_{seed}", ["--seed", str(seed), "blockenc-verify"], None))
    for name, matrix in COO_MATRICES:
        argv = ["blockenc-verify", "--input", "{input}"]
        out.append((f"blockenc-verify_input_{name}", argv, ("matrix.csv", coo_csv(matrix))))
    return out


def coo_csv(matrix: dict) -> str:
    """One ``row,col,value`` line per entry, in the mapping's order."""
    return "".join(f"{r},{c},{v!r}\n" for (r, c), v in matrix.items())


def _spec_yaml(spec: dict) -> str:
    lines = []
    for key, value in spec.items():
        text = "[" + ", ".join(repr(v) for v in value) + "]" if isinstance(value, list) else repr(value)
        lines.append(f"{key}: {text}\n")
    return "".join(lines)


def run(out_dir, selected=None) -> list:
    """Run the corpus entries (all, or the first ``selected``) into out_dir;
    returns their exit codes in order."""
    out_dir = Path(out_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # BLAS rounds by thread count, and the molham levels come from dense eigh
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    codes = []
    for name, argv, given in entries()[:selected]:
        where = out_dir / name
        where.mkdir(parents=True, exist_ok=True)
        path = None
        if given is not None:
            path = where / given[0]
            path.write_text(given[1])
        proc = subprocess.run(
            [sys.executable, "-m", "whqrom.cli", "--out", str(where),
             *(a.format(input=path) for a in argv)],
            env=env, capture_output=True, text=True, timeout=600,
        )
        text = (
            f"argv: {' '.join(argv)}\nexit: {proc.returncode}\n"
            f"stdout:\n{proc.stdout}stderr:\n{proc.stderr}"
        )
        (where / "run.txt").write_text(text.replace(str(where), "<out>").replace(str(SRC), "<src>"))
        codes.append(proc.returncode)
    return codes


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python3 tests/report_corpus.py OUT_DIR")
    codes = run(sys.argv[1])
    print(f"{len(codes)} entries, {sum(c != 0 for c in codes)} with a nonzero exit")
