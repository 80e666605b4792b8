"""The three benchmark workloads: tables, verify and molecule.

A workload turns (seed, pass index) into a list of requests.  Each request
carries its generated input files, one timed ``run`` that goes through
``whqrom.cli.main`` or a layer's public functions, and an untimed ``check``
that tests the outputs with :mod:`checks` and returns the WH-QROM T count
the request booked.  Every pass draws its own inputs, so no two timed
requests of a run share an input.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import checks

DIGITS = 15
ARCCOS_DIGITS = 14


class Request:
    """One timed call plus the check of its outputs."""

    kind = "request"

    def __init__(self, label: str):
        self.label = label
        self.error = ""

    def run(self) -> bool:
        raise NotImplementedError

    def check(self) -> int:
        raise NotImplementedError


class CliRequest(Request):
    """A request through ``whqrom.cli.main(argv)``; succeeds on exit code 0."""

    def __init__(self, whqrom, label: str, out: Path, argv: list):
        super().__init__(label)
        self.whqrom = whqrom
        self.out = out
        self.argv = ["--out", str(out)] + argv
        self.kind = argv[0]

    def run(self) -> bool:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = self.whqrom.cli.main(self.argv)
        self.error = f"exit {code}: {err.getvalue().strip()}"
        return code == 0

    def report(self, name: str) -> dict:
        return json.loads((self.out / f"{name}.json").read_text())


def _rng(seed: int, workload: int, index: int) -> np.random.Generator:
    """Independent stream per (seed, workload, pass); index -1 is the warm-up."""
    return np.random.default_rng([seed, workload, index + 1])


def _write_f64(path: Path, theta: np.ndarray) -> None:
    path.write_bytes(np.asarray(theta, dtype="<f8").tobytes())


def _surface(whqrom, family: str, eta: int, rng) -> np.ndarray:
    """A bundled two-coordinate surface sampled on a grid shifted by a seeded offset.

    The shift of at most 1/100 per coordinate keeps each family's spectrum
    shape (and so the work per request) nearly seed-independent while every
    table differs bit for bit.
    """
    pes = whqrom.synthetic.make_pes(family, dims=2)
    grid = np.stack(whqrom.synthetic.grid_coordinates(eta, 2), axis=-1)
    return pes.func(grid + rng.uniform(-0.01, 0.01, size=2))


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


class TableRequest(CliRequest):
    def __init__(self, whqrom, out, command, family, eta, log2_inv_eps, rng):
        out.mkdir(parents=True)
        self.theta = _surface(whqrom, family, eta, rng)
        path = out / "table.f64"
        _write_f64(path, self.theta)
        self.epsilon = 2.0**-log2_inv_eps
        argv = [command, "--input", str(path), "--digits", str(DIGITS), "--epsilon", repr(self.epsilon)]
        super().__init__(whqrom, f"{command} {family} eta={eta} eps=2^-{log2_inv_eps}", out, argv)

    def check(self) -> int:
        f = checks.quantize(self.theta, DIGITS)
        eta = f.shape[0].bit_length() - 1
        trunc = checks.Truncation(f, DIGITS)
        if self.kind == "qrom-synth":
            rep = self.report("qrom_synth")
            k = rep["kRetained"]
            trunc.check_minimal(k, self.epsilon, self.label)
            checks.check_wh_report(rep["cost"], eta, DIGITS, k, self.label)
            checks.require((self.out / rep["circuitFile"]).stat().st_size > 0, f"{self.label}: empty circuit file")
            return rep["cost"]["tCount"]
        if self.kind == "compare":
            rep = self.report("compare")
            angles = checks.arccos_table(f, DIGITS, ARCCOS_DIGITS)
            total = 0
            for mode, record, tr in (
                ("raw", rep["rawPes"], trunc),
                ("arccos", rep["arccosRotation"], checks.Truncation(angles, ARCCOS_DIGITS)),
            ):
                label = f"{self.label} {mode}"
                checks.require(record["eta"] == eta, f"{label}: eta {record['eta']} != {eta}")
                tr.check_minimal(record["kRetained"], self.epsilon, label)
                checks.check_selectswap(record, label)
                checks.check_wh_report(record["whQrom"], eta, record["dWh"], record["kRetained"], label)
                total += record["whQrom"]["tCount"]
            return total
        rep = self.report("wht_analyze")
        k = rep["chosenK"]
        trunc.check_minimal(k, self.epsilon, self.label)
        curve = rep["concentrationCurve"]
        for j in (0, k):
            want = trunc.error(j)
            checks.require(abs(curve[j][1] - want) <= 1e-12, f"{self.label}: curve[{j}] {curve[j][1]} != {want}")
        checks.require(abs(rep["errorAtK"] - trunc.error(k)) <= 1e-12, f"{self.label}: errorAtK mismatch")
        return 0


class Tables:
    """compare / qrom-synth / wht-analyze on f64 tables of the three bundled families.

    Harmonic tables retain k in the tens, Morse in the hundreds and
    Gaussian wells in the thousands.  The eta = 18 table's scan state
    (several 2 MiB int64 arrays) outgrows the 4 MiB L2; the eta <= 16 ones
    fit.
    """

    index = 0
    # (command, family, eta, log2(1/epsilon))
    full = [
        ("qrom-synth", "harmonic", 18, 6),
        ("qrom-synth", "morse", 16, 10),
        ("compare", "harmonic", 16, 10),
        ("compare", "morse", 16, 6),
        ("compare", "wells", 12, 10),
        ("wht-analyze", "harmonic", 16, 6),
    ]
    smoke = [
        ("qrom-synth", "harmonic", 10, 6),
        ("compare", "wells", 8, 10),
        ("wht-analyze", "morse", 10, 6),
    ]

    def __init__(self, whqrom, seed: int, work: Path, smoke: bool):
        self.whqrom, self.seed, self.work = whqrom, seed, work
        self.plan = self.smoke if smoke else self.full

    def prepare(self, index: int) -> list:
        rng = _rng(self.seed, self.index, index)
        return [
            TableRequest(self.whqrom, self.work / f"p{index}" / f"r{j}", cmd, fam, eta, le, rng)
            for j, (cmd, fam, eta, le) in enumerate(self.plan)
        ]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class CircuitRequest(Request):
    """Parse a qrom-synth circuit, cost it, simulate every address, re-serialise."""

    kind = "circuit"

    def __init__(self, whqrom, out: Path, eta: int, rng):
        super().__init__(f"circuit wells eta={eta}")
        self.whqrom = whqrom
        out.mkdir(parents=True)
        self.theta = _surface(whqrom, "wells", eta, rng)
        path = out / "table.f64"
        _write_f64(path, self.theta)
        synth = CliRequest(
            whqrom, self.label, out,
            ["qrom-synth", "--input", str(path), "--digits", str(DIGITS), "--epsilon", repr(2.0**-10)],
        )
        if not synth.run():
            raise RuntimeError(f"set-up qrom-synth failed: {synth.error}")
        self.synth = synth.report("qrom_synth")
        self.path = out / self.synth["circuitFile"]
        self.b = eta + DIGITS
        self.y0 = int(rng.integers(0, 1 << self.b))

    def run(self) -> bool:
        qrom = self.whqrom.qrom
        self.text = self.path.read_text()
        circuit = qrom.circuit_from_lines(self.text)
        self.cost = qrom.cost(circuit).to_json_dict()
        self.table = qrom.simulate_table(circuit, self.y0)
        self.again = qrom.circuit_to_lines(circuit)
        return True

    def check(self) -> int:
        f = checks.quantize(self.theta, DIGITS)
        eta = f.shape[0].bit_length() - 1
        k = self.synth["kRetained"]
        trunc = checks.Truncation(f, DIGITS)
        trunc.check_minimal(k, 2.0**-10, self.label)
        checks.require(self.again == self.text, f"{self.label}: wire text does not round-trip")
        checks.require(self.cost == self.synth["cost"], f"{self.label}: cost of parsed circuit != qrom-synth report")
        checks.check_wh_report(self.cost, eta, DIGITS, k, self.label)
        checks.check_simulation(self.table, trunc.numerators(k), self.y0, self.b, self.label)
        return self.cost["tCount"]


class BlockEncodingRequest(Request):
    """One seeded round of the constructions blockenc-verify runs, at dimension 16."""

    kind = "blockenc"

    def __init__(self, whqrom, rng, n: int):
        super().__init__(f"blockenc round n={n}")
        self.whqrom, self.n = whqrom, n
        self.d1 = rng.uniform(-1, 1, size=n)
        self.d2 = rng.uniform(-1, 1, size=n)
        self.tri = np.diag(rng.uniform(0.2, 1, size=n))
        off = rng.uniform(-0.8, 0.8, size=n - 1)
        self.tri[np.arange(n - 1), np.arange(1, n)] = off
        self.tri[np.arange(1, n), np.arange(n - 1)] = off
        self.table = rng.integers(0, 8, size=4)
        self.h_eff = np.repeat(rng.uniform(-1, 1, size=n), n)

    def run(self) -> bool:
        be = self.whqrom.blockenc
        n = self.n
        eta = n.bit_length() - 1
        part = be.dsparse_fused_diagonal(self.d1)
        second = be.dsparse_fused_diagonal(self.d2)
        oracle = be.SparseOracle.from_dense(self.tri, rho=3)
        circuit = be.exact_table_qrom(list(self.table), eta=2, d=3)
        h_eff = be.dsparse_fused_diagonal(self.h_eff)
        self.results = [
            ("dsparse_fused_diagonal", part, np.diag(self.d1)),
            ("dsparse_standard", be.dsparse_standard(oracle), self.tri),
            ("dsparse_fused", be.dsparse_fused(oracle), self.tri),
            ("lcu_sum", be.lcu_sum([part, second]), np.diag(self.d1 + self.d2)),
            ("product_be", be.product_be(part, second), np.diag(self.d1 * self.d2)),
            ("diag_no_rotation", be.diag_no_rotation(list(self.table), circuit, d=3), np.diag(self.table.astype(float))),
            (
                "symmetry_swap",
                be.symmetry_swap_reduction(h_eff, [(q, q + eta) for q in range(eta)]),
                np.diag(self.h_eff + checks.swap_halves(self.h_eff, eta)),
            ),
        ]
        return True

    def check(self) -> int:
        for name, result, target in self.results:
            checks.check_unitary_encoding(result.unitary, result.zeta, target, f"{self.label} {name}")
        return 0


class DvrRequest(CliRequest):
    def __init__(self, whqrom, out: Path, kind: str, n: int, segment: int):
        out.mkdir(parents=True)
        self.n = n
        argv = ["dvr-check", "--kind", kind, "--n", str(n), "--segment", str(segment)]
        super().__init__(whqrom, f"dvr-check {kind} n={n} segment={segment}", out, argv)

    def check(self) -> int:
        rep = self.report("dvr_check")
        checks.require(rep["orthogonalityError"] <= 1e-10, f"{self.label}: orthogonality {rep['orthogonalityError']}")
        checks.require(rep["recursionError"] <= 1e-8, f"{self.label}: recursion {rep['recursionError']}")
        checks.check_t_matrix_csv(self.out / rep["tMatrixFile"], self.n, self.label)
        return 0


def dvr_cases(kind: str, n_min: int, n_max: int) -> list:
    """(n, segment) for even n, segment a power of two dividing n, 2 <= segment <= n.

    (hermite, 64, 64) is left out: the full-length Hermite recursion at
    n = 64 misses the 1e-8 tolerance (see CHANGES.md).
    """
    cases = []
    for n in range(n_min, n_max + 1, 2):
        seg = 2
        while seg <= n:
            if n % seg == 0 and not (kind == "hermite" and n == seg == 64):
                cases.append((n, seg))
            seg *= 2
    return cases


DVR_KINDS = ("hermite", "legendre")


class Verify:
    """Gate-by-gate simulation, wire parsing, dense block encodings and DVR checks.

    Circuits come from rough Gaussian-well tables at eta 12-13 and
    epsilon = 2^-10 (1e4 to 2e4 gates each); their truncation runs in the
    pass set-up, not in the timed requests.
    """

    index = 1
    full = {"etas": (12, 13), "dim": 16, "dvr": (16, 64)}
    smoke = {"etas": (8,), "dim": 4, "dvr": (8, 12)}

    def __init__(self, whqrom, seed: int, work: Path, smoke: bool):
        self.whqrom, self.seed, self.work = whqrom, seed, work
        self.plan = self.smoke if smoke else self.full
        self.dvr = {}
        for j, kind in enumerate(DVR_KINDS):
            cases = dvr_cases(kind, *self.plan["dvr"])
            order = np.random.default_rng([seed, self.index, 0, j]).permutation(len(cases))
            self.dvr[kind] = [cases[i] for i in order]

    def prepare(self, index: int) -> list:
        rng = _rng(self.seed, self.index, index)
        base = self.work / f"p{index}"
        reqs = [CircuitRequest(self.whqrom, base / f"c{eta}", eta, rng) for eta in self.plan["etas"]]
        reqs.append(BlockEncodingRequest(self.whqrom, rng, self.plan["dim"]))
        for j, kind in enumerate(DVR_KINDS):
            n, seg = self.dvr[kind][(index + 1) % len(self.dvr[kind])]
            reqs.append(DvrRequest(self.whqrom, base / f"dvr{j}", kind, n, seg))
        return reqs


# ---------------------------------------------------------------------------
# molecule
# ---------------------------------------------------------------------------


class MolhamRequest(CliRequest):
    def __init__(self, whqrom, out: Path, grid, backend: str, rng):
        out.mkdir(parents=True)
        n_r, _, n_theta = grid
        spec = whqrom.molham.water_spec(
            n_r=n_r,
            n_theta=n_theta,
            omega_cm=float(rng.uniform(3600.0, 3800.0)),
            r0_angstrom=float(rng.uniform(0.95, 0.97)),
            bend_force_au=float(rng.uniform(0.045, 0.055)),
        )
        self.spec = spec
        self.backend = backend
        path = out / "spec.yaml"
        path.write_text(_spec_yaml(spec))
        argv = ["molham", "--config", str(path), "--backend", backend, "--jobs", "1"]
        super().__init__(whqrom, f"molham {'x'.join(map(str, grid))} {backend}", out, argv)

    def check(self) -> int:
        rep = self.report("molham")
        molham = self.whqrom.molham
        system = molham.water_hamiltonian(self.spec)
        op = checks.kron_operator(system.terms, system.dims)
        radius = checks.spectral_radius(op)
        levels_cm = None
        if self.spec.grid_size <= molham.MAX_DENSE_GRID:
            levels = checks.lowest_levels(op, 8)
            levels_cm = (levels - levels[0]) * checks.CM1_PER_HARTREE
        checks.check_molham_report(rep, radius, levels_cm, 1.0, self.label)
        if self.backend != "WH":
            return 0
        return sum(
            row["blockEncoding"]["report"]["tCount"]
            for row in rep["strategies"]
            if row["strategy"] in ("FBR_DVR", "SEPARATE_DVR")
        )


def _spec_yaml(spec) -> str:
    """The spec in the YAML schema of demos/water.yaml; floats keep every digit."""
    fields = {
        "basis_sizes": list(spec.basis_sizes),
        "masses_da": list(spec.masses_da),
        "freqs_cm": list(spec.freqs_cm),
        "r0_angstrom": spec.r0_angstrom,
        "coupling_mass_da": spec.coupling_mass_da,
        "theta_max": spec.theta_max,
        "bend_force_au": spec.bend_force_au,
        "bend_center_u": spec.bend_center_u,
    }
    return "".join(f"{key}: {json.dumps(value)}\n" for key, value in fields.items())


class Molecule:
    """molham --config under both backends on generated water-form specs.

    8x8x8 is small; 12x12x14 is a non-power-of-two grid whose flattened
    index gives a Walsh-rough PES table (k near 1900 of 2048) and a dense eigh
    of order 2016; 16x16x32 is above the dense limit of 4096, so it reports
    no eigenvalues and prices a 2^13-entry PES table.
    """

    index = 2
    full = [(8, 8, 8), (12, 12, 14), (16, 16, 32)]
    smoke = [(4, 4, 4), (6, 6, 8)]

    def __init__(self, whqrom, seed: int, work: Path, smoke: bool):
        self.whqrom, self.seed, self.work = whqrom, seed, work
        self.plan = self.smoke if smoke else self.full

    def prepare(self, index: int) -> list:
        rng = _rng(self.seed, self.index, index)
        base = self.work / f"p{index}"
        return [
            MolhamRequest(self.whqrom, base / f"m{j}-{backend}", grid, backend, rng)
            for j, grid in enumerate(self.plan)
            for backend in ("SELECT_SWAP", "WH")
        ]


WORKLOADS = {"tables": Tables, "verify": Verify, "molecule": Molecule}
