"""Command-line front end: ingestion, sweeps, and report generation.

Subcommands: wht-analyze, qrom-synth, compare, dvr-check, blockenc-verify,
molham, fit-scaling.  Every run is deterministic under a fixed --seed and
writes reports atomically, so repeated invocations are byte-identical.

Exit codes: 0 success, 2 config error, 3 input parse error, 4 numerical
tolerance failure.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import baseline, blockenc, dvr, molham, qrom, synthetic, wht
from .errors import ConfigError, ParseError, RangeError, ToleranceError, WhqromError

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_TOLERANCE = 4


def _write_atomic(path: Path, data: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _write_report(out_dir: Path, name: str, payload, fmt: str) -> list:
    written = []
    json_path = out_dir / f"{name}.json"
    _write_atomic(json_path, _dump_json(payload))
    written.append(json_path)
    if fmt == "csv":
        csv_path = out_dir / f"{name}.csv"
        _write_atomic(csv_path, _flatten_csv(payload))
        written.append(csv_path)
    return written


def _flatten_csv(payload, prefix: str = "") -> str:
    rows = []

    def walk(node, key):
        if isinstance(node, dict):
            for k in sorted(node):
                walk(node[k], f"{key}.{k}" if key else str(k))
        elif isinstance(node, (list, tuple)):
            for i, item in enumerate(node):
                walk(item, f"{key}[{i}]")
        else:
            rows.append((key, node))

    walk(payload, prefix)
    lines = ["key,value"]
    for k, v in rows:
        lines.append(f"{k},{v}")
    return "\n".join(lines) + "\n"


def _check_digits(digits: int) -> None:
    if not 1 <= digits <= 33:
        raise ConfigError(f"--digits must lie in [1, 33], got {digits}")


def _load_table(args) -> wht.SampledFunction:
    """Samples from --input (binary/CSV) or a seeded synthetic generator;
    --digits and --epsilon are refused before either is read."""
    _check_digits(args.digits)
    wht.check_epsilon(args.epsilon)
    if args.input:
        theta = wht.read_theta(args.input, args.input_format)
    else:
        if args.eta is None:
            raise ConfigError("--eta is required with --synthetic")
        pes = synthetic.make_pes(args.synthetic, dims=args.dims, **_pes_kwargs(args))
        theta = pes.sample(args.eta)
    return wht.quantize(theta, args.digits)


def _pes_kwargs(args) -> dict:
    if args.synthetic == "wells":
        return {"seed": args.seed}
    return {}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_wht_analyze(args) -> dict:
    f = _load_table(args)
    trunc = wht.minimal_truncation(f, args.epsilon)
    upto = min(trunc.k + 16, f.n)
    curve = wht.truncation_error_curve(f, upto=upto, spectrum=trunc.base)
    return {
        "eta": f.eta,
        "digits": f.d,
        "epsilon": args.epsilon,
        "chosenK": trunc.k,
        "errorAtK": float(curve[trunc.k]),
        "concentrationCurve": [[int(k), float(e)] for k, e in enumerate(curve)],
    }


def cmd_qrom_synth(args) -> dict:
    f = _load_table(args)
    trunc = wht.minimal_truncation(f, args.epsilon)
    circuit = qrom.synthesize(trunc, qrom.Ordering.GRAY_CODE)
    if not args.no_optimize:
        circuit = qrom.pair_cancel(circuit, trunc)
    report = qrom.cost(circuit)
    out_dir = Path(args.out)
    _write_atomic(out_dir / "qrom_circuit.txt", qrom.circuit_to_lines(circuit))
    return {
        "eta": f.eta,
        "digits": f.d,
        "epsilon": args.epsilon,
        "kRetained": trunc.k,
        "gateCount": len(circuit.gates),
        "cost": report.to_json_dict(),
        "circuitFile": "qrom_circuit.txt",
    }


def cmd_compare(args) -> dict:
    f = _load_table(args)
    raw = baseline.compare(f, args.epsilon, d_ss=args.ss_digits)
    # rotation-angle mode: load arccos(PES / (2 sup|PES|)) / pi instead, the
    # normalization that keeps the arccos derivative bounded
    theta_raw = np.asarray(f.values, dtype=np.float64) / (1 << (f.d - 1))
    sup = float(np.max(np.abs(theta_raw)))
    if sup == 0:
        angle_record = None
    else:
        angles = np.arccos(theta_raw / (2.0 * sup)) / math.pi
        f_angle = wht.quantize(angles, args.arccos_digits)
        angle_record = baseline.compare(f_angle, args.epsilon, d_ss=args.ss_digits)
    payload = {
        "epsilon": args.epsilon,
        "rawPes": raw.to_json_dict(),
        "arccosRotation": angle_record.to_json_dict() if angle_record else None,
    }
    if args.lam is not None:
        model = baseline.SelectSwapModel(eta=f.eta, d=args.ss_digits, lam=args.lam)
        report = baseline.selectswap_cost(model, f if args.ss_digits == f.d else None)
        payload["pinnedLambda"] = {"lambda": args.lam, "selectSwap": report.to_json_dict()}
    return payload


def cmd_dvr_check(args) -> dict:
    # default: the largest power of two dividing n, at most the Hermite
    # limit for both families (it divides every n >= 1; gauss_quadrature
    # refuses the rest); an explicit segment below 2 (which leaves no
    # column to rebuild), past the Hermite limit or not a power of two
    # dividing n is refused before any array is built
    max_segment = dvr.MAX_HERMITE_SEGMENT
    segment = min(max_segment, args.n & -args.n) if args.segment is None else args.segment
    if args.kind == "hermite" and segment > max_segment:
        raise RangeError(
            f"--segment {segment} exceeds the Hermite limit MAX_HERMITE_SEGMENT = {max_segment}"
        )
    if args.segment is not None:
        if segment < 2:
            raise ConfigError(f"--segment must be at least 2, got {segment}")
        if args.n % segment or segment & (segment - 1):
            raise ConfigError(f"--segment {segment} must be a power of two dividing n")
    quad = dvr.gauss_quadrature(args.kind, args.n)
    transform = dvr.build_transform(quad)
    gram_err = transform.orthogonality_error
    moment_err = _quadrature_exactness_error(quad)
    if segment >= 2:
        coeffs = dvr.recursion_coeffs(quad.kind, args.n, segment)
        rebuilt = dvr.recursion_columns(
            coeffs, dvr.midpoint_columns(transform, segment), quad.nodes
        )
        recursion_err = float(np.max(np.abs(rebuilt - transform.matrix)))
    else:
        recursion_err = 0.0
    out_dir = Path(args.out)
    dvr.export_matrix_csv(transform.matrix, out_dir / "t_matrix.csv")
    payload = {
        "kind": quad.kind.value,
        "n": args.n,
        "segment": segment,
        "orthogonalityError": gram_err,
        "quadratureMomentError": moment_err,
        "recursionError": recursion_err,
        "tMatrixFile": "t_matrix.csv",
    }
    if not (gram_err <= 1e-10 and moment_err <= 1e-11 and recursion_err <= 1e-8):
        raise ToleranceError(f"dvr-check failed: {payload}")
    return payload


def _quadrature_exactness_error(quad) -> float:
    """Worst error of the Gauss rule on the moments of x**k, k < 2n.

    Legendre moments are exact: 2 / (k + 1) for even k, 0 for odd k.  A
    Hermite moment is measured against Gamma((k+1)/2), the size of the even
    moments, through u_k = w x**k / Gamma((k+1)/2) built by the recurrence
    u_k = u_(k-2) 2 x**2 / (k - 1): the terms stay near 1 where x**k and
    Gamma on their own overflow float64 (from n = 135 and n = 172).
    """
    x, w = quad.nodes, quad.weights
    errors = []
    if quad.kind is dvr.QuadratureKind.LEGENDRE:
        for k in range(2 * quad.n):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            errors.append(abs(float(np.sum(w * x**k)) - exact))
    else:
        u = [w / math.sqrt(math.pi), w * x]
        for k in range(2 * quad.n):
            if k >= 2:
                u[k % 2] = u[k % 2] * (2.0 / (k - 1)) * (x * x)
            errors.append(abs(float(np.sum(u[k % 2])) - (k + 1) % 2))
    return float(np.max(errors))


def cmd_blockenc_verify(args) -> dict:
    rng = np.random.default_rng(args.seed)
    records = []
    if args.input:
        matrix = blockenc.read_coo_csv(args.input)
        oracle = blockenc.SparseOracle.from_dense(matrix)
        for name, build in (
            ("dsparse_standard", blockenc.dsparse_standard),
            ("dsparse_fused", blockenc.dsparse_fused),
        ):
            result = build(oracle)
            records.append({"construction": name, **result.to_json_dict()})
    else:
        if args.count < 1:
            raise ConfigError(f"--count must be at least 1, got {args.count}")
        for _ in range(args.count):
            records.extend(_random_blockenc_round(rng, args.dim))
    worst = max(r["residual"] for r in records)
    return {
        "seed": args.seed,
        "records": records,
        "worstResidual": worst,
        "count": len(records),
    }


#: System sizes a random block-encoding round draws from (at most --dim).
BLOCKENC_SIZES = (4, 8, 16)


def _random_blockenc_round(rng, max_dim: int) -> list:
    """One verified instance of each construction at a random small size."""
    sizes = [n for n in BLOCKENC_SIZES if n <= max_dim]
    if not sizes:
        raise RangeError(f"--dim must be at least {BLOCKENC_SIZES[0]}, got {max_dim}")
    out = []
    n = int(rng.choice(sizes))
    diag_vals = rng.uniform(-1, 1, size=n)
    part = blockenc.dsparse_fused_diagonal(diag_vals)
    out.append({"construction": "dsparse_fused_diagonal", **part.to_json_dict()})
    tri = np.diag(rng.uniform(0.2, 1, size=n))
    for k in range(n - 1):
        v = rng.uniform(-0.8, 0.8)
        tri[k, k + 1] = tri[k + 1, k] = v
    oracle = blockenc.SparseOracle.from_dense(tri, rho=3)
    out.append(
        {"construction": "dsparse_standard", **blockenc.dsparse_standard(oracle).to_json_dict()}
    )
    out.append(
        {"construction": "dsparse_fused", **blockenc.dsparse_fused(oracle).to_json_dict()}
    )
    second = blockenc.dsparse_fused_diagonal(rng.uniform(-1, 1, size=n))
    out.append({"construction": "lcu_sum", **blockenc.lcu_sum([part, second]).to_json_dict()})
    out.append(
        {"construction": "product_be", **blockenc.product_be(part, second).to_json_dict()}
    )
    d_bits = 3
    table = list(rng.integers(0, 1 << d_bits, size=4))
    circuit = blockenc.exact_table_qrom(table, eta=2, d=d_bits)
    out.append(
        {
            "construction": "diag_no_rotation",
            **blockenc.diag_no_rotation(table, circuit, d=d_bits).to_json_dict(),
        }
    )
    half = rng.uniform(-1, 1, size=n)
    h_eff = blockenc.dsparse_fused_diagonal(np.kron(half, np.ones(n)))
    eta = n.bit_length() - 1
    pairs = [(q, q + eta) for q in range(eta)]
    out.append(
        {
            "construction": "symmetry_swap",
            **blockenc.symmetry_swap_reduction(h_eff, pairs).to_json_dict(),
        }
    )
    return out


def _sweep_job(dims: int, eta: int, digits: int, epsilon: float) -> tuple:
    """One (eta, epsilon) point of the harmonic PES QROM sweep."""
    f = wht.quantize(synthetic.make_pes("harmonic", dims=dims).sample(eta), digits)
    trunc = wht.minimal_truncation(f, epsilon)
    circuit = qrom.pair_cancel(qrom.synthesize(trunc), trunc)
    report = qrom.cost(circuit)
    return (eta, epsilon, report.toffoli_count, trunc.k)


def _sweep_epsilon(log2_eps: int) -> float:
    """2^-log2_eps, refused unless it is a finite positive float."""
    try:
        eps = 2.0**-log2_eps
    except OverflowError:
        eps = math.inf
    if not 0 < eps < math.inf:
        raise ConfigError(f"--sweep-eps {log2_eps}: 2^-{log2_eps} is not a finite positive float")
    return eps


def cmd_molham(args) -> dict:
    if args.levels < 1:
        raise ConfigError(f"--levels must be at least 1, got {args.levels}")
    sweep_eps = [_sweep_epsilon(log2_eps) for log2_eps in args.sweep_eps] if args.sweep else []
    # refuse what a sweep point would refuse, with its error, before the build
    for eta in args.sweep or ():
        synthetic.make_pes("harmonic", dims=args.dims)
        synthetic.check_grid(eta, args.dims)
        wht._check_eta_d(eta, args.digits)
    wht.check_epsilon(args.epsilon_cm)
    if args.config:
        spec = _load_spec(args.config)
    else:
        spec = molham.water_spec()
    strategies = molham.Strategy.ALL if args.strategy == "all" else (args.strategy,)
    payload: dict = {"spec": _spec_dict(spec)}
    system = molham.water_hamiltonian(spec)
    if spec.grid_size <= molham.MAX_DENSE_GRID:
        levels = system.eigenvalues(args.levels)
        payload["eigenvaluesCm"] = [
            float(v) for v in (levels - levels[0]) * molham.CM1_PER_HARTREE
        ]
    entries = []
    wh_priced: dict = {}
    for strat in strategies:
        sc = molham.strategy_cost(system, strat, args.backend, wh_priced)
        qpe = molham.qpe_cost(sc.norm.total_cm, sc.report, args.epsilon_cm)
        entries.append(
            {
                "strategy": strat,
                "norm": sc.norm.to_json_dict(),
                "blockEncoding": sc.to_json_dict(),
                "qpe": qpe.to_json_dict(),
            }
        )
    payload["strategies"] = entries
    if args.sweep:
        rows = sorted(
            _sweep_job(args.dims, eta, args.digits, eps) for eta in args.sweep for eps in sweep_eps
        )
        out_dir = Path(args.out)
        lines = ["eta,epsilon,toffoli,kRetained"]
        for eta, eps, toffoli, k in rows:
            lines.append(f"{eta},{eps!r},{toffoli},{k}")
        _write_atomic(out_dir / "molham_sweep.csv", "\n".join(lines) + "\n")
        payload["sweepFile"] = "molham_sweep.csv"
        payload["sweepRows"] = len(rows)
    return payload


def _load_spec(path) -> molham.ToyMoleculeSpec:
    import yaml

    try:
        raw = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: expected a key/value mapping")
    return molham.spec_from_dict(data)


def _spec_dict(spec: molham.ToyMoleculeSpec) -> dict:
    return {
        "basisSizes": list(spec.basis_sizes),
        "massesDa": list(spec.masses_da),
        "freqsCm": list(spec.freqs_cm),
        "r0Angstrom": spec.r0_angstrom,
        "couplingMassDa": spec.coupling_mass_da
        if math.isfinite(spec.coupling_mass_da)
        else "inf",
        "thetaMax": spec.theta_max,
        "jTotal": spec.j_total,
    }


def cmd_fit_scaling(args) -> dict:
    rows = []
    try:
        with open(args.input, newline="") as fh:
            reader = _csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{args.input}: empty file")
            for lineno, row in enumerate(reader, start=2):
                if not row or not "".join(row).strip():
                    continue
                try:
                    rows.append((float(row[0]), float(row[1]), float(row[2])))
                except (ValueError, IndexError) as exc:
                    raise ParseError(f"{args.input}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"{args.input}: {exc}") from exc
    fit = molham.fit_scaling(rows)
    return {"samples": len(rows), "fit": fit.to_json_dict()}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_table_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", help="sampled-function file (binary f64 or CSV)")
    p.add_argument(
        "--input-format",
        choices=["bin", "csv"],
        default=None,
        help="input encoding; inferred from the suffix when omitted",
    )
    p.add_argument(
        "--synthetic",
        choices=sorted(synthetic.PES_GENERATORS),
        default="harmonic",
        help="bundled surface used when --input is absent",
    )
    p.add_argument("--dims", type=int, default=2, help="synthetic surface dimensions")
    p.add_argument("--eta", type=int, default=None, help="address qubits for synthetic tables")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use; later calls share it and its bound ``func``s."""
    parser = argparse.ArgumentParser(
        prog="whqrom",
        description="Walsh-Hadamard QROM synthesis and block-encoding toolkit",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for synthetic data")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=["json", "csv"], default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wht-analyze", help="spectrum concentration report")
    _add_table_source(p)
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--epsilon", type=float, default=2.0**-10)
    p.set_defaults(func=cmd_wht_analyze, report="wht_analyze")

    p = sub.add_parser("qrom-synth", help="synthesize and cost a WH-QROM")
    _add_table_source(p)
    p.add_argument("--digits", type=int, default=15)
    p.add_argument("--epsilon", type=float, default=2.0**-10)
    p.add_argument("--no-optimize", action="store_true", help="skip pair cancellation")
    p.set_defaults(func=cmd_qrom_synth, report="qrom_synth")

    p = sub.add_parser("compare", help="WH-QROM vs SELECT-SWAP ratio report")
    _add_table_source(p)
    p.add_argument("--digits", type=int, default=15, help="WH-side payload bits")
    p.add_argument("--ss-digits", type=int, default=15, help="SELECT-SWAP payload bits")
    p.add_argument("--arccos-digits", type=int, default=14)
    p.add_argument("--epsilon", type=float, default=2.0**-10)
    p.set_defaults(func=cmd_compare, report="compare")

    p = sub.add_parser("dvr-check", help="quadrature/transform/recursion checks")
    p.add_argument("--kind", choices=["hermite", "legendre"], default="legendre")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--segment", type=int, default=None)
    p.set_defaults(func=cmd_dvr_check, report="dvr_check")

    p = sub.add_parser("blockenc-verify", help="verify block-encoding identities")
    p.add_argument("--input", help="coordinate-list CSV (row,col,value)")
    p.add_argument("--count", type=int, default=3, help="random rounds per run")
    p.add_argument("--dim", type=int, default=16, help="largest random system dimension")
    p.set_defaults(func=cmd_blockenc_verify, report="blockenc_verify")

    p = sub.add_parser("molham", help="toy-molecule pipeline report")
    p.add_argument("--config", help="YAML spec (masses in Da, frequencies in cm^-1)")
    p.add_argument("--strategy", choices=list(molham.Strategy.ALL) + ["all"], default="all")
    p.add_argument("--backend", choices=list(molham.Backend.ALL), default="SELECT_SWAP")
    p.add_argument("--epsilon-cm", type=float, default=1.0, help="QPE target in cm^-1")
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--sweep", type=int, nargs="*", default=None, metavar="ETA")
    p.add_argument(
        "--sweep-eps", type=int, nargs="*", default=[6, 8, 10, 12], metavar="LOG2_INV_EPS"
    )
    p.add_argument("--dims", type=int, default=2)
    p.add_argument("--digits", type=int, default=15)
    # the sweep runs serially; --jobs is accepted and ignored so that
    # existing command lines keep working
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored")
    p.set_defaults(func=cmd_molham, report="molham")

    p = sub.add_parser("fit-scaling", help="regress log2(tau) on eta and log2 log2 1/eps")
    p.add_argument("--input", required=True, help="CSV with eta,epsilon,tau columns")
    p.set_defaults(func=cmd_fit_scaling, report="fit_scaling")

    # accepted for interface compatibility; --lambda pins the SELECT-SWAP
    # multiplexing instead of optimizing it
    parser.add_argument("--lambda", dest="lam", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        payload = args.func(args)
        written = _write_report(Path(args.out), args.report, payload, args.format)
        for path in written:
            print(path)
        return EXIT_OK
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ToleranceError as exc:
        print(f"tolerance failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (ConfigError, WhqromError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
