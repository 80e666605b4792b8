"""Failure contract of the CLI under random arguments, at small sizes only.

Every argument list, however malformed, must end in a documented exit code
(0 ok, 2 config, 3 parse, 4 tolerance) with no traceback on stderr.  Sizes
stay small (eta <= 10, dimensions <= 16, grids <= 8 x 8 x 8), and larger
ones only where they must be refused before allocation, so no example
allocates more than a few MiB.
"""

import contextlib
import io
import tempfile
import traceback
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from whqrom.cli import main

EXIT_CODES = {0, 2, 3, 4}

small_int = st.integers(min_value=-2, max_value=10)
epsilons = st.sampled_from(
    ["0", "-0.5", "nan", "inf", "1e-300", "0.5", "2", "3", "0.0009765625", "0.015625", "x"]
)


@st.composite
def table_source(draw):
    """--input pointing at a generated file, or a seeded synthetic surface."""
    kind = draw(st.sampled_from(["synthetic", "bin", "csv", "missing"]))
    if kind == "synthetic":
        args = ["--synthetic", draw(st.sampled_from(["harmonic", "morse", "wells"]))]
        args += ["--dims", str(draw(st.integers(min_value=-1, max_value=3)))]
        if draw(st.booleans()):
            args += ["--eta", str(draw(small_int))]
        return args, None
    if kind == "missing":
        return ["--input", "{dir}/absent.f64"], None
    eta = draw(st.integers(min_value=0, max_value=8))
    count = draw(st.sampled_from([1 << eta, (1 << eta) + 1, 0]))
    values = draw(
        st.lists(
            st.one_of(
                st.floats(min_value=-1.5, max_value=1.5),
                st.sampled_from([float("nan"), float("inf"), float("-inf")]),
            ),
            min_size=min(count, 4),
            max_size=min(count, 4),
        )
    )
    samples = np.resize(np.asarray(values or [0.0], dtype=np.float64), count)
    if kind == "bin":
        return ["--input", "{dir}/t.f64"], ("t.f64", samples.astype("<f8").tobytes())
    text = "".join(f"{v!r}\n" for v in samples.tolist())
    if draw(st.booleans()):
        text += draw(st.sampled_from(["oops\n", "1,2\n", "\n"]))
    return ["--input", "{dir}/t.csv"], ("t.csv", text.encode())


@st.composite
def table_command(draw):
    cmd = draw(st.sampled_from(["wht-analyze", "qrom-synth", "compare"]))
    source, file = draw(table_source())
    args = [cmd] + source
    args += ["--digits", str(draw(st.integers(min_value=-1, max_value=36)))]
    args += ["--epsilon", draw(epsilons)]
    if cmd == "qrom-synth" and draw(st.booleans()):
        args.append("--no-optimize")
    if cmd == "compare":
        args += ["--ss-digits", str(draw(st.integers(min_value=-1, max_value=36)))]
        args += ["--arccos-digits", str(draw(st.integers(min_value=-1, max_value=36)))]
        if draw(st.booleans()):
            args = ["--lambda", str(draw(st.integers(min_value=-1, max_value=64)))] + args
    return args, file


@st.composite
def dvr_command(draw):
    args = ["dvr-check", "--kind", draw(st.sampled_from(["hermite", "legendre"]))]
    args += ["--n", str(draw(st.integers(min_value=-1, max_value=16)))]
    if draw(st.booleans()):
        args += ["--segment", str(draw(st.integers(min_value=-1, max_value=16)))]
    return args, None


@st.composite
def coo_matrix(draw):
    """Coordinate-list text of a matrix up to 16 x 16, of any size and pattern.

    The pattern is symmetric or not, and one extra entry may sit at an index
    past blockenc.MAX_COO_DIM = 32 (32 itself makes the dimension 33).
    """
    size = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 16]))
    index = st.integers(min_value=0, max_value=size - 1)
    values = st.sampled_from(["0.5", "-0.25", "1", "-1", "0", "1e-300"])
    symmetric = draw(st.booleans())
    lines = []
    for r, c in draw(st.lists(st.tuples(index, index), min_size=1, max_size=8)):
        lines.append(f"{r},{c},{draw(values)}")
        if symmetric and r != c:
            lines.append(f"{c},{r},{draw(values)}")
    if draw(st.booleans()):
        big = draw(st.sampled_from([32, 33, 8191, 10**6]))
        lines.append(f"{big},{big},1.0")
    return "".join(line + "\n" for line in lines)


@st.composite
def blockenc_command(draw):
    args = ["blockenc-verify"]
    source = draw(st.sampled_from(["rows", "matrix", "random"]))
    if source == "matrix":
        return args + ["--input", "{dir}/m.csv"], ("m.csv", draw(coo_matrix()).encode())
    if source == "rows":
        rows = draw(
            st.lists(
                st.tuples(
                    st.sampled_from([-1, 0, 1, 2, 3, 5, 10**6]),
                    st.integers(min_value=-1, max_value=5),
                    st.sampled_from(["0.5", "-0.25", "1", "nan", "inf", "x", ""]),
                ),
                max_size=6,
            )
        )
        text = "".join(f"{r},{c},{v}\n" for r, c, v in rows)
        return args + ["--input", "{dir}/m.csv"], ("m.csv", text.encode())
    args += ["--count", str(draw(st.integers(min_value=-1, max_value=2)))]
    args += ["--dim", str(draw(st.integers(min_value=-1, max_value=16)))]
    return args, None


@st.composite
def molham_command(draw):
    args = ["molham"]
    file = None
    if draw(st.booleans()):
        modes = draw(st.integers(min_value=0, max_value=4))
        radial = modes - 1 if modes == 3 else modes
        lines = [
            "basis_sizes: [%s]"
            % ", ".join(str(draw(st.sampled_from([0, 2, 4, 8]))) for _ in range(modes)),
            "masses_da: [%s]"
            % ", ".join(draw(st.sampled_from(["1.0", "0.95", "-1", "0"])) for _ in range(radial)),
            "freqs_cm: [%s]"
            % ", ".join(draw(st.sampled_from(["3700", "2000", "0"])) for _ in range(radial)),
        ]
        lines += draw(
            st.lists(
                st.sampled_from(
                    [
                        "r0_angstrom: 0.9578",
                        "r0_angstrom: 3.0",
                        "r0_angstrom: -1",
                        "theta_max: 3.0",
                        "theta_max: 7",
                        "j_total: 3",
                        "j_total: -1",
                        "coupling_mass_da: 16.0",
                        "bend_force_au: 0.05",
                        "zzz: 1",
                        "basis_sizes: oops",
                        ": [",
                    ]
                ),
                max_size=3,
            )
        )
        file = ("spec.yaml", "\n".join(lines).encode())
        args += ["--config", "{dir}/spec.yaml"]
    args += ["--strategy", draw(st.sampled_from(["all", "FBR_DVR", "SEPARATE_DVR", "LCU_FBR"]))]
    args += ["--backend", draw(st.sampled_from(["SELECT_SWAP", "WH"]))]
    args += ["--epsilon-cm", draw(st.sampled_from(["1.0", "0", "-1", "nan"]))]
    args += ["--levels", str(draw(st.integers(min_value=-1, max_value=10)))]
    if draw(st.booleans()):
        args += ["--sweep"] + [str(draw(st.integers(min_value=-1, max_value=10))) for _ in range(2)]
        args += ["--sweep-eps", str(draw(st.integers(min_value=-1, max_value=12)))]
        args += ["--dims", str(draw(st.integers(min_value=-1, max_value=3)))]
        args += ["--digits", str(draw(st.integers(min_value=-1, max_value=36)))]
    args += ["--jobs", str(draw(st.integers(min_value=-1, max_value=1)))]
    return args, file


@st.composite
def fit_command(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=-1, max_value=12),
                st.sampled_from(["0.001", "0.5", "1", "0", "-1", "nan", "x"]),
                st.sampled_from(["100", "1", "0", "-5", "inf", ""]),
            ),
            max_size=6,
        )
    )
    header = draw(st.sampled_from(["eta,epsilon,tau\n", ""]))
    text = header + "".join(f"{a},{b},{c}\n" for a, b, c in rows)
    return ["fit-scaling", "--input", "{dir}/fit.csv"], ("fit.csv", text.encode())


commands = st.one_of(
    table_command(),
    dvr_command(),
    blockenc_command(),
    molham_command(),
    fit_command(),
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    command=commands,
    seed=st.integers(min_value=-1, max_value=5),
    fmt=st.sampled_from(["json", "csv"]),
)
# dvr-check sizes beyond the drawn range: the default segment (64, 48), the
# Hermite moments past float64 overflow (172, 256) and the Hermite limit
# (372); segment 0, which must be refused before n % segment; a Hermite
# segment past MAX_HERMITE_SEGMENT; a COO index far past MAX_COO_DIM,
# which must be refused before the dense matrix is built; and a QPE call
# count and a sweep epsilon past the float range
@example(command=(["dvr-check", "--kind", "hermite", "--n", "64"], None), seed=0, fmt="json")
@example(command=(["dvr-check", "--kind", "hermite", "--n", "48"], None), seed=0, fmt="json")
@example(command=(["dvr-check", "--kind", "hermite", "--n", "172"], None), seed=0, fmt="json")
@example(command=(["dvr-check", "--kind", "hermite", "--n", "256"], None), seed=0, fmt="json")
@example(command=(["dvr-check", "--kind", "hermite", "--n", "372"], None), seed=0, fmt="json")
@example(command=(["dvr-check", "--n", "16", "--segment", "0"], None), seed=0, fmt="json")
@example(
    command=(["dvr-check", "--kind", "hermite", "--n", "64", "--segment", "64"], None),
    seed=0,
    fmt="json",
)
@example(
    command=(["blockenc-verify", "--input", "{dir}/m.csv"], ("m.csv", b"0,0,1.0\n8191,8191,1.0\n")),
    seed=0,
    fmt="json",
)
@example(command=(["molham", "--epsilon-cm", "1e-305"], None), seed=0, fmt="json")
@example(command=(["molham", "--sweep", "4", "--sweep-eps", "-2000"], None), seed=0, fmt="json")
def test_cli_exit_code_contract(command, seed, fmt):
    argv, file = command
    with tempfile.TemporaryDirectory() as tmp:
        if file is not None:
            (Path(tmp) / file[0]).write_bytes(file[1])
        argv = ["--out", tmp, "--seed", str(seed), "--format", fmt] + [
            a.replace("{dir}", tmp) for a in argv
        ]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            except Exception:  # an uncaught error ends the CLI in a traceback
                traceback.print_exc()
                code = None
    assert code in EXIT_CODES, f"{argv}: exit {code}\n{err.getvalue()}"
    assert "Traceback" not in err.getvalue(), f"{argv}:\n{err.getvalue()}"
