"""Spans and counters around the public functions of each whqrom layer.

The tracer is installed from the benchmark's own files: it replaces each
listed function with a wrapper in its defining module and in every whqrom
module that imported it by name (``baseline.minimal_truncation``,
``molham.quantize``, ...), so nested calls become child spans.  Spans stay
in memory as (bucket, start, end, parent, request, self) and are written
as JSON when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls are single-threaded, so children
never overlap.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict


def _k_addr(tracer, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    tracer.count("wht.k", result.k)
    tracer.count("wht.k_addr", (result.k + 1) * f.n)


def _curve_addr(tracer, args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    tracer.count("wht.k_addr", len(result) * f.n)


def _gates(tracer, args, kwargs, result):
    tracer.count("qrom.gates", len(result.gates))


def _gate_addr(tracer, args, kwargs, result):
    circuit = args[0] if args else kwargs["circuit"]
    tracer.count("qrom.gate_addr", len(circuit.gates) << circuit.input_width)


def _unitary_dim(tracer, args, kwargs, result):
    unitary = getattr(result, "unitary", None)
    if unitary is not None:
        tracer.count("blockenc.unitary_dim", unitary.shape[0])


def _one(name):
    def counter(tracer, args, kwargs, result):
        tracer.count(name, 1)

    return counter


def _report_bytes(tracer, args, kwargs, result):
    data = args[1] if len(args) > 1 else kwargs["data"]
    tracer.count("cli.report_bytes", len(data.encode("utf-8")))


# (module, attribute, bucket, counter).  An attribute "Class.method" wraps a
# method.  Buckets ending in ".other" hold glue that no metric names.
LAYER_FUNCTIONS = [
    ("wht", "read_theta", "wht.read", None),
    ("wht", "read_theta_binary", "wht.read", None),
    ("wht", "read_theta_csv", "wht.read", None),
    ("wht", "quantize", "wht.quantize", None),
    ("wht", "wht_forward", "wht.forward", None),
    ("wht", "wht_inverse", "wht.forward", None),
    ("wht", "minimal_truncation", "wht.truncate", _k_addr),
    ("wht", "truncation_error_curve", "wht.truncate", _curve_addr),
    ("qrom", "synthesize", "qrom.synthesize", None),
    ("qrom", "pair_cancel", "qrom.pair_cancel", _gates),
    ("qrom", "cost", "qrom.cost", None),
    ("qrom", "simulate", "qrom.simulate", None),
    ("qrom", "simulate_table", "qrom.simulate", _gate_addr),
    ("qrom", "circuit_to_lines", "qrom.wire", None),
    ("qrom", "circuit_from_lines", "qrom.wire", _gates),
    ("baseline", "compare", "baseline.other", None),
    ("baseline", "optimize_lambda", "baseline.lambda", None),
    ("baseline", "optimize_lambda_pow2", "baseline.lambda", None),
    ("baseline", "selectswap_cost", "baseline.lambda", None),
    ("molham", "water_hamiltonian", "molham.build", _one("molham.builds")),
    ("molham", "WaterSystem.h_dvr", "molham.build", None),
    ("molham", "WaterSystem.eigenvalues", "molham.eigen", None),
    ("molham", "norm_estimates", "molham.norm", None),
    ("molham", "strategy_cost", "molham.strategy", None),
    ("molham", "_WhBackend._wh_cost", "molham.strategy", _one("molham.wh_tables")),
    ("molham", "qpe_cost", "molham.qpe", None),
    ("dvr", "gauss_quadrature", "dvr.quadrature", None),
    ("dvr", "build_transform", "dvr.transform", None),
    ("dvr", "recursion_coeffs", "dvr.recursion", None),
    ("dvr", "recursion_columns", "dvr.recursion", None),
    ("dvr", "midpoint_columns", "dvr.recursion", None),
    ("dvr", "dvr_oracle_cost", "dvr.oracle_cost", None),
    ("dvr", "export_matrix_csv", "dvr.other", None),
    ("blockenc", "SparseOracle.from_dense", "blockenc.dsparse", None),
    ("blockenc", "dsparse_standard", "blockenc.dsparse", _unitary_dim),
    ("blockenc", "dsparse_fused", "blockenc.dsparse", _unitary_dim),
    ("blockenc", "dsparse_fused_diagonal", "blockenc.dsparse", _unitary_dim),
    ("blockenc", "lcu_sum", "blockenc.compose", _unitary_dim),
    ("blockenc", "product_be", "blockenc.compose", _unitary_dim),
    ("blockenc", "symmetry_swap_reduction", "blockenc.compose", _unitary_dim),
    ("blockenc", "diag_no_rotation", "blockenc.diag", _unitary_dim),
    ("blockenc", "exact_table_qrom", "blockenc.diag", None),
    ("cli", "main", "cli", None),
    ("cli", "_write_atomic", "cli", _report_bytes),
]

#: Time metrics: name -> the bucket whose per-pass self time it reports.
TIME_METRICS = {
    "wht.truncate_s": "wht.truncate",
    "wht.read_s": "wht.read",
    "wht.quantize_s": "wht.quantize",
    "wht.forward_s": "wht.forward",
    "qrom.simulate_s": "qrom.simulate",
    "qrom.synthesize_s": "qrom.synthesize",
    "qrom.pair_cancel_s": "qrom.pair_cancel",
    "qrom.cost_s": "qrom.cost",
    "qrom.wire_s": "qrom.wire",
    "baseline.lambda_s": "baseline.lambda",
    "molham.eigen_s": "molham.eigen",
    "molham.norm_s": "molham.norm",
    "molham.strategy_s": "molham.strategy",
    "molham.build_s": "molham.build",
    "molham.qpe_s": "molham.qpe",
    "dvr.quadrature_s": "dvr.quadrature",
    "dvr.transform_s": "dvr.transform",
    "dvr.recursion_s": "dvr.recursion",
    "dvr.oracle_cost_s": "dvr.oracle_cost",
    "blockenc.dsparse_s": "blockenc.dsparse",
    "blockenc.compose_s": "blockenc.compose",
    "blockenc.diag_s": "blockenc.diag",
    "cli.self_s": "cli",
}
COUNT_METRICS = {
    "wht.k": "count",
    "qrom.gates": "count",
    "molham.builds": "count",
    "molham.wh_tables": "count",
    "blockenc.unitary_dim": "count",
    "cli.report_bytes": "bytes",
}
#: ns per unit of work: metric -> (time bucket, work counter).
RATE_METRICS = {
    "wht.truncate_ns_per_k_addr": ("wht.truncate", "wht.k_addr"),
    "qrom.simulate_ns_per_gate_addr": ("qrom.simulate", "qrom.gate_addr"),
}


def per_layer_units() -> dict:
    units = {name: "s" for name in TIME_METRICS}
    units.update(COUNT_METRICS)
    units.update({name: "ns" for name in RATE_METRICS})
    return units


class Tracer:
    """Span recorder; records only while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.request = None
        self.spans: list = []
        self._stack: list = []  # [span index, child time]
        self._pass_self: dict = defaultdict(float)
        self._pass_counts: dict = defaultdict(float)
        self.passes: list = []

    def count(self, name: str, value) -> None:
        if self.active:
            self._pass_counts[name] += value

    def wrap(self, fn, bucket: str, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1][0] if tracer._stack else None
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                own = duration - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer.spans[index] = (bucket, start, end, parent, tracer.request, own)
                tracer._pass_self[bucket] += own
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every listed function wherever a whqrom module refers to it."""
        modules = {
            name: getattr(package, name)
            for name in ("wht", "qrom", "baseline", "molham", "dvr", "blockenc", "cli", "synthetic")
        }
        modules["__init__"] = package
        for mod_name, attr, bucket, counter in LAYER_FUNCTIONS:
            owner = modules[mod_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self.wrap(raw.__func__, bucket, counter)))
                else:
                    setattr(cls, meth, self.wrap(raw, bucket, counter))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(original, bucket, counter)
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapped)

    def begin_pass(self) -> None:
        self._pass_self = defaultdict(float)
        self._pass_counts = defaultdict(float)
        self.active = True

    def end_pass(self, batch_s: float) -> None:
        self.active = False
        self.passes.append(
            {"batch_s": batch_s, "self": dict(self._pass_self), "counts": dict(self._pass_counts)}
        )

    def metrics(self) -> dict:
        """Per-layer metrics, each the median over passes of its per-pass value."""
        units = per_layer_units()
        values = {}
        for name, bucket in TIME_METRICS.items():
            values[name] = statistics.median(p["self"].get(bucket, 0.0) for p in self.passes)
        for name in COUNT_METRICS:
            values[name] = statistics.median(p["counts"].get(name, 0) for p in self.passes)
        for name, (bucket, work) in RATE_METRICS.items():
            rates = [
                1e9 * p["self"].get(bucket, 0.0) / p["counts"][work]
                for p in self.passes
                if p["counts"].get(work)
            ]
            values[name] = statistics.median(rates) if rates else 0.0
        return {name: {"value": values[name], "unit": units[name]} for name in units}

    def shares(self) -> dict:
        """Median share of batch_s per bucket, plus the untraced remainder."""
        buckets = sorted({b for p in self.passes for b in p["self"]})
        out = {
            b: statistics.median(p["self"].get(b, 0.0) / p["batch_s"] for p in self.passes)
            for b in buckets
        }
        out["untraced"] = statistics.median(
            1.0 - sum(p["self"].values()) / p["batch_s"] for p in self.passes
        )
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request", "self")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [dict(zip(keys, s)) for s in self.spans if s is not None],
                    "passes": self.passes,
                    "shares": self.shares(),
                },
                fh,
            )
