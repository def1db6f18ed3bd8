"""Timing, verdict accounting and in-memory spans for the benchmark.

Nothing here imports `moufang`: the harness only times calls the workloads
make into the package and compares each result with an expected verdict
that the workload states up front.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# End-to-end metrics, printed with tracing off.  failed_frac is printed
# beside them but kept out of the JSON result: it is 0 whenever the program
# is right, so it is carried by the result's `attempted`/`failed` fields.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_ms_p50", "ms"),
    ("verdict_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("bench", "cli", "models", "rewrite", "diagram", "dsl", "theories",
          "octonion", "deformation", "linalg")

# Per-layer metrics, printed by a traced run.  Times named *_ms / *_s are
# totals per batch, *_us are per call; counts are per batch.  A layer that a
# workload does not exercise reads 0 there.
PER_LAYER = (
    ("models.register_ms.loop_o16", "ms", "lower"),
    ("models.register_ms.fn_o16", "ms", "lower"),
    ("models.register_ms.binomial6", "ms", "lower"),
    ("models.sweep_ms", "ms", "lower"),
    ("models.inputs_per_s.loop_o16", "1/s", "higher"),
    ("models.inputs_per_s.fn_o16", "1/s", "higher"),
    ("models.inputs_per_s.binomial6", "1/s", "higher"),
    ("models.inputs_checked", "count", "higher"),
    ("rewrite.prove_ms", "ms", "lower"),
    ("rewrite.prove_none_ms", "ms", "lower"),
    ("rewrite.states_per_s", "1/s", "higher"),
    ("rewrite.replay_ms", "ms", "lower"),
    ("rewrite.trace_io_us", "us", "lower"),
    ("rewrite.trace_steps", "count", "lower"),
    ("diagram.canonicalize_us", "us", "lower"),
    ("diagram.canonicalizations", "count", "lower"),
    ("diagram.redraw_agree_frac", "ratio", "higher"),
    ("dsl.parse_us", "us", "lower"),
    ("dsl.print_us", "us", "lower"),
    ("theories.goal_suite_ms", "ms", "lower"),
    ("octonion.alternative_ms", "ms", "lower"),
    ("octonion.nalt_ms", "ms", "lower"),
    ("octonion.moufang_ms.left", "ms", "lower"),
    ("octonion.moufang_ms.middle", "ms", "lower"),
    ("octonion.moufang_ms.right", "ms", "lower"),
    ("octonion.malcev_ms", "ms", "lower"),
    ("octonion.refute_ms", "ms", "lower"),
    ("octonion.tuples_swept", "count", "higher"),
    ("deformation.build_ms.shift_conj", "ms", "lower"),
    ("deformation.build_ms.delta1", "ms", "lower"),
    ("deformation.build_ms.null_fn", "ms", "lower"),
    ("deformation.coassociator_ms", "ms", "lower"),
    ("deformation.comoufang_ms", "ms", "lower"),
    ("deformation.kernel_map_ms.shift_conj", "ms", "lower"),
    ("deformation.kernel_map_ms.null_fn", "ms", "lower"),
    ("deformation.spectral_ms", "ms", "lower"),
    ("deformation.lie_ms", "ms", "lower"),
    ("linalg.nullspace_ms", "ms", "lower"),
    ("cli.suite_s", "s", "lower"),
    ("cli.records_diff_lines", "count", "lower"),
) + tuple((f"{layer}.self_ms", "ms", "lower") for layer in LAYERS) + (
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Spans kept in memory: [id, parent id, name, tag, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, tag: str = ""):
        parent = self._stack[-1] if self._stack else -1
        record = [len(self.spans), parent, name, tag, perf_counter(), 0.0]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[5] = perf_counter()
            self._stack.pop()


class Batch:
    """What one batch left behind: verdict times, failures, counts, spans."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.times: list[float] = []
        self.failures: list[str] = []
        self.counts: Counter = Counter()
        self.spans: list[list] = []
        self.wall = 0.0


class Run:
    """The interface a workload sees: timed calls, verdicts and counts."""

    def __init__(self) -> None:
        self.tracer: Tracer | None = None
        self.batch = Batch(False)

    def call(self, name: str, fn, *args, tag: str = "", **kwargs):
        """Call into the package, inside a span when tracing."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        with self.tracer.span(name, tag):
            return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str, tag: str = ""):
        if self.tracer is None:
            yield
        else:
            with self.tracer.span(name, tag):
                yield

    def verdict(self, label: str, compute, expect):
        """Time compute() and expect(result); a wrong or raising one fails.

        Returns compute()'s result, or None when it raised.
        """
        result = None
        start = perf_counter()
        with self.span("bench.verdict", label):
            try:
                result = compute()
                ok = bool(expect(result))
            except Exception as exc:  # a verdict boundary: record, go on
                ok = False
                label = f"{label}: {type(exc).__name__}: {exc}"
        self.record(label, perf_counter() - start, ok)
        return result

    def record(self, label: str, seconds: float, ok: bool) -> None:
        self.batch.times.append(seconds)
        if not ok:
            self.batch.failures.append(label)

    def count(self, name: str, n: int = 1) -> None:
        self.batch.counts[name] += n


def raises(exc_type, fn, *args) -> bool:
    """True when fn(*args) raises exc_type (an expected refusal)."""
    try:
        fn(*args)
    except exc_type:
        return True
    return False


MIN_BATCHES = 2


def run_batches(run: Run, batch_fn, state, seconds: float,
                trace: bool) -> list[Batch]:
    """Run whole batches for about `seconds`, and at least MIN_BATCHES.

    A batch starts only if, at the mean batch time so far, it ends within
    `seconds`.  With `trace`, batches alternate untraced and traced.
    """
    import gc

    batches: list[Batch] = []
    start_all = perf_counter()
    while len(batches) < MIN_BATCHES or (
            perf_counter() - start_all
            + sum(b.wall for b in batches) / len(batches) <= seconds):
        traced = trace and len(batches) % 2 == 1
        gc.collect()
        run.batch = Batch(traced)
        run.tracer = Tracer() if traced else None
        start = perf_counter()
        with run.span("bench.batch"):
            batch_fn(run, state)
        run.batch.wall = perf_counter() - start
        if run.tracer is not None:
            run.batch.spans = run.tracer.spans
        run.tracer = None
        batches.append(run.batch)
    return batches


# --- statistics ------------------------------------------------------------


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        for aa in (m * (b - m) * x / ((a - 1.0 + 2 * m) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1.0 + 2 * m))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, the weights peaking at rank
    q*n.  Verdict times come in clusters (one per kind of verdict), and a
    plain order statistic jumps from one cluster to the next when noise
    reorders samples near its rank; this estimate moves smoothly instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def tail_level(per_batch: int) -> float:
    """The highest percentile with at least ten samples beyond it in a run
    of MIN_BATCHES batches.  It depends only on the batch size, so it reads
    the same in every run of a workload however many batches the run fits.
    """
    return 1.0 - 10.0 / (MIN_BATCHES * per_batch)


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds of self time per layer: duration minus direct children."""
    child = Counter()
    for _sid, parent, _name, _tag, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: Counter = Counter()
    for sid, _parent, name, _tag, start, end in spans:
        out[name.split(".")[0]] += (end - start) - child[sid]
    return dict(out)


def total(spans: list[list], name: str, tag: str | None = None) -> float:
    """Seconds spent in spans of one name (and tag, if given)."""
    return sum(end - start for _s, _p, n, t, start, end in spans
               if n == name and (tag is None or t == tag))


def calls(spans: list[list], name: str, tag: str | None = None) -> int:
    return sum(1 for _s, _p, n, t, _a, _b in spans
               if n == name and (tag is None or t == tag))


def median(values):
    return statistics.median(values) if values else 0.0
