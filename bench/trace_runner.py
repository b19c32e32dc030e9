"""Run one swdesign CLI command with spans around its layer boundaries.

Usage: python -X importtime trace_runner.py SPANS_JSON ROUND_ID -- ARGS...

Before calling ``swdesign.cli.main`` this replaces module-level functions,
by name and in the namespace of the module that calls them, with wrappers
that record a span (name, start, end, parent) per call.  Spans stay in
memory and are written to SPANS_JSON when the command ends, together with
counts taken from return values, the contribution cache statistics and the
span names whose wrap target no longer exists.  The process exits with the
command's exit code.  Import times come from ``-X importtime`` on stderr.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

#: (module, attribute, span name).  A module imports another layer's
#: function by name, so each call site's namespace is wrapped separately.
TARGETS = [
    ("swdesign.cli", "load_config", "cli.io"),
    ("swdesign.cli", "read_design_csv", "cli.io"),
    ("swdesign.cli", "write_design_csv", "cli.io"),
    ("swdesign.cli", "_dump_json", "cli.io"),
    ("swdesign.cli", "exhaustive_search", "search.exhaustive_search"),
    ("swdesign.search", "exhaustive_search", "search.exhaustive_search"),
    ("swdesign.cli", "cross_entropy_search", "search.cross_entropy_search"),
    ("swdesign.cli", "sensitivity_map", "search.sensitivity_map"),
    ("swdesign.cli", "variance_ratio_map", "search.variance_ratio_map"),
    ("swdesign.cli", "evaluate_design", "search.evaluate_design"),
    ("swdesign.search", "_scan_chunk", "search.scan_chunk"),
    ("swdesign.search", "_combo_counts", "search.combo_counts"),
    ("swdesign.search", "enumerate_sequences", "designspace.enumerate_sequences"),
    ("swdesign.search", "sequence_contributions", "model.sequence_contributions"),
    ("swdesign.model", "sequence_contributions", "model.sequence_contributions"),
    ("swdesign.search", "treatment_covariance", "model.treatment_covariance"),
    ("swdesign.search", "mvn_upper_orthant", "inference.mvn_upper_orthant"),
    ("swdesign.inference", "mvn_upper_orthant", "inference.mvn_upper_orthant"),
    ("swdesign.search", "power_report", "inference.power_report"),
    ("swdesign.analytic", "li_optimal_proportions", "analytic.li_optimal_proportions"),
]

#: Span names whose return value carries candidate counts.
COUNTED = {"search.exhaustive_search", "search.cross_entropy_search"}


class Tracer:
    def __init__(self):
        self.spans = [["proc", T0, None, -1]]
        self.stack = [0]
        self.counts = {"candidates_evaluated": 0, "candidates_feasible": 0}

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None, self.stack[-1]])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, result):
        self.counts["candidates_evaluated"] += getattr(result, "n_evaluated", 0)
        self.counts["candidates_feasible"] += max(
            getattr(result, "n_feasible", 0), 0)

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if name in COUNTED:
                self.count(result)
            return result

        return traced


def install(tracer, cli):
    """Wrap every target; return the span names with a missing target."""
    missing = set()
    for module, attr, name in TARGETS:
        try:
            mod = importlib.import_module(module)
        except ImportError:
            mod = None
        fn = getattr(mod, attr, None)
        if callable(fn):
            setattr(mod, attr, tracer.wrap(fn, name))
        else:
            missing.add(name)
    for command in cli.main.commands.values():
        command.callback = tracer.wrap(command.callback, "cli.command")
    return missing


def cache_stats():
    """Hits and misses of the per-sequence contribution cache, if it exists."""
    from swdesign import model

    cached = getattr(model, "_cached_contributions", None)
    info = getattr(cached, "cache_info", None)
    if info is None:
        return None
    stats = info()
    return {"hits": stats.hits, "misses": stats.misses}


def main():
    spans_path, round_id = sys.argv[1], int(sys.argv[2])
    args = sys.argv[sys.argv.index("--") + 1:]
    tracer = Tracer()
    tracer.open("cli.import")
    import swdesign.cli as cli

    tracer.close()
    missing = install(tracer, cli)
    tracer.open("cli.main")
    code = 0
    try:
        cli.main.main(args=args, prog_name="swdesign")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.close()
    cache = cache_stats()
    tracer.spans[0][2] = time.perf_counter()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"round": round_id, "spans": tracer.spans,
                   "counts": tracer.counts, "cache": cache,
                   "missing": sorted(missing)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
