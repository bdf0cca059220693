"""Run one clustergossip CLI command with span tracing around each layer.

Usage: python3 perfbench/traced_cli.py --spans FILE -- <cli args>

The package itself is untouched: before calling ``clustergossip.cli.main``
this script replaces the layer functions that the CLI module looks up in its
own namespace (plus ``optimizer.project_simplex``, called once per optimizer
iteration) with wrappers that record a span per call. Spans are kept in
memory and written to FILE as JSON after the command returns; the process
exits with the command's exit code.

A span is ``[name, start, end, parent, attrs]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 for
none), ``attrs`` a dict of counts read from the call's arguments or result,
or null.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from clustergossip import cli, optimizer


def _len_result(args, kwargs, result):
    return {"count": len(result)}


def _optimize_attrs(args, kwargs, result):
    return {"candidates": len(args[0]), "n": int(args[2])}


def _monte_carlo_attrs(args, kwargs, result):
    return {
        "runs": int(result.runs),
        "terminated_runs": int(result.terminated_runs),
        "mean_iterations": float(result.mean_iterations_to_threshold),
    }


def _topology_attrs(args, kwargs, result):
    return {"n": int(result.n)}


# (module, attribute, span name, attrs extractor)
TRACED = [
    (cli, "generate_topology", "topology.build", _topology_attrs),
    (cli, "load_topology", "topology.build", _topology_attrs),
    (cli, "enumerate_candidates", "candidates.enumerate", _len_result),
    (cli, "prune_dominated", "candidates.prune", _len_result),
    (cli, "candidate_cost_l1", "energy.price", None),
    (cli, "optimize", "optimizer.optimize", _optimize_attrs),
    (optimizer, "project_simplex", "optimizer.project_simplex", None),
    (cli, "monte_carlo", "simulator.monte_carlo", _monte_carlo_attrs),
    (cli, "write_trace_csv", "cli.write", None),
    (cli, "write_summary_json", "cli.write", None),
]


class Tracer:
    """In-memory span recorder; one instance per traced command."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name, attrs_of, fn, args, kwargs):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        span = [name, 0.0, 0.0, parent, None]
        self.spans.append(span)
        self._open.append(index)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if attrs_of is not None:
            span[4] = attrs_of(args, kwargs, result)
        return result

    def wrap(self, module, attr, name, attrs_of) -> bool:
        fn = getattr(module, attr, None)
        if fn is None:
            return False

        def wrapper(*args, **kwargs):
            return self.call(name, attrs_of, fn, args, kwargs)

        setattr(module, attr, wrapper)
        return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans JSON")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    missing = [f"{m.__name__}.{a}" for m, a, n, f in TRACED if not tracer.wrap(m, a, n, f)]
    if missing:
        print(f"traced_cli: not found, not traced: {', '.join(missing)}", file=sys.stderr)
    code = tracer.call("cli.main", None, cli.main, (cli_args,), {})
    sys.stdout.flush()
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump({"missing": missing, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
