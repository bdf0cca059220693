#!/usr/bin/env python3
"""Benchmark of the clustergossip command-line tool.

Usage (from the root of a source checkout; nothing needs installing):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Load model: a closed loop with one client. This process launches one CLI
child at a time (``python3 -m clustergossip ...`` with ``src`` on the path)
and starts the next only after the previous one has exited.

``--trace 0`` measures the end-to-end metrics with tracing off: each sample
is a fresh process timed from launch to exit, and each is preceded by
fresh ``clustergossip validate`` runs that time set-up. Samples are taken
until ``--seconds`` is used up (at least three). ``--trace 1`` alternates
untraced and traced runs of the same command, the traced one through
``traced_cli.py``, then runs ``micro.py``, and reports the per-layer
metrics. Every run's outputs are checked; the last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. A failed check is reported on stderr and the exit code is 1.

See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "_work"
REFERENCE = BENCH_DIR / "reference.json"
DECLARED = ROOT / "BENCHMARK.json"

# One BLAS thread for every child and for this process: the 30-node
# workloads run steadier on one thread, and the second core is left to this
# process and the rest of the machine.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The field is pinned: it decides how much work a sweep does (kept pool,
# optimizer iterations, slots per run, even feasibility), so a field drawn
# from --seed would make the spread across seeds measure fields, not code.
# --seed sets sim_base_seed, the Monte-Carlo streams.
TOPOLOGY_SEED = 7
WORKLOADS = {
    "default-sweep": ("run", {}),
    "slow-mixing": (
        "run",
        {"cluster_size_max": 5, "alphas": [4e-5], "error_threshold": 1e-6, "runs": 1000},
    ),
    # Runnable by hand but not listed in BENCHMARK.json: it is the most
    # interpreter-bound workload, and on a shared 2-core host its run-to-run
    # spread (0.22-0.28 of the median over ten seeds) reaches the largest
    # bound a metric may have.
    "pool-table": ("candidates", {"n_nodes": 200}),
}

DEFAULT_EPSILON = 0.01
SETUP_PER_SAMPLE = 2
MIN_SAMPLES = 3
RUN_LIMIT_S = 165.0
MICRO_SECONDS = 2.0
OBJECTIVE_TOL = 1e-3  # summary objective vs the recorded reference
IDENTITY_TOL = 1e-9  # objective == xi + alpha * expected_cost_l1
XI_TOL = 1e-5  # reported xi vs xi recomputed from the printed support
MONOTONE_TOL = 1e-12  # relative slack on "mean_error never increases"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in BLAS_VARS:
        env[var] = BLAS_THREADS
    return env


@dataclass
class Sample:
    """One child process: how long it ran and what it left behind."""

    wall_s: float
    rss_mb: float
    stdout: Path
    stdout_bytes: int
    errors: list[str]
    digest: str = ""
    quality: float | None = None
    output_bytes: int = 0
    spans: list | None = None


class Launcher:
    """Handle on ``launcher.py``, which spawns and times every child.

    Start it before this process grows: a child's peak RSS counts from the
    high-water mark of the process that spawned it.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, start_new_session=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
                return
            except subprocess.TimeoutExpired:
                pass
        # Interrupted: stop the launcher and any child it is waiting on.
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()

    def launch(self, kind: str, argv: list[str], tag: str, timeout: float) -> Sample:
        """Run one child to completion; wall time is launch to exit."""
        out_path, err_path = WORK / f"{tag}.stdout", WORK / f"{tag}.stderr"
        request = {"argv": argv, "cwd": str(WORK), "env": child_env(), "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": max(timeout, 1.0)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py exited unexpectedly")
        res = json.loads(reply)
        errors = []
        if res["timed_out"]:
            errors.append(f"{kind}: timed out after {timeout:.0f} s")
        elif res["code"] != 0:
            last = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            errors.append(f"{kind}: exit code {res['code']}: {' '.join(last)}")
        return Sample(res["wall_s"], res["maxrss_kb"] * 1024 / 1e6, out_path,
                      out_path.stat().st_size, errors)


# ---------------------------------------------------------------- checks


def check_validate(sample: Sample) -> None:
    if not sample.errors and not sample.stdout.read_text().startswith("config OK"):
        sample.errors.append("validate: no 'config OK' line")


def _xi_from_support(support: list[dict], n: int) -> float:
    """Independent xi: second eigenvalue of the mixture of averaging matrices."""
    import numpy as np

    w = np.zeros((n, n))
    for row in support:
        members, q = np.array(row["members"]), row["probability"]
        w += q * np.eye(n)
        w[members, members] -= q
        w[np.ix_(members, members)] += q / members.size
    return min(max(float(np.linalg.eigvalsh(w - 1.0 / n)[-1]), 0.0), 1.0)


def check_run(out_dir: Path, config: dict, reference: dict | None) -> tuple[list[str], float]:
    """Check one ``run`` output directory; returns (errors, objective_sum)."""
    errors: list[str] = []
    try:
        summary = json.loads((out_dir / "summary.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"], 0.0
    epsilon = config.get("epsilon", DEFAULT_EPSILON)
    n = config.get("n_nodes", 30)
    if reference is not None and [e["alpha"] for e in summary] != reference["alphas"]:
        errors.append(f"alphas {[e['alpha'] for e in summary]} != {reference['alphas']}")
    if "alphas" in config and len(summary) != len(config["alphas"]):
        errors.append(f"{len(summary)} summary entries for {len(config['alphas'])} alphas")
    for k, e in enumerate(summary):
        where = f"alpha={e['alpha']!r}"
        if reference is not None and k < len(reference["alphas"]):
            if e["feasible"] != reference["feasible"][k]:
                errors.append(f"{where}: feasible={e['feasible']}, reference {reference['feasible'][k]}")
            if abs(e["objective"] - reference["objective"][k]) > OBJECTIVE_TOL:
                errors.append(
                    f"{where}: objective {e['objective']!r} differs from reference "
                    f"{reference['objective'][k]!r} by more than {OBJECTIVE_TOL}"
                )
        if not e["feasible"]:
            continue
        if not e["xi"] <= 1.0 - epsilon:
            errors.append(f"{where}: xi {e['xi']!r} > 1 - epsilon")
        implied = e["xi"] + e["alpha"] * e["expected_cost_l1"]
        if abs(e["objective"] - implied) > IDENTITY_TOL * max(1.0, abs(implied)):
            errors.append(f"{where}: objective {e['objective']!r} != xi + alpha*cost {implied!r}")
        total = sum(row["probability"] for row in e["support"])
        if abs(total - 1.0) > 1e-9:
            errors.append(f"{where}: support probabilities sum to {total!r}")
        xi = _xi_from_support(e["support"], n)
        if abs(xi - e["xi"]) > XI_TOL:
            errors.append(f"{where}: xi {e['xi']!r}, recomputed from support {xi!r}")
        if e["mean_iterations_to_threshold"] is None:
            errors.append(f"{where}: no Monte-Carlo result")
        errors += _check_trace(out_dir / f"trace_alpha={float(e['alpha'])!r}.csv", where)
    return errors, sum(e["objective"] for e in summary)


def _check_trace(path: Path, where: str) -> list[str]:
    try:
        rows = path.read_text().splitlines()[1:]
    except OSError as exc:
        return [f"{where}: trace CSV unreadable: {exc}"]
    if not rows:
        return [f"{where}: trace CSV is empty"]
    errs = [float(r.split(",")[2]) for r in rows]
    for t in range(1, len(errs)):
        if errs[t] > errs[t - 1] * (1.0 + MONOTONE_TOL):
            return [f"{where}: mean_error rises at iteration {t}: {errs[t - 1]!r} -> {errs[t]!r}"]
    return []


def check_table(stdout: Path, reference: dict | None) -> tuple[list[str], float]:
    """Check a ``candidates`` table; returns (errors, kept cost sum)."""
    lines = stdout.read_text().splitlines()
    if len(lines) < 2:
        return ["candidate table is empty"], 0.0
    words = lines[-1].split()
    if len(words) != 4 or words[1:4:2] != ["enumerated,", "kept"]:
        return [f"candidate table footer unreadable: {lines[-1]!r}"], 0.0
    enumerated, kept = int(words[0]), int(words[2])
    rows = lines[1:-1]
    starred = [r for r in rows if r[:4].strip() == "*"]
    kept_cost = sum(float(r[4:].split(None, 3)[2]) for r in starred)
    errors = []
    if len(rows) != enumerated or len(starred) != kept:
        errors.append(f"table has {len(rows)} rows, {len(starred)} kept; footer says {enumerated}, {kept}")
    if reference is not None:
        if (enumerated, kept) != (reference["enumerated"], reference["kept"]):
            errors.append(
                f"{enumerated} enumerated, {kept} kept; reference "
                f"{reference['enumerated']}, {reference['kept']}"
            )
        if abs(kept_cost - reference["kept_cost_sum"]) > 1e-9 * reference["kept_cost_sum"]:
            errors.append(f"kept cost sum {kept_cost!r}, reference {reference['kept_cost_sum']!r}")
    return errors, kept_cost


def digest(sample: Sample, out_dir: Path | None) -> str:
    h = hashlib.sha256(sample.stdout.read_bytes())
    if out_dir is not None:
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------- the workload


class Workload:
    """One workload's config file, CLI command and output checks."""

    def __init__(self, launcher: Launcher, name: str, command: str, overrides: dict, seed: int,
                 reference: dict | None):
        self.launcher = launcher
        self.name = name
        self.command = command
        self.config = {"topology_seed": TOPOLOGY_SEED, **overrides, "sim_base_seed": seed}
        self.reference = reference
        self.config_path = WORK / f"{name}.json"
        self.config_path.write_text(json.dumps(self.config))
        self.count = 0
        self.samples: list[Sample] = []

    def _tag(self) -> str:
        self.count += 1
        return f"{self.name}-{self.count}"

    def validate(self, timeout: float) -> Sample:
        argv = [sys.executable, "-m", "clustergossip", "validate", "--config", str(self.config_path)]
        sample = self.launcher.launch("validate", argv, self._tag(), timeout)
        check_validate(sample)
        return sample

    def execute(self, timeout: float, traced: bool = False) -> Sample:
        tag = self._tag()
        args = [self.command, "--config", str(self.config_path)]
        out_dir = None
        if self.command == "run":
            out_dir = WORK / f"{tag}.out"
            args += ["--output-dir", str(out_dir)]
        if traced:
            spans_path = WORK / f"{tag}.spans.json"
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), "--spans", str(spans_path),
                    "--"] + args
        else:
            argv = [sys.executable, "-m", "clustergossip"] + args
        sample = self.launcher.launch("traced " + self.command if traced else self.command, argv, tag, timeout)
        if not sample.errors:
            if out_dir is not None:
                errors, sample.quality = check_run(out_dir, self.config, self.reference)
                sample.output_bytes = sum(p.stat().st_size for p in out_dir.iterdir())
            else:
                errors, sample.quality = check_table(sample.stdout, self.reference)
            sample.errors += errors
            sample.digest = digest(sample, out_dir)
            if traced:
                trace = json.loads(spans_path.read_text())
                spans_path.unlink()
                sample.spans = trace["spans"]
                if trace["missing"]:
                    print(f"note: not found in the package, not traced: {', '.join(trace['missing'])}")
        if self.samples and not sample.errors and sample.digest != self.samples[0].digest:
            sample.errors.append("outputs differ in bytes from the first run of this benchmark run")
        self.samples.append(sample)
        return sample

    @staticmethod
    def tidy(sample: Sample) -> None:
        """Remove a sample's files once it has been checked."""
        for suffix in (".stdout", ".stderr"):
            sample.stdout.with_suffix(suffix).unlink(missing_ok=True)
        shutil.rmtree(sample.stdout.with_suffix(".out"), ignore_errors=True)


# ---------------------------------------------------------------- metrics


def layer_metrics(spans: list, sample: Sample) -> dict[str, float]:
    """Per-layer figures of one traced run, from its spans."""

    def of(name):
        return [s for s in spans if s[0] == name]

    def busy(name):
        return sum(s[2] - s[1] for s in of(name))

    main = next(i for i, s in enumerate(spans) if s[0] == "cli.main")
    children = sum(s[2] - s[1] for s in spans if s[3] == main)
    enumerated = sum(s[4]["count"] for s in of("candidates.enumerate"))
    kept = sum(s[4]["count"] for s in of("candidates.prune"))
    price_calls = len(of("energy.price"))
    iterations = len(of("optimizer.project_simplex"))
    stacks = [s[4]["candidates"] * s[4]["n"] ** 2 * 8 / 1e6 for s in of("optimizer.optimize")]
    mc = of("simulator.monte_carlo")
    runs = sum(s[4]["runs"] for s in mc)
    slots = sum(round(s[4]["mean_iterations"] * s[4]["runs"]) for s in mc)
    return {
        "topology.build_s": busy("topology.build"),
        "candidates.enumerate_s": busy("candidates.enumerate"),
        "candidates.prune_s": busy("candidates.prune"),
        "candidates.enumerated": enumerated,
        "candidates.kept": kept,
        "candidates.kept_ratio": kept / enumerated if enumerated else 0.0,
        "energy.price_s": busy("energy.price"),
        "energy.price_calls": price_calls,
        "energy.us_per_price": 1e6 * busy("energy.price") / price_calls if price_calls else 0.0,
        "optimizer.optimize_s": busy("optimizer.optimize"),
        "optimizer.iterations": iterations,
        "optimizer.ms_per_iter": 1e3 * busy("optimizer.optimize") / iterations if iterations else 0.0,
        "optimizer.stack_mb": max(stacks, default=0.0),
        "simulator.monte_carlo_s": busy("simulator.monte_carlo"),
        "simulator.slots": slots,
        "simulator.runs": runs,
        "simulator.us_per_slot": 1e6 * busy("simulator.monte_carlo") / slots if slots else 0.0,
        "simulator.terminated_ratio": sum(s[4]["terminated_runs"] for s in mc) / runs if runs else 0.0,
        "cli.write_s": busy("cli.write"),
        "cli.output_bytes": sample.output_bytes,
        "cli.stdout_bytes": sample.stdout_bytes,
        "cli.self_s": spans[main][2] - spans[main][1] - children,
    }


COUNT_METRICS = (
    "candidates.enumerated", "candidates.kept", "energy.price_calls", "optimizer.iterations",
    "simulator.slots", "simulator.runs", "cli.output_bytes", "cli.stdout_bytes",
)
MICRO_METRICS = (
    "optimizer.mixing_matrix_ms", "optimizer.xi_ms", "optimizer.subgradient_ms",
    "optimizer.project_simplex_us", "simulator.sample_cluster_us",
    "simulator.consensus_step_us", "simulator.relative_error_us",
)


def summarize(label: str, values: list[float], unit: str) -> float:
    med = statistics.median(values)
    print(f"{label}: median {med:.6g} {unit} over {len(values)} samples "
          f"(min {min(values):.6g}, max {max(values):.6g})")
    return med


def environment(seed: int, seconds: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode())
        src.update(path.read_bytes())
    git_sha = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git_sha = res.stdout.strip() or git_sha
    return {
        "git_sha": git_sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "topology_seed": TOPOLOGY_SEED,
        "seed": seed,
        "seconds": seconds,
    }


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    section = json.loads(DECLARED.read_text())["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def measure(wl: Workload, seconds: int, trace: bool) -> tuple[dict[str, float], list[Sample]]:
    """Run the workload for about ``seconds``; returns (metrics, every sample)."""
    start = time.perf_counter()
    deadline, limit = start + seconds, start + RUN_LIMIT_S
    reserve = MICRO_SECONDS + 3.0 if trace and wl.command == "run" else 0.0

    def left() -> float:
        return limit - time.perf_counter()

    setup: list[Sample] = []
    untraced: list[Sample] = []
    traced: list[Sample] = []
    warm_up = wl.validate(left())  # fills __pycache__, as an installed package has it
    wl.tidy(warm_up)
    while True:
        t0 = time.perf_counter()
        for s in untraced + traced:
            wl.tidy(s)
        if not trace:
            for _ in range(SETUP_PER_SAMPLE):
                setup.append(wl.validate(left()))
                wl.tidy(setup[-1])
        untraced.append(wl.execute(left()))
        if trace:
            traced.append(wl.execute(left(), traced=True))
        last = time.perf_counter() - t0
        now = time.perf_counter()
        if any(s.errors for s in untraced + traced) or now + last + reserve > limit:
            break
        if (trace or len(untraced) >= MIN_SAMPLES) and now + last + reserve > deadline:
            break
    samples = [warm_up] + setup + untraced + traced

    if not trace:
        return {
            "wall_s": summarize("wall_s", [s.wall_s for s in untraced], "s"),
            "setup_s": summarize("setup_s", [s.wall_s for s in setup], "s"),
            "peak_rss_mb": summarize("peak_rss_mb", [s.rss_mb for s in untraced], "MB"),
            "objective_sum": untraced[0].quality or 0.0,
        }, samples

    per_run = [layer_metrics(s.spans, s) for s in traced if s.spans is not None]
    if not per_run:
        return {}, samples
    for name in COUNT_METRICS:
        if len({m[name] for m in per_run}) != 1:
            traced[-1].errors.append(f"count {name} differs between traced runs")
    metrics = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    metrics["trace.overhead_s"] = summarize(
        "traced wall_s", [s.wall_s for s in traced], "s"
    ) - summarize("untraced wall_s", [s.wall_s for s in untraced], "s")
    metrics.update(dict.fromkeys(MICRO_METRICS, 0.0))
    if wl.command == "run":
        summary = untraced[-1].stdout.with_suffix(".out") / "summary.json"
        argv = [sys.executable, str(BENCH_DIR / "micro.py"), "--config", str(wl.config_path),
                "--summary", str(summary), "--seconds", str(MICRO_SECONDS)]
        micro = wl.launcher.launch("micro", argv, f"{wl.name}-micro", left())
        samples.append(micro)
        if not micro.errors:
            metrics.update(json.loads(micro.stdout.read_text()))
    spans_file = WORK / f"spans-{wl.name}.json"
    spans_file.write_text(json.dumps([{"run_id": s.stdout.stem, "spans": s.spans} for s in traced]))
    return metrics, samples


def self_check(launcher: Launcher) -> int:
    """Exercise this benchmark's own code on tiny configs in a few seconds."""
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    tiny = {"n_nodes": 8, "cluster_size_max": 4, "alphas": [0.0, 4e-5], "runs": 20}
    wl = Workload(launcher, "tiny-run", "run", tiny, 1000, None)
    metrics, samples = measure(wl, 1, trace=False)
    expect(not any(s.errors for s in samples), "untraced tiny run passes its checks")
    expect(all(v > 0 for v in metrics.values()), "every end-to-end metric is positive")
    expect(set(metrics) == set(declared_units(False)), "end-to-end metrics are those BENCHMARK.json names")
    metrics, samples = measure(wl, 1, trace=True)
    expect(not any(s.errors for s in samples), "traced tiny run and micro.py pass")
    expect(set(metrics) == set(declared_units(True)), "per-layer metrics are those BENCHMARK.json names")
    expect(metrics.get("candidates.enumerated", 0) > 0
           and metrics["energy.price_calls"] == metrics["candidates.enumerated"] + metrics["candidates.kept"]
           and metrics["optimizer.iterations"] > 0 and metrics["simulator.runs"] == 40
           and all(metrics[k] > 0 for k in MICRO_METRICS), "per-layer counts and micro timings")

    sample = wl.execute(60.0)
    out_dir = sample.stdout.with_suffix(".out")
    ref = {"alphas": tiny["alphas"], "feasible": [True, True],
           "objective": [e["objective"] for e in json.loads((out_dir / "summary.json").read_text())]}
    expect(check_run(out_dir, wl.config, ref)[0] == [], "recorded reference matches")
    expect(check_run(out_dir, wl.config, {**ref, "objective": [o + 0.01 for o in ref["objective"]]})[0] != [],
           "objective off the reference is caught")
    summary = json.loads((out_dir / "summary.json").read_text())
    summary[-1]["objective"] += 1e-6
    (out_dir / "summary.json").write_text(json.dumps(summary))
    expect(check_run(out_dir, wl.config, None)[0] != [], "objective != xi + alpha*cost is caught")
    csv = out_dir / "trace_alpha=4e-05.csv"
    rows = csv.read_text().splitlines()
    rows.insert(3, rows[1])
    csv.write_text("\n".join(rows) + "\n")
    expect(any("rises" in e for e in check_run(out_dir, wl.config, None)[0]), "rising mean_error is caught")

    table = Workload(launcher, "tiny-table", "candidates", {"n_nodes": 12}, 1000, None)
    sample = table.execute(60.0)
    errors, kept_cost = check_table(sample.stdout, None)
    lines = sample.stdout.read_text().splitlines()
    enumerated, kept = int(lines[-1].split()[0]), int(lines[-1].split()[2])
    ref = {"enumerated": enumerated, "kept": kept, "kept_cost_sum": kept_cost}
    expect(not errors and check_table(sample.stdout, ref)[0] == [], "candidate table passes")
    expect(check_table(sample.stdout, {**ref, "kept": kept + 1})[0] != [], "wrong kept count is caught")
    sample.stdout.write_text("\n".join(lines[:-2] + lines[-1:]) + "\n")
    expect(check_table(sample.stdout, None)[0] != [], "a missing table row is caught")
    sample = table.execute(60.0)
    sample.stdout.write_text(sample.stdout.read_text().replace("*", " ", 1))
    expect(table.samples[0].digest != digest(sample, None), "changed output bytes are caught")

    print("self-check " + ("FAILED" if problems else "OK"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1000, help="sets sim_base_seed (>= 0)")
    parser.add_argument("--seconds", type=int, default=50, help="how long to take samples")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", help="check this benchmark on a tiny config")
    args = parser.parse_args()
    if not (SRC / "clustergossip" / "cli.py").is_file():
        print(f"benchmark: no clustergossip sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if args.seed < 0 or (args.workload is None and not args.self_check):
        parser.error("--workload is required and --seed must be >= 0")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with Launcher() as launcher:
        if args.self_check:
            return self_check(launcher)
        reference = json.loads(REFERENCE.read_text())["workloads"][args.workload]
        wl = Workload(launcher, args.workload, *WORKLOADS[args.workload], args.seed, reference)
        print("environment: " + json.dumps(environment(args.seed, args.seconds)))
        metrics, samples = measure(wl, args.seconds, bool(args.trace))
    failures = [err for s in samples for err in s.errors]
    units = declared_units(bool(args.trace))
    if metrics and set(metrics) != set(units):
        failures.append(f"metrics {sorted(set(metrics) ^ set(units))} are not as BENCHMARK.json declares")
    for err in failures:
        print(f"benchmark: check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": len(samples),
        "failed": sum(bool(s.errors) for s in samples),
        "metrics": {k: {"value": v, "unit": units.get(k, "undeclared")} for k, v in metrics.items()},
    }))
    return 1 if failures or not metrics else 0

if __name__ == "__main__":
    sys.exit(main())
