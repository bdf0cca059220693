import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import clustergossip.cli as cli
from clustergossip import (
    AveragedTrace,
    ClusterCandidate,
    ConfigurationError,
    EnergyParams,
    NumericalError,
    generate_topology,
    load_topology,
    xi,
)
from clustergossip.cli import prepare_pool, run_sweep, write_trace_csv
from clustergossip.config import (
    EXIT_CONFIG_ERROR,
    EXIT_INFEASIBLE,
    EXIT_INTERNAL_ERROR,
    EXIT_IO_ERROR,
    EXIT_NUMERICAL_ERROR,
    EXIT_OK,
    ExperimentConfig,
    config_from_dict,
    load_config,
    main,
)


def _write_config(tmp_path: Path, **overrides) -> Path:
    base = {
        "n_nodes": 8,
        "area_side": 20.0,
        "topology_seed": 3,
        "cluster_size_min": 2,
        "cluster_size_max": 8,
        "alphas": [0.0, 1e-4],
        "runs": 25,
        "error_threshold": 0.1,
        "max_iterations": 2000,
        "sim_base_seed": 500,
        "output_dir": str(tmp_path / "out"),
    }
    base.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


def test_config_accepts_small_and_large_cluster_sweeps():
    small = config_from_dict(
        {"cluster_size_min": 2, "cluster_size_max": 10, "alphas": [0.0, 4e-5, 8e-5]}
    )
    assert small.alphas == (0.0, 4e-5, 8e-5)
    large = config_from_dict(
        {
            "cluster_size_min": 20,
            "cluster_size_max": 30,
            "alphas": [0.0, 8.8e-5, 1.6e-4],
        }
    )
    assert large.size_max() == 30


def test_config_defaults():
    config = ExperimentConfig()
    assert config.n_nodes == 30
    assert config.area_side == 50.0
    assert config.epsilon == 1e-2
    assert config.runs == 1000
    assert config.error_threshold == 0.1
    assert config.init_low == 0.0 and config.init_high == 30.0
    assert config.size_max() == 30  # unset cluster_size_max spans all nodes


@pytest.mark.parametrize("size_max", [None, 35], ids=["unset", "above_n_nodes"])
def test_size_max_refuses_a_topology_file(size_max):
    """A topology_file's node count, not n_nodes (30), bounds the sizes, so size_max() cannot
    answer: unset it would read 30, and 35 would be refused against 30 nodes."""
    config = ExperimentConfig(topology_file="forty.json", cluster_size_max=size_max)
    with pytest.raises(ConfigurationError, match=r"topology_file .*check_sizes\(topology\.n"):
        config.size_max()


@pytest.mark.parametrize(
    "overrides,key",
    [
        ({"cluster_size_min": 1}, "cluster_size_min"),
        ({"cluster_size_max": 40}, "cluster_size_max"),
        ({"cluster_size_min": 6, "cluster_size_max": 4}, "cluster_size_max"),
        ({"alphas": []}, "alphas"),
        ({"alphas": [-1e-5]}, "alphas"),
        ({"epsilon": 0.0}, "epsilon"),
        ({"epsilon": 1.0}, "epsilon"),
        ({"runs": 0}, "runs"),
        ({"error_threshold": 0.0}, "error_threshold"),
        ({"max_iterations": 0}, "max_iterations"),
        ({"eps_amp": -1.0}, "eps_amp"),
        ({"init_low": 5.0, "init_high": 1.0}, "init_low"),
        ({"n_nodes": 1}, "n_nodes"),
        ({"area_side": float("nan")}, "area_side"),
        ({"alphas": [float("nan")]}, "alphas"),
        ({"init_low": 0.0, "init_high": 0.0}, "init_high"),
        ({"error_threshold": float("inf")}, "error_threshold"),
        ({"n_nodes": "30"}, "n_nodes"),
        ({"alphas": 0.1}, "alphas"),
        ({"alphas": "0.1"}, "alphas"),
        ({"n_nodes": 12.5}, "n_nodes"),
        ({"runs": True}, "runs"),
        ({"runs": 2.5}, "runs"),
        ({"max_iterations": 2.5}, "max_iterations"),
        ({"topology_seed": -1}, "topology_seed"),
        ({"sim_base_seed": -2}, "sim_base_seed"),
        ({"cluster_size_max": 4.0}, "cluster_size_max"),
        ({"alphas": [True]}, "alphas"),
        ({"area_side": "50"}, "area_side"),
        ({"init_high": False}, "init_high"),
        ({"output_dir": 5}, "output_dir"),
        ({"topology_file": ["a.json"]}, "topology_file"),
        ({"area_side": 10**400}, "area_side"),
        ({"epsilon": 10**400}, "epsilon"),
        ({"alphas": [10**400]}, "alphas"),
        ({"area_side": 10**5000}, "area_side"),
        ({"epsilon": 1e-300}, "epsilon"),
        ({"epsilon": 1e-15}, "epsilon"),
        ({"area_side": 0.0}, "area_side"),
        ({"area_side": -5}, "area_side"),
        ({"max_iterations": 10**20}, "max_iterations"),
        ({"max_iterations": 2**63}, "max_iterations"),
        ({"output_dir": "a\u0000b"}, "output_dir"),
        ({"output_dir": ""}, "output_dir"),
        ({"cluster_size_max": 10**5000}, "cluster_size_max"),
        ({"cluster_size_min": 10**5000}, "cluster_size_min"),
        ({"alphas": [1e-5, 0.00001, 0.0, -0.0]}, "alphas"),
        ({"n_nodes": 2**64}, "n_nodes"),
        ({"n_nodes": 2**29 + 1}, "n_nodes"),
        # Init ranges from which no draw can start; the message names both keys.
        ({"init_low": -5e-324, "init_high": -0.0}, "init_low=.*init_high="),
        ({"init_low": -0.0, "init_high": 2.2e-308}, "init_low=.*init_high="),
        ({"init_low": 1e-200, "init_high": 1e-200}, "init_low=.*init_high="),
        ({"init_low": 1.4e154, "init_high": 1.5e154}, "init_low=.*init_high="),
        ({"init_low": -1.5e154, "init_high": -1.4e154}, "init_low=.*init_high="),
        ({"init_low": -1.7e308, "init_high": 1.7e308}, "init_low=.*init_high="),
        ({"runs": None}, "runs"),  # only the keys whose default is null admit null
    ],
)
def test_config_rejections_name_the_key(overrides, key):
    with pytest.raises(ConfigurationError, match=key):
        config_from_dict(overrides)


@pytest.mark.parametrize(
    "build,key",
    [
        (lambda: ExperimentConfig(alphas=()), "alphas"),
        (lambda: ExperimentConfig(error_threshold=float("nan")), "error_threshold"),
        (lambda: ExperimentConfig().replace(runs=0), "runs"),
        (lambda: ExperimentConfig().replace(alphas=[-1.0]), "alphas"),
        (lambda: ExperimentConfig().replace(output_dir=""), "output_dir"),
    ],
)
def test_config_checks_itself_on_construction_and_replace(build, key):
    """The constructor and the config's replace pass the same rules as a config file."""
    with pytest.raises(ConfigurationError, match=key):
        build()


def test_config_stores_a_list_of_alphas_as_a_tuple():
    # A list never equals a tuple, so these also check the type.
    assert ExperimentConfig(alphas=[0.0, 1e-5]).alphas == (0.0, 1e-5)
    assert ExperimentConfig().replace(alphas=[2e-5]).alphas == (2e-5,)


def test_config_is_read_only():
    """A config's keys are not assigned or deleted in place; replace returns a changed copy."""
    config = ExperimentConfig()
    with pytest.raises(AttributeError):
        config.runs = 5
    with pytest.raises(AttributeError):
        config.no_such_knob = 1
    with pytest.raises(AttributeError):
        del config.runs
    assert config.runs == 1000 and config.replace(runs=5).runs == 5


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="no_such_knob"):
        config_from_dict({"no_such_knob": 1})
    with pytest.raises(ConfigurationError, match="no_such_knob"):
        ExperimentConfig().replace(no_such_knob=1)


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigurationError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigurationError):
        load_config(bad)
    bad.write_text("{invalid")
    with pytest.raises(ConfigurationError):
        load_config(bad)
    bad.write_text('{"area_side": ' + "1" * 5000 + "}")  # past int-string limits
    with pytest.raises(ConfigurationError):
        load_config(bad)


@pytest.mark.parametrize(
    "text,message",
    [
        (None, "not found"),
        ("{invalid", "is not valid JSON"),
        ("[1, 2]", "must contain a JSON object"),
        pytest.param("[" * 100000 + "]" * 100000, "is not valid JSON", id="nested-too-deep"),
    ],
)
def test_config_and_topology_files_share_one_reader(tmp_path, text, message):
    """Both input files fail the same way, each message naming its file kind."""
    path = tmp_path / "input.json"
    if text is not None:
        path.write_text(text)
    for kind, load in (("config", load_config), ("topology", load_topology)):
        with pytest.raises(ConfigurationError, match=f"^{kind} file.*{message}"):
            load(path)


def test_size_too_long_for_str_exits_1_naming_the_key(tmp_path, monkeypatch, capsys):
    """JSON cannot carry such an integer, so the reader is replaced by one that returns it."""
    monkeypatch.setattr(
        "clustergossip.config.read_json_object", lambda path, kind: {"cluster_size_max": 10**5000}
    )
    for command in ("validate", "run"):
        assert main([command, "--config", str(tmp_path / "config.json")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cluster_size_max ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_directory_is_not_a_file_exits_1(tmp_path, capsys, command):
    """A config or topology path that names a directory is reported as not a file, not as missing."""
    assert main([command, "--config", str(tmp_path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"configuration error: config file {tmp_path} is not a file\n"
    config_path = _write_config(tmp_path, topology_file=str(tmp_path))
    assert main([command, "--config", str(config_path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"configuration error: topology file {tmp_path} is not a file\n"
    assert not (tmp_path / "out").exists()


def test_validate_subcommand(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    assert "config OK" in capsys.readouterr().out

    broken = _write_config(tmp_path, cluster_size_min=1)
    assert main(["validate", "--config", str(broken)]) == EXIT_CONFIG_ERROR
    assert "cluster_size_min" in capsys.readouterr().err


def test_write_trace_csv_single_row(tmp_path):
    averaged = AveragedTrace(
        mean_errors=np.array([0.25]),
        mean_energies=np.array([0.0]),
        runs=4,
        terminated_runs=4,
        mean_iterations_to_threshold=0.0,
        mean_energy_at_threshold=0.0,
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(averaged, 0.0, path)
    assert path.read_text() == "alpha,iteration,mean_error,mean_energy\n0.0,0,0.25,0.0\n"


def test_write_trace_csv_is_deterministic(tmp_path):
    averaged = AveragedTrace(
        mean_errors=np.array([0.5, 0.1 + 0.2]),  # exercises shortest round-trip repr
        mean_energies=np.array([0.0, 12.5]),
        runs=2,
        terminated_runs=2,
        mean_iterations_to_threshold=1.0,
        mean_energy_at_threshold=12.5,
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_trace_csv(averaged, 4e-05, a)
    write_trace_csv(averaged, 4e-05, b)
    assert a.read_bytes() == b.read_bytes()
    assert "0.30000000000000004" in a.read_text()
    assert "4e-05" in a.read_text().splitlines()[1]


def test_run_sweep_end_to_end(tmp_path):
    config = load_config(_write_config(tmp_path))
    assert run_sweep(config) == EXIT_OK

    out = tmp_path / "out"
    summary = json.loads((out / "summary.json").read_text())
    assert [entry["alpha"] for entry in summary] == [0.0, 1e-4]
    for entry in summary:
        assert entry["feasible"] is True
        assert 0.0 <= entry["xi"] <= 0.99
        probs = [row["probability"] for row in entry["support"]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-6)
        assert probs == sorted(probs, reverse=True)
        assert entry["mean_iterations_to_threshold"] is not None

    # more regularization never buys a pricier mixture (2% slack)
    assert summary[1]["expected_cost_l1"] <= summary[0]["expected_cost_l1"] * 1.02

    # CSV tail agrees with the summary energy figure
    for entry in summary:
        csv_path = out / f"trace_alpha={repr(entry['alpha'])}.csv"
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "alpha,iteration,mean_error,mean_energy"
        last = rows[-1].split(",")
        assert float(last[3]) == pytest.approx(
            entry["mean_energy_at_threshold"], rel=1e-12
        )
        assert float(last[2]) <= config.error_threshold  # every run finished


def test_run_sweep_writes_an_alpha_of_minus_zero_as_zero(tmp_path):
    """The config already takes 0.0 and -0.0 as one value, so both write the same files."""
    outputs = []
    for alpha in (0.0, -0.0):
        out = tmp_path / repr(alpha)
        config = load_config(_write_config(tmp_path, alphas=[alpha], output_dir=str(out)))
        assert run_sweep(config) == EXIT_OK
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert list(outputs[1]) == ["summary.json", "trace_alpha=0.0.csv"]
    assert outputs[1] == outputs[0]


def test_run_sweep_alpha_zero_prefers_all_node_cluster(tmp_path):
    config = load_config(_write_config(tmp_path, alphas=[0.0]))
    assert run_sweep(config) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    entry = summary[0]
    assert entry["xi"] <= 1e-9
    assert len(entry["support"]) == 1
    assert entry["support"][0]["members"] == list(range(8))
    assert entry["support"][0]["probability"] == pytest.approx(1.0)

    # sanity: the sweep's xi beats every single-candidate distribution
    topo = generate_topology(8, 20.0, 3)
    enumerated, _, kept_indices = prepare_pool(topo, 2, 8, EnergyParams())
    kept = [enumerated[i] for i in kept_indices]
    for i in range(len(kept)):
        e = np.zeros(len(kept))
        e[i] = 1.0
        assert entry["xi"] <= xi(e, kept, 8) + 1e-9


def test_run_sweep_pins_the_certified_all_node_vertex(tmp_path):
    """On the default config, alphas 0 and 4e-5 stop at their starting point, the all-node
    cluster around head 7, with gap 0: the part of what ``run`` writes that rounding cannot move."""
    config = config_from_dict({"alphas": [0.0, 4e-5], "output_dir": str(tmp_path / "out")})
    assert run_sweep(config) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for entry, objective in zip(summary, [0.0, 0.5403656359364035], strict=True):
        assert entry["support"] == [{"head": 7, "members": list(range(30)), "probability": 1.0}]
        assert (entry["xi"], entry["gap"], entry["iterations"]) == (0.0, 0.0, 0)
        assert entry["objective"] == pytest.approx(objective, rel=0.0, abs=1e-12)
        assert entry["expected_cost_l1"] == pytest.approx(13509.140898410087, rel=1e-12)


def test_support_rows_tie_on_probability_by_head_then_members():
    """Rows run by falling probability; equal ones by head, though member order disagrees here."""
    kept = [ClusterCandidate(3, (0, 3)), ClusterCandidate(1, (1, 2)), ClusterCandidate(0, (0, 1))]
    rows = cli._support(np.array([0.25, 0.25, 0.5]), kept)
    order = [(row["head"], row["members"]) for row in rows]
    assert order == [(0, [0, 1]), (1, [1, 2]), (3, [0, 3])]


def test_run_sweep_outputs_are_byte_identical(tmp_path):
    path_a = _write_config(tmp_path, output_dir=str(tmp_path / "a"))
    assert main(["run", "--config", str(path_a)]) == EXIT_OK
    path_b = _write_config(tmp_path, output_dir=str(tmp_path / "b"))
    assert main(["run", "--config", str(path_b)]) == EXIT_OK

    files_a = sorted(f.name for f in (tmp_path / "a").iterdir())
    files_b = sorted(f.name for f in (tmp_path / "b").iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_run_sweep_infeasible_network(tmp_path):
    """Two tight node groups far apart with clusters too small to span
    them: the sweep must flag infeasibility and exit nonzero."""
    rng = np.random.default_rng(1)
    near = rng.uniform(0.0, 5.0, size=(3, 2))
    far = rng.uniform(0.0, 5.0, size=(3, 2)) + np.array([1e5, 0.0])
    topo_file = tmp_path / "split.json"
    topo_file.write_text(
        json.dumps({"positions": np.vstack([near, far]).tolist()})
    )
    config_path = _write_config(
        tmp_path,
        topology_file=str(topo_file),
        cluster_size_min=2,
        cluster_size_max=3,
        alphas=[0.0],
        runs=5,
    )
    config = load_config(config_path)
    assert run_sweep(config) == EXIT_INFEASIBLE
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    entry = summary[0]
    assert entry["feasible"] is False
    assert entry["support"] == []
    assert entry["xi"] >= 1.0 - 1e-9
    assert entry["mean_iterations_to_threshold"] is None
    assert entry["mean_energy_at_threshold"] is None


def test_main_maps_errors_to_exit_codes(tmp_path):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == EXIT_CONFIG_ERROR

    # output_dir nested under a regular file cannot be created
    blocker = tmp_path / "blocker"
    blocker.write_text("just a file")
    config_path = _write_config(
        tmp_path, output_dir=str(blocker / "sub"), alphas=[0.0], runs=2
    )
    assert main(["run", "--config", str(config_path)]) == EXIT_IO_ERROR


def test_main_numerical_and_usage_exit_codes(tmp_path, monkeypatch, capsys):
    config_path = _write_config(tmp_path, alphas=[0.0], runs=2)

    def diverge(*args, **kwargs):
        raise NumericalError("objective became non-finite: nan")

    monkeypatch.setattr(cli, "optimize", diverge)
    assert main(["run", "--config", str(config_path)]) == EXIT_NUMERICAL_ERROR
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1

    # argparse's own exit status 2 would read as EXIT_INFEASIBLE
    assert main(["run", "--config"]) == EXIT_CONFIG_ERROR  # --config without its path
    assert main(["run"]) == EXIT_CONFIG_ERROR
    assert "usage:" in capsys.readouterr().err
    assert main(["--help"]) == EXIT_OK
    assert "usage:" in capsys.readouterr().out


def test_main_internal_error_exits_5(tmp_path, monkeypatch, capsys):
    """A bug is not a bad config: it keeps its traceback and exits 5, not 1."""
    config_path = _write_config(tmp_path, alphas=[0.0], runs=2)

    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "optimize", broken)
    assert main(["run", "--config", str(config_path)]) == EXIT_INTERNAL_ERROR == 5
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "RuntimeError: boom" in err
    assert err.splitlines()[-1] == "internal error: RuntimeError('boom')"


@pytest.mark.parametrize("command", ["run", "candidates"])
def test_out_of_memory_exits_1_and_writes_nothing(tmp_path, monkeypatch, capsys, command):
    """An allocation the OS refuses is a config asking for too much, not a bug."""
    config_path = _write_config(tmp_path)

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.6 TiB for an array")

    monkeypatch.setattr(cli, "generate_topology", refuse)
    assert main([command, "--config", str(config_path)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert err.startswith("out of memory: Unable to allocate 14.6 TiB")
    assert all(key in err for key in ("n_nodes", "cluster_size_max", "runs"))
    assert not (tmp_path / "out").exists()


def test_module_and_console_script_return_mains_exit_code():
    """``python -m clustergossip`` and the console script both exit with main's code."""
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'clustergossip = "clustergossip.config:main"' in pyproject
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv, code in ((["--help"], EXIT_OK), (["bogus"], EXIT_CONFIG_ERROR)):
        done = subprocess.run(
            [sys.executable, "-m", "clustergossip", *argv], env=env, capture_output=True
        )
        assert done.returncode == code


def _fresh_imports(argv, cwd):
    """Exit code of ``python -X importtime *argv`` and the modules it imported."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv],
        env=env, cwd=cwd, capture_output=True, text=True,
    )
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return done.returncode, {line.rsplit("|", 1)[1].strip() for line in lines}


PIPELINE_MODULES = {
    "numpy", *(f"clustergossip.{name}" for name in
               ("cli", "candidates", "optimizer", "simulator")),
}


def test_front_end_starts_without_numpy(tmp_path):
    """validate, --help, usage errors and config errors import neither numpy nor the pipeline,
    nor dataclasses and the inspect module it loads, nor pathlib, unless the interpreter's own
    start does (a site hook, say)."""
    (tmp_path / "default.json").write_text("{}")
    (tmp_path / "bad.json").write_text('{"runs": 0}')
    _, bare = _fresh_imports(["-c", "pass"], tmp_path)
    slow_stdlib = {"dataclasses", "inspect", "pathlib"} - bare
    for argv, code in (
        (["validate", "--config", "default.json"], EXIT_OK),
        (["--help"], EXIT_OK),
        (["bogus"], EXIT_CONFIG_ERROR),
        (["validate", "--config", "bad.json"], EXIT_CONFIG_ERROR),
        (["run", "--config", "bad.json"], EXIT_CONFIG_ERROR),
    ):
        returncode, modules = _fresh_imports(["-m", "clustergossip", *argv], tmp_path)
        assert returncode == code and "clustergossip.config" in modules, argv
        assert modules & (PIPELINE_MODULES | slow_stdlib) == set(), argv

    field = tmp_path / "field.json"
    field.write_text(json.dumps({"positions": [[0, 0], [1, 0], [0, 1]]}))
    (tmp_path / "field-config.json").write_text(json.dumps({"topology_file": str(field)}))
    returncode, modules = _fresh_imports(
        ["-m", "clustergossip", "validate", "--config", "field-config.json"], tmp_path
    )
    # a topology file loads candidates, where Topology lives, but not cli, the solver or simulator
    assert returncode == EXIT_OK and {"numpy", "clustergossip.candidates"} <= modules
    assert modules & {f"clustergossip.{m}" for m in ("cli", "optimizer", "simulator")} == set()


def test_pipeline_commands_run_without_numpy_random(tmp_path):
    """run and candidates draw default_rng's streams themselves: neither loads numpy.random."""
    (tmp_path / "small.json").write_text(json.dumps({"n_nodes": 8, "alphas": [0.0], "runs": 20}))
    _, bare = _fresh_imports(["-c", "pass"], tmp_path)
    for argv, module in (
        (["run", "--config", "small.json", "--output-dir", "out"], "clustergossip.simulator"),
        (["candidates", "--config", "small.json"], "clustergossip.candidates"),
    ):
        returncode, modules = _fresh_imports(["-m", "clustergossip", *argv], tmp_path)
        assert returncode == EXIT_OK and module in modules, argv
        random = {name for name in modules - bare if name.split(".")[:2] == ["numpy", "random"]}
        assert random == set(), argv
    assert (tmp_path / "out" / "summary.json").is_file()


# The names perfbench/traced_cli.py wraps in clustergossip.cli. It also lists candidate_cost_l1,
# which cli no longer imports, so the benchmark's pricing count reads 0; mending that belongs to
# the benchmark (ROADMAP item 1), and the name is left out here.
TRACED_IN_CLI = (
    "generate_topology", "load_topology", "enumerate_candidates", "prune_dominated", "optimize",
    "monte_carlo", "write_trace_csv", "write_summary_json",
)


def test_cli_keeps_the_names_the_benchmark_wraps(tmp_path, monkeypatch):
    """Each traced name is a cli attribute looked up at call time; main and load_config
    (which perfbench/micro.py imports from cli) are reachable there too."""
    assert callable(cli.main) and callable(cli.load_config)
    called = []
    for name in TRACED_IN_CLI:
        def wrapper(*args, _name=name, _real=getattr(cli, name), **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cli, name, wrapper)
    field = tmp_path / "field.json"
    field.write_text(json.dumps({"positions": generate_topology(8, 20.0, 3).positions.tolist()}))
    for overrides in ({}, {"topology_file": str(field)}):
        config_path = _write_config(tmp_path, alphas=[0.0], runs=5, **overrides)
        assert cli.main(["run", "--config", str(config_path)]) == EXIT_OK
    assert sorted(set(called)) == sorted(TRACED_IN_CLI)


def test_summary_reports_bound_gap_and_iterations(tmp_path, monkeypatch):
    results, real_optimize = [], cli.optimize

    def recording_optimize(*args, **kwargs):
        results.append(real_optimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "optimize", recording_optimize)
    config = load_config(_write_config(tmp_path, alphas=[0.0, 1e-3]))
    assert run_sweep(config) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for entry, result in zip(summary, results, strict=True):
        assert entry["lower_bound"] == result.lower_bound <= entry["objective"] + 1e-12
        assert entry["gap"] == entry["objective"] - entry["lower_bound"]
        assert entry["iterations"] == result.iterations

    # a split field: no point meets the margin, so the gap is undefined
    far = [[0.0, 0.0], [1.0, 0.0], [1e5, 0.0], [1e5 + 1.0, 0.0]]
    topo_file = tmp_path / "split.json"
    topo_file.write_text(json.dumps({"positions": far}))
    config = load_config(
        _write_config(tmp_path, topology_file=str(topo_file), cluster_size_max=2, alphas=[0.0])
    )
    assert run_sweep(config) == EXIT_INFEASIBLE
    entry = json.loads((tmp_path / "out" / "summary.json").read_text())[0]
    assert entry["gap"] is None and entry["iterations"] > 0
    assert entry["lower_bound"] <= entry["objective"] + 1e-12


@pytest.mark.parametrize("alpha", [1e16, 1e300, 1e304])
def test_huge_alpha_exits_numerical_error(tmp_path, capsys, alpha):
    """alpha * costs loses the simplex to float precision (1e16, 1e300) or
    overflows (1e304); both end in one line and exit 4, not a traceback."""
    config_path = _write_config(tmp_path, alphas=[alpha], runs=2)
    assert main(["run", "--config", str(config_path)]) == EXIT_NUMERICAL_ERROR
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and err.count("\n") == 1


def test_summary_support_is_every_nonzero_probability(tmp_path, monkeypatch):
    results, real_optimize = [], cli.optimize

    def recording_optimize(*args, **kwargs):
        results.append(real_optimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "optimize", recording_optimize)
    config = load_config(_write_config(tmp_path, alphas=[0.0, 1e-4, 1e-3]))
    assert run_sweep(config) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    for entry, result in zip(summary, results, strict=True):
        probs = [row["probability"] for row in entry["support"]]
        assert len(probs) == np.count_nonzero(result.p)
        assert sum(probs) == pytest.approx(1.0, abs=1e-12)


def test_main_run_overrides(tmp_path):
    config_path = _write_config(tmp_path, alphas=[0.0], runs=5)
    override_dir = tmp_path / "elsewhere"
    code = main(["run", "--config", str(config_path), "--output-dir", str(override_dir)])
    assert code == EXIT_OK
    assert (override_dir / "summary.json").is_file()


@pytest.mark.parametrize(
    "command, output_dir, message",
    [
        ("run", "", "configuration error: config key 'output_dir': "),
        ("run", "out\0put", "configuration error: config key 'output_dir': "),
        ("candidates", "x", "unrecognized arguments: --output-dir x"),
    ],
)
def test_output_dir_flag_is_checked_like_the_config_key(
    tmp_path, capsys, command, output_dir, message
):
    """--output-dir passes the config's output_dir rules, and only run takes it."""
    config_path = _write_config(tmp_path, alphas=[0.0], runs=2)
    before = sorted(tmp_path.rglob("*"))
    code = main([command, "--config", str(config_path), "--output-dir", output_dir])
    assert code == EXIT_CONFIG_ERROR == 1
    assert message in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_candidates_subcommand(tmp_path, capsys):
    config_path = _write_config(tmp_path, n_nodes=4, cluster_size_max=4)
    assert main(["candidates", "--config", str(config_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "enumerated" in out
    assert "head" in out


def test_topology_file_sizes_and_positions(tmp_path, capsys):
    """An unset cluster_size_max spans the topology file's nodes, an explicit
    one above them is rejected, and so is a non-finite position."""
    topo_file = tmp_path / "square.json"
    topo_file.write_text(json.dumps({"positions": [[0, 0], [1, 0], [0, 1], [1, 1]]}))
    path = _write_config(
        tmp_path, topology_file=str(topo_file), cluster_size_max=None, alphas=[0.0], runs=5
    )
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    assert main(["run", "--config", str(path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary[0]["support"][0]["members"] == [0, 1, 2, 3]
    capsys.readouterr()

    # validate loads the file and applies its node count, exiting 1 with run's message.
    path = _write_config(tmp_path, topology_file=str(topo_file), cluster_size_max=5)
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG_ERROR
    message = capsys.readouterr().err
    assert "cluster_size_max" in message
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == message

    topo_file.write_text(json.dumps({"positions": [[0, 0], [1, 0], [float("nan"), 1]]}))
    path = _write_config(tmp_path, topology_file=str(topo_file), cluster_size_max=None)
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG_ERROR
    message = capsys.readouterr().err
    assert "finite" in message
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == message


def test_topology_file_sizes_are_judged_against_its_node_count(tmp_path, capsys):
    """With cluster_size_max unset, the sizes are judged against the file's 40 nodes,
    not against n_nodes (30), by validate and run alike."""
    topo_file = tmp_path / "forty.json"
    positions = np.random.default_rng(0).uniform(0.0, 50.0, size=(40, 2))
    topo_file.write_text(json.dumps({"positions": positions.tolist()}))

    def config(size_min: int) -> Path:
        return _write_config(
            tmp_path, n_nodes=30, topology_file=str(topo_file), cluster_size_min=size_min,
            cluster_size_max=None, alphas=[0.0], runs=5,
        )

    path = config(35)
    assert main(["validate", "--config", str(path)]) == EXIT_OK
    assert main(["run", "--config", str(path)]) == EXIT_OK
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary[0]["support"] and all(len(row["members"]) >= 35 for row in summary[0]["support"])
    capsys.readouterr()

    path = config(41)
    assert main(["validate", "--config", str(path)]) == EXIT_CONFIG_ERROR
    message = capsys.readouterr().err
    assert "cluster_size_min" in message and "30" not in message
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == message


@pytest.mark.parametrize(
    "config,nodes",
    [({"cluster_size_min": 31}, 30), ({"topology_file": "forty.json", "cluster_size_min": 41}, 40)],
    ids=["n_nodes", "topology_file"],
)
def test_size_min_above_the_node_count_names_the_node_count(tmp_path, capsys, config, nodes):
    """With cluster_size_max unset, the message names the node count it stands for, not the key."""
    positions = [[i % 8, i // 8] for i in range(40)]
    (tmp_path / "forty.json").write_text(json.dumps({"positions": positions}))
    config = {**config, "output_dir": str(tmp_path / "out")}
    if "topology_file" in config:
        config["topology_file"] = str(tmp_path / config["topology_file"])
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    expected = (
        f"configuration error: cluster_size_min {config['cluster_size_min']} "
        f"exceeds the number of nodes ({nodes})\n"
    )
    for command in ("validate", "run"):
        assert main([command, "--config", str(path)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == expected


def test_summary_reports_terminated_runs(tmp_path):
    config = load_config(_write_config(tmp_path, alphas=[1e-4]))
    assert run_sweep(config) == EXIT_OK
    entry = json.loads((tmp_path / "out" / "summary.json").read_text())[0]
    assert entry["terminated_runs"] == 25  # threshold 0.1 within 2000 slots

    positions = [[0.0, 0.0], [1.0, 0.0], [1e5, 0.0], [1e5 + 1.0, 0.0]]
    topo_file = tmp_path / "split.json"
    topo_file.write_text(json.dumps({"positions": positions}))
    split = load_config(
        _write_config(
            tmp_path, topology_file=str(topo_file), cluster_size_max=2, alphas=[0.0]
        )
    )
    assert run_sweep(split) == EXIT_INFEASIBLE
    entry = json.loads((tmp_path / "out" / "summary.json").read_text())[0]
    assert entry["feasible"] is False
    assert entry["terminated_runs"] is None


def test_main_run_has_no_seed_flag(tmp_path, capsys):
    """The config's sim_base_seed is the one Monte-Carlo seed: --seed is a usage error."""
    config_path = _write_config(tmp_path, alphas=[0.0], runs=2)
    assert main(["run", "--config", str(config_path), "--seed", "5"]) == EXIT_CONFIG_ERROR
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_energy_sums_past_float_precision_exit_4(tmp_path, capsys):
    """Finite costs whose simulated energy sums overflow exit 4 and write nothing."""
    path = _write_config(tmp_path, n_nodes=4, cluster_size_max=2, e_elec=1e307)
    assert main(["run", "--config", str(path)]) == EXIT_NUMERICAL_ERROR
    assert "energy sums overflow" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_initial_range_past_float_precision_exits_1(tmp_path, capsys):
    """Initial readings whose range width or squared norm leaves the float range are a
    config error naming init_low and init_high, not a traceback or a NaN trace."""
    for overrides in (
        {"init_low": 1e-200, "init_high": 1e-200},
        {"init_low": -1.7e308, "init_high": 1.7e308},
        {"init_low": -1e200, "init_high": 1e200, "max_iterations": 20},
    ):
        path = _write_config(tmp_path, runs=3, **overrides)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "init_low" in err and "init_high" in err
        assert "Traceback" not in err
        assert not any("nan" in f.read_text() for f in (tmp_path / "out").glob("*"))


@pytest.mark.parametrize(
    "overrides, code",
    [
        ({"alphas": [0.0, 1e300]}, EXIT_NUMERICAL_ERROR),
        ({"init_low": -1e200, "init_high": 1e200}, EXIT_CONFIG_ERROR),
    ],
)
def test_failing_run_writes_nothing(tmp_path, overrides, code):
    """A run that fails after its first alpha neither creates the output directory
    nor touches an existing one: no partial trace, no stale summary beside it."""
    out = tmp_path / "out"
    path = _write_config(tmp_path, runs=3, **overrides)
    assert main(["run", "--config", str(path)]) == code
    assert not out.exists()
    out.mkdir()
    (out / "summary.json").write_text("earlier run\n")
    assert main(["run", "--config", str(path)]) == code
    assert [f.name for f in out.iterdir()] == ["summary.json"]
    assert (out / "summary.json").read_text() == "earlier run\n"


def test_overflowing_costs_exit_1(tmp_path, capsys):
    """Coordinates or energy keys whose costs pass the float range are a config
    error naming the keys, not a traceback from the optimizer."""
    far = tmp_path / "far.json"
    far.write_text(json.dumps({"positions": [[0, 0], [1e200, 0], [0, 1e200]]}))
    for overrides in (
        {"topology_file": str(far), "cluster_size_max": None},
        {"topology_file": str(far), "cluster_size_max": None, "eps_amp": 1e-300},
        {"area_side": 1e300},
        {"eps_amp": 1e307},
    ):
        path = _write_config(tmp_path, runs=2, **overrides)
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG_ERROR
        assert "eps_amp" in capsys.readouterr().err


_odd_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.integers(10**299, 10**300),
    st.integers(-(10**300), -(10**299)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
)
_config_values = st.one_of(
    _odd_values,
    st.lists(_odd_values, max_size=3),
    st.dictionaries(st.text(max_size=3), _odd_values, max_size=2),
)


@given(
    st.dictionaries(
        st.sampled_from([*ExperimentConfig.KEYS, "no_such_knob"]),
        _config_values,
        max_size=6,
    )
)
@settings(max_examples=150, deadline=None)
def test_validate_never_raises_on_fuzzed_configs(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(data))
        assert main(["validate", "--config", str(path)]) in (EXIT_OK, EXIT_CONFIG_ERROR)


_coordinate = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-(10**400), 10**400),
)
_row = st.one_of(
    st.lists(_coordinate, min_size=2, max_size=2),
    st.lists(st.one_of(_coordinate, _odd_values), max_size=4),
    _odd_values,
)
_positions = st.one_of(
    _odd_values,
    st.lists(_row, max_size=6),
    st.lists(st.lists(_row, max_size=2), max_size=3),
    st.dictionaries(st.text(max_size=2), _row, max_size=2),
)


def _exit_and_stderr(argv: list[str]) -> tuple[int, str]:
    """main's exit code and what it printed to stderr."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        return main(argv), err.getvalue()


@given(_positions)
@example([[0, 0], [1e200, 0]])
@settings(max_examples=200, deadline=None)
def test_candidates_never_raises_on_malformed_topology_files(positions):
    """Strings, nulls, bools, ragged or short rows, dicts, huge integers and
    non-finite numbers as positions: exit 0 or 1, never a traceback. validate
    rejects the positions that loading the file rejects, with the same message,
    and passes finite positions whose candidate costs overflow."""
    with tempfile.TemporaryDirectory() as tmp:
        topo_file = Path(tmp) / "nodes.json"
        topo_file.write_text(json.dumps({"positions": positions}))
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({"topology_file": str(topo_file)}))
        code, message = _exit_and_stderr(["candidates", "--config", str(path)])
        assert code in (EXIT_OK, EXIT_CONFIG_ERROR)
        validated = _exit_and_stderr(["validate", "--config", str(path)])
        if "candidate costs overflow" in message:
            assert validated == (EXIT_OK, "")
        elif "positions" in message:
            assert validated == (EXIT_CONFIG_ERROR, message)


_EXTREMES = [0.0, 5e-324, 2.2e-308, 1e-300, 1e-12, 1e12, 1e300, 1.7976931348623157e308]
_nonnegative = st.one_of(st.sampled_from(_EXTREMES), st.floats(0.0, allow_infinity=False))
_signed = st.one_of(
    st.sampled_from(_EXTREMES + [-v for v in _EXTREMES]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_epsilon = st.one_of(
    st.sampled_from([1e-12, 0.5, 1 - 2**-53]), st.floats(1e-12, 1.0, exclude_max=True)
)


@st.composite
def _small_configs(draw):
    """Configs of at most 8 nodes, sizes at most 4, at most 20 runs and one or two alphas."""
    n = draw(st.integers(2, 8))
    size_min = draw(st.integers(2, min(4, n)))
    config = {
        "n_nodes": n,
        "cluster_size_min": size_min,
        "cluster_size_max": draw(st.one_of(st.none(), st.integers(size_min, min(4, n)))),
        "runs": draw(st.integers(1, 20)),
        "alphas": draw(st.lists(_nonnegative, min_size=1, max_size=2, unique=True)),
        "max_iterations": draw(st.integers(1, 200)),
    }
    keys = ("area_side", "error_threshold", "eps_amp", "e_elec", "k_bits")
    optional = {**dict.fromkeys(keys, _nonnegative), "epsilon": _epsilon}
    config.update(draw(st.fixed_dictionaries({}, optional=optional)))
    if draw(st.booleans()):
        low, high = sorted(draw(st.lists(_signed, min_size=2, max_size=2)))
        config.update(init_low=low, init_high=high)
    return config


@given(_small_configs())
@settings(max_examples=25, deadline=None)
def test_run_never_raises_on_configs_that_validate_accepts(data):
    """Small configs with extreme floats that validate accepts: run exits 0-4, never with a
    traceback (exit 5 prints one)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps({**data, "output_dir": str(Path(tmp) / "out")}))
        if _exit_and_stderr(["validate", "--config", str(path)])[0] != EXIT_OK:
            return
        with contextlib.redirect_stdout(io.StringIO()):
            code, message = _exit_and_stderr(["run", "--config", str(path)])
        assert code in range(EXIT_NUMERICAL_ERROR + 1) and "Traceback" not in message, message
