import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import clustergossip.cli as cli
from clustergossip import (
    AveragedTrace,
    ConfigurationError,
    EnergyParams,
    NumericalError,
    generate_topology,
    load_topology,
    xi,
)
from clustergossip.cli import (
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
    prepare_pool,
    run_sweep,
    write_trace_csv,
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
        (lambda: replace(ExperimentConfig(), runs=0), "runs"),
        (lambda: replace(ExperimentConfig(), alphas=[-1.0]), "alphas"),
        (lambda: replace(ExperimentConfig(), output_dir=""), "output_dir"),
    ],
)
def test_config_checks_itself_on_construction_and_replace(build, key):
    """The constructor and dataclasses.replace pass the same rules as a config file."""
    with pytest.raises(ConfigurationError, match=key):
        build()


def test_config_stores_a_list_of_alphas_as_a_tuple():
    # A list never equals a tuple, so these also check the type.
    assert ExperimentConfig(alphas=[0.0, 1e-5]).alphas == (0.0, 1e-5)
    assert replace(ExperimentConfig(), alphas=[2e-5]).alphas == (2e-5,)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigurationError, match="no_such_knob"):
        config_from_dict({"no_such_knob": 1})


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
    monkeypatch.setattr(cli, "read_json_object", lambda path, kind: {"cluster_size_max": 10**5000})
    for command in ("validate", "run"):
        assert main([command, "--config", str(tmp_path / "config.json")]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cluster_size_max ") and err.count("\n") == 1


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
    assert main(["run", "--config", str(config_path), "--seed", "abc"]) == EXIT_CONFIG_ERROR
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
    assert 'clustergossip = "clustergossip.cli:main"' in pyproject
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    for argv, code in ((["--help"], EXIT_OK), (["bogus"], EXIT_CONFIG_ERROR)):
        done = subprocess.run(
            [sys.executable, "-m", "clustergossip", *argv], env=env, capture_output=True
        )
        assert done.returncode == code


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
    code = main(
        [
            "run",
            "--config",
            str(config_path),
            "--output-dir",
            str(override_dir),
            "--seed",
            "42",
        ]
    )
    assert code == EXIT_OK
    assert (override_dir / "summary.json").is_file()


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


def test_main_rejects_negative_seed(tmp_path, capsys):
    config_path = _write_config(tmp_path, alphas=[0.0], runs=2)
    assert main(["run", "--config", str(config_path), "--seed", "-1"]) == EXIT_CONFIG_ERROR
    assert "--seed" in capsys.readouterr().err
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
        ({"init_low": 1e-200, "init_high": 1e-200}, EXIT_CONFIG_ERROR),
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
        st.sampled_from([f.name for f in fields(ExperimentConfig)] + ["no_such_knob"]),
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
