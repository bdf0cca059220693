"""The command line's front end: the experiment config, its checks, the parser and ``main``.

It imports neither numpy nor dataclasses: ``validate``, ``--help`` and usage or config errors
finish here, and ``main`` imports the pipeline in ``cli`` only for ``run`` and ``candidates``.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from .errors import (
    MIN_EPSILON, ConfigurationError, NumericalError, check_init_range, check_sizes,
    is_finite_number, read_json_object, show,
)

__all__ = ["ExperimentConfig", "load_config", "config_from_dict", "build_parser", "main"]

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_IO_ERROR = 3
EXIT_NUMERICAL_ERROR = 4
EXIT_INTERNAL_ERROR = 5

class ExperimentConfig:
    """One sweep's worth of settings; defaults give a 30-node demo field.

    Built by keyword from any of the ``KEYS`` (each omitted key takes its default) and read by
    attribute. It is read-only: ``replace`` returns a changed copy, and checks it as the
    constructor does.
    """

    # Each key's default, kind (a _TYPE_RULES key) and least value (None: it has none), in the
    # order the keys are checked. A key whose default is None also admits None.
    KEYS = {
        "n_nodes": (30, "int", 2),
        "area_side": (50.0, "float", None),
        "topology_seed": (7, "int", 0),
        "topology_file": (None, "str", None),
        "cluster_size_min": (2, "int", None),
        "cluster_size_max": (None, "int", None),
        "alphas": ((0.0, 4e-5, 8e-5), "floats", None),
        "epsilon": (1e-2, "float", None),
        "runs": (1000, "int", 1),
        "error_threshold": (0.1, "float", None),
        "max_iterations": (10000, "int", 1),
        "sim_base_seed": (1000, "int", 0),
        "eps_amp": (1.0, "float", 0),
        "e_elec": (0.0, "float", 0),
        "k_bits": (1.0, "float", 0),
        "init_low": (0.0, "float", None),
        "init_high": (30.0, "float", None),
        "output_dir": ("results", "str", None),
    }
    __slots__ = tuple(KEYS)

    def __init__(self, **values: object) -> None:
        """Take each key from ``values`` or its default, alphas as a tuple; check every rule."""
        unknown = values.keys() - self.KEYS.keys()
        if unknown:
            raise ConfigurationError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        for key, (default, _, _) in self.KEYS.items():
            object.__setattr__(self, key, values.get(key, default))
        if isinstance(self.alphas, list):
            object.__setattr__(self, "alphas", tuple(self.alphas))

        def fail(key: str, message: str) -> None:
            raise ConfigurationError(f"config key '{key}': {message}")

        for key, (default, kind, _) in self.KEYS.items():
            value = getattr(self, key)
            is_kind, noun = _TYPE_RULES[kind]
            if not is_kind(value) and not (default is None and value is None):
                fail(key, f"must be {noun}, got {show(value)}")
        for key, (_, _, least) in self.KEYS.items():
            if least is not None and getattr(self, key) < least:
                fail(key, f"must be >= {least}, got {show(getattr(self, key))}")
        for key in ("area_side", "error_threshold"):
            if getattr(self, key) <= 0:
                fail(key, f"must be positive, got {show(getattr(self, key))}")
        if self.max_iterations >= 2**63:  # monte_carlo keeps slot counts as int64
            fail("max_iterations", f"must be < 2**63, got {show(self.max_iterations)}")
        if self.n_nodes > 2**29:  # numpy refuses arrays of 2**63 bytes; d_sq's temporary is 16 n^2
            fail("n_nodes", f"must be <= 2**29, got {show(self.n_nodes)}")
        if not self.output_dir or "\0" in self.output_dir:
            fail("output_dir", f"must be a nonempty path with no NUL, got {self.output_dir!r}")
        if self.topology_file is None:  # a file's node count is known once it is loaded
            check_sizes(self.n_nodes, self.cluster_size_min, self.cluster_size_max)
        if len(self.alphas) == 0:
            fail("alphas", "must be a nonempty list")
        if any(a < 0 for a in self.alphas):
            fail("alphas", f"must all be >= 0, got {list(self.alphas)}")
        if len(set(map(float, self.alphas))) < len(self.alphas):  # as floats: 0.0 == -0.0
            fail("alphas", f"must not repeat a value, got {list(self.alphas)}")
        if not MIN_EPSILON <= self.epsilon < 1:
            fail("epsilon", f"must lie in [{MIN_EPSILON}, 1), got {self.epsilon}")
        check_init_range(self.init_low, self.init_high)

    def replace(self, **changes: object) -> ExperimentConfig:
        """A copy with ``changes`` applied, built (and so checked) by the constructor."""
        return ExperimentConfig(**{**{key: getattr(self, key) for key in self.KEYS}, **changes})

    def __setattr__(self, key: str, value: object = None) -> None:
        raise AttributeError(f"config key {key!r} is read-only: use replace()")

    __delattr__ = __setattr__

    def size_max(self) -> int:
        """Largest cluster size of a drawn field, as ``check_sizes`` resolves it for ``n_nodes``."""
        if self.topology_file is not None:  # the file's node count, not n_nodes, judges the sizes
            raise ConfigurationError("topology_file is set: call check_sizes(topology.n, ...)")
        return check_sizes(self.n_nodes, self.cluster_size_min, self.cluster_size_max)


# The check and its noun for each kind of value in ExperimentConfig.KEYS.
_TYPE_RULES = {
    "int": (lambda value: isinstance(value, int) and not isinstance(value, bool), "an integer"),
    "float": (is_finite_number, "a finite number"),
    "str": (lambda value: isinstance(value, str), "a string"),
    "floats": (
        lambda value: isinstance(value, tuple) and all(map(is_finite_number, value)),
        "a list of finite numbers",
    ),
}


def config_from_dict(data: dict[str, object]) -> ExperimentConfig:
    """Build a config from a plain dict of overrides; unknown keys are rejected."""
    return ExperimentConfig(**data)


def load_config(path: str | os.PathLike[str]) -> ExperimentConfig:
    """Load a JSON config file; unspecified keys take the defaults."""
    return config_from_dict(read_json_object(path, "config"))


def _cmd_validate(config: ExperimentConfig, args: argparse.Namespace) -> int:
    if config.topology_file is not None:  # loaded and size-checked as run does; no field is drawn
        import numpy as np

        from .candidates import load_topology

        with np.errstate(over="ignore", invalid="ignore"):  # overflowing distances pass, like costs
            n = load_topology(config.topology_file).n
        check_sizes(n, config.cluster_size_min, config.cluster_size_max)
    print(f"config OK: {args.config} ({len(config.alphas)} alpha value(s))")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clustergossip",
        description="Energy-aware cluster activation for randomized average consensus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="path to JSON config")

    run = sub.add_parser("run", parents=[config], help="run the full alpha sweep and write outputs")
    run.add_argument("--output-dir", default=None, help="override output directory")
    sub.add_parser("validate", parents=[config], help="parse and constraint-check a config")
    sub.add_parser("candidates", parents=[config], help="print the candidate table")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as EXIT_INFEASIBLE.
        return EXIT_CONFIG_ERROR if exc.code else EXIT_OK
    try:
        config = load_config(args.config)
        if args.command == "validate":
            return _cmd_validate(config, args)
        from . import cli  # numpy and the pipeline: only run and candidates need them

        if args.command == "run" and args.output_dir is not None:  # replace checks the path
            config = config.replace(output_dir=args.output_dir)
        return (cli.run_sweep if args.command == "run" else cli.print_candidates)(config)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except MemoryError as exc:  # an allocation the OS refused: the config asked for too much
        print(f"out of memory: {exc}; lower n_nodes, cluster_size_max or runs", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR
    except Exception as exc:  # a bug, not a bad input: keep the traceback, but not exit 1
        import traceback  # only here: validate and the error exits start without it

        traceback.print_exc()
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
