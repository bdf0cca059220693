"""Energy-aware cluster activation for randomized average consensus.

Pipeline: place nodes, enumerate candidate clusters around each head,
price each activation with a squared-distance energy model, optimize the
cluster activation probabilities to trade mixing speed against expected
energy, and verify the trade-off with Monte-Carlo simulation.

Importing the package loads no module, so the command line's front end starts without numpy;
the first lookup of a public name imports the four modules below and publishes their names.
"""

__version__ = "0.1.0"

_MODULES = ("candidates", "errors", "optimizer", "simulator")


def __getattr__(name: str):
    if "__all__" not in globals() and (name == "__all__" or not name.startswith("_")):
        # __import__ binds each module here, and -X importtime lists it (import_module would not);
        # each module's __all__ is the one list of its public names.
        for module in _MODULES:
            __import__(f"{__name__}.{module}")
        public = {key: getattr(globals()[m], key) for m in _MODULES for key in globals()[m].__all__}
        globals().update(public, __all__=sorted(public))
        if name in globals():  # a public name, __all__, or one of the modules just imported
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
