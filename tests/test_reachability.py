"""Every public function of the package runs in some ``thermalecho`` command.

Each subcommand runs once at a small size under a profile hook that records
the code it enters; every function named in a layer module's ``__all__``
must be among it.  A public function that only the tests call belongs in
``tests/reference.py`` instead.
"""

import importlib
import inspect
import sys

from thermalecho import cli

LAYERS = ("model", "echo", "averages", "stats", "special", "oracle", "verify", "cli")

NEAR_CRITICAL = ["--h0", "0.99", "--h1", "1.01", "--gamma0", "1", "--gamma1", "1"]

COMMANDS = [
    ["timeseries", "--length", "8", "--tpoints", "11"],
    ["timeseries", "--length", "8", "--tpoints", "11", "--temperature", "0"],
    ["distribution", "--length", "8", *NEAR_CRITICAL, "--temperatures", "0,0.1",
     "--samples", "2000"],
    ["weights", "--length", "8", "--h0", "0.9", "--h1", "1.0", "--gamma0", "1",
     "--gamma1", "1", "--bell", "ising"],
    ["weights", "--length", "8", "--h0", "0", "--h1", "0", "--gamma0", "0.3",
     "--gamma1", "0.35", "--bell", "aniso", "--second-order"],
    ["scan", "--length", "8", *NEAR_CRITICAL, "--sweep", "temperature=0.05:0.1:2"],
    ["verify"],
]


def _public_functions() -> dict:
    """``layer.name`` -> function, for each function defined in a layer's ``__all__``."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"thermalecho.{layer}")
        for name in module.__all__:
            fn = getattr(module, name)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[f"{layer}.{name}"] = fn
    return found


def test_every_public_function_runs_in_a_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # one worker, so the echo kernel runs on the thread the hook watches
    monkeypatch.setenv("THERMALECHO_THREADS", "1")
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        codes = [cli.main(args) for args in COMMANDS]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(COMMANDS)
    unreached = sorted(name for name, fn in _public_functions().items()
                       if fn.__code__ not in entered)
    assert unreached == [], f"public functions that no command calls: {unreached}"
