"""Every function of the package's layers runs in some ``thermalecho`` command.

Each subcommand runs once at a small size under a profile hook that records
the code it enters; every function defined at module level in a layer,
public or private, must be among it, so a route that no command reaches
any more fails here.  A function that only the tests call belongs in
``tests/reference.py`` instead.
"""

import importlib
import inspect
import json
import sys

from thermalecho import cli

LAYERS = ("model", "echo", "averages", "stats", "special", "oracle", "verify", "cli", "_csvfile")

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
    ["timeseries", "--config", "config.json"],
]

# read by the --config run; every kind of value a config file may hold
CONFIG = {"length": 8, "h0": 0.9, "beta": None, "temperature": 0.5, "tpoints": 11.0,
          "format": "json", "output": "from_config"}

# functions that no command needs to enter, each with its reason
EXEMPT = {
    # the CSV writer's lookup tables, built once when it is imported
    "_csvfile._packed", "_csvfile._group_table", "_csvfile._layout_table",
    # not public: perfbench's ladder check imports it
    "averages.avg_loschmidt",
}


def _layer_functions() -> dict:
    """``layer.name`` -> function, for each function a layer module defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"thermalecho.{layer}")
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                found[f"{layer}.{name}"] = fn
    return found


def test_every_layer_function_runs_in_a_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
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
    assert (tmp_path / "from_config.json").exists()
    functions = _layer_functions()
    assert EXEMPT <= set(functions)
    unreached = sorted(name for name, fn in functions.items()
                       if name not in EXEMPT and fn.__code__ not in entered)
    assert unreached == [], f"functions that no command calls: {unreached}"
