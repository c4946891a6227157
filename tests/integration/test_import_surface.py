"""What each entry point imports, and that the lazy package APIs hold.

The package ``__init__`` modules re-export their public names lazily
(:mod:`repro._lazy`), and the entry points import only what they run.
The start-up tests pin that in fresh interpreters; the public-API tests
pin that laziness changed no name a caller can import.
"""

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every package whose ``__init__`` re-exports a public API.
PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.bibliometrics",
    "repro.core",
    "repro.faults",
    "repro.interconnect",
    "repro.machine",
    "repro.models",
    "repro.obs",
    "repro.perf",
    "repro.registry",
    "repro.reporting",
    "repro.serve",
)


def _loaded_after(statement: str, modules) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after ``statement``."""
    probe = (
        f"{statement}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH", "")])
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


def test_server_start_up_loads_no_kernel_fabric_or_jobs():
    never = (
        "numpy",
        "networkx",
        "multiprocessing",
        "repro.perf.engine",
        "repro.perf.journal",
        "repro.serve.jobs",
        "repro.reporting.bundle",
        "repro.faults",
    )
    assert _loaded_after("import repro.serve.__main__", never) == []


#: The process pool's modules: no CLI command loads them.
POOL = ("concurrent.futures", "multiprocessing")


@pytest.mark.parametrize(
    "argv, never",
    [
        (["table1"], ("numpy", "networkx", *POOL)),
        (
            "classify --ips 1 --dps n --ip-dp 1-n --ip-im 1-1 --dp-dm nxn --dp-dp nxn".split(),
            ("numpy", "networkx", *POOL),
        ),
        (["costs"], ("networkx", "numpy", "repro.core.batch", "repro.perf.journal", *POOL)),
        (["dse"], ("networkx", "numpy", "repro.core.batch", "repro.perf.journal", *POOL)),
        (["faults", "--out", "-"], ("numpy", *POOL)),
    ],
    ids=["table1", "classify", "costs", "dse", "faults"],
)
def test_cli_command_loads_only_what_it_runs(argv, never):
    statement = (
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    assert _loaded_after(statement, never) == []


def _import_everything() -> None:
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            __import__(info.name)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_public_names_resolve_to_their_definitions(package_name):
    # Import every submodule first: a lazily re-exported name that is
    # also a submodule's name would now resolve to the module.
    _import_everything()
    package = sys.modules[package_name]
    submodules = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith(package_name + ".") and name.count(".") == package_name.count(".") + 1
    ]
    assert package.__all__, package_name
    for name in package.__all__:
        value = getattr(package, name)
        assert not isinstance(value, ModuleType), f"{package_name}.{name} is a module"
        if name == "__version__":
            continue
        assert any(getattr(module, name, None) is value for module in submodules), (
            f"{package_name}.{name} is not the object its submodule defines"
        )
    assert set(package.__all__) <= set(dir(package))


def test_every_top_level_name_imports():
    namespace: dict = {}
    for name in repro.__all__:
        exec(f"from repro import {name}", namespace)
        assert namespace[name] is getattr(repro, name)
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_unknown_names_still_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.core.nope
    with pytest.raises(ImportError):
        exec("from repro.perf import nope", {})
