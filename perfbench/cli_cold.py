"""The ``cli-cold`` part: paper commands as fresh subprocesses.

Each round runs every command once, in a seeded order, from spawn to
exit in a scratch working directory. The traced run adds the layers a
command is made of: interpreter start, imports (``-X importtime``) and
the command body called warm in-process.
"""

from __future__ import annotations

import contextlib
import io
import random
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from common import ROOT, Tracer, child_env, derive, import_program, median

#: name -> argv after ``python -m repro.cli``.
COMMANDS: dict[str, list[str]] = {
    "table1": ["table1"],
    "classify": ["classify", "--ips", "1", "--dps", "n", "--ip-dp", "1-n",
                 "--ip-im", "1-1", "--dp-dm", "nxn", "--dp-dp", "nxn"],
    "costs": ["costs"],
    "dse": ["dse"],
    "faults": ["faults", "--out", "-"],
}
#: Commands whose stdout is a committed artifact (stored without the
#: final newline ``print`` adds).
GOLDEN = {"table1": "table1.txt", "costs": "survey_costs.txt"}


def _spawn(argv: list[str], cwd: Path) -> tuple[float, int, bytes]:
    """Run one command; returns (spawn-to-exit seconds, exit code, stdout)."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=cwd, env=child_env(),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    return time.perf_counter() - started, proc.returncode, proc.stdout


def in_process(argv: list[str]) -> str:
    """The command's stdout when ``repro.cli.main`` runs in this process."""
    import_program()
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        status = main(list(argv))
    if status != 0:
        raise RuntimeError(f"in-process {argv} exited {status}")
    return buffer.getvalue()


def expected_outputs() -> dict[str, bytes]:
    """What each command must print: golden files, else the in-process run."""
    expected = {}
    for name, argv in COMMANDS.items():
        if name in GOLDEN:
            text = (ROOT / "artifacts" / GOLDEN[name]).read_text("utf-8") + "\n"
        else:
            text = in_process(argv)
        expected[name] = text.encode("utf-8")
    return expected


class Rounds:
    """Rounds of every command, timed and kept for the output checks."""

    def __init__(self, seed: int, cwd: Path, tracer: Tracer):
        self._rng = random.Random(derive(seed, "cli-order"))
        self._cwd = cwd
        self._tracer = tracer
        self.times: dict[str, list[float]] = {name: [] for name in COMMANDS}
        self.outputs: dict[str, list[bytes]] = {name: [] for name in COMMANDS}
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def round(self) -> None:
        """Run every command once, in a seeded order."""
        order = list(COMMANDS)
        self._rng.shuffle(order)
        for name in order:
            with self._tracer.span("cli.command", command=name):
                seconds, status, stdout = _spawn(["-m", "repro.cli", *COMMANDS[name]], self._cwd)
            self.attempted += 1
            self.times[name].append(seconds)
            self.outputs[name].append(stdout)
            if status != 0:
                self.failed += 1
                self.errors.append(f"{name} exited {status}")

    def result(self) -> dict[str, Any]:
        """Check every output; per-command mean times."""
        expected = expected_outputs()
        table = (ROOT / "artifacts" / "resilience.txt").read_text("utf-8").rstrip("\n")
        correct = True
        for name, seen in self.outputs.items():
            wrong = sum(1 for out in seen if out != expected[name])
            if name == "faults":
                wrong += sum(1 for out in seen if not out.decode().rstrip("\n").endswith(table))
            if wrong:
                correct = False
                self.errors.append(f"{name}: {wrong} of {len(seen)} outputs differ from the expected bytes")
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": correct,
            "errors": self.errors,
            "samples_s": self.times,
            # The mean, not the median: with a few samples per command on a
            # host whose CPU flips between two speeds, the median jumps
            # between them while the mean moves with their proportion.
            "mean_s": {name: sum(values) / len(values) for name, values in self.times.items()},
        }


# -- per-layer probes (traced run) ---------------------------------------


def _importtime(statement: str, cwd: Path) -> dict[str, float]:
    """Cumulative import microseconds per module from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", statement], cwd=cwd,
        env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, check=True,
    )
    cumulative: dict[str, float] = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            value = float(fields[1])
        except ValueError:
            continue  # the header line
        name = fields[2].strip()
        cumulative[name] = max(cumulative.get(name, 0.0), value)
    return cumulative


def probe_layers(cwd: Path, tracer: Tracer, repeats: int = 3) -> dict[str, float]:
    """Interpreter floor, import costs and warm in-process command bodies."""
    floor = []
    for _ in range(5):
        with tracer.span("cli.interpreter"):
            seconds, status, _ = _spawn(["-c", "pass"], cwd)
        if status != 0:
            raise RuntimeError("python -c pass failed")
        floor.append(seconds)
    cli_tree: dict[str, list[float]] = {"repro.cli": [], "numpy": [], "networkx": []}
    serve_tree: list[float] = []
    for _ in range(repeats):
        with tracer.span("cli.import", module="repro.cli"):
            tree = _importtime("import repro.cli", cwd)
        for name in cli_tree:
            cli_tree[name].append(tree.get(name, 0.0))
        with tracer.span("cli.import", module="repro.serve.__main__"):
            serve_tree.append(_importtime("import repro.serve.__main__", cwd)["repro.serve.__main__"])
    metrics = {
        "import.interpreter_ms": median(floor) * 1e3,
        "import.repro_cli_ms": median(cli_tree["repro.cli"]) / 1e3,
        "import.numpy_ms": median(cli_tree["numpy"]) / 1e3,
        "import.networkx_ms": median(cli_tree["networkx"]) / 1e3,
        "import.repro_serve_ms": median(serve_tree) / 1e3,
    }
    import_program()
    from repro.obs import REGISTRY

    def cache_counts() -> tuple[float, float]:
        snapshot = REGISTRY.snapshot()
        return tuple(
            float(snapshot.get(f"model_cache.{kind}", {}).get("value", 0.0))
            for kind in ("hits", "misses")
        )

    hits0, misses0 = cache_counts()
    for argv in COMMANDS.values():
        in_process(argv)
    hits1, misses1 = cache_counts()
    lookups = (hits1 - hits0) + (misses1 - misses0)
    metrics["perf.model_cache_lookups"] = lookups
    metrics["perf.model_cache_hit_rate"] = (hits1 - hits0) / lookups if lookups else 0.0
    for name, argv in COMMANDS.items():
        samples = []
        for _ in range(5):
            with tracer.span("cli.body", command=name):
                started = time.perf_counter()
                in_process(argv)
                samples.append(time.perf_counter() - started)
        metrics[f"cli.body.{name}_ms"] = median(samples) * 1e3
    return metrics
