"""Import-layering gate: ``repro.engine`` never imports its consumers,
and ``repro.sim`` and ``repro.faults`` import no other ``repro`` package.

The engine is the bottom of the dispatch stack (docs/ARCHITECTURE.md):
``serving``, ``extensions``, ``resilience``, ``remediation``, and the
``harness`` campaign runner build on it, so an engine → consumer import
would be a cycle waiting to happen and
would let consumer semantics leak into the shared lifecycle. Checked two
ways: statically (AST scan of every engine module, which also catches
imports hidden inside functions) and dynamically (importing
``repro.engine`` in a clean interpreter must not load any consumer
module).
"""

import ast
import os
import pathlib
import subprocess
import sys

import repro.engine

FORBIDDEN = (
    "repro.serving",
    "repro.extensions",
    "repro.resilience",
    "repro.remediation",
    "repro.harness",
    "repro.chaos",
    "repro.fusion",
)

ENGINE_DIR = pathlib.Path(repro.engine.__file__).parent

#: repro.chaos sits at the very top of the stack (it drives serving,
#: resilience, remediation, telemetry, and the harness as black boxes), so
#: no lower layer may import it — not even lazily inside a function.
CHAOS_LOWER_LAYERS = (
    "core", "engine", "platform", "workloads", "faults", "serving",
    "extensions", "resilience", "remediation", "telemetry", "harness",
)

#: repro.fusion is a top-band peer of repro.chaos: it drives the core
#: optimizer, the interference models, the mixed-app engine path, and the
#: harness as black boxes. No lower layer may import it, and the two
#: top-band peers stay mutually import-free.
FUSION_LOWER_LAYERS = CHAOS_LOWER_LAYERS + ("interference", "chaos")


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module


def test_engine_modules_have_no_consumer_imports():
    offenders = []
    for path in sorted(ENGINE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module in _imported_modules(tree):
            if module.startswith(FORBIDDEN):
                offenders.append(f"{path.name}: {module}")
    assert not offenders, (
        "repro.engine must not import serving/extensions/resilience "
        f"(see docs/ARCHITECTURE.md): {offenders}"
    )


def test_sim_is_the_bottom_layer():
    # Every package builds on repro.sim's event loop, RNG streams and
    # queues, so an import of any other repro package from it is a cycle
    # waiting to happen, and would let an observer reach into the loop.
    sim_dir = ENGINE_DIR.parent / "sim"
    offenders = []
    for path in sorted(sim_dir.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module in _imported_modules(tree):
            if module.split(".")[0] == "repro" and module.split(".")[:2] != ["repro", "sim"]:
                offenders.append(f"{path.name}: {module}")
    assert not offenders, (
        "repro.sim is the bottom layer and imports no other repro package "
        f"(see docs/ARCHITECTURE.md): {offenders}"
    )


def test_faults_is_configuration_only():
    # Scenarios, retry policies and the token bucket are configuration
    # and arithmetic; the draws they imply are the dispatch kernel's. An
    # import of another repro package (even an annotation-only one) would
    # let a fault model reach into a run again.
    faults_dir = ENGINE_DIR.parent / "faults"
    offenders = []
    for path in sorted(faults_dir.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module in _imported_modules(tree):
            parts = module.split(".")
            if parts[0] == "repro" and parts[:2] != ["repro", "faults"]:
                offenders.append(f"{path.name}: {module}")
    assert not offenders, (
        "repro.faults is configuration and imports no other repro package "
        f"(see docs/ARCHITECTURE.md): {offenders}"
    )


def test_no_lower_layer_imports_chaos():
    src_root = ENGINE_DIR.parent
    offenders = []
    for layer in CHAOS_LOWER_LAYERS:
        layer_dir = src_root / layer
        if not layer_dir.is_dir():
            continue
        for path in sorted(layer_dir.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for module in _imported_modules(tree):
                if module == "repro.chaos" or module.startswith("repro.chaos."):
                    offenders.append(f"{path.relative_to(src_root)}: {module}")
    assert not offenders, (
        "repro.chaos is the top of the stack; lower layers must not "
        f"import it (see docs/ARCHITECTURE.md): {offenders}"
    )


def test_no_lower_layer_imports_fusion():
    src_root = ENGINE_DIR.parent
    offenders = []
    for layer in FUSION_LOWER_LAYERS:
        layer_dir = src_root / layer
        if not layer_dir.is_dir():
            continue
        for path in sorted(layer_dir.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for module in _imported_modules(tree):
                if module == "repro.fusion" or module.startswith("repro.fusion."):
                    offenders.append(f"{path.relative_to(src_root)}: {module}")
    assert not offenders, (
        "repro.fusion is a top-band peer of repro.chaos; lower layers must "
        f"not import it (see docs/ARCHITECTURE.md): {offenders}"
    )


def test_run_components_do_not_import_telemetry():
    # Admission, breakers, brownout and the fault models hold no metrics
    # registry: a run's telemetry writes their families from the state the
    # run left them in (repro.telemetry.instruments), so turning metrics on
    # runs no extra code inside them.
    src_root = ENGINE_DIR.parent
    offenders = []
    for layer in ("resilience", "faults"):
        for path in sorted((src_root / layer).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for module in _imported_modules(tree):
                if module == "repro.telemetry" or module.startswith("repro.telemetry."):
                    offenders.append(f"{path.relative_to(src_root)}: {module}")
    assert not offenders, (
        f"repro.resilience and repro.faults must not import telemetry: {offenders}"
    )


def test_fusion_does_not_import_chaos():
    # The two top-band subsystems are peers: fusion promotes its fairness
    # invariants *into* chaos.invariants (chaos stays duck-typed), so an
    # import in either direction would collapse the band into a cycle.
    src_root = ENGINE_DIR.parent
    offenders = []
    for path in sorted((src_root / "fusion").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for module in _imported_modules(tree):
            if module == "repro.chaos" or module.startswith("repro.chaos."):
                offenders.append(f"{path.relative_to(src_root)}: {module}")
    assert not offenders, (
        f"repro.fusion and repro.chaos are peers: {offenders}"
    )


def test_importing_engine_loads_no_consumer_module():
    # The top-level ``repro`` package eagerly re-exports every subsystem,
    # so a plain ``import repro.engine`` would load consumers through
    # ``repro/__init__`` regardless of the engine's own imports. Stub the
    # parent package to measure only the engine's transitive closure.
    # ``repro.platform`` (an allowed dependency) is imported first: its
    # ``invoker`` module is a facade over ``repro.engine.burst``, so the
    # two packages must initialize in that order, as they do under the
    # real ``repro/__init__``.
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('repro')\n"
        f"pkg.__path__ = [{str(ENGINE_DIR.parent)!r}]\n"
        "sys.modules['repro'] = pkg\n"
        "import repro.platform\n"
        "import repro.engine\n"
        "bad = [m for m in sys.modules if m.startswith("
        f"{FORBIDDEN!r})]\n"
        "print('\\n'.join(bad))\n"
        "raise SystemExit(1 if bad else 0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ENGINE_DIR.parent.parent)},
    )
    assert proc.returncode == 0, (
        f"importing repro.engine loaded consumer modules:\n{proc.stdout}"
    )
