"""Package surface and source hygiene: exported names, imports, rule tables."""

from __future__ import annotations

import argparse
import ast
import contextlib
import dataclasses
import importlib
import io
import inspect
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import skylink
from skylink import cli
from skylink.errors import RULES

from conftest import base_run_config, cli_env, write_json

SOURCES = sorted(
    p for p in Path(skylink.__file__).resolve().parent.glob("*.py")
    if p.name != "__init__.py"
)


def test_all_exports_no_modules():
    assert len(set(skylink.__all__)) == len(skylink.__all__)
    names = dir(skylink)
    assert names == sorted(names) and {*skylink.__all__, "__version__"} <= set(names)
    for name in skylink.__all__:
        assert not isinstance(getattr(skylink, name), types.ModuleType), name
    for module in ("channel_models", "datagen", "errors", "fading", "rbf_net"):
        assert module not in skylink.__all__


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import (except from __future__) -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {
        name: line for name, line in imported_names(tree).items() if name not in used
    }
    assert not unused, f"{path.name}: unused imports {unused}"


def module_level_imports(tree: ast.Module) -> set[str]:
    """Top-level names of the modules an import outside every function loads;
    a skylink module by its own name (``from .fading import x``: fading)."""
    found, nodes = set(), list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is not None:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom):  # from . import fading
            found.update(alias.name for alias in node.names)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes.extend(ast.iter_child_nodes(node))
    return found


def test_only_fading_and_rbf_net_import_numpy_at_module_level():
    """Anywhere else, a module-level numpy import, or one of fading or rbf_net,
    would put ~0.13 s back into the start of every command."""
    imports = {
        path.stem: module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in Path(skylink.__file__).parent.glob("*.py")
    }
    direct = {name for name, found in imports.items() if "numpy" in found}
    assert direct == {"fading", "rbf_net"}
    loading = {  # the package and each module that reaches numpy through another
        name for name, found in imports.items() if found & {"fading", "rbf_net"}
    }
    assert not loading - direct, loading


def test_cli_and_datagen_import_no_other_layer_at_module_level():
    """cli and datagen import every other layer but errors in the functions
    that use it, so a command compiles only the layers it runs."""
    layers = {path.stem for path in SOURCES} - {"errors"}
    for name in ("cli", "datagen"):
        path = Path(skylink.__file__).parent / f"{name}.py"
        found = module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
        assert not found & layers, (name, found & layers)


# Runs one CLI command in this process; prints its exit code, whether numpy and
# hashlib got imported, and the skylink modules it loaded.
PROBE = """
import sys
from skylink import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:  # --version
    code = exc.code
print(code, "numpy" in sys.modules, "hashlib" in sys.modules)
print(*sorted(name for name in sys.modules if name.split(".")[0] == "skylink"))
"""

CM, DG, FD, RBF = "channel_models", "datagen", "fading", "rbf_net"


@pytest.mark.parametrize("argv, fading, numpy_loaded, hashlib_loaded, layers", [
    (["--version"], "off", False, False, []),
    (["generate"], "off", False, False, [CM, DG]),
    (["generate"], "rician", True, True, [CM, DG, FD]),  # numpy.random: hashlib
    (["train", "out/dataset.csv"], "off", True, True, [DG, RBF]),
    (["predict", "out/model.json", "--row", "500,100,2000,110"], "off", True, False,
     [RBF]),
    (["predict", "out/model.json", "--input", "out/dataset.csv"], "off", True, False,
     [DG, RBF]),
    (["eval", "out/model.json", "out/dataset.csv"], "off", True, False, [DG, RBF]),
    (["curves", "rician"], "off", True, True, [DG, FD]),
    (["curves", "plos_angle"], "off", False, True, [CM, DG]),
    (["curves", "plos_fit"], "off", True, True, [CM, DG]),
    (["curves", "rss_distance"], "off", True, True, [CM, DG, RBF]),
    (["curves", "rss_altitude"], "off", True, True, [CM, DG, RBF]),
])
def test_each_command_loads_only_the_modules_it_runs(
    tmp_path, env_file, argv, fading, numpy_loaded, hashlib_loaded, layers
):
    """Each command imports numpy, hashlib and the skylink layers only if it
    calls them, and still works: --version compiles no layer, and train,
    predict and eval skip channel_models."""
    cfg = base_run_config(env_file)  # a {start, stop, count} distance sweep
    cfg["budget"]["fading"] = (
        {"kind": "rician", "s": 1.0, "delta": 0.5} if fading == "rician"
        else {"kind": "off"}
    )
    write_json(tmp_path / "run.json", cfg)
    if argv[0] in ("train", "predict", "eval"):  # the inputs, made in this process
        with contextlib.chdir(tmp_path), contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["generate", "--config", "run.json"]) == 0
            assert cli.main(["train", "--config", "run.json", "out/dataset.csv"]) == 0
    if argv[0] in ("generate", "train", "curves"):
        argv = [*argv, "--config", "run.json"]
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        capture_output=True, text=True, cwd=tmp_path, env=cli_env(),
    )
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[-2] == f"0 {numpy_loaded} {hashlib_loaded}"
    loaded = {"skylink", "skylink.cli", "skylink.errors"}
    assert lines[-1].split() == sorted(loaded | {f"skylink.{m}" for m in layers})
    if argv[0] == "generate":
        assert lines[0] == f"wrote 60 rows to {Path('out', 'dataset.csv')}"


def rule_tables(tree: ast.Module) -> list[ast.Dict]:
    """Dict literals used as require tables: passed to it, or bound to a name
    that is passed to it or ends in _RULES."""
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "require"
    ]
    passed = {call.args[1].id for call in calls if isinstance(call.args[1], ast.Name)}
    tables = [call.args[1] for call in calls if isinstance(call.args[1], ast.Dict)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
            names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if names & passed or any(n.endswith("_RULES") for n in names):
                tables.append(node.value)
    return tables


def test_rule_strings_are_built_from_rule_terms():
    """A typo in a rule fails here, not when someone first sets the field."""
    checked, bad = 0, []
    for path in SOURCES:
        for table in rule_tables(ast.parse(path.read_text(encoding="utf-8"))):
            for value in table.values:
                checked += 1
                rule = value.value if isinstance(value, ast.Constant) else None
                terms = rule.split(" and ") if isinstance(rule, str) else [None]
                if not set(terms) <= set(RULES):
                    bad.append(f"{path.name}:{value.lineno}: {ast.unparse(value)}")
    assert checked >= 40 and not bad, bad


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_curve_and_curves_key():
    """README's curve commands and `curves` config row match cli.py: the row
    lists cli.CURVE_KEYS, which are the keys the curve readers get."""
    text = README.read_text(encoding="utf-8")
    assert re.findall(r"^skylink curves +(\S+)", text, re.M) == list(cli.CURVES)
    row = next(line for line in text.splitlines() if line.startswith("| `curves` |"))
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    read = {  # the first argument of each curves.get(...)
        node.args[0].value for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get" and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "curves"
    }
    assert read == set(cli.CURVE_KEYS)
    assert set(re.findall(r"`(\w+)`", row.split("|")[2])) == read


def test_readme_lists_the_keys_of_the_rbf_and_train_blocks(tmp_path, env_file):
    """README's `rbf` and `train` rows list the keys that train reads: each
    listed key is accepted, and each other RbfConfig field is rejected."""
    text = README.read_text(encoding="utf-8")
    listed = {
        block: re.findall(r"`(\w+)`", next(
            line for line in text.splitlines() if line.startswith(f"| `{block}` |")
        ).split("|")[2])
        for block in ("rbf", "train")
    }
    fields = {f.name: f.default for f in dataclasses.fields(skylink.RbfConfig)}
    values = {**fields, "epochs": 2, "train_fraction": 0.8, "split_seed": 13}
    cfg = base_run_config(env_file)
    cfg["scenario"]["distances_m"]["count"] = 30

    def train(block: str, key: str) -> tuple[int, str]:
        """train's exit code and stderr, with only ``key`` set in ``block``
        (and rbf.epochs at 2)."""
        cfg["rbf"], cfg["train"] = {"epochs": 2}, {}
        cfg[block][key] = values[key]
        write_json(tmp_path / "run.json", cfg)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):  # stdout: redirected by the caller
            code = cli.main(["train", "--config", "run.json", "out/dataset.csv"])
        return code, stderr.getvalue()

    with contextlib.chdir(tmp_path), contextlib.redirect_stdout(io.StringIO()):
        write_json(tmp_path / "run.json", cfg)
        assert cli.main(["generate", "--config", "run.json"]) == 0
        for block, keys in listed.items():
            for key in keys:
                assert train(block, key) == (0, ""), (block, key)
        for key in fields.keys() - set(listed["rbf"]):
            code, stderr = train("rbf", key)
            assert code == 2, key
            assert stderr.endswith(f": rbf: malformed value: unknown keys [{key!r}]\n")


def command_options() -> dict[str, set[str]]:
    """Each CLI command -> its option strings, without -h/--help."""
    sub = next(
        a for a in cli.build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {o for a in parser._actions for o in a.option_strings} - {"-h", "--help"}
        for name, parser in sub.choices.items()
    }


def test_readme_lists_the_config_flags_of_each_command():
    """README's config-flag list is the option set of generate, train and
    curves; predict and eval take none of those flags."""
    text = README.read_text(encoding="utf-8")
    _, _, rest = text.partition("Flags of the commands that read a run config")
    sentence, _, bullets = rest.partition(":\n\n")
    readers, others = (re.findall(r"`(\w+)`", part) for part in sentence.split(";"))
    flags = set(re.findall(r"^- `(--[\w-]+)", bullets.split("\n\n")[0], re.M))
    options = command_options()
    assert flags and set(options) == {*readers, *others}
    for command in readers:
        assert options[command] == flags, command
    for command in others:
        assert not options[command] & flags, command



BENCH = Path(__file__).resolve().parents[1] / "bench"


def module_constants(tree: ast.Module) -> dict[str, ast.expr]:
    """Value of each module-level NAME = ... assignment."""
    return {
        node.targets[0].id: node.value for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }


def traced_callable(qualname: str):
    """The skylink function or method that bench/trace_child.py wraps as qualname."""
    layer, *path = qualname.split(".")
    obj = importlib.import_module(f"skylink.{layer}")
    for attr in path:
        obj = getattr(obj, attr)
    assert inspect.isfunction(obj), qualname
    if len(path) == 1:  # the tracer wraps only public functions of the layer
        assert not path[0].startswith("_") and obj.__module__ == f"skylink.{layer}"
    return obj


def test_benchmark_tracer_matches_the_source():
    """Each span the benchmark tracer records or bench/layers.py reads names a
    skylink function, and each argument a counter reads by position has that
    name there. A renamed function or parameter would zero a per-layer metric
    silently instead."""
    trace = ast.parse((BENCH / "trace_child.py").read_text(encoding="utf-8"))
    constants = module_constants(trace)
    counts = constants["COUNTS"]
    counter_of = {  # span -> name of its counter function
        ast.literal_eval(key): fn.id for key, fn in zip(counts.keys, counts.values)
    }
    methods = ast.literal_eval(constants["METHODS"])
    for layer, (cls, method) in methods.items():
        traced_callable(f"{layer}.{cls}.{method}")
    reads = {  # counter -> (position, parameter name) of each _arg call in it
        fn.name: [
            tuple(ast.literal_eval(a) for a in call.args[2:]) for call in ast.walk(fn)
            if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "_arg"
        ]
        for fn in trace.body if isinstance(fn, ast.FunctionDef)
    }
    checked = 0
    for qualname, counter in counter_of.items():
        params = list(inspect.signature(traced_callable(qualname)).parameters)
        for index, name in reads[counter]:
            assert params[index] == name, (qualname, index, name)
            checked += 1
    assert checked >= 8

    layers = ast.parse((BENCH / "layers.py").read_text(encoding="utf-8"))
    spans = set(ast.literal_eval(module_constants(layers)["GEN"]))
    for node in ast.walk(layers):  # t.dur["layer.name"], qual != "layer.name"
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute):
            key = node.slice
        elif isinstance(node, ast.Compare):
            key = node.comparators[0]
        else:
            continue
        if isinstance(key, ast.Constant) and "." in str(key.value):  # not a layer
            spans.add(key.value)
    assert len(spans) >= 15
    for qualname in spans:
        traced_callable(qualname)


def test_rbf_net_evaluates_the_gaussian_units_in_one_function():
    """Every exp in rbf_net.py lies in _activations, so training, predict and
    the gradient check cannot drift onto separate hidden-layer formulas."""
    tree = ast.parse((Path(skylink.__file__).parent / "rbf_net.py").read_text("utf-8"))
    exps = {
        node for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in ("exp", "expm1")
    }
    owners = {
        fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        and exps & set(ast.walk(fn))
    }
    assert exps and owners == {"_activations"}
