"""Dead-surface guards: every function, class and module constant defined
in the package is used somewhere in the source tree, every public function,
class and method is used outside ``tests/``, every config field and every
command-line option has a caller, no package module reads another's
underscore names or an environment variable, no test patches a package
module's underscore name, every benchmark probe target still resolves,
and every stage model inherits its one ``predict`` from ``BinaryModel``.

A use is a name read, an attribute, or a string constant (or one
dot-separated part of it, as in the benchmark's
``"Lexicon.categories_for"`` probe targets) anywhere under ``src/``,
``tests/``, ``demos/`` or ``perfbench/``. A method is reached through its
object, so only an attribute or a string counts as its use; a local
variable of the same name does not. Imports, assignments and the names an
``__all__`` lists do not count. Dunder names are used by the language
itself and are skipped.

A config field (or default hyperparameter key) has a caller when a file
under ``tests/``, ``demos/`` or ``perfbench/`` names it as above or as a
keyword argument. The package itself does not count, and neither does the
config contract test, whose fixtures list every field. A command-line
option has a caller when a file under ``tests/``, ``demos/`` or
``perfbench/`` names it in a string, alone or as ``--option=value``.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import importlib.util
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from regretstream import cli, textkit
from regretstream.classify import TrainConfig
from regretstream.classify.pipeline import STAGE1_MODELS, STAGE2_MODELS
from regretstream.classify.stage1 import BinaryModel
from regretstream.cleanup import CleanupConfig
from regretstream.features import build_vocab, featurize_corpus
from regretstream.synth import SynthConfig

from conftest import make_corpus, make_tweet

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "regretstream"
SCANNED = ("src", "tests", "demos", "perfbench")

# Hooks called by a framework rather than by name.
FRAMEWORK_HOOKS = {
    "_Parser.error",  # argparse.ArgumentParser calls error() on a usage error
}
# Public definitions that may have no use outside ``tests/``.
TEST_ONLY_SURFACE = {
    "features.load_feature_matrix",  # the reader of RSF1, the format ``featurize`` writes
}
CONFIG_CONTRACT = ROOT / "tests" / "test_config_contract.py"


def _trees():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _export_lists(tree) -> set[int]:
    """The ids of the string constants listed in ``tree``'s ``__all__``."""
    return {
        id(element) for node in tree.body if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in node.targets)
        for element in ast.walk(node.value)
    }


def _reached_names(trees) -> tuple[set[str], set[str]]:
    """The names read, and the attributes and string constants (with their
    dot-separated parts), in ``trees``. The names an ``__all__`` lists are
    not uses."""
    names: set[str] = set()
    reached: set[str] = set()
    for _, tree in trees:
        exported = _export_lists(tree)
        for node in ast.walk(tree):
            if id(node) in exported:
                continue
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                reached.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reached.add(node.value)
                reached.update(node.value.split("."))
    return names, reached


def _used_names(trees) -> set[str]:
    names, reached = _reached_names(trees)
    return names | reached


def _definitions(tree, prefix="", in_class=False):
    """(qualified name, name, is a method) of every function and class,
    nested ones too."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualified = prefix + node.name
            yield qualified, node.name, in_class
            yield from _definitions(node, qualified + ".", isinstance(node, ast.ClassDef))
        else:
            yield from _definitions(node, prefix, in_class)


def _module_constants(tree):
    """The names a module binds by a top-level assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                yield target.id


def unused_definitions() -> list[str]:
    trees = list(_trees())
    names, reached = _reached_names(trees)
    unused = []
    for path, tree in trees:
        if not path.is_relative_to(PACKAGE):
            continue
        defined = list(_definitions(tree))
        defined += [(name, name, False) for name in _module_constants(tree)]
        for qualified, name, is_method in defined:
            if name.startswith("__") and name.endswith("__"):
                continue
            if qualified in FRAMEWORK_HOOKS or name in reached or (not is_method and name in names):
                continue
            unused.append(f"{path.relative_to(ROOT)}: {qualified}")
    return unused


def test_every_definition_has_a_use():
    assert unused_definitions() == []


def definitions_only_tests_use() -> list[str]:
    """Public package functions, classes and methods that nothing outside
    ``tests/`` uses: library surface kept alive by its own tests."""
    trees = [(path, tree) for path, tree in _trees() if not path.is_relative_to(ROOT / "tests")]
    names, reached = _reached_names(trees)
    test_only = []
    for path, tree in trees:
        if not path.is_relative_to(PACKAGE):
            continue
        module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
        for qualified, name, is_method in _definitions(tree):
            if any(part.startswith("_") for part in qualified.split(".")):
                continue
            if name not in reached and (is_method or name not in names):
                test_only.append(f"{module}.{qualified}")
    return test_only


def test_every_public_definition_has_a_use_outside_tests():
    # Equality, so an exemption that gains a use or goes away is dropped too.
    assert set(definitions_only_tests_use()) == TEST_ONLY_SURFACE


def test_framework_hooks_are_still_defined():
    defined = {
        qualified
        for path, tree in _trees()
        if path.is_relative_to(PACKAGE)
        for qualified, _, _ in _definitions(tree)
    }
    assert FRAMEWORK_HOOKS <= defined


def uncalled_config_fields() -> list[str]:
    trees = [
        (path, tree) for path, tree in _trees()
        if not path.is_relative_to(ROOT / "src") and path != CONFIG_CONTRACT
    ]
    named = _used_names(trees) | {
        node.arg for _, tree in trees for node in ast.walk(tree) if isinstance(node, ast.keyword)
    }
    settable = [(cls.__name__, f.name) for cls in (SynthConfig, CleanupConfig, TrainConfig)
                for f in fields(cls)]
    settable += [(f"TrainConfig.{hyper}", key) for hyper in ("stage1_hyper", "stage2_hyper")
                 for key in getattr(TrainConfig(), hyper)]
    return [f"{owner}.{name}" for owner, name in settable if name not in named]


def test_every_config_field_has_a_caller():
    assert uncalled_config_fields() == []


def uncalled_cli_options() -> list[str]:
    strings = {
        node.value for path, tree in _trees() if not path.is_relative_to(ROOT / "src")
        for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    named = strings | {s.split("=", 1)[0] for s in strings}
    (commands,) = [action.choices for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    return [
        f"{command} {option}"
        for command, parser in commands.items()
        for action in parser._actions if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings if option not in named
    ]


def test_every_cli_option_has_a_caller():
    assert uncalled_cli_options() == []


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def foreign_private_reads() -> list[str]:
    """Package modules that import an underscore name from another package
    module, or read one off a name they imported from one."""
    users = set()
    for path, tree in _trees():
        if not path.is_relative_to(PACKAGE):
            continue
        imports = [alias for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.level or (node.module or "").startswith("regretstream"))
                   for alias in node.names]
        bound = {alias.asname or alias.name for alias in imports}
        names = [alias.name for alias in imports] + [
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in bound
        ]
        if any(_private(name) for name in names):
            users.add(str(path.relative_to(PACKAGE)))
    return sorted(users)


def test_no_module_reads_another_modules_private_names():
    assert foreign_private_reads() == []


def _package_names(tree) -> set[str]:
    """The names ``tree``'s imports bind to the package, its modules or
    their members."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("regretstream"):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names
                         if alias.name.startswith("regretstream"))
    return names


def private_patches() -> list[str]:
    """``monkeypatch.setattr`` calls in ``tests/`` that set an underscore
    name of a package module (or a name behind one): behaviour that shows
    only under a patched private name is not tested on real input."""
    patches = []
    for path, tree in _trees():
        if not path.is_relative_to(ROOT / "tests"):
            continue
        package = _package_names(tree) | {"regretstream"}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "setattr" and node.args):
                continue
            target, *rest = node.args
            if isinstance(target, ast.Constant):  # setattr("regretstream.module.name", value)
                dotted = str(target.value)
            elif rest and isinstance(rest[0], ast.Constant):  # setattr(module, "name", value)
                dotted = f"{ast.unparse(target)}.{rest[0].value}"
            else:
                continue
            parts = dotted.split(".")
            if parts[0] in package and any(map(_private, parts)):
                patches.append(f"{path.relative_to(ROOT)}:{node.lineno}: {dotted}")
    return patches


def test_no_test_patches_a_private_package_name():
    assert private_patches() == []


ENVIRONMENT_READERS = {"environ", "getenv"}


def environment_reads() -> list[str]:
    """Package modules that name ``os.environ`` or ``os.getenv``, as an
    attribute or an import: what the package does may depend only on its
    arguments and input files."""
    readers = set()
    for path, tree in _trees():
        if not path.is_relative_to(PACKAGE):
            continue
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS
                    or isinstance(node, ast.ImportFrom) and node.module == "os"
                    and any(alias.name in ENVIRONMENT_READERS for alias in node.names)):
                readers.add(str(path.relative_to(PACKAGE)))
    return sorted(readers)


def test_no_module_reads_an_environment_variable():
    assert environment_reads() == []


def benchmark_probes(monkeypatch) -> tuple:
    """``PROBES`` of ``perfbench/probes.py``, loaded without installing any."""
    path = ROOT / "perfbench" / "probes.py"
    spec = importlib.util.spec_from_file_location("perfbench_probes", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module.PROBES


@pytest.mark.parametrize("cls", [*STAGE1_MODELS.values(), *STAGE2_MODELS.values()],
                         ids=lambda cls: cls.__name__)
def test_every_model_class_keeps_the_one_binary_contract(cls):
    # ``BinaryModel`` holds the only ``predict``: the sign of ``decision_values``.
    assert issubclass(cls, BinaryModel)
    assert "predict" not in vars(cls)


def test_every_benchmark_probe_target_resolves(monkeypatch):
    # ``probes.install`` raises on a missing target, so a rename would
    # otherwise break only traced benchmark runs.
    missing = []
    for probe in benchmark_probes(monkeypatch):
        owner, _, attr = probe.attr.rpartition(".")
        home = importlib.import_module(probe.module)
        if attr not in vars(getattr(home, owner) if owner else home):
            missing.append(f"{probe.module}.{probe.attr}")
    assert missing == []


def test_featurize_reaches_the_probed_text_kernels(monkeypatch, resources):
    corpus = make_corpus([make_tweet(id=1, text="good day #fun")])
    vocab = build_vocab(corpus)
    called = set()
    for owner, name in ((textkit, "tokenize"), (textkit, "pos_tag"),
                        (textkit.Lexicon, "categories_for")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, real=real, name=name: called.add(name) or real(*args))
    featurize_corpus(corpus, vocab, resources)
    assert called == {"tokenize", "pos_tag", "categories_for"}
