"""Every module-level name in the package is read somewhere in the package
or exported: a function, class or constant that nothing in ``src/`` uses and
``__all__`` does not list is dead code or a test-only view that belongs in
``tests/oracles.py``.  Feature labels are spelt only by ``FeatureName.label``
and read only by ``parse_label``: no f-string in the package builds one.
The CLI runs on numpy and ``scipy.special``: importing it loads no
``scipy.stats``.  Every defaulted parameter of a function or method in
``src/`` is set by some call in ``src/``, apart from the few listed in
``UNSET_DEFAULTS``: an option only tests set belongs in ``tests/oracles.py``.
The same holds for every defaulted field of a public dataclass, apart from
those listed in ``UNSET_FIELDS``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import quartet_attrib

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "quartet_attrib"


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def _read(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


#: (module, function, parameter) whose default no call in ``src/`` overrides.
UNSET_DEFAULTS = {
    ("glm", "predict_prob", "feature_names"): "an input check for library callers",
    ("selection", "icm_select", "trace"): "the oracle comparison reads the trace",
    ("glm", "posterior_modes", "max_iter"): "objective paths are rebuilt with max_iter=k",
    ("cli", "main", "argv"): "the entry point for tests and the benchmark; None reads sys.argv",
}


#: (module, dataclass, field) whose default no call in ``src/`` overrides.
UNSET_FIELDS = {
    ("glm", "PriorConfig", "intercept_scale"):
        "tests widen it to approximate the unpenalised maximum likelihood estimate",
}


def _defaulted(func: ast.FunctionDef) -> set[str]:
    a = func.args
    positional = a.posonlyargs + a.args
    named = positional[len(positional) - len(a.defaults):]
    named += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return {arg.arg for arg in named}


def _calls_by_name(trees) -> dict[str, list[ast.Call]]:
    """Every call in trees, indexed by the name it calls (``f(...)`` or
    ``x.f(...)`` both index under ``f``), from one walk of each tree."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _set_by_calls(
    name: str, positional: list[str], kwonly: list[str], calls: dict[str, list[ast.Call]]
) -> set[str]:
    """The parameters (``positional``, then keyword-only ``kwonly``) that
    some call by ``name`` passes."""
    out = set()
    for node in calls.get(name, ()):
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
            kw.arg is None for kw in node.keywords
        ):
            return {*positional, *kwonly}
        out.update(positional[: len(node.args)])
        out.update(kw.arg for kw in node.keywords)
    return out


def _set_params(func: ast.FunctionDef, calls: dict[str, list[ast.Call]]) -> set[str]:
    """The parameters of func that some call by its name passes."""
    positional = [arg.arg for arg in func.args.posonlyargs + func.args.args]
    if positional[:1] in (["self"], ["cls"]):  # a method: the call binds it
        positional = positional[1:]
    return _set_by_calls(func.name, positional, [a.arg for a in func.args.kwonlyargs], calls)


def _public_dataclasses(tree: ast.Module):
    """(class, its fields in order, the defaulted ones) of each public
    dataclass defined at module level; a ClassVar is not a field."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_") and any(
            ast.unparse(d).split("(")[0].endswith("dataclass") for d in cls.decorator_list
        ):
            body = [
                n for n in cls.body
                if isinstance(n, ast.AnnAssign)
                and not ast.unparse(n.annotation).startswith("ClassVar")
            ]
            yield cls, [n.target.id for n in body], {n.target.id for n in body if n.value}


def _label_fstrings(tree: ast.Module) -> list[int]:
    """Lines of the f-strings whose literal parts hold the label separator."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        and any(isinstance(part, ast.Constant) and "|" in part.value for part in node.values)
    ]


def test_every_module_level_name_is_read_or_exported():
    trees = _trees()
    read = set().union(*map(_read, trees.values()))
    unread = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _defined(tree) - read - set(quartet_attrib.__all__)
    )
    assert not unread, unread


def test_no_f_string_builds_a_feature_label():
    found = [f"{module}:{line}" for module, tree in _trees().items()
             for line in _label_fstrings(tree)]
    assert not found, found


def test_cli_import_loads_no_scipy_stats():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    code = "import sys, quartet_attrib.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_every_defaulted_parameter_is_set_by_the_package():
    trees = _trees()
    calls = _calls_by_name(trees.values())
    unset = set()
    for module, tree in trees.items():
        for func in ast.walk(tree):  # methods and nested functions too
            if isinstance(func, ast.FunctionDef):
                for name in _defaulted(func) - _set_params(func, calls):
                    unset.add((module.removesuffix(".py"), func.name, name))
    assert unset == UNSET_DEFAULTS.keys(), sorted(unset ^ UNSET_DEFAULTS.keys())


def test_every_defaulted_config_field_is_set_by_the_package():
    trees = _trees()
    calls = _calls_by_name(trees.values())
    unset = {
        (module.removesuffix(".py"), cls.name, name)
        for module, tree in trees.items()
        for cls, fields, defaulted in _public_dataclasses(tree)
        for name in defaulted - _set_by_calls(cls.name, fields, [], calls)
    }
    assert unset == UNSET_FIELDS.keys(), sorted(unset ^ UNSET_FIELDS.keys())
