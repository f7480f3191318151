"""Every name a package module imports is referenced somewhere in it, every
tensor op has a caller outside `tensor.py` and a gradcheck case, no package
module holds an `assert` statement, none passes a numpy call as the default
of `setdefault`, every defaulted parameter is passed by some call, no
tensor op parameter has one literal value across the package's calls, every
`EncoderConfig` field differs between the two presets, and neither
`tensor.py` nor the parameter store's registration, bind and step pins
float64."""

import ast
from dataclasses import fields
from pathlib import Path

import numpy as np

import dtikit
from dtikit.encoder import EncoderConfig
from gradcheck import op_cases

PACKAGE_DIR = Path(dtikit.__file__).parent
PERFBENCH_DIR = Path(__file__).parents[1] / "perfbench"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import; `__future__` imports excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, including inside quoted annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                quoted = ast.parse(sub.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def test_no_unused_imports():
    unused = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = _referenced_names(tree)
        unused += [
            f"{path.name}:{line} {name}"
            for name, line in _imported_names(tree).items()
            if name not in used
        ]
    assert not unused, "imported but never referenced: " + ", ".join(unused)


def _tensor_imports(tree: ast.Module) -> tuple[set[str], dict[str, str]]:
    """A module's names for `dtikit.tensor` itself, and bound name -> name
    in `tensor.py` for each name it imports from it."""
    aliases, imported = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module == "tensor":
                imported.update((a.asname or a.name, a.name) for a in node.names)
            elif node.module is None:
                aliases.update(a.asname or a.name for a in node.names if a.name == "tensor")
    return aliases, imported


def _tensor_names_used(tree: ast.Module) -> set[str]:
    """Names a module takes from `dtikit.tensor`: `T.op` attributes on the
    module's alias and names imported from it."""
    aliases, imported = _tensor_imports(tree)
    used = set(imported.values())
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


def _recorded_ops() -> set[str]:
    """Public functions of `tensor.py` that record a graph node, by calling
    `_make` or, for the binary elementwise ops, `_elementwise`."""
    tree = ast.parse((PACKAGE_DIR / "tensor.py").read_text())
    public = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    ops = {
        node.name
        for node in public
        if any(isinstance(n, ast.Call) and getattr(n.func, "id", None) in ("_make", "_elementwise")
               for n in ast.walk(node))
    }
    assert len(ops) > 20, "no ops found; the `_make` scan is broken"
    missed = {node.name for node in public
              if node.returns is not None and ast.unparse(node.returns) == "Tensor"} - ops
    assert not missed, "Tensor-returning functions the scan misses: " + ", ".join(sorted(missed))
    return ops


def test_every_op_has_a_caller():
    """Each op is called from another package module or from a `Tensor`
    method, so no op outlives its last caller."""
    tensor_path = PACKAGE_DIR / "tensor.py"
    used = set()
    for node in ast.parse(tensor_path.read_text()).body:
        if isinstance(node, ast.ClassDef) and node.name == "Tensor":
            used.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name))
    for path in PACKAGE_DIR.glob("*.py"):
        if path != tensor_path:
            used |= _tensor_names_used(ast.parse(path.read_text()))
    ops = _recorded_ops()
    assert not ops - used, "ops no package module calls: " + ", ".join(sorted(ops - used))


def test_every_op_has_a_gradcheck_case():
    """Each op has a finite-difference case named after it (`op` or
    `op_*`), so an op and its check come and go together."""
    names = set(op_cases(np.random.default_rng(0)))
    unchecked = [
        op for op in sorted(_recorded_ops())
        if op not in names and not any(n.startswith(op + "_") for n in names)
    ]
    assert not unchecked, "ops without a gradcheck case: " + ", ".join(unchecked)


def test_no_assert_statements():
    """Runtime checks raise, since `python -O` strips every `assert`."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, "assert statements in the package: " + ", ".join(found)


def _numpy_setdefaults(tree: ast.Module) -> list[int]:
    """Lines of `.setdefault(key, default)` calls whose default is a call
    reached through numpy (`np.zeros_like(x)`, `np.random.rand(3)`)."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "setdefault" and len(node.args) == 2
                and isinstance(node.args[1], ast.Call)):
            continue
        root = node.args[1].func
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id in ("np", "numpy"):
            lines.append(node.lineno)
    return lines


def test_no_numpy_call_as_a_setdefault_default():
    """Python evaluates `setdefault`'s default on every call and keeps it
    at most once, so a numpy default allocates an array per call that is
    thrown away; look the key up first instead."""
    assert _numpy_setdefaults(ast.parse("m = d.setdefault(k, np.zeros_like(x))")) == [1]
    assert _numpy_setdefaults(ast.parse("m = d.setdefault(k, [])")) == []
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line in _numpy_setdefaults(ast.parse(path.read_text()))
    ]
    assert not found, "numpy calls as setdefault defaults: " + ", ".join(found)


# defaulted parameters no call in the package or the benchmark passes, each
# kept for its reason
UNPASSED_DEFAULTS = {
    "cli.main(argv)": "the console entry point calls it without arguments",
    "splits.random_split(fractions)": "the split the acceptance contract in "
    "test_acceptance.py uses",
}


def _function_defs(body, cls=None):
    """(enclosing class or None, def) for every function and method,
    nested ones included."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _function_defs(node.body, node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield cls, node
            yield from _function_defs(node.body)


def _defaulted_parameters(path: Path) -> list[tuple[str, str, int | None, str]]:
    """(name a call uses, qualified name, position or None when keyword-only,
    parameter) for each defaulted parameter of a module's functions.  A
    method's positions start past `self` or `cls`, and a call to a class
    reaches its `__init__`; `__call__`, reached through instances, is
    skipped."""
    found = []
    for cls, fn in _function_defs(ast.parse(path.read_text()).body):
        if fn.name == "__call__":
            continue
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args][1 if cls and not static else 0:]
        first_default = len(positional) - len(args.defaults)
        params = [(i, name) for i, name in enumerate(positional) if i >= first_default]
        params += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        called_as = cls if fn.name == "__init__" else fn.name
        qualname = f"{path.stem}.{cls + '.' if cls else ''}{fn.name}"
        found += [(called_as, qualname, i, name) for i, name in params]
    return found


def _calls(paths) -> dict[str, list[tuple[float, set]]]:
    """Callee name -> (the count of positional arguments, infinite when a
    `*args` may fill every position, and the keyword names, None standing
    for `**kw`) for each call in the files."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            n_pos = float("inf") if starred else len(node.args)
            calls.setdefault(name, []).append((n_pos, {k.arg for k in node.keywords}))
    return calls


def test_every_defaulted_parameter_is_passed():
    """A default no call overrides is a constant in disguise: each one is
    passed by position, by keyword or through `*args`/`**kw` by some call
    in the package or the benchmark, or is a named exception."""
    assert PERFBENCH_DIR.is_dir(), PERFBENCH_DIR
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    calls = _calls(modules + sorted(PERFBENCH_DIR.glob("*.py")))
    unpassed = [
        f"{qualname}({name})"
        for path in modules
        for called_as, qualname, pos, name in _defaulted_parameters(path)
        if not any(
            name in kws or None in kws or (pos is not None and pos < n_pos)
            for n_pos, kws in calls.get(called_as, [])
        )
    ]
    assert set(UNPASSED_DEFAULTS) <= set(unpassed), "stale exceptions"
    extra = [p for p in unpassed if p not in UNPASSED_DEFAULTS]
    assert not extra, "defaulted parameters no call passes: " + ", ".join(extra)


def _op_calls():
    """(op, call) for each call of a tensor op in the package: through the
    module's alias (`T.op(...)`), through a name imported from it, or,
    inside `tensor.py`, by the op's own name."""
    ops = _recorded_ops()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases, names = _tensor_imports(tree)
        if path.name == "tensor.py":
            names = {op: op for op in ops}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and names.get(func.id) in ops:
                yield names[func.id], node
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                    and func.value.id in aliases and func.attr in ops):
                yield func.attr, node


def _literal(node):
    """The value of a literal expression node, or a fresh object for
    anything else, which equals no other value."""
    try:
        return ("literal", ast.literal_eval(node))
    except ValueError:
        return object()


def test_no_op_parameter_has_one_value_in_use():
    """An op parameter that every package call sets to the same literal is
    a constant in disguise: the op should do that one thing.  A call that
    omits a defaulted parameter passes its default, and one that spreads
    `*args` or `**kw` over a parameter passes no known value."""
    signatures = {}
    for node in ast.parse((PACKAGE_DIR / "tensor.py").read_text()).body:
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
            signatures[node.name] = (
                [(i, a.arg, d) for i, (a, d) in enumerate(zip(positional, defaults))]
                + [(None, a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)]
            )
    values = {}
    for op, call in _op_calls():
        known = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)),
                     len(call.args))
        keywords = {k.arg: k.value for k in call.keywords}
        for pos, name, default in signatures[op]:
            if name in keywords:
                value = _literal(keywords[name])
            elif pos is not None and pos < known:
                value = _literal(call.args[pos])
            elif known < len(call.args) or None in keywords or default is None:
                value = object()
            else:
                value = _literal(default)
            values.setdefault((op, name), []).append(value)
    assert len(values) > 20, "no op calls found; the scan is broken"
    constant = [
        f"{op}({name}={seen[0][1]!r})"
        for (op, name), seen in sorted(values.items())
        if isinstance(seen[0], tuple) and all(v == seen[0] for v in seen)
    ]
    assert not constant, "op parameters with one value in use: " + ", ".join(constant)


def test_no_encoder_field_is_a_constant_in_disguise():
    """The presets are the only producers of an `EncoderConfig`, so a
    field with the same value in both is a constant in disguise: it
    belongs in `encoder.py` as a module constant."""
    paper, small = EncoderConfig(), EncoderConfig.small()
    same = [f.name for f in fields(EncoderConfig)
            if getattr(paper, f.name) == getattr(small, f.name)]
    assert not same, "fields both presets set alike: " + ", ".join(same)


ALLOCATORS = ("zeros", "ones", "empty", "full")
FLOAT64_NAMES = ("np.float64", "numpy.float64", "float", "'float64'", "'f8'", "'<f8'")


def _pinned_float64(tree: ast.AST) -> list[int]:
    """Lines of `np.zeros`/`ones`/`empty`/`full` calls without a `dtype=`
    keyword, which allocate float64 whatever the inputs are, and of
    `astype` calls to float64."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if (func.attr in ALLOCATORS and isinstance(func.value, ast.Name)
                and func.value.id in ("np", "numpy")
                and not any(k.arg == "dtype" for k in node.keywords)):
            lines.append(node.lineno)
        elif func.attr == "astype":
            target = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "dtype"), None)
            if target is not None and ast.unparse(target) in FLOAT64_NAMES:
                lines.append(node.lineno)
    return lines


def test_tensor_ops_pin_no_float64():
    """Every op computes in its inputs' dtype, so `tensor.py` allocates
    with an explicit dtype (the `_like` forms take their input's) and never
    casts to float64."""
    probe = ("a = np.zeros(3)\nb = np.ones(3, dtype=x.dtype)\nc = np.zeros_like(x)\n"
             "d = x.astype(np.float64)\ne = x.astype(x.dtype)\nf = np.full((2,), 0.0)\n")
    assert _pinned_float64(ast.parse(probe)) == [1, 4, 6]
    path = PACKAGE_DIR / "tensor.py"
    found = [f"tensor.py:{line}" for line in _pinned_float64(ast.parse(path.read_text()))]
    assert not found, "float64 pinned in tensor ops: " + ", ".join(found)


def test_the_store_binds_and_steps_in_its_own_dtype():
    """`ParameterStore.parameter`, `bind` and `adam_step` cast,
    allocate and concatenate in the store's dtype: none pins float64, by an
    allocator without `dtype=`, an `astype` or a `dtype=` keyword.  Float64
    is left to the checkpoint I/O."""
    tree = ast.parse((PACKAGE_DIR / "optim.py").read_text())
    store = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == "ParameterStore")
    methods = [node for node in store.body if isinstance(node, ast.FunctionDef)
               and node.name in ("parameter", "bind", "adam_step")]
    assert len(methods) == 3
    found = [f"{func.name}:{line}" for func in methods for line in _pinned_float64(func)]
    found += [f"{func.name}:{node.lineno}" for func in methods for node in ast.walk(func)
              if isinstance(node, ast.keyword) and node.arg == "dtype"
              and ast.unparse(node.value) in FLOAT64_NAMES]
    assert not found, "float64 pinned in the store's methods: " + ", ".join(found)
