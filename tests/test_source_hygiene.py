"""Static checks on the package source: no module imports a name it never
uses, every module-level private function is referenced somewhere in the
package and reads every parameter it takes, module level binds only int and
str constants, and no function rebinds module state through ``global``.
``__init__.py`` is exempt from the import check because its imports are the
public re-exports. Every method or property defined on a class is read as an
attribute somewhere in the package (a static method through its own class),
and neither importing the package and its CLI nor running a search with
several workers loads process-pool machinery. No cached function is
annotated to return a list, dict or set, and the cached functions are a
fixed few, each under a comment that names the repeats it serves. Only a
fixed few kernels read the ``submul`` row primitive, each row family
returns exactly the two row primitives, and only the batch element check
reads ``Field.check``. Only the public solver raises DependentColumns,
and only the verifier and the stream encoder raise NotSystematic. Every
function the benchmark tracer wraps by name exists in the package, and so
does every ``Field`` method it wraps through ``vars(Field)``."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import erasurelab

SRC = Path(erasurelab.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _modules():
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _bindings(node):
    if isinstance(node, ast.Import):
        return [a.asname or a.name.split(".")[0] for a in node.names]
    if node.module == "__future__":
        return []
    return [a.asname or a.name for a in node.names if a.name != "*"]


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        if name == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{name}: {b}" for b in _bindings(node) if b not in read]
    assert unused == []


def test_no_unreferenced_private_functions():
    modules = _modules()
    referenced = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    dead = [
        f"{name}: {node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referenced
    ]
    assert dead == []


def test_private_functions_read_every_parameter():
    unread = []
    for name, tree in _modules().items():
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not fn.name.startswith("_") or fn.name.startswith("__"):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            read = {
                n.id
                for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            unread += [f"{name}: {fn.name}({p})" for p in params if p not in read]
    assert unread == []


def _is_static(fn) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)


def test_every_method_is_read_somewhere():
    """A method or property nothing in the package reads is dead API; public
    helpers the package never calls belong in the tests that use them.

    A static method counts as read only where the package reads it as
    ``<OwnClass>.<name>``, so ``Field.from_json`` does not keep another
    class's ``from_json`` alive. Instance methods and properties are still
    matched by attribute name alone: one class's ``to_json`` read anywhere
    counts for every class that defines a ``to_json``."""
    modules = _modules()
    loads = [
        node
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    read = {node.attr for node in loads}
    read_on_class = {
        (node.value.id, node.attr) for node in loads if isinstance(node.value, ast.Name)
    }
    dead = [
        f"{name}: {cls.name}.{fn.name}"
        for name, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and ((cls.name, fn.name) not in read_on_class if _is_static(fn) else fn.name not in read)
    ]
    assert dead == []


def test_import_loads_no_process_pool():
    """A fresh import of the package and its CLI leaves the pool out."""
    probe = (
        "import sys, erasurelab, erasurelab.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_no_search_loads_a_process_pool():
    """Every search is one serial scan, so asking for two workers, from the
    library or the CLI with ERASURELAB_THREADS=2, loads no pool either."""
    probe = (
        "import sys\n"
        "from erasurelab.analysis import exhaustive_code_search\n"
        "from erasurelab.cli import main\n"
        "assert exhaustive_code_search(5, 2, 1, 3, workers=2) is not None\n"
        "argv = ['search', '--n', '5', '--b1', '2', '--b2', '1', '--q', '3', '--workers', '2']\n"
        "assert main(argv) == 0\n"
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent), "ERASURELAB_THREADS": "2"}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "[]"


def test_no_global_statements():
    """Tables, bases and counters belong to the call that builds them, not
    to module state shared by every caller in the process."""
    found = [
        f"{name}:{node.lineno}: global {', '.join(node.names)}"
        for name, tree in _modules().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Global)
    ]
    assert found == []


def _constant(node):
    """The value of an expression made of literals and arithmetic operators,
    or None for any other expression."""
    if not all(
        isinstance(n, (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop))
        for n in ast.walk(node)
    ):
        return None
    return eval(compile(ast.Expression(node), "<module constant>", "eval"))


def test_module_level_binds_only_constants():
    """Caps, salts and names are the only module state: a dict, list or
    cache bound at module level would be shared by every caller."""
    found = [
        f"{name}:{node.lineno}: {ast.unparse(node)}"
        for name, tree in _modules().items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and node.value is not None
        and type(_constant(node.value)) not in (int, str)
    ]
    assert found == []


def _is_cache(decorator):
    """True for lru_cache and cache, called or bare, through functools or not."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    name = decorator.attr if isinstance(decorator, ast.Attribute) else getattr(decorator, "id", None)
    return name in ("lru_cache", "cache")


def _cached_functions():
    """(module file name, function node) for every cached function."""
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                map(_is_cache, node.decorator_list)
            ):
                yield name, node


def test_cached_functions_return_no_mutable_container():
    """A cached value is handed to every caller, so one caller changing it
    changes it for the next, as module-level state would be: each cached
    function is annotated to return something other than a list, a dict or
    a set."""
    found = []
    for name, node in _cached_functions():
        ret = ast.unparse(node.returns) if node.returns else ""
        outer = ret.strip("'\"").split("[")[0].rsplit(".", 1)[-1]
        if outer.lower() in ("", "list", "dict", "set"):
            found.append(f"{name}:{node.lineno}: {node.name} -> {ret or None}")
    assert found == []


def test_each_cache_names_the_repeats_it_serves():
    """A cache pays only when some caller repeats its input, and it holds its
    values for the life of the process. So the cached functions are exactly
    these three, and the comment block right above each one's decorators
    names the repeats it serves."""
    cached, unexplained = set(), []
    for name, node in _cached_functions():
        cached.add(node.name)
        lines = (SRC / name).read_text().splitlines()
        row = min(d.lineno for d in node.decorator_list) - 1  # 0-based
        comment = []
        while row > 0 and lines[row - 1].lstrip().startswith("#"):
            row -= 1
            comment.append(lines[row])
        if "repeat" not in " ".join(comment):
            unexplained.append(f"{name}:{node.lineno}: {node.name}")
    assert cached == {"field_make", "_window_count", "_build_parser"}
    assert unexplained == []


def _functions():
    """(name, node) of every module-level function and method, a method
    named ``Class.method``."""
    for tree in _modules().values():
        for node in tree.body:
            owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            for fn in node.body if owner else [node]:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield owner + fn.name, fn


def _readers(attr: str) -> set[str]:
    """The module-level functions and methods (with whatever they nest) that
    read ``<something>.<attr>``."""
    return {
        name for name, fn in _functions()
        if any(isinstance(n, ast.Attribute) and n.attr == attr and isinstance(n.ctx, ast.Load)
               for n in ast.walk(fn))
    }


def test_only_the_kernels_read_submul():
    """Row operations go through a few kernels, so no hand-copied
    elimination loop creeps in beside them: these module-level functions
    and methods (with whatever they nest) are the only readers of
    ``<field>.submul``."""
    assert _readers("submul") == {
        "_reduce",
        "_first_dependent",
        "poly_mul",
        "poly_divmod",
        "_erased_values",
        "_min_weight_enum",
        "sparsify_construction_one",
    }


def test_only_the_pivot_kernels_read_scale():
    """A row is scaled to 1 at a new lead only where a pivot is placed: the
    basis push, the independence walk and the one erasure-map builder, so
    no second (M, C) builder creeps in beside _recovery."""
    assert _readers("scale") == {"_push", "_first_dependent", "_recovery"}


def test_row_primitives_are_submul_and_scale():
    """A field carries two row primitives: each row family returns exactly
    ``(submul, scale)``, and the row members of ``Field.__slots__`` (the
    callables a built field holds) are ``row``, ``submul`` and ``scale``,
    so a third primitive takes a deliberate edit here."""
    families = {
        node.name: node
        for node in _modules()["algebra.py"].body
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_rows")
    }
    assert sorted(families) == ["_log_rows", "_nibble_rows", "_table_rows"]
    for fn in families.values():
        returns = [ast.unparse(node.value) for node in fn.body if isinstance(node, ast.Return)]
        assert returns == ["(submul, scale)"], fn.name
    algebra = erasurelab.algebra
    for q in (16, 256, 257):  # one field per family
        f = algebra.field_make(q)
        row_members = [s for s in algebra.Field.__slots__ if callable(getattr(f, s))]
        assert row_members == ["row", "submul", "scale"]


def test_only_the_batch_check_reads_field_check():
    """Field elements are checked once, where a value enters the package,
    and in one batch: the batch check is the only reader of
    ``<field>.check``, so no per-entry loop creeps back in."""
    assert _readers("check") == {"_check_elements"}


def _raisers(error: str) -> set[str]:
    """The module-level functions and methods (with whatever they nest) that
    hold ``raise <error>(...)``."""
    return {
        name for name, fn in _functions()
        if any(isinstance(n, ast.Raise) and isinstance(n.exc, ast.Call)
               and isinstance(n.exc.func, ast.Name) and n.exc.func.id == error
               for n in ast.walk(fn))
    }


def test_dependent_and_non_systematic_columns_have_fixed_raisers():
    """Internal maps answer "dependent" with None, so no caller has to catch
    an error to learn it: only the public solver raises DependentColumns,
    and only the verifier and the stream encoder raise NotSystematic, both
    from ``code.systematic``."""
    assert _raisers("DependentColumns") == {"solve_for_columns"}
    assert _raisers("NotSystematic") == {"verify_streaming_code", "_parity_map"}


def _traced_field_methods():
    """The names tracing.py wraps on Field: the first item of each entry of
    the literal tuple walked by the loop that reads ``vars(...)[name]``."""
    for loop in ast.walk(ast.parse(TRACING.read_text())):
        if not (isinstance(loop, ast.For) and isinstance(loop.target, ast.Tuple)):
            continue
        name = loop.target.elts[0]
        if any(
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Call)
            and getattr(node.value.func, "id", None) == "vars"
            and isinstance(node.slice, ast.Name)
            and isinstance(name, ast.Name)
            and node.slice.id == name.id
            for node in ast.walk(loop)
        ):
            return [entry[0] for entry in ast.literal_eval(loop.iter)]
    return []


def test_traced_functions_exist():
    """perfbench/tracing.py names its spans as (module, function) strings;
    it is read here, not imported, and each name must be a module-level
    function of that package module. The Field methods it wraps through
    ``vars(Field)`` must be functions in Field's class dict."""
    spans = next(
        ast.literal_eval(node.value)
        for node in ast.parse(TRACING.read_text()).body
        if isinstance(node, ast.Assign)
        and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANS"]
    )
    defined = {
        (name.removesuffix(".py"), node.name)
        for name, tree in _modules().items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    missing = [f"{mod}.{fn}" for mod, fn, _ in spans if (mod, fn) not in defined]
    # an instance attribute or a missing name would break --trace 1
    methods = _traced_field_methods()
    field_dict = vars(erasurelab.algebra.Field)
    missing += [f"Field.{m}" for m in methods if not inspect.isfunction(field_dict.get(m))]
    assert spans and methods and missing == []

