"""Nothing public in ``src/hoacodec`` exists only for the unit tests.

Every public function, and every public method and property of a public
class, must have a user outside its own definition: in ``src/``, in
``demos/``, in the acceptance suite, or in the per-layer lists of
``perfbench/tracer.py`` (``LAYERS``, ``_READER_METHODS``,
``_WRITER_METHODS``), which the benchmark patches by name.  Names are
matched as identifiers: a function or property is used where its name is
read, a method where an attribute of its name is called (``x.name(...)``),
so a field or variable of the same name does not keep a method alive.

Every private module-level function, class and constant must be read
somewhere in ``src/``, so a helper that a move leaves without a caller
shows up here.

Every defaulted parameter of a public function or method must be passed
by some call in ``src/``, ``demos/``, the acceptance suite or
``perfbench/``, so a knob that nothing turns shows up here.  A call passes
a parameter by position or keyword, or by handing on ``*args`` or
``**kwargs``; calls are matched by name, through import aliases.
"""

import ast
import collections
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hoacodec"
TRACER_LISTS = ("LAYERS", "_READER_METHODS", "_WRITER_METHODS")


def _names_used(tree: ast.AST) -> tuple:
    """Identifiers a module reads (loaded names and attributes, and imported
    names; an assignment's own target is not a read), and the attribute
    names it calls."""
    read, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            read.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            read.add(node.id if isinstance(node, ast.Name) else node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            called.add(node.func.attr)
    return read, called


def _tracer_names() -> set:
    """The strings of the tracer's per-layer lists, read without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in TRACER_LISTS for t in node.targets
        ):
            value = ast.literal_eval(node.value)
            for item in value.values() if isinstance(value, dict) else [value]:
                names.update(item)
    return names


def _is_property(fn: ast.FunctionDef) -> bool:
    """Decorated with ``property``, ``cached_property`` or a property's
    ``setter`` or ``deleter``."""
    return any(
        (d.id if isinstance(d, ast.Name) else getattr(d, "attr", ""))
        in ("property", "cached_property", "setter", "deleter")
        for d in fn.decorator_list
    )


def _public_definitions(tree: ast.Module):
    """(qualified name, name, is a method) of each public module-level
    function and each public method or property of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, not _is_property(item)


def _private_definitions(tree: ast.Module):
    """The names of the private module-level functions, classes and
    assigned constants (dunders such as ``__all__`` excluded)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _calls(tree: ast.AST) -> list:
    """(called name, positional count, keyword names, hands on ``*args`` or
    ``**kwargs``) of each call, an aliased import called by its own name."""
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    calls = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            keywords = {k.arg for k in node.keywords}
            spread = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            calls.append((aliases.get(name, name), len(node.args), keywords, spread))
    return calls


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, name, position in a call or None, parameter) of each
    defaulted parameter of a public function or of a public class's public
    method; keyword-only parameters have no position, and a method's
    position does not count ``self`` or ``cls``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            owners = [(node.name, node, 0)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            owners = [
                (f"{node.name}.{item.name}", item, 0 if _is_static(item) else 1)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            ]
        else:
            continue
        for qualified, fn, skip in owners:
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield qualified, fn.name, i - skip, arg.arg
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield qualified, fn.name, None, arg.arg


def _is_static(fn: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)


def test_tracer_lists_are_read():
    assert {"mdct_forward", "encode", "read_flag", "write_flag"} <= _tracer_names()


def test_every_public_definition_has_a_user():
    users = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    users.append(ROOT / "tests" / "test_acceptance.py")
    read, called = set(), set()
    for path in users:
        r, c = _names_used(ast.parse(path.read_text()))
        read |= r
        called |= c
    listed = _tracer_names()
    unused = [
        f"{path.stem}.{qualified}"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name, method in _public_definitions(ast.parse(path.read_text()))
        if name not in listed and name not in (called if method else read)
    ]
    assert not unused, f"public definitions that only unit tests or nothing use: {unused}"


def test_every_private_definition_is_read_in_src():
    read = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        read |= _names_used(ast.parse(path.read_text()))[0]
    unread = [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _private_definitions(ast.parse(path.read_text()))
        if name not in read
    ]
    assert not unread, f"private definitions nothing in src/ reads: {unread}"


def test_every_defaulted_parameter_is_passed_somewhere():
    users = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    users += [ROOT / "tests" / "test_acceptance.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    calls = collections.defaultdict(list)
    for path in users:
        for name, *call in _calls(ast.parse(path.read_text())):
            calls[name].append(call)
    unturned = [
        f"{path.stem}.{qualified}({param})"
        for path in sorted(PACKAGE.glob("*.py"))
        for qualified, name, position, param in _defaulted_parameters(ast.parse(path.read_text()))
        if not any(
            spread or param in keywords or (position is not None and count > position)
            for count, keywords, spread in calls[name]
        )
    ]
    assert not unturned, f"defaulted parameters that no caller passes: {unturned}"
