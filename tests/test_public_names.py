"""Every public name of the package has a caller outside the tests.

A public top-level name of ``src/chainvol`` (function, class or constant)
and a public member of one of its classes (method, property, class constant
or dataclass field) must be referenced on another line of ``src/chainvol``
or in ``pipebench/*.py``. A member is referenced by an attribute or a
keyword argument. A top-level name is referenced by those, by an identifier,
an imported name or a string constant that spells a dotted name, as the
benchmark's tracer names the functions it wraps; a member's name may be a
local variable's or a report key, so those do not count for a member. A
name that only tests reach is code kept alive for no caller.

The same holds for parameters: a parameter with a default, of a public
function, a public method or an explicit ``__init__``, must be passed at some
call in those files, by keyword or by position; a call with ``*args`` or
``**kwargs`` passes every parameter those could fill. A default that every
caller keeps is an option no caller uses. So is a default that every call
passes: no caller takes it.

A private top-level function or class of ``src/chainvol`` must be referenced
in those files outside its own definition: a helper that nothing calls is
dead code, which the public-name rule does not see.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "chainvol").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "pipebench").glob("*.py"))

# cli.main is the entry point
EXEMPT = {("cli", "main")}

DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def public(name: str) -> bool:
    return not name.startswith("_")


def targets(node) -> list:
    """The names an assignment statement binds."""
    if isinstance(node, ast.AnnAssign):
        return [node.target] if isinstance(node.target, ast.Name) else []
    if isinstance(node, ast.Assign):
        return [t for t in node.targets if isinstance(t, ast.Name)]
    return []


def definitions(path: pathlib.Path):
    """(name, qualified name, line) of each public top-level name and class member."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        named = [(node.name, node.lineno)] if isinstance(
            node, (ast.FunctionDef, ast.ClassDef)) else [(t.id, t.lineno) for t in targets(node)]
        for name, line in named:
            if public(name):
                yield name, name, line
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                named = [(member.name, member.lineno)] if isinstance(
                    member, ast.FunctionDef) else [(t.id, t.lineno) for t in targets(member)]
                for name, line in named:
                    if public(name):
                        yield name, f"{node.name}.{name}", line


def references(path: pathlib.Path):
    """(name, line, whether it references a member) of each reference in the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno, True
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno, True
        elif isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if DOTTED.fullmatch(node.value):
                for part in node.value.split("."):
                    yield part, node.lineno, False


def test_every_public_name_has_a_caller():
    seen: dict[str, set] = {}  # name -> {(path, line, whether it references a member)}
    for path in CALLERS:
        for name, line, of_member in references(path):
            seen.setdefault(name, set()).add((path, line, of_member))
    unused = []
    for path in PACKAGE:
        for name, qualified, line in definitions(path):
            if (path.stem, qualified) in EXEMPT:
                continue
            member = "." in qualified
            if not {(p, n) for p, n, of_member in seen.get(name, ())
                    if of_member or not member} - {(path, line)}:
                unused.append(f"{path.stem}.{qualified} (line {line})")
    assert not unused, "no caller outside the tests: " + ", ".join(unused)


def defaulted_parameters(path: pathlib.Path):
    """(callable name, parameter, position or None, line) of each parameter
    with a default of a public function or method or an explicit __init__;
    a method's position does not count its self or cls, and a keyword-only
    parameter has none. An __init__ is called by its class's name."""
    tree = ast.parse(path.read_text())
    defs = [(node.name, node, False) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for member in cls.body:
            if isinstance(member, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in member.decorator_list)
                name = cls.name if member.name == "__init__" else member.name
                defs.append((name, member, not static))
    for name, node, bound in defs:
        if not public(name):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        if bound:
            positional = positional[1:]
        for i, arg in enumerate(positional[len(positional) - len(a.defaults):],
                                len(positional) - len(a.defaults)):
            yield name, arg.arg, i, node.lineno
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, node.lineno


def passed(path: pathlib.Path):
    """(callable name, the set of parameter names and positions it passes,
    or {"*"} for every parameter) of each call in the file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        if any(isinstance(arg, ast.Starred) for arg in node.args) or any(
                kw.arg is None for kw in node.keywords):
            yield name, {"*"}
            continue
        yield name, set(range(len(node.args))) | {kw.arg for kw in node.keywords}


def calls_by_name() -> dict:
    """Callable name -> what each of its calls in the caller files passes."""
    calls: dict[str, list] = {}
    for path in CALLERS:
        for name, args in passed(path):
            calls.setdefault(name, []).append(args)
    return calls


def test_every_defaulted_parameter_is_passed():
    calls = calls_by_name()
    unpassed = []
    for path in PACKAGE:
        for name, param, position, line in defaulted_parameters(path):
            if not any({param, position, "*"} & args for args in calls.get(name, ())):
                unpassed.append(f"{path.stem}.{name}({param}) (line {line})")
    assert not unpassed, "never passed outside the tests: " + ", ".join(unpassed)


def test_no_default_is_passed_by_every_call():
    calls = calls_by_name()
    overridden = []
    for path in PACKAGE:
        for name, param, position, line in defaulted_parameters(path):
            name_calls = calls.get(name, ())
            if name_calls and all({param, position, "*"} & args for args in name_calls):
                overridden.append(f"{path.stem}.{name}({param}) (line {line})")
    assert not overridden, "passed by every call outside the tests: " + ", ".join(overridden)


def test_every_private_helper_is_called():
    seen: dict[str, set] = {}  # name -> {(path, line)}
    for path in CALLERS:
        for name, line, _ in references(path):
            seen.setdefault(name, set()).add((path, line))
    uncalled = []
    for path in PACKAGE:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not public(node.name):
                own = {(path, line) for line in range(node.lineno, node.end_lineno + 1)}
                if not seen.get(node.name, set()) - own:
                    uncalled.append(f"{path.stem}.{node.name} (line {node.lineno})")
    assert not uncalled, "never referenced outside its definition: " + ", ".join(uncalled)
