"""Dead-code guard: every public top-level function and class of the
package, and every public method of those classes, is used somewhere in
``src/``; a name that only tests use is test-only API.  A top-level name
counts as used through its own module only: as a bare name inside that
module, as ``module.name``, or imported ``from`` that module, so
``linalg.add`` is not kept alive by ``set.add``.  A method counts as used
by any name, attribute or import alias it matches, so a method whose name
another package class shares, or a field, ``self.x``, top-level function or
module of the package carries, can lose its last caller unseen: the set of
such shared names, and the classes that define each, is pinned, with a
caller in ``src/`` named for each.  A function passed to a
registering decorator defined in its own module, such as ``@check(...)`` in
``verify``, counts as used.  A private (``_``-prefixed) top-level function
is used when its own module names it outside its own body, or a test names
it.

Every defaulted parameter of a package function, method or constructor
(``__init__`` or dataclass field) is passed, by position or by keyword, by
some call in ``src/``, and left out by another: a default that no caller in
the package changes is a constant, and one that every caller overrides is
a required parameter.  Calls are matched by the called name, so a function
referenced as a value (``makers[name](ns)``; a type annotation is not a
value), called with ``*args``/``**kwargs`` or named in ``[project.scripts]``
of ``pyproject.toml`` counts as both passing and leaving every parameter.
No call in ``src/`` passes a parameter the expression of its own default
(compared as source text): such an argument restates what the signature
already says.  Likewise a required parameter that every call in ``src/``
passes as the same literal (compared as source text) is a constant, not a
parameter.

Every dataclass field of a package class, and every ``self.x`` a package
class assigns, is read as an attribute somewhere in ``src/`` or ``tests/``.
A field counts as read by any attribute of its name, so a field whose name
another package dataclass also defines can lose its last reader unseen: the
set of such shared field names, and the dataclasses that define each, is
pinned, with a reader named for each.

The private (``_``-prefixed, not dunder) names that a package module
imports from another module, or reads as an attribute it does not define
itself, are pinned by module.

In ``cli``, only ``main`` calls ``print`` or ``json.dumps``: a command
handler returns its exit code, its JSON document and its text lines, and
``main`` prints one or the other, so output takes one path.

The package holds no ``assert`` statement: ``python -O`` strips them, so an
invariant is checked by raising.

Every ``name(`` and every ``module.name`` inside an inline code span of the
README names what exists: ``name`` a module, function, class, method, field
or constant of the package, a name it imports or a builtin, and for a
``module`` of the package (or ``conelab``) a name that module defines or
imports (a module of ``conelab``).  Math notation that reads like a call is
listed in ``README_MATH``."""

import ast
import builtins
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "conelab"


def _trees(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _public_definitions():
    """(module, name, bare name) of each public definition in the package;
    module is None for a method."""
    for path, tree in _trees(PACKAGE):
        local = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if any(
                isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id in local
                for d in node.decorator_list
            ):
                continue
            yield path.stem, f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield None, f"{path.stem}.{node.name}.{item.name}", item.name


def _used_names():
    """Bare names used in ``src/``, and (module, name) pairs used through a
    module."""
    bare, qualified = set(), set()
    for path, tree in _trees(SRC):
        own = path.stem if path.parent == PACKAGE else None
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                bare.add(node.id)
                if own:
                    qualified.add((own, node.id))
            elif isinstance(node, ast.Attribute):
                bare.add(node.attr)
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                qualified.add((owner, node.attr))
            elif isinstance(node, ast.alias):
                bare.add(node.name.rsplit(".", 1)[-1])
            if isinstance(node, ast.ImportFrom) and node.module:
                qualified.update((node.module.rsplit(".", 1)[-1], a.name) for a in node.names)
    return bare, qualified


def test_every_public_name_is_used():
    bare, qualified = _used_names()
    unused = sorted(
        qual
        for module, qual, name in _public_definitions()
        if (name not in bare if module is None else (module, name) not in qualified)
    )
    assert not unused, "never used in src/: " + ", ".join(unused)


# Public method names that two or more package classes define, or that a
# field, a self.x, a top-level function or a module of the package also
# carries, each class with a caller of its method in src/.  The name guard
# above counts a method as used when any name matches, so one of these can
# outlive its last caller; a change to this table is made by hand, with the
# caller checked.
SHARED_METHOD_NAMES = {
    "passed": {
        "configurations.ValidationReport",  # cli.cmd_validate, verify.check_minus_one_counts
    },
    "to_json": {
        "configurations.NegativeConfiguration",  # cli.cmd_blowdown, cli.cmd_catalog
        "lattice.SurfaceModel",  # cli.cmd_dual, configurations.NegativeConfiguration.to_json
    },
    "from_json": {
        "configurations.NegativeConfiguration",  # cli.cmd_validate
        "lattice.SurfaceModel",  # cli._parse_cone, configurations.NegativeConfiguration.from_json
    },
    "revalidate": {
        "swcert.SWCertificate",  # swcert.Decomposition.revalidate
        "swcert.Decomposition",  # swcert.non_extremal_witness
    },
    "primitive": {"lattice.DivisorClass"},  # cones.dual_cone; shadowed by linalg.primitive
    "square": {"lattice.DivisorClass"},  # configurations.validate_configuration; CornerInfo.square
    "verify": {"inflation.InflationTrace"},  # verify.check_vertex_example; module verify
}


def _shadowing_names():
    """Names that an attribute or a bare name in ``src/`` can carry without
    calling a method: the fields and ``self.x`` of package classes, the
    top-level package functions and the module names."""
    names = set()
    for path, tree in _trees(PACKAGE):
        names.add(path.stem)
        names |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            names |= {f.target.id for f in cls.body
                      if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)}
            names |= {node.attr for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                      and getattr(node.value, "id", None) == "self"}
    return names


def test_shared_method_names_are_pinned():
    owners = {}
    for module, qual, name in _public_definitions():
        if module is None:
            owners.setdefault(name, set()).add(qual.rsplit(".", 1)[0])
    shadowing = _shadowing_names()
    shared = {name: classes for name, classes in owners.items()
              if len(classes) > 1 or name in shadowing}
    assert shared == SHARED_METHOD_NAMES


# Private (_-prefixed, not dunder) names that a package module imports from
# another module, or reads as an attribute that it does not define itself:
# the numerator format of lattice.DivisorClass and the helpers that build
# it.  A change to this table is made by hand, so that format spreads to
# another module only by a visible edit.
PRIVATE_REACH_INS = {
    "cremona": {"_den", "_from_numerators", "_num"},
    "enumeration": {"_den", "_from_numerators", "_num"},
    "inflation": {"_check_same_surface", "_den", "_from_numerators", "_num"},
    "verify": {"_from_numerators", "_num"},
}


def test_private_reach_ins_are_pinned():
    reach_ins = {}
    for path, tree in _trees(PACKAGE):
        nodes = list(ast.walk(tree))
        own = {n.name for n in nodes if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        own |= {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        own |= {n.attr for n in nodes if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)}
        names = {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
        names |= {n.attr for n in nodes if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Load) and n.attr not in own}
        private = {n for n in names if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))}
        if private:
            reach_ins[path.stem] = private
    assert reach_ins == PRIVATE_REACH_INS


def test_every_private_function_is_used():
    in_tests = set()
    for _, tree in _trees(ROOT / "tests"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                in_tests.add(node.id)
            elif isinstance(node, ast.Attribute):
                in_tests.add(node.attr)
            elif isinstance(node, ast.alias):
                in_tests.add(node.name.rsplit(".", 1)[-1])
    unused = []
    for path, tree in _trees(PACKAGE):
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or not fn.name.startswith("_"):
                continue
            if fn.name in in_tests:
                continue
            own_body = {id(n) for n in ast.walk(fn)}
            if not any(isinstance(n, ast.Name) and n.id == fn.name and id(n) not in own_body
                       for n in ast.walk(tree)):
                unused.append(f"{path.stem}.{fn.name}")
    assert not unused, "private functions never used: " + ", ".join(sorted(unused))


def _parameters(args):
    """Positional parameter names, without self or cls, and the source text
    of each default by parameter name."""
    positional = [a.arg for a in args.posonlyargs + args.args]
    if positional[:1] in (["self"], ["cls"]):
        positional = positional[1:]
    defaulted = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    defaulted |= {a.arg: d for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
    return positional, {name: ast.unparse(d) for name, d in defaulted.items()}


def _signatures():
    """(qualified name, call name, positional parameters, default text by
    parameter) of each function, method and constructor in the package."""
    for path, tree in _trees(PACKAGE):
        for node in ast.walk(tree):
            qual = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, ast.FunctionDef) and node.name != "__init__":
                yield (qual, node.name, *_parameters(node.args))
            elif isinstance(node, ast.ClassDef):
                init = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
                if init:
                    yield (qual, node.name, *_parameters(init[0].args))
                elif any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                    fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                    yield (qual, node.name, [f.target.id for f in fields],
                           {f.target.id: ast.unparse(f.value) for f in fields if f.value is not None})


def _calls():
    """Call name -> [(positional arguments, keyword argument by name)] in
    ``src/``, and the names that pass everything: referenced as a value,
    called with *args/**kwargs, or a console script's entry point."""
    scripts = (ROOT / "pyproject.toml").read_text().partition("[project.scripts]")[2]
    calls, everything = {}, set(re.findall(r':(\w+)"', scripts.partition("\n[")[0]))
    for _, tree in _trees(SRC):
        not_values = set()  # called names and annotations
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                not_values.add(id(node.func))
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords
                ):
                    everything.add(name)
                calls.setdefault(name, []).append((node.args, {k.arg: k.value for k in node.keywords}))
            annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
            if annotation is not None:
                not_values.update(id(n) for n in ast.walk(annotation))
        # local variables and arguments shadow package names in this file
        local = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        local |= {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
        for node in ast.walk(tree):
            if id(node) in not_values or not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name) and node.id not in local:
                everything.add(node.id)
            elif isinstance(node, ast.Attribute):
                everything.add(node.attr)
    return calls, everything


def _argument(param, positional, args, keywords):
    """The expression a call passes for the parameter, or None."""
    if param in keywords:
        return keywords[param]
    if param in positional and positional.index(param) < len(args):
        return args[positional.index(param)]
    return None


def _defaults_by_use(passed):
    """Defaulted parameters, as ``qual(param)``, that no call in ``src/``
    passes (``passed`` True) or leaves at its default (``passed`` False)."""
    calls, everything = _calls()
    return sorted(
        f"{qual}({param})"
        for qual, name, positional, defaulted in _signatures()
        if name not in everything
        for param in defaulted
        if not any(
            (_argument(param, positional, *call) is not None) == passed
            for call in calls.get(name, [])
        )
    )


def _literal_text(node):
    """The source text of a literal argument, or None."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.unparse(node)


def test_every_defaulted_parameter_is_passed():
    unpassed = _defaults_by_use(passed=True)
    assert not unpassed, "defaulted parameters no call passes: " + ", ".join(unpassed)


def test_every_default_is_relied_on():
    overridden = _defaults_by_use(passed=False)
    assert not overridden, "defaults every call overrides: " + ", ".join(overridden)


def test_no_required_parameter_is_a_constant():
    calls, everything = _calls()
    constant = []
    for qual, name, positional, defaulted in _signatures():
        if name in everything or name not in calls:
            continue
        for param in (p for p in positional if p not in defaulted):
            texts = {_literal_text(_argument(param, positional, *call)) for call in calls[name]}
            if len(texts) == 1 and None not in texts:
                constant.append(f"{qual}({param})")
    assert not constant, "required parameters every call passes as one literal: " + ", ".join(constant)


def test_no_call_restates_a_default():
    defaults = {}
    for _, name, positional, defaulted in _signatures():
        defaults.setdefault(name, []).append((positional, defaulted))
    restated = set()
    for path, tree in _trees(SRC):
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))):
                continue
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for positional, defaulted in defaults.get(name, []):
                passed = [*zip(positional, node.args), *((k.arg, k.value) for k in node.keywords)]
                if any(defaulted.get(param) == ast.unparse(value) for param, value in passed):
                    restated.add(f"{path.stem}:{node.lineno} {ast.unparse(node)}")
    assert not restated, "calls that pass a default again: " + "; ".join(sorted(restated))


def test_every_stored_field_is_read():
    stored = set()
    for path, tree in _trees(PACKAGE):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
                stored |= {(f"{path.stem}.{cls.name}", f.target.id)
                           for f in cls.body if isinstance(f, ast.AnnAssign)}
            stored |= {(f"{path.stem}.{cls.name}", node.attr) for node in ast.walk(cls)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                       and getattr(node.value, "id", None) == "self"}
    read = {node.attr for _, tree in _trees(SRC, ROOT / "tests")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted(f"{owner}.{name}" for owner, name in stored if name not in read)
    assert not unread, "stored but never read: " + ", ".join(unread)


# Dataclass field names that two or more package dataclasses define, each
# dataclass with a reader of its field.  The field guard above counts a field
# as read when any attribute of its name is read, so one of these can outlive
# its last reader; a change to this table is made by hand, with the reader
# checked.
SHARED_FIELD_NAMES = {
    "cls": {
        "swcert.SWCertificate",  # cli.cmd_cert
        "swcert.Decomposition",  # swcert.Decomposition.revalidate
    },
    "details": {
        "configurations.PropertyResult",  # cli.cmd_validate
        "verify.CheckResult",  # cli.cmd_verify
    },
    "kind": {
        "cremona.ReductionOutcome",  # cli.cmd_reduce
        "cremona.EquivalenceOutcome",  # cli.cmd_equiv
        "lattice.SurfaceModel",  # lattice.pair
    },
    "passed": {
        "cones.AuditReport",  # verify.check_cone_theorem_audit
        "configurations.PropertyResult",  # configurations.ValidationReport.passed
        "verify.CheckResult",  # cli.cmd_verify
    },
    "result": {
        "cremona.ReductionOutcome",  # cli.cmd_reduce
        "inflation.InflationTrace",  # inflation.achieve_all_rays
        "inflation.AlternateInflation",  # verify.check_alternating_inflation
    },
    "steps": {
        "cremona.ReductionOutcome",  # cli.cmd_reduce
        "inflation.InflationTrace",  # cli.cmd_inflate
    },
    "surface": {
        "configurations.NegativeConfiguration",  # cli.cmd_blowdown
        "enumeration.SweepReport",  # verify.check_sweeps
        "lattice.DivisorClass",  # swcert.wall_crossing_magnitude
    },
    "witness": {
        "configurations.ValidationReport",  # test_inflation: test_validation_and_inflation_build_one_dual
        "swcert.SWCertificate",  # cli.cmd_cert
    },
}


def test_shared_field_names_are_pinned():
    owners = {}
    for path, tree in _trees(PACKAGE):
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            if any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
                for f in cls.body:
                    if isinstance(f, ast.AnnAssign):
                        owners.setdefault(f.target.id, set()).add(f"{path.stem}.{cls.name}")
    assert {name: records for name, records in owners.items() if len(records) > 1} == SHARED_FIELD_NAMES


def test_no_assert_in_the_package():
    found = sorted(
        f"{path.relative_to(ROOT)}:{node.lineno}"
        for path, tree in _trees(PACKAGE)
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    )
    assert not found, "assert statements in the package: " + ", ".join(found)


def test_only_main_prints():
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    printing = sorted(
        fn.name for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name != "main"
        and any(isinstance(n, ast.Call) and ast.unparse(n.func) in ("print", "json.dumps")
                for n in ast.walk(fn))
    )
    assert not printing, "cli functions other than main that print: " + ", ".join(printing)


# Math notation in README code spans that reads like a call, such as the
# intersection form diag(1, -1, ..., -1)
README_MATH = {"diag"}


def test_readme_code_spans_name_what_exists():
    modules = {path.stem: tree for path, tree in _trees(PACKAGE)}
    own = {"conelab": set(modules)}
    names = set(dir(builtins)) | README_MATH | set(modules)
    for module, tree in modules.items():
        own[module] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own[module].add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                own[module] |= {t.id for t in targets if isinstance(t, ast.Name)}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                own[module] |= {(a.asname or a.name).split(".")[0] for a in node.names}
        names |= own[module]
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.add(item.target.id)
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    stale = set()
    for span in re.findall(r"`([^`]+)`", text):
        stale |= {f"{m}(" for m in re.findall(r"\b([A-Za-z_]\w*)\(", span) if m not in names}
        stale |= {f"{m}.{n}" for m, n in re.findall(r"\b([A-Za-z_]\w*)\.([A-Za-z_]\w*)", span)
                  if m in own and n not in own[m]}
    assert not stale, "README code spans name what the package lacks: " + ", ".join(sorted(stale))
