"""Everything in ``src/repro`` is reached from an entry point.

A module that only its own tests import serves no run, so it is a
candidate for deletion.  The roots are the orchestrator, the CLI, and
every ``repro`` import in ``benchmarks/``, ``examples/``, ``scripts/``
and ``perf/``.  Imports count at any depth, inside functions too.  A
package-level import (``from repro.net import Network``) counts only the
submodule the package ``__init__`` re-exports that name from, never the
whole ``__init__``: a re-export alone does not make a module used.

The same holds one level down: every top-level function and class and
every non-dunder method must be named somewhere in ``src/repro`` or a
root directory, outside its own definition.  A function or class counts
as named when it is read (``f``), an attribute (``obj.f``), an imported
name, or part of a ``"repro.module:Qual.name"`` target string (the
``perf/`` ledger wraps those); a method only as an attribute or a target
string part, since a local variable or a builtin of the same bare name
says nothing about it.  ``__all__`` entries and package ``__init__``
re-exports do not count.  Matching is by bare name, so the check is
conservative: a method shares credit with any other attribute of the
same name.

And one level further down: every defaulted parameter of a checked
function or method (``__init__`` included) must be passed, by keyword or
by position, by some call in ``src/repro`` or a root directory, outside
its own definition, as an expression other than its default (compared
by ``ast.dump``; a name or any other expression counts, even one that
evaluates to the default).  A function counts as called through its
bare name or an attribute, a method only through an attribute, and a
constructor through its class name (or ``super().__init__``).  A call
that spreads ``**kwargs`` passes every parameter, and one that spreads
``*args`` every positional one.  An option no run sets, or sets only to
its default, is a constant with a branch that never runs.
"""

import ast
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
ROOT_MODULES = ("repro.report.orchestrator", "repro.cli")
ROOT_DIRS = ("benchmarks", "examples", "scripts", "perf")


def _module_paths():
    """Dotted name -> source path for every module under ``src/repro``."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


MODULES = _module_paths()
PACKAGES = {name for name, path in MODULES.items() if path.name == "__init__.py"}


def _imports(path, package=""):
    """``(module, names)`` per import statement in *path*, at any depth.

    Relative imports resolve against *package*; ``names`` is empty for
    ``import a.b`` and holds ``(name, bound_as)`` pairs for
    ``from a import name as bound_as``.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                anchor = parts[: len(parts) - node.level + 1]
                module = ".".join(anchor + ([module] if module else []))
            yield module, tuple(
                (alias.name, alias.asname or alias.name) for alias in node.names
            )


def _reexports():
    """Package -> {bound name: (source module, source name)}."""
    table = {}
    for package in PACKAGES:
        table[package] = {
            bound: (module, name)
            for module, names in _imports(MODULES[package], package)
            for name, bound in names
        }
    return table


REEXPORTS = _reexports()


def _resolve(module, name=None):
    """The non-package modules that importing *name* from *module* reaches."""
    if module not in MODULES:
        return set()
    if module not in PACKAGES:
        return {module}
    if name is None:
        return set()
    source = REEXPORTS[module].get(name)
    if source is not None:
        return _resolve(*source)
    return _resolve(f"{module}.{name}")


def _targets(statements):
    reached = set()
    for module, names in statements:
        if module != "repro" and not module.startswith("repro."):
            continue
        if not names:
            reached |= _resolve(module)
        for name, _ in names:
            reached |= _resolve(module, name)
    return reached


def _package_of(module):
    return module if module in PACKAGES else module.rpartition(".")[0]


def reached_modules():
    """Every non-``__init__`` module an entry point reaches."""
    frontier = set(ROOT_MODULES)
    for directory in ROOT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            frontier |= _targets(_imports(path))
    reached = set()
    while frontier:
        module = frontier.pop()
        if module in reached:
            continue
        reached.add(module)
        frontier |= _targets(_imports(MODULES[module], _package_of(module)))
    return reached


def test_package_import_counts_only_the_reexporting_submodule():
    assert _resolve("repro.net", "Network") == {"repro.net.transport"}
    assert _resolve("repro.net", "chaos") == {"repro.net.chaos"}
    assert _resolve("repro.net") == set()


def test_every_module_is_reached_from_an_entry_point():
    unreached = sorted(set(MODULES) - PACKAGES - reached_modules())
    assert not unreached, f"no entry point reaches: {', '.join(unreached)}"


#: Definitions no entry point names, kept on purpose (at most 10), as
#: ``"path/under/src:Qual.name": reason``.
ALLOWED_UNREFERENCED = {
    "repro/net/realserver.py:NetworkHandler": (
        "the TCP bridge's server half: the integration tests run the Section 5 "
        "testbed over genuine sockets through it, and DESIGN's substitution "
        "table cites it as the evidence that the in-memory network is faithful"
    ),
    "repro/net/realserver.py:RemoteNetwork": (
        "the TCP bridge's client half (see NetworkHandler)"
    ),
    "repro/net/accesslog.py:reset_agent_label_memo": (
        "test isolation: fixtures that reset the shared registries must also "
        "drop the process-wide agent-label memo and cached series handles"
    ),
    "repro/obs/metrics.py:MetricsRegistry.reset": (
        "test isolation: zeroes the shared registry in place between tests, "
        "so the handles hot call sites hold stay valid"
    ),
    "repro/obs/trace.py:Tracer.drain": (
        "test isolation: returns and clears the shared tracer's buffer and "
        "root id counters, so each test starts a fresh id tree"
    ),
    "repro/obs/metrics.py:metrics_disabled": (
        "test isolation: runs a block with recording off and restores the flag"
    ),
    "repro/obs/metrics.py:MetricsRegistry.counter_value": (
        "reads one counter without creating it; counter() would add "
        "instruments that the cross-mode METRICS comparisons count"
    ),
    "repro/core/legacy.py:LegacyQuirks.none": (
        "the quirk-free reference the legacy parser's tests hold against "
        "the RFC 9309 parser"
    ),
    "repro/survey/instrument.py:question": (
        "the Appendix D.1 questionnaire encoding: look a question up by id"
    ),
    "repro/survey/instrument.py:Question.is_shown": (
        "the Appendix D.1 questionnaire encoding: the skip logic of a question"
    ),
}


def _target_parts(value):
    """The names in a ``"repro.module:Qual.name"`` target string."""
    module, sep, qualname = value.partition(":")
    if sep and (module == "repro" or module.startswith("repro.")):
        return qualname.split(".")
    return ()


def _definitions(tree):
    """``(qualname, node, enclosing class name or None)`` of every
    top-level function and class and of every definition in a class
    body, at any depth."""
    found = []

    def visit(body, prefix, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((prefix + node.name, node, owner))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, prefix + node.name + ".", node.name)

    visit(tree.body, "", None)
    return found


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _references(path, package, names, attributes):
    """Add ``(path, line)`` under every bare name *path* names: to
    *names* for a read or an imported name, to *attributes* for an
    attribute, and to both for a target string part."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            names[node.id].append((path, node.lineno))
        elif isinstance(node, ast.Attribute):
            attributes[node.attr].append((path, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for part in _target_parts(node.value):
                names[part].append((path, node.lineno))
                attributes[part].append((path, node.lineno))
    if path.name != "__init__.py":
        for _, imported in _imports(path, package):
            for name, _ in imported:
                names[name].append((path, 0))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _scanned_paths():
    """``(path, package)`` for every file whose uses count."""
    for module, path in MODULES.items():
        yield path, _package_of(module)
    for directory in ROOT_DIRS:
        for path in sorted((REPO / directory).rglob("*.py")):
            yield path, ""


@lru_cache(maxsize=None)
def unreferenced_definitions():
    """``("path:Qual.name", line)`` for every definition no one names."""
    names, attributes = defaultdict(list), defaultdict(list)
    for path, package in _scanned_paths():
        _references(path, package, names, attributes)
    offenders = []
    for module, path in sorted(MODULES.items()):
        for qualname, node, owner in _definitions(_tree(path)):
            if _dunder(node.name):
                continue
            uses = attributes[node.name] + ([] if owner else names[node.name])
            if not any(
                not (where == path and node.lineno <= line <= node.end_lineno)
                for where, line in uses
            ):
                offenders.append((f"{path.relative_to(SRC)}:{qualname}", node.lineno))
    return tuple(offenders)


def test_target_strings_name_their_parts():
    assert _target_parts("repro.core.policy:RobotsPolicy.is_allowed") == [
        "RobotsPolicy", "is_allowed",
    ]
    assert _target_parts("os.path:join") == ()
    assert _target_parts("no colon here") == ()


def test_every_definition_is_named_from_an_entry_point():
    offenders = [
        f"src/{key.partition(':')[0]}:{line} {key.partition(':')[2]}"
        for key, line in unreferenced_definitions()
        if key not in ALLOWED_UNREFERENCED
    ]
    assert not offenders, "nothing outside tests names:\n" + "\n".join(offenders)


def test_allowlist_is_short_justified_and_current():
    assert len(ALLOWED_UNREFERENCED) <= 10
    assert all(reason.strip() for reason in ALLOWED_UNREFERENCED.values())
    unreferenced = {key for key, _ in unreferenced_definitions()}
    stale = sorted(set(ALLOWED_UNREFERENCED) - unreferenced)
    assert not stale, f"allowlisted but named (or gone): {', '.join(stale)}"


#: Defaulted parameters no call sets, kept on purpose (at most 12), as
#: ``"path/under/src:Qual.name(parameter)": reason``.
ALLOWED_UNSET = {
    "repro/net/realserver.py:RealHttpServer.__init__(host)": (
        "deployment setting: the interface the TCP bridge binds"
    ),
    "repro/net/realserver.py:fetch_real(timeout)": (
        "deployment setting: how long a genuine socket fetch may wait"
    ),
    "repro/net/server.py:Website.from_directory(host)": (
        "deployment setting: the virtual host a served directory answers for"
    ),
    "repro/core/legacy.py:LegacyPolicy.__init__(quirks)": (
        "the quirk-free legacy parser is the reference its tests hold "
        "against RFC 9309 (see LegacyQuirks.none)"
    ),
    "repro/measure/longitudinal.py:collect_snapshots(specs)": (
        "input data, not an option: tests crawl two or three specs to stay fast"
    ),
    "repro/measure/longitudinal.py:collect_shard_archives(specs)": (
        "input data, not an option (see collect_snapshots)"
    ),
    "repro/measure/validation.py:cross_validate_snapshot(seed)": (
        "a seed: the seed sweep of the paper-claims ledger varies it"
    ),
    "repro/report/experiments.py:run_table2_artists(seed)": (
        "a seed: the seed sweep of the paper-claims ledger varies it"
    ),
    "repro/report/experiments.py:run_survey_tables(seed)": (
        "a seed: the seed sweep of the paper-claims ledger varies it"
    ),
    "repro/report/experiments.py:run_tables9_12_codebooks(seed)": (
        "a seed: the seed sweep of the paper-claims ledger varies it"
    ),
    "repro/report/experiments.py:run_survey_crosstabs(seed)": (
        "a seed: the seed sweep of the paper-claims ledger varies it"
    ),
}


def _defaulted(function, method):
    """``(name, position, default)`` per defaulted parameter of
    *function*; the position counts call arguments (``None`` for
    keyword-only), and the default is its expression's ``ast.dump``."""
    args = function.args
    positional = args.posonlyargs + args.args
    static = any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in function.decorator_list
    )
    shift = 1 if method and not static else 0
    first = len(positional) - len(args.defaults)
    found = [
        (arg.arg, index - shift, ast.dump(default))
        for index, (arg, default) in enumerate(zip(positional[first:], args.defaults), first)
    ]
    found += [
        (arg.arg, None, ast.dump(default))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def _signatures(tree):
    """``(qualname, node, class name or None)`` per checked callable:
    top-level functions, and the non-dunder methods and ``__init__`` of
    classes at any depth."""
    return [
        (qualname, node, owner)
        for qualname, node, owner in _definitions(tree)
        if not isinstance(node, ast.ClassDef)
        and (not _dunder(node.name) or (owner and node.name == "__init__"))
    ]


def _call_record(path, node):
    """``(path, line, positional argument dumps, spreads *args,
    {keyword: argument dump}, spreads **kwargs)`` of one call."""
    return (
        path,
        node.lineno,
        tuple(ast.dump(arg) for arg in node.args if not isinstance(arg, ast.Starred)),
        any(isinstance(arg, ast.Starred) for arg in node.args),
        {keyword.arg: ast.dump(keyword.value) for keyword in node.keywords if keyword.arg},
        any(keyword.arg is None for keyword in node.keywords),
    )


def _passes(call, name, position, default):
    """Whether *call* passes parameter *name* an expression other than
    its *default*."""
    _, _, positional, spreads_args, keywords, spreads_kwargs = call
    if spreads_kwargs or keywords.get(name, default) != default:
        return True
    if position is None:
        return False
    if position < len(positional):
        return positional[position] != default
    return spreads_args


@lru_cache(maxsize=None)
def _calls():
    """``("name" or "attr", callee) -> [call record]`` (see
    :func:`_call_record`) over every scanned file."""
    calls = defaultdict(list)
    for path, _ in _scanned_paths():
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.Call):
                continue
            record = _call_record(path, node)
            if isinstance(node.func, ast.Name):
                calls["name", node.func.id].append(record)
            elif isinstance(node.func, ast.Attribute):
                calls["attr", node.func.attr].append(record)
    return calls


@lru_cache(maxsize=None)
def unset_parameters():
    """``("path:Qual.name(parameter)", line)`` for every defaulted
    parameter no call passes."""
    calls = _calls()
    offenders = []
    for module, path in sorted(MODULES.items()):
        for qualname, node, owner in _signatures(_tree(path)):
            if node.name == "__init__":
                callers = calls["name", owner] + calls["attr", owner] + calls["attr", "__init__"]
            elif owner:
                callers = calls["attr", node.name]
            else:
                callers = calls["name", node.name] + calls["attr", node.name]
            callers = [
                call for call in callers
                if not (call[0] == path and node.lineno <= call[1] <= node.end_lineno)
            ]
            for name, position, default in _defaulted(node, owner is not None):
                if not any(_passes(call, name, position, default) for call in callers):
                    offenders.append(
                        (f"{path.relative_to(SRC)}:{qualname}({name})", node.lineno)
                    )
    return tuple(offenders)


def test_parameter_positions_skip_the_receiver():
    tree = ast.parse(
        "class C:\n"
        "    def m(self, a, b=1, *, c=2): ...\n"
        "    @staticmethod\n"
        "    def s(a, b=1): ...\n"
        "def f(a, b=1): ...\n"
    )
    found = {qualname: [entry[:2] for entry in _defaulted(node, owner is not None)]
             for qualname, node, owner in _signatures(tree)}
    assert found == {"C.m": [("b", 1), ("c", None)], "C.s": [("b", 1)], "f": [("b", 1)]}


def test_passing_the_default_expression_sets_nothing():
    (function,) = ast.parse("def f(a, b=1, *, c=None): ...").body
    (b, c) = _defaulted(function, False)

    def call(source):
        return _call_record(None, ast.parse(source).body[0].value)

    assert not _passes(call("f(0, 1)"), *b)
    assert not _passes(call("f(0, b=1)"), *b)
    assert not _passes(call("f(0, c=None)"), *c)
    assert _passes(call("f(0, 2)"), *b)
    assert _passes(call("f(0, b=ONE)"), *b)
    assert _passes(call("f(0, c=value)"), *c)
    assert _passes(call("f(0, *rest)"), *b)
    assert _passes(call("f(0, **options)"), *c)


def test_every_defaulted_parameter_is_set_by_a_caller():
    offenders = [
        f"src/{key.partition(':')[0]}:{line} {key.partition(':')[2]}"
        for key, line in unset_parameters()
        if key not in ALLOWED_UNSET
    ]
    assert not offenders, "no call outside tests sets:\n" + "\n".join(offenders)


def test_unset_allowlist_is_short_justified_and_current():
    assert len(ALLOWED_UNSET) <= 12
    assert all(reason.strip() for reason in ALLOWED_UNSET.values())
    unset = {key for key, _ in unset_parameters()}
    stale = sorted(set(ALLOWED_UNSET) - unset)
    assert not stale, f"allowlisted but set (or gone): {', '.join(stale)}"
