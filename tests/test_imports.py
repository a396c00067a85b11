"""Source rules: checks on the syntax trees of the package's modules, and of
perfbench's workloads, for the invariants that the paper's claims and the
design rest on and that no behaviour test would see break. They keep the
code free of unused imports and locals, of reaches into another module's
private names and of environment reads. They give each concept one owner:
a system's forcing, the Newton rule, the first-difference form, a basis's
inner product, a run rule's message, a reduced file's record. They keep
numpy's dispatch-heavy forms and allocations out of the Newton loops, and
offline work out of the online stage. Each test's docstring states its rule
and the reason for it. The tests after the rules run perfbench's tracer and
workloads on the package.

Every file is parsed once per session into a ``Source``: each node with its
owner and line, and the file's functions. A rule is a node predicate handed
to ``findings``, which returns a ``Finding``, "module:owner: what (line
n)", for each node the predicate flags. To add a rule, write its predicate
and a test that asserts on its findings, limited to some owners or
excluding one where the rule names an owner, with the reason as the test's
docstring.
"""

import ast
import importlib.util
from collections import Counter
from functools import cache
from pathlib import Path
from typing import NamedTuple

import pytest

import podrom
from helpers import ContractRecorder
from podrom import bdf, fom, mesh_fem, pod, rom

PACKAGE = Path(podrom.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
HARNESS, ROM = PACKAGE / "harness.py", PACKAGE / "rom.py"
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class Source(NamedTuple):
    """One file, parsed once: its tree, each node with where it sits and its
    line, and its functions by qualified name and by bare name."""

    tree: ast.Module
    nodes: list  # (node, "module:owner", line) for every node, parents first
    functions: dict  # {"f" or "Class.method": def}, the top level's
    by_name: dict  # {bare name: [defs]}, nested functions included


@cache
def source(path):
    """The ``Source`` of the file at ``path``. A node's owner is the
    top-level function or ``Class.method`` it sits in, a nested function's
    nodes counting as their enclosing function's, and ``<module>`` outside
    a function; a node without a line of its own takes its parent's."""
    tree = ast.parse(path.read_text())
    functions = {}
    for top in tree.body:
        if isinstance(top, FUNCTIONS):
            functions[top.name] = top
        elif isinstance(top, ast.ClassDef):
            functions.update((f"{top.name}.{f.name}", f) for f in top.body if isinstance(f, FUNCTIONS))
    owners = {id(func): f"{path.name}:{name}" for name, func in functions.items()}
    nodes, by_name = [], {}

    def visit(node, where, line):
        where, line = owners.get(id(node), where), getattr(node, "lineno", line)
        nodes.append((node, where, line))
        if isinstance(node, FUNCTIONS):
            by_name.setdefault(node.name, []).append(node)
        for child in ast.iter_child_nodes(node):
            visit(child, where, line)

    visit(tree, f"{path.name}:<module>", 0)
    return Source(tree, nodes, functions, by_name)


class Finding(NamedTuple):
    """A node a rule flags: "module:owner", what it is, and its line."""

    where: str
    what: str
    line: int

    def __repr__(self):
        return f"{self.where}: {self.what} (line {self.line})"


def findings(predicate, paths=MODULES, owners=None, exclude=None):
    """A ``Finding`` for each node of the files at ``paths`` that
    ``predicate`` flags: it returns what it found, or True for the node's
    own source. ``owners``, a set of "module:owner", limits the query to
    their nodes, and ``exclude`` leaves out one owner's."""
    found = []
    for path in paths:
        for node, where, line in source(path).nodes:
            if (owners is None or where in owners) and where != exclude and (what := predicate(node)):
                found.append(Finding(where, ast.unparse(node) if what is True else what, line))
    return found


def assert_no_findings(predicate, paths=MODULES, owners=None, exclude=None):
    found = findings(predicate, paths, owners, exclude)
    assert not found, found


def within(*defs):
    """The ids of every node of ``defs``, themselves included."""
    return {id(node) for func in defs for node in ast.walk(func)}


def string(matches, skip=frozenset()):
    """A predicate: a string literal whose value ``matches``, outside ``skip``'s ids."""
    return lambda node: (
        isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in skip and matches(node.value)
    )


def attribute(name):
    """A predicate: a use of ``.name``."""
    return lambda node: isinstance(node, ast.Attribute) and node.attr == name


def called(node):
    """The bare name a call calls, or None for a call of another expression."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def annotation(node):
    """The annotation ``node`` carries: a parameter's, an annotated
    assignment's or a function's return, or None."""
    return node.returns if isinstance(node, FUNCTIONS) else getattr(node, "annotation", None)


def used_names(src):
    """Every identifier of the module, with those its quoted annotations name."""
    used = set()
    for node, _, _ in src.nodes:
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif annotation(node) is not None:
            for part in ast.walk(annotation(node)):
                # a quoted annotation such as "CsrMatrix" names its type in a string
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    expr = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    """A module uses every name it imports, as an identifier anywhere in it
    (a quoted annotation's included) or as a deliberate re-export listed in
    ``__all__``; imports from ``__future__`` are exempt."""
    src = source(path)
    kept = used_names(src) | exported_names(src.tree)

    def unused(node):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            return ", ".join(name for name in bound if name not in kept)
        return None

    assert_no_findings(unused, [path])


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def defined_names(src):
    """Every name the module binds itself: functions, classes, parameters,
    assigned names and assigned attributes (``self._x = ...``)."""
    names = set()
    for node, _, _ in src.nodes:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.Name, ast.Attribute)) and not isinstance(node.ctx, ast.Load):
            names.add(getattr(node, "id", getattr(node, "attr", None)))
    return names


@pytest.mark.parametrize("path", [*MODULES, WORKLOADS], ids=lambda p: p.name)
def test_no_reaching_into_private_names(path):
    """A module uses what other modules make public: a private name that
    another module needs is part of its interface and loses the underscore."""
    own = defined_names(source(path))

    def foreign_private(node):
        if isinstance(node, ast.ImportFrom):
            return ", ".join(f"import of {node.module}.{a.name}" for a in node.names if is_private(a.name))
        if isinstance(node, ast.Import):
            return ", ".join(f"import of {a.name}" for a in node.names if any(map(is_private, a.name.split("."))))
        return (
            isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and is_private(node.attr) and node.attr not in own
        )

    assert_no_findings(foreign_private, [path])


ENVIRONMENT_READERS = {"environ", "getenv"}


def reads_the_environment(node):
    """os.environ or os.getenv, by attribute or by a ``from os import``."""
    if isinstance(node, ast.ImportFrom) and node.module == "os":
        return ", ".join(f"import of os.{a.name}" for a in node.names if a.name in ENVIRONMENT_READERS)
    return (
        isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "os" and node.attr in ENVIRONMENT_READERS
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    """Every setting comes from the config or the command line, where it is
    validated and documented; none hides in the environment."""
    assert_no_findings(reads_the_environment, [path])


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fom.py"], ids=lambda p: p.name)
def test_only_the_system_reads_its_forcing(path):
    """The forcing's term format has one owner, ``fom.ReactionSystem``: other
    modules use its ``loads`` and ``amplitudes``, never ``.forcing``."""
    assert_no_findings(attribute("forcing"), [path])


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fom.py"], ids=lambda p: p.name)
def test_only_the_system_reads_its_exponents(path):
    """A reaction's exponent table is ``fom.ReactionSystem``'s input only:
    other modules read its monomials as ``factors``, never ``.exponents``."""
    assert_no_findings(attribute("exponents"), [path])


SNAPSHOT_SETTINGS = {"tau", "w0_mode"}
SNAPSHOT_BUILDERS = {"pod.py": ("build_snapshots", "build_pod_basis")}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_snapshot_builders_take_its_settings(path):
    """tau and the w0 mode are set once, when ``pod.build_snapshots`` (or
    ``pod.build_pod_basis`` through it) builds a snapshot set: code after
    that reads them from the set, never from a restated argument."""
    builders = SNAPSHOT_BUILDERS.get(path.name, ())

    def takes_a_setting(node):
        if isinstance(node, (*FUNCTIONS, ast.Lambda)) and getattr(node, "name", None) not in builders:
            params = [arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)]
            return ", ".join(f"takes {name}" for name in params if name in SNAPSHOT_SETTINGS)
        return None

    assert_no_findings(takes_a_setting, [path])


#: the functions both models' Newton loops run per step, per candidate or per
#: Krylov iteration, and the numpy calls that have a cheaper bit-identical
#: form there: a norm is sqrt(v.dot(v)), Dirichlet rows are set by index, the
#: reaction is one matmul, a product of 1-D or 2-D operands is the method
#: a.dot(b), not the ``@`` operator or np.dot, and a joined vector is an
#: in-place write (``out=``) into a buffer held from before the loop
NEWTON_LOOP = {
    "linalg.py": {"krylov_solve"},
    "fom.py": {
        "newton_update", "FomJacobian.matvec", "FomOperator.linearisation",
        "ReactionSystem.g", "ReactionSystem.g_prime", "_contract",
    },
    "bdf.py": {"implicit_step", "integrate", "extrapolate_increment", "bdf_increment_form"},
    "rom.py": {"reaction_slope", "rom_residual", "rom_jacobian", "rom_linearisation"},
}
DISPATCH_HEAVY = {"np.linalg.norm", "np.where", "np.tensordot", "np.dot", "np.concatenate"}


def dispatch_heavy(node):
    if isinstance(node, ast.Call):
        return ast.unparse(node.func) in DISPATCH_HEAVY
    return isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)


@pytest.mark.parametrize(
    "module, name",
    [(m, n) for m, names in NEWTON_LOOP.items() for n in sorted(names)],
    ids=lambda v: v,
)
def test_newton_loop_avoids_dispatch_heavy_calls(module, name):
    """np.linalg.norm, np.where, np.tensordot, np.dot, np.concatenate and the
    ``@`` operator cost more dispatch than the ddot, index assignment, matmul,
    a.dot(b) and an in-place write into a held buffer that give the same bits;
    in the functions the Newton loops run per step, candidate or Krylov
    iteration they are not used."""
    path = PACKAGE / module
    assert name in source(path).functions, f"{module}: {name} no longer exists"
    assert_no_findings(dispatch_heavy, [path], owners={f"{module}:{name}"})


#: the numpy calls that make a new array from nothing or from other arrays;
#: ``.copy()`` is matched as a method
ARRAY_CONSTRUCTORS = {
    "np.empty", "np.zeros", "np.ones", "np.eye", "np.identity", "np.full", "np.array",
    "np.empty_like", "np.zeros_like", "np.ones_like", "np.vstack", "np.hstack", "np.stack",
    "np.concatenate", "np.ascontiguousarray",
}


def allocates(node):
    return isinstance(node, ast.Call) and (
        ast.unparse(node.func) in ARRAY_CONSTRUCTORS or getattr(node.func, "attr", None) == "copy"
    )


@pytest.mark.parametrize("name", ["linearise", "solve"])
def test_a_rom_candidate_allocates_no_array(name):
    """The ROM's per-candidate closures in ``rom_linearisation``, ``linearise``
    and ``solve``, call no array constructor and no ``.copy()``: the block
    (S^T; K^T; fixed), z = (1, c, d, 1) and the Jacobian buffer are formed
    once per run and written in place, so the layout stays per run."""
    src = source(ROM)
    outer = within(src.functions["rom_linearisation"])
    closures = [func for func in src.by_name.get(name, []) if id(func) in outer]
    assert len(closures) == 1, f"rom.py: rom_linearisation has {len(closures)} closures named {name}"
    inside = within(*closures)
    assert_no_findings(lambda node: id(node) in inside and allocates(node), [ROM])


def is_derived_field(node):
    """A dataclass field declared ``field(init=False)``."""
    return (
        isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call)
        and any(k.arg == "init" and getattr(k.value, "value", True) is False for k in node.value.keywords)
        and node.target.id
    )


@pytest.mark.parametrize("name", ["ReducedSystem", "RomSystem"])
def test_the_reduced_system_stores_no_derived_copy(name):
    """A reduced system holds each array once, as ``podrom pod`` hands it
    over: it declares no ``field(init=False)`` and its methods set no
    attribute, but for ``monomial_rows``, the rows of the monomial index, so
    a second layout of a stored array cannot come back unnoticed."""
    src = source(ROM)
    [cls] = [node for node in src.tree.body if isinstance(node, ast.ClassDef) and node.name == name]
    fields = {id(stmt) for stmt in cls.body}
    methods = {f"rom.py:{qual}" for qual in src.functions if qual.startswith(f"{name}.")}
    found = findings(lambda node: id(node) in fields and is_derived_field(node), [ROM]) + findings(
        lambda node: isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store), [ROM], owners=methods
    )
    allowed = {"ReducedSystem": ["monomial_rows", "self.monomial_rows"], "RomSystem": []}[name]
    assert [f.what for f in found] == allowed, found


def names_np_linalg(node):
    """The ``np.linalg`` names of an attribute of a name or of an import."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        names = [ast.unparse(node)]
    elif isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [f"{node.module}.{alias.name}" for alias in node.names]
    else:
        return None
    return ", ".join(n for n in names if n.split(".")[:2] in (["np", "linalg"], ["numpy", "linalg"]))


def test_the_rom_factors_only_through_dense_lu_solve():
    """Every dense factor of the ROM goes through the guarded
    ``linalg.dense_lu_solve``, so a singular Jacobian raises its one
    SingularMatrixError and the tracer counts every factor: rom.py names
    nothing of ``np.linalg``, by attribute or by import."""
    assert_no_findings(names_np_linalg, [ROM])


def harness_strings(matches):
    """harness.py's string literals that ``matches``, docstrings aside: a
    bare string statement does nothing."""
    bare = {id(node.value) for node, _, _ in source(HARNESS).nodes if isinstance(node, ast.Expr)}
    return findings(string(matches, bare), [HARNESS])


def test_only_write_csv_formats_a_table_value():
    """harness formats a table value in ``write_csv`` alone: a .6g format
    spec (an f-string's, ``format``'s or a %-format's) anywhere else in
    harness.py would be a second path that a table could drift along."""
    found = harness_strings(lambda text: ".6g" in text)
    assert {f.where for f in found} == {"harness.py:write_csv"}, found


def test_only_the_maxima_helper_names_a_step_key():
    """A study row takes each pointwise-in-time maximum and its step from
    ``_main_loop_maxima``: a string ending in ``_step`` anywhere else in
    harness.py would be a second, hand-written (maximum, step) pair."""
    found = harness_strings(lambda text: text.endswith("_step"))
    assert {f.where for f in found} == {"harness.py:_main_loop_maxima"}, found


RULE_MESSAGES = {
    "BDF order must be in": "bdf.py:_check_order",
    "needs a step T/M below 1": "bdf.py:check_step",
    "bootstrap steps, above the bound": "bdf.py:check_step",
    "plans a bootstrap substep": "bdf.py:check_step",
    "T must be positive and finite": "bdf.py:check_step",
    "M must be at least 1": "bdf.py:check_step",
    "T/dt overflows": "bdf.py:integrate",
    "newton_rule must be": "bdf.py:newton_tolerance",
    "the Newton tolerance must be positive": "bdf.py:newton_tolerance",
    "nu must be positive and finite": "fom.py:ReactionSystem.__post_init__",
}


@pytest.mark.parametrize("text", sorted(RULE_MESSAGES))
def test_each_run_rule_has_one_owner(text):
    """A run rule's message is written in one function of the package: a
    second copy of the rule, in a config check or a study, could drift from
    the one the time loop applies."""
    found = findings(string(lambda value: text in value))
    assert {f.where for f in found} == {RULE_MESSAGES[text]}, found


#: the functions that run the BDF-q loop, or a model or a study on it, whose
#: last parameter is the Newton rule itself, which ``bdf.newton_tolerance`` resolves
RULE_TAKERS = {
    "bdf.py": ("integrate", "run_bootstrap"),
    "fom.py": ("fom_integrate",),
    "rom.py": ("rom_integrate",),
    "harness.py": ("temporal_convergence_study", "r_refinement_study"),
}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_newton_rule_is_data(path):
    """The Newton rule reaches the time loop as data, "step-coupled" or a
    number, and only ``bdf.newton_tolerance`` turns it into a tolerance: no
    module builds a ``tol(order, step)`` callable, and the loop's functions,
    both models' integrators and the studies take the rule as their last
    parameter, under one name, ``newton_rule``."""
    takers = {id(source(path).functions[name]) for name in RULE_TAKERS.get(path.name, ())}

    def rule_not_data(node):
        if isinstance(node, (*FUNCTIONS, ast.Lambda)):
            params = [a.arg for a in node.args.args]
            if params == ["order", "step"]:
                return f"a tolerance callable {getattr(node, 'name', 'lambda')}(order, step)"
            if id(node) in takers and params[-1] != "newton_rule":
                return f"{node.name} takes {params[-1]} last"
        return None

    assert_no_findings(rule_not_data, [path])


#: the inner products' names, as ``pod`` binds them and as their string values
INNER_PRODUCT_NAMES = {"H10", "L2"}
#: the functions that take the inner product's name, with no default
NAME_TAKERS = {"pod.py": ("pod_basis", "build_pod_basis")}


def names_an_inner_product(node):
    """Whether ``node`` is H10 or L2: the name, a ``pod.`` attribute or the string."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str) and node.value in INNER_PRODUCT_NAMES
    return getattr(node, "id", getattr(node, "attr", None)) in INNER_PRODUCT_NAMES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_basis_takes_its_inner_product_from_its_name(path):
    """The inner product's name is the one input that decides a POD basis's
    Gram operator, correlation matrix, label and bound: only ``pod.pod_basis``
    constructs a ``PodBasis``, from the name it (and ``build_pod_basis``,
    which passes it on) takes with no default, and
    only ``pod.gram_matrix`` compares a value with H10 or L2. A label passed
    apart from its operator, or a branch on the name elsewhere, could
    disagree with the operator the basis holds. A membership check against
    ``INNER_PRODUCTS``, as ``RunConfig`` makes, names neither."""
    takers = {id(source(path).functions[name]) for name in NAME_TAKERS.get(path.name, ())}
    found = (
        findings(lambda node: called(node) == "PodBasis", [path], exclude="pod.py:pod_basis")
        + findings(
            lambda node: isinstance(node, ast.Compare) and any(map(names_an_inner_product, ast.walk(node))),
            [path],
            exclude="pod.py:gram_matrix",
        )
        + findings(
            lambda node: id(node) in takers
            and (node.args.defaults or any(d is not None for d in node.args.kw_defaults))
            and "a parameter default",
            [path],
        )
    )
    assert not found, found


#: what the online stage must not reach: the FOM's states, the mesh and the
#: space, the POD and the ROM's assembly
OFFLINE_WORK = {"_load_desk", "load_trajectory", "build_mesh", "build_space", "build_pod_basis", "rom_assemble"}
#: the functions a step or a study of steps runs, each on a ``ReducedSystem``
STEP_SIDE = {
    "rom.py": ("reaction_slope", "rom_jacobian", "rom_linearisation", "rom_integrate"),
    "harness.py": ("_reduced_norms", "temporal_convergence_study"),
}
#: what lifting and projection read, and a step does not
LIFTING = {"basis", "lift", "space", "modes"}


def reached(name):
    """The ids of the nodes of the package functions that the package
    function ``name`` runs: itself and those it calls directly or through
    the others, by bare name, functions, methods and nested functions alike."""
    seen, todo, inside = {name}, [name], set()
    while todo:
        bare = todo.pop()
        for func in (func for path in MODULES for func in source(path).by_name.get(bare, [])):
            for node in ast.walk(func):
                inside.add(id(node))
                if called(node) not in seen:
                    seen.add(called(node))
                    todo.append(called(node))
    return inside


@pytest.mark.parametrize("command", ["cmd_rom", "cmd_convergence"])
def test_the_online_stage_reads_only_reduced_data(command):
    """``rom`` and ``convergence`` run from ``podrom pod``'s reduced system:
    no call they reach loads a trajectory, builds a mesh or a space, runs a
    POD or assembles a ROM, so their cost depends on r, not on the mesh."""
    inside = reached(command)
    assert inside, f"cli.py: {command} no longer exists"
    assert_no_findings(lambda node: id(node) in inside and called(node) in OFFLINE_WORK)


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in STEP_SIDE.items() for n in names], ids=lambda v: v
)
def test_a_step_reads_only_the_reduced_system(module, name):
    """The step side takes a ``ReducedSystem`` and reads none of the basis,
    the lift, the space or the modes, which only a ``RomSystem`` holds."""
    path = PACKAGE / module
    first = source(path).functions[name].args.args[0]

    def reads_lifting(node):
        if node is first:
            return ast.unparse(node.annotation) != "ReducedSystem" and f"takes a {ast.unparse(node.annotation)}"
        return isinstance(node, ast.Attribute) and node.attr in LIFTING

    assert_no_findings(reads_lifting, [path], owners={f"{module}:{name}"})


def test_the_config_builds_its_one_reaction_system():
    """``SYSTEMS`` is subscripted in ``RunConfig.reaction_system`` alone: every
    stage, check and record takes the configured system from the config, so
    no second lookup can build it from another name or nu."""
    found = findings(
        lambda node: isinstance(node, ast.Subscript)
        and "SYSTEMS" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))
    )
    assert [f.where for f in found] == ["harness.py:RunConfig.reaction_system"], found


#: the settings a reduced file records beyond the FOM run's
POD_RECORD_KEYS = {"tau", "w0_mode", "inner_product"}


def spells_the_record(node):
    """A tuple, list, set or dict literal with a key of the POD record."""
    spelled = node.keys if isinstance(node, ast.Dict) else getattr(node, "elts", ())
    return any(isinstance(e, ast.Constant) and e.value in POD_RECORD_KEYS for e in spelled)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_config_states_its_record_once(path):
    """What a hand-off records is stated once, by ``RunConfig.record``: a
    tuple, list, set or dict literal that spells tau, w0_mode or
    inner_product outside ``RunConfig`` would be a second statement of the
    record, which a writer or a check could follow instead."""
    found = [f for f in findings(spells_the_record, [path]) if ":RunConfig." not in f.where]
    assert not found, found


#: the functions that may read a scheme's first-difference weights: the form
#: both models step with, and the ROM's per-step term, which applies it to the
#: history once per step
FIRST_DIFFERENCE_READERS = {"bdf.py:bdf_increment_form", "rom.py:rom_linearisation"}


def test_one_first_difference_form():
    """BDF-q is written as first-order difference quotients in one place: a
    function that reads ``alpha_f`` outside ``FIRST_DIFFERENCE_READERS``
    would be a second copy of the form, one that neither model steps with."""
    found = findings(lambda node: attribute("alpha_f")(node) and isinstance(node.ctx, ast.Load))
    assert {f.where for f in found} == FIRST_DIFFERENCE_READERS, found


#: the set-up every stage starts from, built by index arithmetic alone
LOOP_FREE = ("build_mesh", "build_space")


@pytest.mark.parametrize("name", LOOP_FREE)
def test_set_up_has_no_loop(name):
    """The mesh and the space are built without a Python loop over cells or
    edges: no ``for``, ``while`` or comprehension in ``mesh_fem``'s builders."""
    path = PACKAGE / "mesh_fem.py"
    assert name in source(path).functions, f"mesh_fem.py: {name} no longer exists"
    loop = (ast.For, ast.While, ast.comprehension)
    owners = {f"mesh_fem.py:{name}"}
    assert_no_findings(lambda node: isinstance(node, loop) and type(node).__name__, [path], owners=owners)


def unread_locals(func):
    """"function: name" for each name the function ``func`` assigns but never
    reads, reads by nested functions included. ``_``, and names declared
    global or nonlocal, are exempt."""
    if not isinstance(func, FUNCTIONS):
        return None
    stored, read, declared = set(), set(), {"_"}
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            (read if isinstance(node.ctx, ast.Load) else stored).add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return ", ".join(f"{func.name}: {name}" for name in sorted(stored - read - declared))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_locals(path):
    """No function, nested ones included, assigns a local name that it never
    reads: an unread local is dead code or a lost result."""
    assert_no_findings(unread_locals, [path])


def load_perfbench(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_target():
    """A traced target that no longer resolves drops its per-layer metrics
    from the benchmark's result line, so deleting or renaming one must be a
    deliberate change to the benchmark, made together with it."""
    tracing = load_perfbench(TRACING)
    missing = [
        f"{module}.{path}"
        for _, module, path, _, _ in tracing.TARGETS
        if tracing._resolve(module, path) is None
    ]
    assert not missing, ", ".join(missing)


def traced(tracing, call):
    """(call's result, spans per name, implicit_step's Newton updates in call
    order) with perfbench's tracer installed around ``call``."""
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = call()
    finally:
        tracer.uninstall()
    updates = [s[4] for s in tracer.spans if s[0] == "bdf.implicit_step"]
    return result, Counter(s[0] for s in tracer.spans), updates


def recorded(monkeypatch, module):
    """The ``ContractRecorder``s of the ``bdf.integrate`` calls that
    ``module``'s integrator makes, one per call, each checked as it returns."""
    recorders = []

    def integrate(q, dt, t_end, starting, linearisation, newton_rule):
        recorders.append(ContractRecorder(newton_rule))
        result = bdf.integrate(q, dt, t_end, starting, recorders[-1].wrap(linearisation), newton_rule)
        recorders[-1].check(q, dt, *result[1:])
        return result

    monkeypatch.setattr(module, "integrate", integrate)
    return recorders


def test_tracer_counts_every_linearisation(monkeypatch):
    """perfbench reads the model's work from the traced names: a time loop
    that bypassed rom_residual, FomOperator.residual or implicit_step would
    report fewer calls there, and 0 implicit_step calls fail a traced unit.
    Each traced count is the one a ``ContractRecorder`` of the same run
    counts: a residual per linearisation, a Jacobian per solve, and for the
    FOM one linear solve per Jacobian; the ROM forms one dense factor per
    fresh solve and refines its held inverse for every other solve. A
    bootstrapped run is one run_bootstrap span, so its time is one wall
    time."""
    tracing = load_perfbench(TRACING)
    space = mesh_fem.build_space(mesh_fem.build_mesh(4), 2)
    system = fom.brusselator_system(0.002)
    q, m, t_end = 3, 8, 1.6
    dt = t_end / m
    u0 = fom.perturbed_equilibrium(space)

    recorders = recorded(monkeypatch, fom)
    traj, calls, updates = traced(tracing, lambda: fom.fom_integrate(system, space, u0, dt, t_end, q))
    [recorder] = recorders
    assert calls["bdf.implicit_step"] == len(updates) == sum(len(run.steps) for run in recorder.runs)
    assert calls["fom.FomOperator.residual"] == recorder.linearisations
    assert calls["fom.FomOperator.jacobian"] == recorder.solves == sum(updates) > 0
    assert calls["linalg.krylov_solve"] == calls["fom.FomOperator.jacobian"]
    assert calls["bdf.run_bootstrap"] == 1

    snaps, basis = pod.build_pod_basis(traj, 1.0, pod.W0_ZERO, pod.H10)
    romsys = rom.rom_assemble(basis, 4, space, system, snaps.mean)
    coords0 = rom.initial_coords(romsys, traj.states[0])
    recorders = recorded(monkeypatch, rom)
    rt, calls, updates = traced(
        tracing, lambda: rom.rom_integrate(romsys, q, dt, t_end, ("bootstrap", coords0))
    )
    [recorder] = recorders
    assert updates == [*rt.bootstrap_iteration_counts, *rt.newton_iteration_counts]
    assert calls["bdf.implicit_step"] == len(updates) == sum(len(run.steps) for run in recorder.runs)
    assert calls["rom.rom_residual"] == recorder.linearisations
    assert calls["rom.rom_jacobian"] == recorder.solves == sum(updates)
    assert calls["linalg.dense_lu_solve"] == recorder.fresh_solves > 0
    assert calls["bdf.run_bootstrap"] == 1


def test_fom_newton_operator_assembles_no_matrix():
    """The FOM's Newton operator is matrix-free: a traced run on a fresh
    space makes no CSR product (the Jacobian, BiCGStab's products and the
    residual all work on the element data), and exactly one BiCGStab solve
    per Jacobian. The POD and the ROM after it apply the space's element
    mass and stiffness too: the whole pipeline makes no CSR product and
    builds no block CSR matrix."""
    tracing = load_perfbench(TRACING)
    space = mesh_fem.build_space(mesh_fem.build_mesh(4), 2)
    system, t_end = fom.brusselator_system(0.002), 0.8
    u0 = fom.perturbed_equilibrium(space)

    def pipeline():
        traj = fom.fom_integrate(system, space, u0, t_end / 4, t_end, 3)
        snaps, basis = pod.build_pod_basis(traj, 1.0, pod.W0_ZERO, pod.H10)
        romsys = rom.rom_assemble(basis, 4, space, system, snaps.mean)
        coords0 = rom.initial_coords(romsys, traj.states[0])
        return rom.rom_integrate(romsys, 3, t_end / 4, t_end, ("bootstrap", coords0))

    _, calls, updates = traced(tracing, pipeline)
    assert calls["pod.correlation_matrix"] == calls["rom.rom_assemble"] == 1
    assert calls["rom.rom_integrate"] == 1
    assert sum(updates) > 0
    csr = {name: n for name, n in calls.items() if name.startswith(("linalg.csr_matvec", "linalg.block_csr"))}
    assert not csr, csr
    assert calls["linalg.krylov_solve"] == calls["fom.FomOperator.jacobian"] > 0


def reads_text_back(node):
    """A use of ``mmio.read``: the attribute, or the name imported from mmio."""
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "mmio":
        return any(alias.name == "read" for alias in node.names) and "import of mmio.read"
    return isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "mmio" and node.attr == "read"


def test_no_stage_reads_text_back():
    """Stages hand data to each other in numpy's own format (fom.traj's
    states as one .npy): Matrix Market files are exports, and no module of
    the package parses one back."""
    assert_no_findings(reads_text_back)


#: the CSR stack, kept as the tests' assembled references: names read as a
#: name or an attribute, with ``assemble_reaction_*`` too
CSR_STACK = {"CsrMatrix", "csr_matvec", "block_csr", "assemble_elements", "assemble_mass", "assemble_stiffness"}


def csr_stack_holders(path):
    """The code that may use the CSR stack: linalg's "sparse storage"
    section and mesh_fem's ``assemble_*``, ``assemble_elements`` among them."""
    src = source(path)
    if path.name == "linalg.py":
        lines = path.read_text().splitlines()
        start = lines.index("# sparse storage")
        end = lines.index(lines[start + 1], start + 2)  # the next section's rule
        return [node for node in src.tree.body if start + 1 < node.lineno < end + 1]
    if path.name == "mesh_fem.py":
        return [func for name, func in src.functions.items() if name.startswith("assemble_")]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_csr_stack_is_a_leaf(path):
    """The pipeline forms no sparse matrix: the CSR stack stays in the package
    only as the tests' reference, so no code outside it uses it, and the
    stack can be deleted without touching another function."""
    holders = csr_stack_holders(path)
    assert holders or path.name not in ("linalg.py", "mesh_fem.py"), "the CSR stack's holders moved"
    fenced = within(*holders)

    def uses_the_stack(node):
        name = getattr(node, "id", getattr(node, "attr", None)) if isinstance(node, (ast.Name, ast.Attribute)) else ""
        return (name in CSR_STACK or name.startswith("assemble_reaction_")) and id(node) not in fenced and name

    assert_no_findings(uses_the_stack, [path])


#: the names of the refill plan, which kept a COO pattern to refill it
REFILL_PLAN = {"CooPlan", "coo_plan"}


def names_the_refill_plan(node):
    """A ``CooPlan`` or ``coo_plan`` read, or defined by a def, a class or
    an import, and a ``.plan`` attribute or method."""
    if isinstance(node, ast.Attribute):
        return (node.attr in REFILL_PLAN or node.attr == "plan") and f".{node.attr}"
    name = getattr(node, "id", getattr(node, "name", None))
    return (name in REFILL_PLAN or isinstance(node, FUNCTIONS) and name == "plan") and name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_coo_assembly(path):
    """Every CSR matrix of the package comes from one COO assembly: only
    ``CsrMatrix.from_coo`` constructs a ``CsrMatrix``, and no ``CooPlan``,
    ``coo_plan`` or ``.plan`` attribute or method remains."""
    assert "CsrMatrix.from_coo" in source(path).functions or path.name != "linalg.py", "CsrMatrix.from_coo moved"
    found = findings(
        lambda node: called(node) == "CsrMatrix" and "CsrMatrix(...)", [path], exclude="linalg.py:CsrMatrix.from_coo"
    ) + findings(names_the_refill_plan, [path])
    assert not found, found


@pytest.mark.parametrize("name", ["offline", "online", "sweep"])
def test_benchmark_workloads_run_on_a_small_mesh(name, tmp_path):
    """perfbench calls the package through its workloads, with the call
    forms they use fixed; a changed signature or a failed check must show
    here, not first in a benchmark run."""
    workloads = load_perfbench(WORKLOADS)

    class Small(workloads.WORKLOADS[name]):
        n_side = 4

    workload = Small(str(tmp_path))
    state = workload.setup(0.1)
    problems, _ = workload.check(state, workload.run(state))
    assert not problems, problems
