"""Source hygiene: no module in the package imports a name it never uses,
no function assigns a local name it never reads, no module (nor
perfbench's workloads) imports or reads another module's underscored
names, no module reads an environment variable, no module but ``fom``
reads a system's forcing terms or exponent table, no function but the
snapshot builders takes tau or the w0 mode, both models' Newton loops use
none of numpy's dispatch-heavy forms of their kernels (``@`` and np.dot
among them), the ROM's per-candidate closures allocate no array,
harness formats a table value in ``write_csv`` alone, only
``_main_loop_maxima`` names a study's ``_step`` key, each run rule's
message is written in one function, the Newton rule reaches the time loop
as data, a POD basis's
inner product is set by its name alone, only the BDF first-difference
form and the ROM's linearisation read the first-difference weights, the
mesh and the space are built without a loop, no module reads a Matrix
Market file back, only ``CsrMatrix.from_coo`` constructs a CSR matrix,
the online CLI stage reaches no trajectory load, mesh, POD or ROM
assembly, a step reads only the reduced system, only the config's
``reaction_system`` looks a system up in ``SYSTEMS``, only ``RunConfig``
spells the keys of a reduced file's record, every target that
perfbench's tracer wraps still exists, the time loop's work passes
through the traced names, and perfbench's workloads still run.

Names imported from ``__future__`` and names a module lists in ``__all__``
(a deliberate re-export) are exempt. A name counts as used when it appears
as an identifier anywhere in the module, including string annotations.
"""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

import podrom
from podrom import bdf, fom, mesh_fem, pod, rom

MODULES = sorted(Path(podrom.__file__).parent.glob("*.py"))
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def imported_names(tree):
    """{bound name: line} for every import statement of the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            # a quoted annotation such as "CsrMatrix" names its type in a string
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expr = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return used


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    lines = imported_names(tree)
    unused = set(lines) - used_names(tree) - exported_names(tree)
    assert not unused, ", ".join(f"{name} (line {lines[name]})" for name in sorted(unused))


def is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def defined_names(tree):
    """Every name the module binds itself: functions, classes, parameters,
    assigned names and assigned attributes (``self._x = ...``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def foreign_private_names(tree):
    """Imports of another module's underscored names, and reads of
    underscored attributes that the module itself does not define."""
    own = defined_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if is_private(alias.name):
                    yield f"import of {node.module}.{alias.name} (line {node.lineno})"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if any(is_private(part) for part in alias.name.split(".")):
                    yield f"import of {alias.name} (line {node.lineno})"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and is_private(node.attr)
            and node.attr not in own
        ):
            yield f"read of .{node.attr} (line {node.lineno})"


@pytest.mark.parametrize("path", [*MODULES, WORKLOADS], ids=lambda p: p.name)
def test_no_reaching_into_private_names(path):
    """A module uses what other modules make public: a private name that
    another module needs is part of its interface and loses the underscore."""
    found = list(foreign_private_names(ast.parse(path.read_text())))
    assert not found, ", ".join(found)


ENVIRONMENT_READERS = {"environ", "getenv"}


def environment_reads(tree):
    """Reads of os.environ and calls of os.getenv, by attribute or by a
    ``from os import`` of the name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ENVIRONMENT_READERS:
                    yield f"import of os.{alias.name} (line {node.lineno})"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENVIRONMENT_READERS
        ):
            yield f"os.{node.attr} (line {node.lineno})"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    """Every setting comes from the config or the command line, where it is
    validated and documented; none hides in the environment."""
    found = list(environment_reads(ast.parse(path.read_text())))
    assert not found, ", ".join(found)


def attribute_uses(path, attr):
    """Every use of ``.attr`` in the module at ``path``, by line."""
    return [
        f".{attr} (line {node.lineno})"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == attr
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fom.py"], ids=lambda p: p.name)
def test_only_the_system_reads_its_forcing(path):
    """The forcing's term format has one owner, ``fom.ReactionSystem``: other
    modules use its ``loads`` and ``amplitudes``, never ``.forcing``."""
    found = attribute_uses(path, "forcing")
    assert not found, ", ".join(found)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "fom.py"], ids=lambda p: p.name)
def test_only_the_system_reads_its_exponents(path):
    """A reaction's exponent table is ``fom.ReactionSystem``'s input only:
    other modules read its monomials as ``factors``, never ``.exponents``."""
    found = attribute_uses(path, "exponents")
    assert not found, ", ".join(found)


SNAPSHOT_SETTINGS = {"tau", "w0_mode"}
SNAPSHOT_BUILDERS = {("pod.py", "build_snapshots"), ("pod.py", "build_pod_basis")}


def snapshot_setting_parameters(path):
    """Every parameter named ``tau`` or ``w0_mode`` of a function in the
    module at ``path``, outside the snapshot builders."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            if (path.name, name) in SNAPSHOT_BUILDERS:
                continue
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg is not None and arg.arg in SNAPSHOT_SETTINGS:
                    yield f"{name}: {arg.arg} (line {node.lineno})"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_snapshot_builders_take_its_settings(path):
    """tau and the w0 mode are set once, when ``pod.build_snapshots`` (or
    ``pod.build_pod_basis`` through it) builds a snapshot set: code after
    that reads them from the set, never from a restated argument."""
    found = list(snapshot_setting_parameters(path))
    assert not found, ", ".join(found)


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


def functions_by_qualified_name(tree):
    """{name: node} for the module's functions and its classes' methods,
    a method as ``Class.method``."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found[f"{node.name}.{item.name}"] = item
    return found


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
    path = Path(podrom.__file__).parent / module
    func = functions_by_qualified_name(ast.parse(path.read_text())).get(name)
    assert func is not None, f"{module}: {name} no longer exists"
    found = [
        f"{name}: {ast.unparse(node.func)} (line {node.lineno})"
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and ast.unparse(node.func) in DISPATCH_HEAVY
    ] + [
        f"{name}: {ast.unparse(node)} (line {node.lineno})"
        for node in ast.walk(func)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert not found, ", ".join(found)


#: the numpy calls that make a new array from nothing or from other arrays;
#: ``.copy()`` is matched as a method
ARRAY_CONSTRUCTORS = {
    "np.empty", "np.zeros", "np.ones", "np.eye", "np.identity", "np.full", "np.array",
    "np.empty_like", "np.zeros_like", "np.ones_like", "np.vstack", "np.hstack", "np.stack",
    "np.concatenate", "np.ascontiguousarray",
}


@pytest.mark.parametrize("name", ["linearise", "solve"])
def test_a_rom_candidate_allocates_no_array(name):
    """The ROM's per-candidate closures in ``rom_linearisation``, ``linearise``
    and ``solve``, call no array constructor and no ``.copy()``: the block
    (S^T; K^T; fixed), z = (1, c, d, 1) and the Jacobian buffer are formed
    once per run and written in place, so the layout stays per run."""
    outer = functions_by_qualified_name(ast.parse((Path(podrom.__file__).parent / "rom.py").read_text()))
    closures = [
        node
        for node in ast.walk(outer["rom_linearisation"])
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    assert len(closures) == 1, f"rom.py: rom_linearisation has {len(closures)} closures named {name}"
    found = [
        f"{name}: {ast.unparse(node.func)} (line {node.lineno})"
        for node in ast.walk(closures[0])
        if isinstance(node, ast.Call)
        and (ast.unparse(node.func) in ARRAY_CONSTRUCTORS or getattr(node.func, "attr", None) == "copy")
    ]
    assert not found, ", ".join(found)


def test_the_rom_factors_only_through_dense_lu_solve():
    """Every dense factor of the ROM goes through the guarded
    ``linalg.dense_lu_solve``, so a singular Jacobian raises its one
    SingularMatrixError and the tracer counts every factor: rom.py names
    nothing of ``np.linalg``, by attribute or by import."""
    found = []
    for node in ast.walk(ast.parse((Path(podrom.__file__).parent / "rom.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            names = [ast.unparse(node)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [
            f"{name} (line {node.lineno})"
            for name in names
            if name in ("np.linalg", "numpy.linalg") or name.startswith(("np.linalg.", "numpy.linalg."))
        ]
    assert not found, ", ".join(found)


def harness_string_holders(matches):
    """The "function (line n)" of each string literal of harness.py that
    ``matches``, docstrings aside: a bare string statement does nothing."""
    tree = ast.parse((Path(podrom.__file__).parent / "harness.py").read_text())
    skip = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)}
    return {
        f"{getattr(top, 'name', '<module>')} (line {node.lineno})"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and matches(node.value) and id(node) not in skip
    }


def test_only_write_csv_formats_a_table_value():
    """harness formats a table value in ``write_csv`` alone: a .6g format
    spec (an f-string's, ``format``'s or a %-format's) anywhere else in
    harness.py would be a second path that a table could drift along."""
    holders = harness_string_holders(lambda text: ".6g" in text)
    assert holders and all(h.startswith("write_csv ") for h in holders), ", ".join(sorted(holders))


def test_only_the_maxima_helper_names_a_step_key():
    """A study row takes each pointwise-in-time maximum and its step from
    ``_main_loop_maxima``: a string ending in ``_step`` anywhere else in
    harness.py would be a second, hand-written (maximum, step) pair."""
    holders = harness_string_holders(lambda text: text.endswith("_step"))
    assert holders and all(h.startswith("_main_loop_maxima ") for h in holders), ", ".join(sorted(holders))


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
    holders = set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        functions = functions_by_qualified_name(tree)
        owner = {id(n): name for name, func in functions.items() for n in ast.walk(func)}
        holders.update(
            f"{path.name}:{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and text in node.value
        )
    assert holders == {RULE_MESSAGES[text]}, ", ".join(sorted(holders))


#: the functions that run the BDF-q loop, or a model or a study on it, whose
#: last parameter is the Newton rule itself, which ``bdf.newton_tolerance`` resolves
RULE_TAKERS = {
    "bdf.py": ("integrate", "run_bootstrap"),
    "fom.py": ("fom_integrate",),
    "rom.py": ("rom_integrate",),
    "harness.py": ("temporal_convergence_study", "r_refinement_study"),
}


def tolerance_callables(path):
    """Every function or lambda of the module at ``path`` whose parameters
    are exactly (order, step): a tolerance callable, built or taken."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            if [a.arg for a in node.args.args] == ["order", "step"]:
                yield f"{getattr(node, 'name', 'lambda')} (line {node.lineno})"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_newton_rule_is_data(path):
    """The Newton rule reaches the time loop as data, "step-coupled" or a
    number, and only ``bdf.newton_tolerance`` turns it into a tolerance: no
    module builds a ``tol(order, step)`` callable, and the loop's functions,
    both models' integrators and the studies take the rule as their last
    parameter, under one name, ``newton_rule``."""
    found = list(tolerance_callables(path))
    functions = functions_by_qualified_name(ast.parse(path.read_text()))
    found += [
        f"{name} takes {functions[name].args.args[-1].arg} last"
        for name in RULE_TAKERS.get(path.name, ())
        if functions[name].args.args[-1].arg != "newton_rule"
    ]
    assert not found, ", ".join(found)


#: the inner products' names, as ``pod`` binds them and as their string values
INNER_PRODUCT_NAMES = {"H10", "L2"}


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
    tree = ast.parse(path.read_text())
    functions = functions_by_qualified_name(tree)
    owner = {id(n): name for name, func in functions.items() for n in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        where = f"{path.name}:{owner.get(id(node), '<module>')}"
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "PodBasis":
            if where != "pod.py:pod_basis":
                found.append(f"PodBasis(...) in {where} (line {node.lineno})")
        elif isinstance(node, ast.Compare) and where != "pod.py:gram_matrix":
            operands = [node.left, *node.comparators]
            if any(names_an_inner_product(n) for operand in operands for n in ast.walk(operand)):
                found.append(f"{ast.unparse(node)} in {where} (line {node.lineno})")
    if path.name == "pod.py":
        for name in ("pod_basis", "build_pod_basis"):
            args = functions[name].args
            if args.defaults or any(d is not None for d in args.kw_defaults):
                found.append(f"{name} has a parameter default")
    assert not found, ", ".join(found)


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


def package_functions():
    """{bare name: function nodes} over the package: functions, methods and
    nested functions, each under its own name."""
    found = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.setdefault(node.name, []).append(node)
    return found


def reached_calls(name, functions):
    """The bare name of every call that the package function ``name`` makes,
    directly or through package functions it calls, matched by bare name."""
    seen, todo = set(), [name]
    while todo:
        for func in functions.get(todo.pop(), []):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    called = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if called not in seen:
                        seen.add(called)
                        todo.append(called)
    return seen


@pytest.mark.parametrize("command", ["cmd_rom", "cmd_convergence"])
def test_the_online_stage_reads_only_reduced_data(command):
    """``rom`` and ``convergence`` run from ``podrom pod``'s reduced system:
    no call they reach loads a trajectory, builds a mesh or a space, runs a
    POD or assembles a ROM, so their cost depends on r, not on the mesh."""
    functions = package_functions()
    assert command in functions, f"cli.py: {command} no longer exists"
    found = reached_calls(command, functions) & OFFLINE_WORK
    assert not found, ", ".join(sorted(found))


@pytest.mark.parametrize(
    "module, name", [(m, n) for m, names in STEP_SIDE.items() for n in names], ids=lambda v: v
)
def test_a_step_reads_only_the_reduced_system(module, name):
    """The step side takes a ``ReducedSystem`` and reads none of the basis,
    the lift, the space or the modes, which only a ``RomSystem`` holds."""
    path = Path(podrom.__file__).parent / module
    func = functions_by_qualified_name(ast.parse(path.read_text()))[name]
    annotation = ast.unparse(func.args.args[0].annotation)
    found = [] if annotation == "ReducedSystem" else [f"takes a {annotation}"]
    found += [
        f".{node.attr} (line {node.lineno})"
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr in LIFTING
    ]
    assert not found, ", ".join(found)


def subscript_holders(path, name):
    """"module:function (line n)" of each subscript of ``name`` (bare or as an
    attribute) in the module, a method as ``Class.method``, a nested function
    under its enclosing one, and ``<module>`` outside any function."""
    tree = ast.parse(path.read_text())
    functions = functions_by_qualified_name(tree).items()
    owners = {id(node): qual for qual, func in functions for node in ast.walk(func)}
    return [
        f"{path.name}:{owners.get(id(node), '<module>')} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and name in (getattr(node.value, "id", None), getattr(node.value, "attr", None))
    ]


def test_the_config_builds_its_one_reaction_system():
    """``SYSTEMS`` is subscripted in ``RunConfig.reaction_system`` alone: every
    stage, check and record takes the configured system from the config, so
    no second lookup can build it from another name or nu."""
    holders = [holder for path in MODULES for holder in subscript_holders(path, "SYSTEMS")]
    assert len(holders) == 1 and holders[0].startswith("harness.py:RunConfig.reaction_system "), ", ".join(holders)


#: the settings a reduced file records beyond the FOM run's
POD_RECORD_KEYS = {"tau", "w0_mode", "inner_product"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_config_states_its_record_once(path):
    """What a hand-off records is stated once, by ``RunConfig.record``: a
    tuple, list, set or dict literal that spells tau, w0_mode or
    inner_product outside ``RunConfig`` would be a second statement of the
    record, which a writer or a check could follow instead."""
    tree = ast.parse(path.read_text())
    functions = functions_by_qualified_name(tree)
    owner = {id(n): name for name, func in functions.items() for n in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        spelled = node.keys if isinstance(node, ast.Dict) else getattr(node, "elts", ())
        if any(isinstance(e, ast.Constant) and e.value in POD_RECORD_KEYS for e in spelled):
            where = owner.get(id(node), "<module>")
            if not where.startswith("RunConfig."):
                found.append(f"{where} (line {node.lineno})")
    assert not found, ", ".join(found)


#: the functions that may read a scheme's first-difference weights: the form
#: both models step with, and the ROM's per-step term, which applies it to the
#: history once per step
FIRST_DIFFERENCE_READERS = {"bdf.py:bdf_increment_form", "rom.py:rom_linearisation"}


def test_one_first_difference_form():
    """BDF-q is written as first-order difference quotients in one place: a
    function that reads ``alpha_f`` outside ``FIRST_DIFFERENCE_READERS``
    would be a second copy of the form, one that neither model steps with."""
    readers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text())
        functions = functions_by_qualified_name(tree)
        owner = {id(n): name for name, func in functions.items() for n in ast.walk(func)}
        readers.update(
            f"{path.name}:{owner.get(id(node), '<module>')}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr == "alpha_f"
        )
    assert readers == FIRST_DIFFERENCE_READERS, ", ".join(sorted(readers))


#: the set-up every stage starts from, built by index arithmetic alone
LOOP_FREE = ("build_mesh", "build_space")


@pytest.mark.parametrize("name", LOOP_FREE)
def test_set_up_has_no_loop(name):
    """The mesh and the space are built without a Python loop over cells or
    edges: no ``for``, ``while`` or comprehension in ``mesh_fem``'s builders."""
    path = Path(mesh_fem.__file__)
    func = functions_by_qualified_name(ast.parse(path.read_text())).get(name)
    assert func is not None, f"mesh_fem.py: {name} no longer exists"
    found = [
        f"{name}: {type(node).__name__} (line {getattr(node, 'lineno', func.lineno)})"
        for node in ast.walk(func)
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
    ]
    assert not found, ", ".join(found)


def unread_locals(func):
    """Names ``func`` assigns but never reads, reads by nested functions
    included. ``_``, and names declared global or nonlocal, are exempt."""
    stored, read, declared = set(), set(), {"_"}
    for node in ast.walk(func):
        if isinstance(node, ast.Name):
            (read if isinstance(node.ctx, ast.Load) else stored).add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return stored - read - declared


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_locals(path):
    tree = ast.parse(path.read_text())
    found = [
        f"{node.name}: {name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for name in sorted(unread_locals(node))
    ]
    assert not found, ", ".join(found)


def load_perfbench(path):
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracing():
    return load_perfbench(TRACING)


def test_tracer_finds_every_target():
    """A traced target that no longer resolves drops its per-layer metrics
    from the benchmark's result line, so deleting or renaming one must be a
    deliberate change to the benchmark, made together with it."""
    tracing = load_tracing()
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


def held_factor_jacobians(updates, run_steps):
    """The fresh inverse Jacobians (one ``dense_lu_solve`` each) the ROM forms
    under ``bdf.implicit_step``'s rule, from the Newton updates per step in
    call order, run by run (``run_steps`` steps each): each update after a
    step's first forms one (a fresh update after a discarded first one
    too), and a run's first update forms one, when no inverse is held yet;
    every other first update refines the held one; a step of 0 updates
    forms none."""
    jacobians, start = 0, 0
    for steps in run_steps:
        run = updates[start : start + steps]
        jacobians += sum(k - 1 for k in run if k) + any(run)
        start += steps
    assert start == len(updates)
    return jacobians


def test_tracer_counts_every_linearisation():
    """perfbench reads the model's work from the traced names: a time loop
    that bypassed rom_residual, FomOperator.residual or implicit_step would
    report fewer calls there, and 0 implicit_step calls fail a traced unit.
    Each model's Newton solve forms one Jacobian per update. The FOM runs
    one linear solve per Jacobian; the ROM one dense factor per fresh
    inverse, as many as the rule implies for the run, and refines its held
    inverse for every other update. A bootstrapped run is one run_bootstrap
    span, so its time is one wall time."""
    tracing = load_tracing()
    space = mesh_fem.build_space(mesh_fem.build_mesh(4), 2)
    system = fom.brusselator_system(0.002)
    q, m, t_end = 3, 8, 1.6
    dt = t_end / m
    u0 = fom.perturbed_equilibrium(space)

    traj, calls, updates = traced(tracing, lambda: fom.fom_integrate(system, space, u0, dt, t_end, q))
    steps = sum(count for _, _, count in bdf.bootstrap_plan(q, dt)) + m - q + 1
    assert calls["bdf.implicit_step"] == len(updates) == steps
    assert calls["fom.FomOperator.residual"] == sum(updates) + steps
    assert calls["fom.FomOperator.jacobian"] == sum(updates) > 0
    assert calls["linalg.krylov_solve"] == calls["fom.FomOperator.jacobian"]
    assert calls["bdf.run_bootstrap"] == 1

    snaps, basis = pod.build_pod_basis(traj, 1.0, pod.W0_ZERO, pod.H10)
    romsys = rom.rom_assemble(basis, 4, space, system, snaps.mean)
    coords0 = rom.initial_coords(romsys, traj.states[0])
    rt, calls, updates = traced(
        tracing, lambda: rom.rom_integrate(romsys, q, dt, t_end, ("bootstrap", coords0))
    )
    assert updates == [*rt.bootstrap_iteration_counts, *rt.newton_iteration_counts]
    assert calls["bdf.implicit_step"] == len(updates) == steps
    assert calls["rom.rom_residual"] == sum(updates) + steps
    run_steps = [count for _, _, count in bdf.bootstrap_plan(q, dt)] + [m - q + 1]
    assert calls["rom.rom_jacobian"] == sum(updates)
    assert calls["linalg.dense_lu_solve"] == held_factor_jacobians(updates, run_steps) > 0
    assert calls["bdf.run_bootstrap"] == 1


def test_fom_newton_operator_assembles_no_matrix():
    """The FOM's Newton operator is matrix-free: a traced run on a fresh
    space makes no CSR product (the Jacobian, BiCGStab's products and the
    residual all work on the element data), and exactly one BiCGStab solve
    per Jacobian. The POD and the ROM after it apply the space's element
    mass and stiffness too: the whole pipeline makes no CSR product and
    builds no block CSR matrix."""
    tracing = load_tracing()
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


def text_reads(tree):
    """Uses of ``mmio.read``: the attribute, or the name imported from mmio."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "mmio":
            if any(alias.name == "read" for alias in node.names):
                yield f"import of mmio.read (line {node.lineno})"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "mmio"
            and node.attr == "read"
        ):
            yield f"mmio.read (line {node.lineno})"


def test_no_stage_reads_text_back():
    """Stages hand data to each other in numpy's own format (fom.traj's
    states as one .npy): Matrix Market files are exports, and no module of
    the package parses one back."""
    found = [f"{path.name}: {use}" for path in MODULES for use in text_reads(ast.parse(path.read_text()))]
    assert not found, ", ".join(found)


#: the CSR stack, kept as the tests' assembled references: names read as a
#: name or an attribute, with ``assemble_reaction_*`` too
CSR_STACK = {"CsrMatrix", "csr_matvec", "block_csr", "assemble_elements", "assemble_mass", "assemble_stiffness"}


def csr_stack_holders(path, tree):
    """ids of the nodes that may use the CSR stack: those of linalg's "sparse
    storage" section and of mesh_fem's ``assemble_*``, ``assemble_elements``
    among them."""
    if path.name == "linalg.py":
        lines = path.read_text().splitlines()
        start = lines.index("# sparse storage")
        end = lines.index(lines[start + 1], start + 2)  # the next section's rule
        holders = [node for node in tree.body if start + 1 < node.lineno < end + 1]
    elif path.name == "mesh_fem.py":
        holders = [
            func for name, func in functions_by_qualified_name(tree).items()
            if name.startswith("assemble_")
        ]
    else:
        holders = []
    return {id(n) for holder in holders for n in ast.walk(holder)}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_the_csr_stack_is_a_leaf(path):
    """The pipeline forms no sparse matrix: the CSR stack stays in the package
    only as the tests' reference, so no code outside it uses it, and the
    stack can be deleted without touching another function."""
    tree = ast.parse(path.read_text())
    holders = csr_stack_holders(path, tree)
    assert holders or path.name not in ("linalg.py", "mesh_fem.py"), "the CSR stack's holders moved"
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        else:
            continue
        fenced = name in CSR_STACK or name.startswith("assemble_reaction_")
        if fenced and id(node) not in holders:
            found.append(f"{name} (line {node.lineno})")
    assert not found, ", ".join(found)


#: the names of the refill plan, which kept a COO pattern to refill it
REFILL_PLAN = {"CooPlan", "coo_plan"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_coo_assembly(path):
    """Every CSR matrix of the package comes from one COO assembly: only
    ``CsrMatrix.from_coo`` constructs a ``CsrMatrix``, and no ``CooPlan``,
    ``coo_plan`` or ``.plan`` attribute or method remains."""
    tree = ast.parse(path.read_text())
    functions = functions_by_qualified_name(tree)
    from_coo = functions.get("CsrMatrix.from_coo")
    assert from_coo or path.name != "linalg.py", "CsrMatrix.from_coo moved"
    inside = {id(n) for n in ast.walk(from_coo)} if from_coo else set()
    found = [f"method {name}" for name in functions if name.endswith(".plan")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "CsrMatrix":
            if id(node) not in inside:
                found.append(f"CsrMatrix(...) (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and (node.attr in REFILL_PLAN or node.attr == "plan"):
            found.append(f".{node.attr} (line {node.lineno})")
        else:
            # a name read, or defined by a def, a class or an import
            name = getattr(node, "id", getattr(node, "name", None))
            if name in REFILL_PLAN:
                found.append(f"{name} (line {node.lineno})")
    assert not found, ", ".join(found)


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
