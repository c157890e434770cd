import ast
import importlib
import importlib.util
import keyword
import re
import sys
from pathlib import Path

import numpy as np

from bubblescreen import TimeGrid, laplace_solve
from bubblescreen.config import ExperimentConfig
from bubblescreen.effective import EffectiveSystem
from bubblescreen.experiments import build_scene
from bubblescreen.foldy import DelaySystem

ROOT = Path(__file__).resolve().parent.parent
TRACED_STAGE = ROOT / "perfbench" / "traced_stage.py"


def _traced_stage():
    spec = importlib.util.spec_from_file_location("traced_stage", TRACED_STAGE)
    traced_stage = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_stage)
    return traced_stage


def test_traced_stage_targets_resolve():
    # a target the package no longer has would record no benchmark spans
    traced_stage = _traced_stage()
    missing = []
    for targets, _ in traced_stage.TARGETS.values():
        for modname, attr in targets:
            holder = importlib.import_module(f"{traced_stage.PACKAGE}.{modname}")
            owner, _, name = attr.rpartition(".")
            if owner:
                holder = getattr(holder, owner, None)
            if holder is None or vars(holder).get(name) is None:
                missing.append(f"{modname}.{attr}")
    assert missing == []


def test_counter_readers_read_real_objects(params, disk_scene):
    # the traced benchmark reads these attributes after each span: a renamed
    # one would fail the traced pass only, so read them here on real objects
    traced_stage = _traced_stage()
    config = ExperimentConfig.load(ROOT / "configs" / "default.yaml")
    scene = build_scene(config, 1.0 / 64.0)
    assert traced_stage._scene_extra((config, 1.0 / 64.0), scene) == {
        "eps": 1.0 / 64.0, "bubbles": len(scene.cluster.centers),
        "nodes": len(scene.rule.nodes)}

    network = DelaySystem(disk_scene["cluster"], params, disk_scene["source"])
    grid = TimeGrid.fit(1.0, 0.05)
    trace = network.solve(grid)
    coupling, delay = network.block(0, network.n)
    assert traced_stage._march_extra((network, grid), trace) == {
        "n": len(network.masses), "steps": len(trace.times) - 1, "h": trace.h,
        "min_delay": delay[coupling != 0].min()}
    assert type(network.min_delay) is float

    rule = disk_scene["rule"]
    screen = EffectiveSystem(rule, params, disk_scene["source"])
    s, rhs = 1.0 + 3.0j, np.ones(rule.m, dtype=complex)
    extra = traced_stage._laplace_extra((screen, rule.weights, s, rhs),
                                        laplace_solve(screen, rule.weights, s, rhs))
    assert set(extra) == {"residual", "margin"}
    assert 0.0 <= extra["residual"] <= 1e-8 and extra["margin"] >= 0.0


def test_package_imports_only_declared_dependencies():
    # pyproject.toml declares numpy and PyYAML only: a module importing any
    # other installed package would fail on a clean install; _sha2, CPython's
    # builtin SHA-2 from 3.12 on, is standard there but unnamed before
    allowed = set(sys.stdlib_module_names) | {"numpy", "yaml", "bubblescreen", "_sha2"}
    stray = []
    for path in sorted((ROOT / "src" / "bubblescreen").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names
                      if name.partition(".")[0] not in allowed]
    assert stray == []


def test_declared_numpy_floor_provides_vecdot():
    # the plan's delayed sum reduces its rows with np.vecdot, which numpy
    # first shipped in 2.0: a lower declared floor admits a numpy whose first
    # march raises AttributeError
    assert "np.vecdot" in (ROOT / "src" / "bubblescreen" / "stepping.py").read_text()
    floor = re.search(r'"numpy>=(\d+)\.(\d+)', (ROOT / "pyproject.toml").read_text())
    assert floor is not None
    assert tuple(map(int, floor.groups())) >= (2, 0)
    assert hasattr(np, "vecdot")


def test_no_module_reaches_numpy_random():
    # importing numpy.random loads OpenSSL with it (bit_generator -> secrets
    # -> hmac -> _hashlib), about 6 MiB in every stage: the package draws
    # from the standard library's random.Random instead
    found = []
    for path in sorted((ROOT / "src" / "bubblescreen").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
            elif (isinstance(node, ast.Attribute) and node.attr == "random"
                  and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                names = [f"{node.value.id}.random"]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[:2] in (["numpy", "random"], ["np", "random"])]
    assert found == []


def test_no_module_imports_a_name_it_never_uses():
    # a deletion that leaves its import behind keeps a dead dependency; a name
    # listed in __all__ is used (re-exported)
    unused = []
    for path in sorted((ROOT / "src" / "bubblescreen").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_every_public_name_resolves():
    # a name left in __all__ after its object is gone breaks `import *`
    import bubblescreen
    assert [name for name in bubblescreen.__all__ if not hasattr(bubblescreen, name)] == []
    namespace = {}
    exec("from bubblescreen import *", namespace)
    assert set(bubblescreen.__all__) <= set(namespace)


def test_double_backtick_names_exist():
    # a docstring or comment that names ``a_name`` or ``module.a_name`` must
    # name something the package has: a module, a keyword, an identifier its
    # code defines or uses, or one of its word-like string literals (config
    # and counter keys); a name left behind by a deletion fails
    package = ROOT / "src" / "bubblescreen"
    known = set(keyword.kwlist) | {"bubblescreen"}
    texts = []
    for path in sorted(package.rglob("*.py")):
        known.add(path.stem)
        texts.append((path.name, path.read_text()))
        for node in ast.walk(ast.parse(texts[-1][1], filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                known.add(node.name)
            elif isinstance(node, ast.arg):
                known.add(node.arg)
            elif isinstance(node, ast.Name):
                known.add(node.id)
            elif isinstance(node, ast.Attribute):
                known.add(node.attr)
            elif isinstance(node, ast.alias):
                known.update((node.asname or node.name).split("."))
                known.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                known.update(re.findall(r"^\w+$", node.value))
    stale = [f"{name}: ``{ref}``" for name, text in texts
             for ref in re.findall(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)``", text)
             if not set(ref.split(".")) <= known]
    assert stale == []


def test_cq_states_no_model_and_only_sources_evaluates_the_pulse():
    # the CQ solves the march's own network, so it imports no module that
    # could state the screen a second time; u_in is written once, in
    # sources.incident_eval, the only caller of pulse_eval
    package = ROOT / "src" / "bubblescreen"
    imported = set()
    for node in ast.walk(ast.parse((package / "laplace_cq.py").read_text())):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "bubblescreen"):
            imported.update(alias.name for alias in node.names)   # from . import x
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.removeprefix("bubblescreen."))
        elif isinstance(node, ast.Import):
            imported.update(alias.name.removeprefix("bubblescreen.") for alias in node.names)
    assert imported <= {"__future__", "dataclasses", "numpy", "errors", "stepping"}
    callers = {path.name for path in package.rglob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call)
               and "pulse_eval" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))}
    assert callers == {"sources.py"}



def test_no_function_takes_an_order():
    # both models march U on the incident wave itself: no code path selects
    # a derivative of the pulse, so no function takes an ``order`` parameter
    found = []
    for path in sorted((ROOT / "src" / "bubblescreen").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [arg.arg for arg in (*args.posonlyargs, *args.args,
                                             *args.kwonlyargs, args.vararg, args.kwarg)
                         if arg is not None]
                if "order" in names:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []

def test_no_attribute_is_set_and_never_read():
    # an attribute a deletion leaves behind on self is state nothing uses;
    # reads count anywhere in the package or its tests, by attribute name
    package = ROOT / "src" / "bubblescreen"
    assigned, read = {}, set()
    for path in sorted(package.rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (path.is_relative_to(package) and isinstance(node.value, ast.Name)
                  and node.value.id == "self"):
                assigned.setdefault(node.attr, f"{path.name}:{node.lineno}")
    assert [f"{where}: self.{name}" for name, where in assigned.items()
            if name not in read] == []


def _pairwise_differences(tree):
    """Line numbers of the n x n difference builds in ``tree``: a
    ``subtract.outer``, or a subtraction of two operands indexed with a
    ``None`` axis each (``a[:, None] - b[None, :]``), by operator or by
    ``subtract``."""
    def new_axis(node):
        if not isinstance(node, ast.Subscript):
            return False
        parts = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return any((isinstance(p, ast.Constant) and p.value is None)
                   or getattr(p, "attr", None) == "newaxis" for p in parts)

    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "outer"
                and "subtract" in (getattr(node.value, "attr", None),
                                   getattr(node.value, "id", None))):
            lines.append(node.lineno)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            if new_axis(node.left) and new_axis(node.right):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and len(node.args) >= 2
              and "subtract" in (getattr(node.func, "attr", None),
                                 getattr(node.func, "id", None))
              and new_axis(node.args[0]) and new_axis(node.args[1])):
            lines.append(node.lineno)
    return lines


def test_only_the_distance_kernel_builds_pairwise_differences():
    # geometry.distance_rows computes the rows it is asked for; any other
    # function that builds the differences of all pairs holds an n x n array
    package = ROOT / "src" / "bubblescreen"
    tree = ast.parse((package / "geometry.py").read_text())
    kernel = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "distance_rows")
    inside = range(kernel.lineno, kernel.end_lineno + 1)
    assert [line for line in _pairwise_differences(tree) if line in inside]
    stray = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}:{line}" for line in _pairwise_differences(tree)
                  if path.name != "geometry.py" or line not in inside]
    assert stray == []


def _coupled_listings(tree):
    """Line numbers of the calls in ``tree`` that list the entries of a
    coupling matrix: ``nonzero``, ``flatnonzero`` or ``argwhere`` of an
    expression that names ``coupling`` or its mask ``coupled``, as a
    function or as a method."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and {"nonzero", "flatnonzero", "argwhere"} & {getattr(node.func, "attr", None),
                                                          getattr(node.func, "id", None)}
            and {"coupling", "coupled"} & {name for sub in ast.walk(node)
                                           for name in (getattr(sub, "attr", None),
                                                        getattr(sub, "id", None))}]


def test_only_the_stage_split_lists_the_coupled_pairs():
    # a network answers for blocks of rows and sets of keys: the plan's one
    # pass over its rows, stepping._StagePlan.__init__, which collects the near
    # entries, is the one function that lists coupled entries, and no code
    # reads a pair list's i, j, c or tau from a network
    package = ROOT / "src" / "bubblescreen"
    tree = ast.parse((package / "stepping.py").read_text())
    plan = next(node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef) and node.name == "_StagePlan")
    split = next(node for node in plan.body
                 if isinstance(node, ast.FunctionDef) and node.name == "__init__")
    inside = range(split.lineno, split.end_lineno + 1)
    assert [line for line in _coupled_listings(tree) if line in inside]
    stray = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stray += [f"{path.name}:{line}" for line in _coupled_listings(tree)
                  if path.name != "stepping.py" or line not in inside]
        stray += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in {"i", "j", "c", "tau"}]
    assert stray == []



def _calls(tree, name):
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def _callers(tree, name, scope=""):
    """Qualified names of the functions and methods in ``tree`` that call
    ``name``, one entry per call."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            found += _callers(node, name, f"{scope}{node.name}.")
        elif isinstance(node, ast.FunctionDef):
            found += [scope + node.name] * len(_calls(node, name))
    return found


def test_distance_kernel_has_two_callers():
    # the row kernel serves the validation's blocks (pairwise_distances, for
    # max_anchor_sums alone) and the retarded network's blocks; its per-pair
    # form serves the network's entries: placement and everything else
    # measure nothing
    callers = {"distance_rows": [], "pairwise_distances": [], "pair_distances": []}
    for path in sorted((ROOT / "src" / "bubblescreen").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for kernel, found in callers.items():
            found += [f"{path.stem}.{name}" for name in _callers(tree, kernel)]
    assert callers == {"distance_rows": ["geometry.pairwise_distances",
                                         "stepping.RetardedNetwork.block"],
                       "pairwise_distances": ["geometry.max_anchor_sums"],
                       "pair_distances": ["stepping.RetardedNetwork.entries"]}


def test_only_the_network_classes_read_how_a_network_stores_its_pairs():
    # every other reader asks a network for a block of rows or a set of
    # keys, so a network that holds no matrix serves them all
    methods = {"stepping.DelayNetwork", "stepping.RetardedNetwork"}
    stray = []
    for path in sorted((ROOT / "src" / "bubblescreen").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = set()
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and f"{path.stem}.{node.name}" in methods:
                inside |= {sub for item in node.body if isinstance(item, ast.FunctionDef)
                           for sub in ast.walk(item)}
        stray += [f"{path.name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr in {"coupling", "delay"}
                  and node not in inside]
    assert stray == []


def test_hermite_weights_has_two_callers():
    # one Hermite formula per kind of read: the trace's interpolation on the
    # full cells and the march's delayed reads on the plan's half cells,
    # which the plan's activation and the near pairs both take from
    # _entry_weights
    callers = []
    for path in sorted((ROOT / "src" / "bubblescreen").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        callers += [f"{path.stem}.{name}" for name in _callers(tree, "_hermite_weights")]
    assert sorted(callers) == ["stepping.Trace._interp", "stepping._entry_weights"]


def test_sphere_partition_and_placement_visit_no_patch_in_turn():
    # both build every patch or bubble from arrays: neither holds a loop or
    # a comprehension (the collar counts' carry runs in _collar_counts)
    tree = ast.parse((ROOT / "src" / "bubblescreen" / "geometry.py").read_text())
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = {node.name: [type(sub).__name__ for sub in ast.walk(node) if isinstance(sub, loops)]
             for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name in ("_partition_sphere", "place_bubbles")}
    assert found == {"_partition_sphere": [], "place_bubbles": []}


def test_disk_partition_loops_only_over_the_capacity_pick():
    # the lattice, the clipped areas and every sliver's candidates come from
    # arrays: the one loop left is the capacity pick, one step per sliver,
    # sequential since each pick depends on the merges before it
    tree = ast.parse((ROOT / "src" / "bubblescreen" / "geometry.py").read_text())
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    (node,) = [node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_partition_disk"]
    assert [type(sub).__name__ for sub in ast.walk(node) if isinstance(sub, loops)] == ["For"]
