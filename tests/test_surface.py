"""Every public name of the library has a caller outside the test suite, and
every defaulted parameter is passed by one; the benchmark's tracer finds the
names it wraps."""

import ast
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Public names whose only callers are tests.
ALLOWED_UNUSED = {
    "sufficient_condition",  # the paper's sufficient stability condition
    "necessary_condition",  # the paper's necessary stability condition
    "asymptotic_band_check",  # the paper's asymptotic bands, checked by simulation
    "exact_p_sigma_k3",  # the paper's exact three-node robustness probability
    "save_allocation",  # writes the allocation format that ``inspect --file`` reads
}

#: Defaulted parameters, as ``function.parameter``, that no call outside the
#: test suite passes.
ALLOWED_UNPASSED = {
    "sufficient_condition.r_gap",  # the paper's sufficient condition for generic r-gap designs
    "necessary_condition.r_gap",  # the paper's necessary condition for generic r-gap designs
    "predict_d_choice.c",  # the paper's replica band in the regime d = c log n
    "predict_xor.c",  # the paper's XOR band in the regime d = c log n
    "p_sigma_transition.c",  # the paper's transition thresholds in the regime d = c log n
}


def _definitions(tree: ast.Module):
    """(name, statement) of each top-level public function, class and constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        yield from ((name, stmt) for name in names if not name.startswith("_"))


def _references(nodes) -> set[str]:
    """Every name read as a ``Name`` or an ``Attribute`` within the nodes."""
    walked = (node for top in nodes for node in ast.walk(top))
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in walked if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_public_name_has_a_non_test_caller():
    src = {p: ast.parse(p.read_text()) for p in sorted((ROOT / "src/storagebalance").glob("*.py"))}
    outside = [ast.parse(p.read_text())
               for folder in ("scripts", "perfbench") for p in (ROOT / folder).glob("*.py")]
    unused = []
    for path, tree in src.items():
        others = [t for p, t in src.items() if p != path and p.name != "__init__.py"]
        used = _references(others + outside) | ALLOWED_UNUSED
        for name, stmt in _definitions(tree):
            if name not in used | _references(s for s in tree.body if s is not stmt):
                unused.append(f"{path.name}:{name}")
    assert unused == [], f"public names only tests call: {unused}"


def test_every_family_builder_reads_only_config_fields():
    # ``Family.build_with`` passes a builder the config fields its
    # parameters name, and ``cli`` notes the ones among d, r and m it skips
    from storagebalance.loadsolver import FAMILIES

    for kind, family in FAMILIES.items():
        assert set(inspect.signature(family.build).parameters) <= {"n", "d", "r", "m"}, kind


def _defaulted_parameters(tree: ast.Module):
    """(function, parameter, position or None if keyword-only) of each
    defaulted parameter of a top-level public function."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            args = stmt.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for pos in range(first, len(positional)):
                yield stmt.name, positional[pos].arg, pos
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield stmt.name, arg.arg, None


def _passed_arguments(trees) -> set[tuple[str, object]]:
    """(called name, keyword or position) of every argument of every call."""
    passed = set()
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            passed |= {(name, pos) for pos in range(len(node.args))}
            passed |= {(name, kw.arg) for kw in node.keywords if kw.arg is not None}
    return passed


def test_every_optional_parameter_is_passed():
    def parse(folder):
        return [ast.parse(p.read_text()) for p in sorted((ROOT / folder).rglob("*.py"))]

    src = parse("src")
    passed = _passed_arguments(src + parse("scripts") + parse("perfbench"))
    unpassed = [
        f"{func}.{param}"
        for tree in src
        for func, param, pos in _defaulted_parameters(tree)
        if not {(func, param), (func, pos)} & passed and f"{func}.{param}" not in ALLOWED_UNPASSED
    ]
    assert unpassed == [], f"defaulted parameters no call outside the tests passes: {unpassed}"


def _unread_imports(tree: ast.Module) -> list[str]:
    """Names an import binds that the module never reads, by line.

    A name listed in the module's ``__all__`` counts as read.
    """
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_every_imported_name_is_read():
    unread = {}
    for folder in ("src", "tests", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            names = _unread_imports(ast.parse(path.read_text()))
            if names:
                unread[str(path.relative_to(ROOT))] = names
    assert unread == {}, f"imported names never read: {unread}"


def test_every_exported_name_resolves():
    # a name deleted from its module but left in ``__all__`` breaks
    # ``from storagebalance import *`` and nothing else
    import storagebalance

    missing = [name for name in storagebalance.__all__ if not hasattr(storagebalance, name)]
    assert missing == [], f"names in __all__ that the package lacks: {missing}"


def _imported_modules(tree: ast.Module):
    """(module, line) of every module an import statement names, with each
    ``from package import name`` also as ``package.name``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module, node.lineno
            yield from ((f"{node.module}.{alias.name}", node.lineno) for alias in node.names)


def test_no_source_module_imports_scipy_optimize():
    # HiGHS's core module is loaded alone by loadsolver._highs_core; importing
    # it, or anything else in scipy.optimize, by name runs all of
    # scipy/optimize/__init__.py
    found = [
        f"{path.relative_to(ROOT)}:{line} {module}"
        for path in sorted((ROOT / "src").rglob("*.py"))
        for module, line in _imported_modules(ast.parse(path.read_text()))
        if module == "scipy.optimize" or module.startswith("scipy.optimize.")
    ]
    assert found == [], f"imports of scipy.optimize: {found}"


#: Package names that the benchmark's cross-check call wraps, with the
#: parameters that its span notes bind by name.
TRACED_NAMES = {
    ("cli", "estimate_metrics"): {"alloc", "trials"},
    ("metrics", "t_star_batch"): set(),
    ("metrics", "spacing_matrix"): {"k", "master_seed", "trials", "start_index"},
    ("limitlaws", "spacing_matrix"): {"k", "master_seed", "trials", "start_index"},
}

#: The tracer's patches that find nothing in the package today, so record no
#: span (ROADMAP item 1): ``cli`` builds no routing matrices, and limitlaws
#: takes its window maxima from ``spacings.WindowMaxima``.
UNRESOLVED_PATCHES = {
    ("cli", "to_matrices"),
    ("limitlaws", "window_maxima_line"),
    ("limitlaws", "window_maxima_circle"),
}


def _tracer(capture_rows=0):
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench/spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans, spans.Tracer(capture_rows=capture_rows)


def test_benchmark_tracer_finds_the_names_it_notes():
    # perfbench skips a patch whose attribute is missing, and then every
    # benchmark operation fails while the suite passes
    from storagebalance import cli, limitlaws, loadsolver, metrics

    spans, tracer = _tracer(capture_rows=2)
    patches = tracer.patches(cli, metrics, loadsolver, limitlaws)
    table = {(module.__name__.rsplit(".", 1)[1], attr): span for module, attr, span, _ in patches}
    # the tracer skips a name it does not find, so a renamed one would blind
    # its layer's metric with no failure
    unresolved = {(module.__name__.rsplit(".", 1)[1], attr)
                  for module, attr, _, _ in patches if not callable(getattr(module, attr, None))}
    assert unresolved == UNRESOLVED_PATCHES
    for (module, attr), params in TRACED_NAMES.items():
        fn = getattr({"cli": cli, "metrics": metrics, "limitlaws": limitlaws}[module], attr, None)
        assert callable(fn) and (module, attr) in table, f"{module}.{attr}"
        assert params <= set(inspect.signature(fn).parameters), f"{module}.{attr}"

    # the notes bind on a real sweep, one design through the LP
    config = cli.ExperimentConfig.from_dict({
        "kind": ["cyclic", "block_design"], "n": 7, "d": 3,
        "sigma": [{"fraction_of_n": 0.8}, {"absolute": 2.0}], "trials": 5, "master_seed": 1,
    })
    with tracer.patched(cli, metrics, loadsolver, limitlaws):
        cli.run_simulate(config)
    noted = {s[spans.NAME] for s in tracer.spans if s[spans.NOTE]}
    assert {table[name] for name in TRACED_NAMES} <= noted
    assert [c["alloc"].kind for c in tracer.captured] == ["cyclic", "block_design"]
    # the LP route builds its model from to_matrices, once, under the block
    # design's solve; the benchmark counts those spans as allocation.to_matrices
    solves = {i: s[spans.NOTE]["kind"] for i, s in enumerate(tracer.spans)
              if s[spans.NAME] == "loadsolver.t_star_batch"}
    assert [solves.get(s[spans.PARENT]) for s in tracer.spans
            if s[spans.NAME] == "allocation.to_matrices"] == ["block_design"]


def test_traced_limit_checks_record_one_sample_span_per_block():
    # the benchmark's spacings.sample_s and rows_drawn on limit_laws read
    # these spans; a pass that drew around limitlaws.spacing_matrix would
    # zero them with no failure
    from storagebalance import cli, limitlaws, loadsolver, metrics

    spans, tracer = _tracer()
    k, trials, count_trials = 3000, 40, 25
    with tracer.patched(cli, metrics, loadsolver, limitlaws):
        limitlaws.run_limit_checks(k, [1, 3], trials, 9, count_trials=count_trials)
    block = limitlaws._BLOCK_ELEMENTS // k
    notes = [s[spans.NOTE] for s in tracer.spans if s[spans.NAME] == "spacings.sample"]
    assert [(n["k"], n["master_seed"], n["start_index"], n["trials"]) for n in notes] == [
        (k, 9, start, min(block, trials - start)) for start in range(0, trials, block)
    ]
    assert spans.summarise(tracer.spans, 1.0)["spacings.rows_drawn"] == trials
