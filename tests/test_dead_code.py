"""Source hygiene: every private module-level helper of the package is used.

A private name (leading underscore) is invisible outside the package, so
one that no module of the package references is dead code: a helper left
behind when its last caller went away."""

import ast
import dataclasses
from pathlib import Path

import qbranch

SOURCES = sorted(Path(qbranch.__file__).parent.glob("*.py"))


def _definitions(body: list) -> set[str]:
    """The functions, classes and assigned names of a module or class
    body."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def _private_definitions(tree: ast.Module) -> set[str]:
    """Private module-level functions, classes and assigned names."""
    return {n for n in _definitions(tree.body)
            if n.startswith("_") and not n.startswith("__")}


def _references(tree: ast.Module) -> set[str]:
    """Names a module reads, imports or reaches as an attribute."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_sources_found():
    assert len(SOURCES) >= 9


def test_no_unreferenced_private_helpers():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    referenced = set().union(*(_references(t) for t in trees.values()))
    dead = sorted(f"{module}:{name}" for module, tree in trees.items()
                  for name in _private_definitions(tree) - referenced)
    assert dead == []


def _callers(tree: ast.Module, name: str) -> set[str]:
    """Module-level functions and methods (Class.method) whose bodies,
    nested functions included, call name."""
    found = set()
    for top in tree.body:
        defs = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in defs:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            qual = f"{top.name}.{node.name}" if node is not top else node.name
            if any(isinstance(call, ast.Call)
                   and name in (getattr(call.func, "id", None),
                                getattr(call.func, "attr", None))
                   for call in ast.walk(node)):
                found.add(qual)
    return found


def _package_callers(name: str) -> list[str]:
    """module:function for every function of the package that calls name."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    return sorted(f"{module}:{qual}" for module, tree in trees.items()
                  for qual in _callers(tree, name))


def test_radial_differentiation_has_one_caller():
    # a map is differentiated once, by its gradients; a degree estimate's
    # steps read the average-free part's ring table, and everything else
    # reads the ring table
    assert _package_callers("d_dr_geometric") == [
        "curves.py:QFunction.gradients"]


def test_degree_steps_read_one_profile():
    # the blow-up steps of a degree estimate read one profile of the
    # average-free part, and nothing else in blowup forms a profile
    assert [caller for caller in _package_callers("frequency_profile")
            if caller.startswith("blowup.py:")] == [
        "blowup.py:singularity_degree"]


def test_exponents_are_read_by_one_pencil():
    # the degree's value is half the leading exponent of
    # RadialRule.spectrum, and the pencil's SVD and eigenvalue solve are
    # the package's only ones
    assert _package_callers("_spectral_degree") == [
        "blowup.py:singularity_degree"]
    assert _package_callers("spectrum") == ["blowup.py:_spectral_degree",
                                            "blowup.py:hardt_simon_check"]
    assert _package_callers("svd") == _package_callers("eigvals") == [
        "grids.py:RadialRule.spectrum"]


def test_hardt_simon_reads_column_b_spectrum():
    # alpha, the closed form and the growth exponent are read off one
    # spectrum: the check takes no alpha and fits no log ratio or slope.
    # The excess decay fit is the one exponent fit left outside grids, and
    # frequency_limit keeps its rate fit, which reads the paper's definition
    tree = ast.parse(Path(qbranch.blowup.__file__).read_text())
    (check,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "hardt_simon_check"]
    assert [a.arg for a in check.args.args] == ["f", "rho_inner"]
    assert not check.args.kwonlyargs
    assert not any(isinstance(node, ast.Call)
                   and getattr(node.func, "attr", None) == "log"
                   and any(isinstance(arg, ast.BinOp)
                           and isinstance(arg.op, ast.Div)
                           for arg in node.args)
                   for node in ast.walk(tree))
    assert _package_callers("polyfit") == ["excess.py:excess_decay_fit"]


def test_angular_differentiation_has_one_caller():
    assert _package_callers("d_dtheta_periodic") == [
        "curves.py:QFunction.gradients"]


def test_derivatives_exist_only_as_ring_blocks():
    # both kernels hand out ring blocks and nothing else, and every sweep
    # of a map's gradients reduces each block: no whole-array mode is left
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    kernels = {node.name: [a.arg for a in node.args.args]
               for node in trees["grids.py"].body
               if isinstance(node, ast.FunctionDef)
               and node.name in ("d_dr_geometric", "d_dtheta_periodic")}
    assert kernels == {"d_dr_geometric": ["values", "radii"],
                       "d_dtheta_periodic": ["values", "monodromy"]}
    calls = [call for tree in trees.values() for call in ast.walk(tree)
             if isinstance(call, ast.Call)
             and getattr(call.func, "attr", None) == "gradients"]
    assert calls and all(call.args or call.keywords for call in calls)


def test_no_map_caches_its_gradients():
    # gradients are reduced to ring tables a block of rings at a time; no
    # cache key names whole gradient arrays
    assert not any(isinstance(node, ast.Constant) and node.value == "grad"
                   for path in SOURCES
                   for node in ast.walk(ast.parse(path.read_text())))


def test_ring_table_key_is_named_in_one_module():
    # the cache keys of a map's tables are written and read only by the
    # module that builds the tables
    for key in ("ring_data", "area_moments", "free_ring_data",
                "quartic_data"):
        naming = sorted(
            path.name for path in SOURCES
            if any(isinstance(node, ast.Constant) and node.value == key
                   for node in ast.walk(ast.parse(path.read_text()))))
        assert naming == ["curves.py"], key


def test_sample_shape_is_read_in_one_class():
    # q and n are read off the sample shape every map stores once: no
    # subclass of QFunction defines them again
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    classes = {node.name: node for tree in trees.values()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
    maps = {"QFunction"}
    while grown := {name for name, node in classes.items()
                    if name not in maps
                    and any(getattr(base, "id", None) in maps
                            for base in node.bases)}:
        maps |= grown
    redefined = sorted(
        f"{name}.{attr}" for name in maps - {"QFunction"}
        for attr in _definitions(classes[name].body) & {"q", "n"})
    assert maps > {"QFunction"} and redefined == []


def test_gradients_have_one_caller():
    # every table comes from one sweep of the map's one differentiation,
    # the L2 norm's included: it reads column B of the ring table
    assert _package_callers("gradients") == ["curves.py:_sweep"]
    assert _package_callers("disk_table") == ["curves.py:_sweep"]


def test_imports_sit_at_module_level_and_form_a_dag():
    # no function imports, so no import hides a cycle between modules
    trees = {path.stem: ast.parse(path.read_text()) for path in SOURCES}
    inner = sorted(f"{module}:{fn.name}" for module, tree in trees.items()
                   for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and any(isinstance(node, (ast.Import, ast.ImportFrom))
                           for node in ast.walk(fn)))
    assert inner == []
    edges = {module: {node.module or (alias.name if alias.name in trees
                                      else "__init__")
                      for node in tree.body
                      if isinstance(node, ast.ImportFrom) and node.level
                      for alias in node.names}
             for module, tree in trees.items()}
    done = set()
    while edges.keys() - done:
        ready = {m for m in edges.keys() - done if edges[m] <= done}
        assert ready, sorted(edges.keys() - done)  # the rest import in a cycle
        done |= ready


def test_area_table_is_read_in_one_place():
    # mass, excess, optimal plane and mean tilt all read the moments of
    # one area table through one function
    assert _package_callers("_area_moments") == ["excess.py:_moments_up_to"]


def test_measured_object_is_decided_once():
    # degree, stitched frequency and Hardt-Simon take _branched_part, so no
    # caller spells out "average-free part for Q > 1, the map itself else"
    assert _package_callers("average_free_part") == [
        "blowup.py:_branched_part"]


def test_one_weight_generator_has_two_callers():
    # the cell patterns serve quadrature and interpolation between rings;
    # the radial derivative is the only other stencil
    assert _package_callers("_stencil_weights") == [
        "grids.py:_cell_inverses", "grids.py:d_dr_geometric"]


def test_resampling_is_explicit():
    # off-center evaluation is one explicit recenter call by the user: no
    # function of the package resamples a map behind its caller's back
    assert _package_callers("recenter") == []


def test_records_are_formed_in_one_place():
    # every record, of a profile, a blow-up step or the stitched frequency,
    # comes from frequency._records through one _quantities call; no other
    # module forms quantities or records
    assert _package_callers("_record") == ["frequency.py:_records"]
    assert {caller.split(":")[0]
            for caller in _package_callers("_quantities")} == {"frequency.py"}


def test_one_scale_is_read_off_its_record():
    # the quantities at one scale are the fields of its record: the package
    # exports no one-scale wrapper, and no module keeps a helper that forms
    # I, its height guard or the residuals outside _record
    wrappers = {"smoothed_D", "smoothed_H", "smoothed_I",
                "auxiliary_quantities", "variation_residuals",
                "DegenerateHeightError"}
    assert not wrappers & set(dir(qbranch))
    defined = set().union(*(_definitions(ast.parse(path.read_text()).body)
                            for path in SOURCES))
    assert not {"_at", "_residuals_from", "_degenerate_height"} & defined


def test_one_sweep_block_size():
    # the derivative kernels, the gradients sweep and make_multigraph all
    # take their ring blocks from _ring_blocks, at the one grids size
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    blocks = [node for node in trees["grids.py"].body
              if isinstance(node, ast.FunctionDef)
              and node.name == "_ring_blocks"]
    assert [a.arg for a in blocks[0].args.args] == ["x"]
    assert [name for name, tree in trees.items()
            if "_BLOCK_BYTES" in _definitions(tree.body)] == ["grids.py"]


def test_the_curve_lives_in_curve_spec():
    # the test curve's closed form and the curve a map claims are read in
    # curves alone: no other module evaluates the sheets or parses the
    # claim's fields
    naming = sorted(path.name for path in SOURCES
                    if any(isinstance(node, ast.Constant)
                           and node.value == "h_coeffs"
                           for node in ast.walk(ast.parse(path.read_text()))))
    assert naming == ["curves.py"]
    assert _package_callers("sheets") == ["curves.py:evaluate_sheets",
                                          "curves.py:make_multigraph"]
    assert _package_callers("from_metadata") == [
        "blowup.py:singularity_degree"]
    # the claim is written next to its reader, and the contact order is
    # read once, by the degree's discrepancy flag
    assert _package_callers("claim") == ["curves.py:make_multigraph"]
    assert _package_callers("contact_order") == [
        "blowup.py:_flag_average_discrepancy"]
    defined = set().union(*(_definitions(node.body)
                            for path in SOURCES
                            for node in ast.walk(ast.parse(path.read_text()))
                            if isinstance(node, (ast.Module, ast.ClassDef))))
    assert not {"analytic_degree", "h_order", "label"} & defined


def test_the_average_free_part_is_centred_in_one_wrapper():
    # gradients only differentiates: the part's blocks are its parent's
    # minus their sheet mean in _centred, which reduces both the part's own
    # sweep and the seed its parent's sweep writes, and in the part's
    # amplitudes and samples; _move_ratio centres sheet moves
    assert _package_callers("_minus_sheet_mean") == [
        "curves.py:_centred", "curves.py:_move_ratio",
        "curves.py:_ring_amplitudes", "curves.py:average_free_part"]
    assert not any("_free_profiles" in _definitions(
        ast.parse(path.read_text()).body) for path in SOURCES)


def test_interval_facts_are_read_off_end_reasons():
    # an interval reaches the floor when it ends by 'floor', and interval j
    # starts at the bottom of j-1 when j-1 ended by concentration or drift:
    # no field restates the first, and coinciding compares no radii
    assert "reaches_floor" not in {
        field.name for field in dataclasses.fields(qbranch.IntervalRecord)}
    tree = ast.parse(Path(qbranch.scaletrack.__file__).read_text())
    (coinciding,) = [node for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef)
                     and node.name == "coinciding"]
    assert not any((isinstance(node, ast.Attribute)
                    and node.attr in ("s", "t"))
                   or (isinstance(node, ast.Constant)
                       and isinstance(node.value, float))
                   for node in ast.walk(coinciding))


def _numpy_names(tree: ast.Module):
    """numpy.x for every np.x a module reads, and the dotted name of every
    numpy module or name it imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) \
                and getattr(node.value, "id", None) in ("np", "numpy"):
            yield f"numpy.{node.attr}"
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").startswith("numpy"):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_names_numpy_median_polynomial_or_ma():
    # np.median's NaN check imports numpy.ma and leggauss lives in
    # numpy.polynomial: the package takes its medians with
    # frequency._median and its Gauss-Legendre rule from a committed table
    named = sorted(f"{path.name}:{name}" for path in SOURCES
                   for name in _numpy_names(ast.parse(path.read_text()))
                   if name.split(".")[:2] in (["numpy", "median"],
                                              ["numpy", "polynomial"],
                                              ["numpy", "ma"]))
    assert named == []
