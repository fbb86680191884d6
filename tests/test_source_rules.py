"""Rules on the library source itself."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "gtlie").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_check_lives_in_an_assert(path):
    # python -O strips assert statements and sets __debug__ to False, so a
    # check written either way silently disappears.
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "__debug__")
    ]
    assert not found, f"assert or __debug__ in the library: {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_stable_sort_goes_through_the_one_kernel(path):
    # linalg.stable_order gives the stable order by one np.sort of packed
    # keys; an argsort, lexsort or stable sort anywhere else is a second
    # sort path.
    tree = ast.parse(path.read_text(), filename=str(path))
    kernel = set()
    if path.name == "linalg.py":
        (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "stable_order"]
        kernel = set(ast.walk(fn))
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if node not in kernel and (
            (isinstance(node, ast.keyword) and node.arg == "kind"
             and isinstance(node.value, ast.Constant) and node.value.value == "stable")
            or (isinstance(node, ast.Attribute) and node.attr in ("argsort", "lexsort"))
            or (isinstance(node, ast.Name) and node.id in ("argsort", "lexsort"))
        )
    ]
    assert not found, f"a sort outside linalg.stable_order: {found}"


# The functions that may form product terms: the relation kernel every
# bracket check calls, and the nested commutators of the GT build.
PRODUCT_TERM_USERS = {("linalg.py", "relation_sums"), ("gtrep.py", "_commutator")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_product_terms_are_formed_only_by_the_relation_kernel_and_the_build(path):
    # a check that joins product terms itself is a second relation kernel
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
                continue
            if (getattr(child, "id", None) == "product_terms" or getattr(child, "attr", None) == "product_terms") \
                    and (path.name, function) not in PRODUCT_TERM_USERS:
                found.append(f"{path.name}:{child.lineno} in {function}")
            visit(child, function)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    assert not found, f"product_terms used outside linalg.relation_sums and the GT build: {found}"


def test_the_rule_sees_every_library_module():
    assert {p.name for p in SOURCES} >= {"algebra.py", "autos.py", "cli.py", "gtrep.py", "linalg.py"}


def _outside(path, allowed: set, hit) -> list:
    """file:line of each node for which hit(node) holds, outside the
    functions named in allowed as (file name, qualified name)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = f"{scope}.{child.name}".lstrip(".") if isinstance(child, (ast.ClassDef, ast.FunctionDef)) else scope
            if hit(child) and (path.name, scope) not in allowed:
                found.append(f"{path.name}:{child.lineno}")
            visit(child, inner)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def _named(node, name) -> bool:
    return getattr(node, "id", None) == name or getattr(node, "attr", None) == name


def _builds_report(node) -> bool:
    return isinstance(node, ast.Call) and _named(node.func, "Report")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_report_is_built_by_the_one_fold(path):
    # a check that calls Report(...) itself forms its own verdict
    found = _outside(path, {("algebra.py", "Report.of")}, _builds_report)
    assert not found, f"Report built outside Report.of: {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_nan_is_read_only_by_the_sup_norm_and_the_fold(path):
    # a second NaN rule would let a check disagree with Report.of
    found = _outside(path, {("linalg.py", "max_abs"), ("algebra.py", "Report.of")}, lambda n: _named(n, "isnan"))
    assert not found, f"isnan outside linalg.max_abs and Report.of: {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_contraction_record_is_read_and_written_only_by_its_helper(path):
    # any other reader or writer of contraction._passed is a second cache with its own keys or eviction
    tree = ast.parse(path.read_text(), filename=str(path))
    definition = [f"{path.name}:{node.lineno}" for node in tree.body
                  if isinstance(node, ast.AnnAssign) and _named(node.target, "_passed")]
    found = _outside(path, {("contraction.py", "_recorded")}, lambda n: _named(n, "_passed"))
    assert found == definition, f"contraction._passed used outside contraction._recorded: {found}"
    assert len(definition) == (path.name == "contraction.py")


# The callers of linalg.digest: the cached digest of each read-only input, and
# the two record keys, over those digests.  linalg.digest itself calls hashlib's.
DIGEST_CALLERS = {
    ("linalg.py", "digest"),
    ("algebra.py", "LieAlgebra.digest"),
    ("algebra.py", "Grading.digest"),
    ("gtrep.py", "GeneratorRep.digest"),
    ("contraction.py", "ScalarTable.digest"),
    ("contraction.py", "_verify_once"),
    ("contraction.py", "contract_algebra"),
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_content_is_hashed_only_by_the_digest_properties_and_the_record_keys(path):
    # any other digest call hashes, per call, content that its object already hashed once
    found = _outside(path, DIGEST_CALLERS, lambda n: isinstance(n, ast.Call) and _named(n.func, "digest"))
    assert not found, f"digest called outside the digest properties and the record keys: {found}"


# Where dense matrices enter the library and are read into an Entries table:
# generators given as dense matrices and the structure tensor of an algebra.
ENTRIES_READERS = {
    ("gtrep.py", "GeneratorRep.__init__"),
    ("algebra.py", "LieAlgebra.__init__"),
}


def _reads_entries(node) -> bool:
    return isinstance(node, ast.Call) and _named(node.func, "of") and _named(getattr(node.func, "value", None), "Entries")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_dense_matrices_become_entries_only_where_they_enter_the_library(path):
    # any other Entries.of densifies what the library already holds as entries and reads it back
    found = _outside(path, ENTRIES_READERS, _reads_entries)
    assert not found, f"Entries.of called outside the places dense matrices enter: {found}"
    assert "sl_stack" not in path.read_text(), f"a second dense view is named in {path.name}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_entries_table_is_built_by_the_one_constructor(path):
    # linalg.Entries.sort orders any entries by (row, matrix, col): an Entries(...) built anywhere else
    # orders its entries by hand, and a table out of order gives wrong row joins
    found = _outside(path, {("linalg.py", "Entries.sort")}, _calls("Entries"))
    assert not found, f"Entries built outside Entries.sort: {found}"


def _allocates_a_cube(node) -> bool:
    """An array made with a shape of three equal sides, or a copy of a structure tensor."""
    if not isinstance(node, ast.Call):
        return False
    shape = node.args[0] if node.args else None
    if any(_named(node.func, f) for f in ("zeros", "empty", "ones", "full")) and isinstance(shape, ast.Tuple):
        return len(shape.elts) == 3 and len({ast.dump(side) for side in shape.elts}) == 1
    return _named(node.func, "copy") and any(_named(x, "structure") for x in ast.walk(node.func))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_dense_structure_tensor_is_formed_only_as_the_view(path):
    # an algebra is its nonzero constants: a (k, k, k) array anywhere but the budgeted view
    # LieAlgebra.structure is a second store, and sl(32) needs 16 GiB for one
    found = _outside(path, {("algebra.py", "LieAlgebra.structure")}, _allocates_a_cube)
    assert not found, f"a k^3 array outside LieAlgebra.structure: {found}"


# The joins of stored entries with index ranges: the row join of the product
# kernel, the relation kernel, the one kernel that forms linear combinations
# of an entries table's matrices (every r(x) and ad(x)), and the pair images
# of the containment kernel.
RANGES_CALLERS = {
    ("linalg.py", "row_join"),
    ("linalg.py", "relation_sums"),
    ("linalg.py", "Entries.combined"),
    ("algebra.py", "_pair_residuals"),
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_entries_are_joined_with_ranges_only_by_the_kernels(path):
    # any other ranges join forms r(x), or a product, a second way
    found = _outside(path, RANGES_CALLERS, lambda n: isinstance(n, ast.Call) and _named(n.func, "ranges"))
    assert not found, f"linalg.ranges called outside its kernels: {found}"


def test_a_representation_holds_no_dense_cube():
    # every r(x) comes from the entries kernels: no cached dense array of the generators beside gen
    (path,) = [p for p in SOURCES if p.name == "gtrep.py"]
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _named(node, "dense") or getattr(node, "name", None) == "dense"
    ]
    assert not found, f"a dense cube in gtrep: {found}"


def test_contract_rep_forms_no_dense_image_and_solves_nothing():
    # contract_rep reads the coordinates of r(X) V that its compatibility check forms: a dense stack
    # of images or a change of basis by solve there forms them a second time
    (path,) = [p for p in SOURCES if p.name == "contraction.py"]
    tree = ast.parse(path.read_text(), filename=str(path))
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "contract_rep"]
    found = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and (_named(node.func, "images") or _named(node.func, "solve"))
    ]
    assert not found, f"contract_rep forms dense images or solves: {found}"


# The algebra is graded, classified and contracted as its own adjoint representation: closure
# measures on the containment kernel, classify_two_part reads its split off verify_grading, and
# _contract reads the coordinates that the grading pass records, so a rank, a span basis, a span
# distance, a dense image or a solve there forms them a second way.
KERNEL_ONLY = [
    ("contraction.py", "_contract", {"solve"}),
    ("algebra.py", "verify_grading", {"thin_span"}),
    ("algebra.py", "closure", {"thin_span"}),
    ("algebra.py", "classify_two_part", {"rank", "thin_span", "images"}),
]


@pytest.mark.parametrize("name, function, forbidden", KERNEL_ONLY, ids=[f"{n}:{f}" for n, f, _ in KERNEL_ONLY])
def test_the_algebra_is_graded_and_contracted_on_the_containment_kernel(name, function, forbidden):
    (path,) = [p for p in SOURCES if p.name == name]
    tree = ast.parse(path.read_text(), filename=str(path))
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function]
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
             if isinstance(node, ast.Call) and any(_named(node.func, f) for f in forbidden)]
    assert not found, f"{function} forms a rank, span, dense image or solve itself: {found}"


# The factorizations of the library: the one thin SVD of a span, the rank it counts, and the solver's
# null space and invertibility test.
SVD_USERS = {("linalg.py", "thin_span"), ("linalg.py", "rank"), ("autos.py", "find_simulation_matrix")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_span_is_factored_by_the_one_thin_svd(path):
    # an svd, pinv or matrix_rank anywhere else factors a span a second way, with its own cut
    found = _outside(path, SVD_USERS, lambda n: any(_named(n, f) for f in ("svd", "pinv", "matrix_rank")))
    assert not found, f"svd, pinv or matrix_rank outside linalg.thin_span, linalg.rank and the solver: {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_tensor_contraction_in_the_library(path):
    # every dense operator comes from linalg.Entries.images and every product of one with a vector is a
    # matrix product: a tensordot or einsum contracts a dense tensor a second way
    found = _outside(path, set(), lambda n: _named(n, "tensordot") or _named(n, "einsum"))
    assert not found, f"tensordot or einsum in the library: {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_dense_structure_view_is_read_only_by_callers_outside_the_library(path):
    # an algebra is its entries ad: a computation on the dense structure view densifies what the library
    # holds as entries
    found = _outside(path, {("algebra.py", "LieAlgebra.structure")},
                     lambda n: isinstance(n, ast.Attribute) and n.attr == "structure")
    assert not found, f"structure read outside LieAlgebra.structure: {found}"


def _scatters_a_stack(node) -> bool:
    """An assignment into three index arrays: values scattered into a (count, d, d) stack."""
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return any(isinstance(t, ast.Subscript) and isinstance(t.slice, ast.Tuple) and len(t.slice.elts) == 3
               and not any(isinstance(x, ast.Slice) for x in t.slice.elts) for t in targets)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_dense_stack_is_scattered_by_the_one_kernel(path):
    # linalg.Entries.images forms every dense stack of matrices from entries, after its budget check:
    # a scatter anywhere else is a second densifying path with a budget of its own, or none
    found = _outside(path, {("linalg.py", "Entries.images")}, _scatters_a_stack)
    assert not found, f"a (count, d, d) scatter outside Entries.images: {found}"


def _searches_structure(node) -> bool:
    return isinstance(node, ast.Call) and any(_named(node.func, f) for f in ("nonzero", "flatnonzero", "argwhere")) \
        and any(_named(x, "structure") for arg in node.args for x in ast.walk(arg))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_the_structure_tensor_is_searched_for_its_constants_only_by_ad(path):
    # LieAlgebra reads the nonzero constants of a dense tensor into entries once, by Entries.of: a nonzero
    # search of the structure
    # anywhere else reads them a second way
    found = _outside(path, set(), _searches_structure)
    assert not found, f"nonzero search of a structure tensor: {found}"


# The callers of the one eigenspace kernel, autos._eigenspaces: the two grading constructors.
EIGENSPACE_CALLERS = {("autos.py", "grading_from_automorphism"), ("autos.py", "decompose_rep_space")}


def _calls(name):
    return lambda node: isinstance(node, ast.Call) and _named(node.func, name)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_eigenspace_split_goes_through_the_one_kernel(path):
    # autos._eigenspaces splits a monomial operator along its cycles and only a dense one by the
    # column bases of its projectors: any other caller of independent_columns, or of the kernel, is a
    # second split
    found = _outside(path, {("autos.py", "_eigenspaces")}, _calls("independent_columns"))
    found += _outside(path, EIGENSPACE_CALLERS, _calls("_eigenspaces"))
    assert not found, f"an eigenspace split outside autos._eigenspaces: {found}"


def test_the_grading_constructors_split_by_the_kernel_alone():
    # a constructor that forms a power or a column basis itself checks or splits a second way
    (path,) = [p for p in SOURCES if p.name == "autos.py"]
    tree = ast.parse(path.read_text(), filename=str(path))
    for _, name in EIGENSPACE_CALLERS:
        (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name]
        called = {getattr(node.func, "id", getattr(node.func, "attr", None)) for node in ast.walk(fn)
                  if isinstance(node, ast.Call)}
        assert "_eigenspaces" in called and not called & {"matrix_power", "independent_columns", "eig", "eigh"}, name


def _matrix_product(node) -> bool:
    return (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)) \
        or (isinstance(node, ast.Call) and any(_named(node.func, f) for f in ("matmul", "dot", "tensordot", "einsum")))


def test_the_pair_path_forms_no_matrix_product():
    # _pair_residuals joins the nonzeros of the image sums with those of the X columns: a matrix product
    # there is a dense image table again, whose NaN * 0 spreads one NaN of r(e_x) to every X column
    (path,) = [p for p in SOURCES if p.name == "algebra.py"]
    tree = ast.parse(path.read_text(), filename=str(path))
    (fn,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_pair_residuals"]
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(fn) if _matrix_product(node)]
    assert not found, f"a matrix product in the pair path: {found}"


def _budget_names(tree) -> list:
    """The *_BUDGET_BYTES names a module assigns."""
    targets = [t for node in ast.walk(tree) if isinstance(node, (ast.Assign, ast.AnnAssign))
               for t in (node.targets if isinstance(node, ast.Assign) else [node.target])]
    return [t.id for t in targets if getattr(t, "id", "").endswith("_BUDGET_BYTES")]


def _refuses_over_a_budget(node) -> bool:
    """A raise of InputError whose message text mentions a budget."""
    return isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and _named(node.exc.func, "InputError") \
        and any(isinstance(x, ast.Constant) and "budget" in str(x.value) for arg in node.exc.args for x in ast.walk(arg))


def _bounds_rows(node) -> bool:
    """A bincount over the rows of an entries table: a count of the terms of each output row."""
    return isinstance(node, ast.Call) and _named(node.func, "bincount") and bool(node.args) \
        and isinstance(node.args[0], ast.Attribute) and node.args[0].attr == "rows"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_one_memory_budget_one_refusal_and_one_row_bound(path):
    # linalg.MEMORY_BUDGET_BYTES is the one budget, linalg.check_budget its one refusal, and the relation
    # kernel counts the rows of every relation check: a budget, a refusal or a row bound anywhere else
    # is a second policy with its own limit
    budgets = _budget_names(ast.parse(path.read_text(), filename=str(path)))
    assert budgets == (["MEMORY_BUDGET_BYTES"] if path.name == "linalg.py" else []), f"budgets in {path.name}: {budgets}"
    found = _outside(path, {("linalg.py", "check_budget")}, _refuses_over_a_budget)
    assert not found, f"a budget refusal outside linalg.check_budget: {found}"
    found = _outside(path, {("linalg.py", "relation_sums")}, _bounds_rows)
    assert not found, f"a row bound outside linalg.relation_sums: {found}"
