"""Package structure: modules share only public names, every exported name has
a user besides the tests, one reader owns ``int``, one helper owns each limit,
every module runs in one process and ``import stanley`` loads no process pool,
only ``errors.py`` defines exceptions, no module reads the environment, and
the README's examples run."""

import ast
import builtins
import doctest
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stanley

MODULES = sorted(Path(stanley.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


def test_no_module_imports_a_private_name():
    offenders = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.endswith("__")
                ]
    assert offenders == []


def _loaded_names(node, own=frozenset()):
    """Names read under ``node``, leaving out each def's or class's own name
    inside its body; definitions and assignments store, they do not read."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        own = own | {node.name}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _loaded_names(child, own)


def test_every_exported_name_has_a_user():
    # a name that only tests call belongs in tests/, not in the package's API
    init = Path(stanley.__file__)
    exported = {
        alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = {
        name
        for path in MODULES
        if path != init
        for name in _loaded_names(ast.parse(path.read_text(), str(path)))
    }
    readme = README.read_text()
    unused = [
        name
        for name in sorted(exported - used)
        if not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []


def test_readme_examples_run():
    # each ```python block runs as its own doctest; parsing the blocks keeps a
    # closing fence from being read as expected output
    text = README.read_text()
    runner = doctest.DocTestRunner()
    for i, block in enumerate(re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)):
        runner.run(doctest.DocTestParser().get_doctest(block, {}, f"README block {i}", str(README), 0))
    failed, attempted = runner.summarize(verbose=False)
    assert failed == 0
    assert attempted >= len(re.findall(r"^>>> ", text, re.M)) > 0


def _inside(path, tree, functions, module="core.py"):
    """ids of every node within ``module``'s definitions of ``functions``."""
    return {
        id(inner)
        for node in ast.walk(tree)
        if path.name == module and isinstance(node, ast.FunctionDef)
        and node.name in functions
        for inner in ast.walk(node)
    }


def _is_int(node):
    return isinstance(node, ast.Name) and node.id == "int"


def test_only_the_number_reader_uses_int():
    # int() outside core.read_int, or int handed to a call (add_argument's
    # type=int, map(int, ...)), would read text the reader rejects
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        reader = _inside(path, tree, {"read_int"})
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in reader:
                continue
            passed = [*node.args, *(keyword.value for keyword in node.keywords)]
            if _is_int(node.func) or (
                not (isinstance(node.func, ast.Name) and node.func.id == "isinstance")
                and any(_is_int(arg) for arg in passed)
            ):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert offenders == []


def _names_read(node):
    """Names ``node`` reads by itself: a loaded name, an attribute, or an import."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    return []


def test_only_the_limit_owners_read_the_limits():
    # every 64-bit range check goes through check_int (read_int is its text
    # front end), every mask-budget check through check_bits and every
    # element-budget check through check_count
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        owners = _inside(path, tree, {"check_int", "read_int", "check_bits", "check_count"})
        offenders += [
            f"{path.name}:{node.lineno}: {name}"
            for node in ast.walk(tree)
            if id(node) not in owners
            for name in _names_read(node)
            if name in ("INT_LIMIT", "BIT_LIMIT", "ELEMENT_LIMIT")
        ]
    assert offenders == []


def test_only_the_limit_helpers_raise_resource_limits():
    # a resource limit is the 64-bit range, the mask budget or the element budget
    # of products and modular forms, each raised by its own helper: no ad-hoc cap
    offenders = []
    for path in MODULES:
        tree = ast.parse(path.read_text(), str(path))
        owners = _inside(path, tree, {"check_int", "check_bits", "check_count", "read_int"})
        offenders += [
            f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise) and id(node) not in owners
            and isinstance(node.exc, ast.Call)
            and "ResourceLimitError" in _names_read(node.exc.func)
        ]
    assert offenders == []


def test_no_module_starts_a_process_pool():
    # coverage and search run in one process
    offenders = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            modules = (
                [alias.name for alias in node.names] if isinstance(node, ast.Import)
                else [node.module] if isinstance(node, ast.ImportFrom) else []
            )
            if (
                any(m.split(".")[0] in ("concurrent", "multiprocessing") for m in modules if m)
                or {"ProcessPoolExecutor", "cpu_count"}.intersection(_names_read(node))
            ):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert offenders == []


def test_only_errors_defines_exceptions():
    # exceptions are for errors: a walk stops by return, not by a private exception
    exceptions = {
        name for source in (builtins, stanley.errors)
        for name, value in vars(source).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    offenders = [
        f"{path.name}:{node.lineno}: class {node.name}"
        for path in MODULES if path.name != "errors.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ClassDef)
        and exceptions.intersection(name for base in node.bases for name in _names_read(base))
    ]
    assert offenders == []


def test_import_loads_no_process_pool():
    src = str(Path(stanley.__file__).parents[1])
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import stanley; "
        "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))"
    )
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert loaded.stdout == "[]\n"


def test_no_module_reads_the_environment():
    # every input is an argument or an option; nothing changes behind the CLI
    offenders = [
        f"{path.name}:{node.lineno}: {ast.unparse(node)}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"))
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(alias.name in ("environ", "getenv") for alias in node.names))
    ]
    assert offenders == []


INTEGER_PARAMETERS = {
    "CharacterProfile.character": lambda v: stanley.CharacterProfile(v, 0, 1, 0),
    "WitnessRecipe.shift_count": lambda v: stanley.WitnessRecipe(
        0, "trivial-zero", stanley.ResidueSet(1, (0,)), v, 0, 1
    ),
    "greedy_extend.target_len": lambda v: stanley.greedy_extend([0], v),
    "omitted_set.bound": lambda v: stanley.omitted_set([0, 1, 3, 4], v),
    "coverage_report.lambda_max": stanley.coverage_report,
    "witness_for.target": stanley.witness_for,
    "doubled_prefix.modulus": lambda v: stanley.doubled_prefix([0, 1], v),
    "doubling_reduction.top": lambda v: stanley.doubling_reduction(v, 1),
    "doubling_reduction.modulus": lambda v: stanley.doubling_reduction(1, v),
    "build_T.n": stanley.build_T,
    "build_Ttilde.n": stanley.build_Ttilde,
    "build_Acal.n": stanley.build_Acal,
    "build_U.n": stanley.build_U,
    "build_Utilde.n": stanley.build_Utilde,
    "build_Bcal.n": stanley.build_Bcal,
    "build_At.t": stanley.build_At,
    "build_Atk.t": lambda v: stanley.build_Atk(v, 2),
    "build_Atk.k": lambda v: stanley.build_Atk(2, v),
    "build_CDEF.n": lambda v: stanley.build_CDEF(v, "C"),
    "TableRef.modulus": lambda v: stanley.TableRef(v, 58),
    "TableRef.max_element": lambda v: stanley.TableRef(28, v),
    "AppendixTables.row.max_element": lambda v: stanley.load_appendix().row(28, v),
    "AppendixTables.row.modulus": lambda v: stanley.load_appendix().row(v, 58),
    "scale.c": lambda v: stanley.scale(stanley.ResidueSet(3, (0, 1)), v),
    "shift_max.multiples": lambda v: stanley.shift_max(stanley.ResidueSet(3, (0, 1)), v),
    "power.n": lambda v: stanley.power(
        stanley.ResidueSet(1, (0,)), stanley.ResidueSet(1, (0,)), v
    ),
    "ResidueSet.modulus": lambda v: stanley.ResidueSet(v, (0, 1)),
    "ResidueSet.elements": lambda v: stanley.ResidueSet(3, (0, v)),
    "WitnessRecipe.target_character": lambda v: stanley.WitnessRecipe(
        v, "trivial-zero", stanley.ResidueSet(1, (0,)), 0, 0, 1
    ),
    "WitnessRecipe.expected_max": lambda v: stanley.WitnessRecipe(
        0, "trivial-zero", stanley.ResidueSet(1, (0,)), 0, v, 1
    ),
    "WitnessRecipe.expected_modulus": lambda v: stanley.WitnessRecipe(
        0, "trivial-zero", stanley.ResidueSet(1, (0,)), 0, 0, v
    ),
    "CharacterProfile.settle_level": lambda v: stanley.CharacterProfile(0, v, 1, 0),
    "CharacterProfile.repeat_factor": lambda v: stanley.CharacterProfile(0, 0, v, 0),
    "CharacterProfile.verified_up_to_level": lambda v: stanley.CharacterProfile(0, 0, 1, v),
    "FamilyId.params": lambda v: stanley.FamilyId("T", (v,)),
    "StanleyPrefix.terms": lambda v: stanley.StanleyPrefix((0, v)),
    "doubled_prefix.seed": lambda v: stanley.doubled_prefix([0, v], 1),
}


@pytest.mark.parametrize("value", [2.5, True, "3"])
@pytest.mark.parametrize("call", INTEGER_PARAMETERS.values(), ids=INTEGER_PARAMETERS)
def test_integer_parameters_go_through_check_int(call, value):
    with pytest.raises(stanley.MalformedInputError, match="is not an integer"):
        call(value)


MALFORMED_CONTAINERS = {
    "FamilyId.params": lambda: stanley.FamilyId("T", 3),
    "FamilyId.name": lambda: stanley.FamilyId(["T"], (3,)),
    "build_CDEF.which": lambda: stanley.build_CDEF(1, ["C"]),
    "ResidueSet.elements": lambda: stanley.ResidueSet(3, 5),
    "StanleyPrefix.terms": lambda: stanley.StanleyPrefix(5),
    "greedy_extend.prefix": lambda: stanley.greedy_extend(5, 3),
    "detect_character.prefix": lambda: stanley.detect_character(5),
}


@pytest.mark.parametrize("call", MALFORMED_CONTAINERS.values(), ids=MALFORMED_CONTAINERS)
def test_malformed_containers_raise_malformed_input(call):
    # an int for a list, or a list for a name, is malformed input, not a raw TypeError
    with pytest.raises(stanley.MalformedInputError):
        call()


MALFORMED, PRECONDITION = stanley.MalformedInputError, stanley.PreconditionError
INPUT_RANGE_ERRORS = {
    "build_U.n": (MALFORMED, "U requires n >= 1", lambda: stanley.build_U(0)),
    "build_Bcal.n": (MALFORMED, "Bcal requires n >= 1", lambda: stanley.build_Bcal(0)),
    "build_At.t": (MALFORMED, "At requires t >= 1", lambda: stanley.build_At(0)),
    "build_Atk.t": (MALFORMED, "Atk requires t >= 1", lambda: stanley.build_Atk(0, 2)),
    "scale.c": (PRECONDITION, "scale factor must be positive",
                lambda: stanley.scale(stanley.ResidueSet(3, (0, 1)), 0)),
    "shift_max.a": (PRECONDITION, "cannot shift a set whose only element is 0",
                    lambda: stanley.shift_max(stanley.ResidueSet(1, (0,)))),
    "SearchSpec.modulus": (MALFORMED, "modulus must be at least 1",
                           lambda: stanley.SearchSpec(0, 57, 8)),
    "SearchSpec.cardinality": (MALFORMED, "cardinality must be at least 2",
                               lambda: stanley.SearchSpec(10, 8, 1)),
    "CharacterProfile.settle_level": (MALFORMED, "settle_level outside verified range",
                                      lambda: stanley.CharacterProfile(0, 2, 1, 1)),
    # a value of the wrong type is malformed input, not a raw TypeError or AttributeError
    "ResidueSet.of.elements": (MALFORMED, "element list None cannot be sorted",
                               lambda: stanley.ResidueSet.of(3, None)),
    "parse_family.text": (MALFORMED, "expected 'Name:params', got 5",
                          lambda: stanley.parse_family(5)),
    "build_family.family": (MALFORMED, "expected 'Name:params', got 5",
                            lambda: stanley.build_family(5)),
    # a set line is not a ResidueSet: execute_and_verify refuses the base
    "WitnessRecipe.base": (MALFORMED, "unsupported recipe base 'N=1; 0'",
                           lambda: stanley.execute_and_verify(
                               stanley.WitnessRecipe(0, "trivial-zero", "N=1; 0"))),
}


@pytest.mark.parametrize("error,message,call", INPUT_RANGE_ERRORS.values(), ids=INPUT_RANGE_ERRORS)
def test_out_of_range_inputs_raise_their_error(error, message, call):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
