"""Static layering guard: board construction belongs to the exec layer.

Every toolchain subsystem must go through :mod:`repro.exec` (an
``ExecutionRequest`` resolved by an ``Executor``) instead of building
boards privately -- that is what makes warm-board leasing, observation
policy and observer hygiene uniform across entry points.  This test
walks the AST of every module under ``src/repro`` and fails on any
direct ``SoftGpu(...)`` or ``Gpu(...)`` construction outside the two
layers that legitimately own boards:

* ``repro/exec``    -- the board pool builds cold boards,
* ``repro/runtime`` -- the facade itself wraps the SoC model.

AST-based (not grep) so docstring examples and comments don't count;
only actual call expressions do.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

#: Top-level repro subpackages allowed to construct boards directly.
ALLOWED_DIRS = {"exec", "runtime"}

FORBIDDEN_CONSTRUCTORS = {"SoftGpu", "Gpu"}


def _constructor_name(node):
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _board_constructions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and _constructor_name(node) in FORBIDDEN_CONSTRUCTORS:
            yield node


def test_src_layout_exists():
    assert SRC.is_dir(), "expected the repro package at {}".format(SRC)
    assert (SRC / "exec").is_dir()
    assert (SRC / "runtime").is_dir()


def test_no_direct_board_construction_outside_exec_and_runtime():
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC)
        if relative.parts and relative.parts[0] in ALLOWED_DIRS:
            continue
        for node in _board_constructions(path):
            violations.append("{}:{}: direct {}(...) construction".format(
                relative, node.lineno, _constructor_name(node)))
    assert not violations, (
        "board construction outside repro/exec + repro/runtime "
        "(route it through repro.exec.ExecutionRequest):\n  "
        + "\n  ".join(violations))


def test_guard_has_teeth():
    """The AST matcher recognises every construction spelling in use."""
    tree = ast.parse(
        "from repro.runtime.device import SoftGpu\n"
        "import repro.runtime.device as device\n"
        "a = SoftGpu(arch)\n"
        "b = device.SoftGpu(arch, max_groups=2)\n"
        "c = gpu_mod.Gpu(arch)\n")
    calls = [node for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and _constructor_name(node) in FORBIDDEN_CONSTRUCTORS]
    assert len(calls) == 3
