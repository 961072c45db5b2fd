import importlib.util
import random
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from keyscan import _scan_py
from keyscan.tableau import SkewTableau, Tableau, parse_tableau

EXAMPLE_T_TEXT = """\
1 1 3 4 6
2 3 5 7 9
4 5 6 8
5 7 9
7
8
"""

EXAMPLE_KEY_TEXT = """\
1 6 6 6 6
4 7 7 7 9
6 8 8 9
7 9 9
8
9
"""


KERNEL_SOURCE = Path(__file__).resolve().parent.parent / "src" / "keyscan" / "_scankernel.c"


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The compiled scanning kernel, built from source into a temporary
    directory with the system C compiler and loaded without installing
    it, so ``keyscan.scanning`` keeps whichever kernel it picked.  Any
    compiler warning, such as a variable left unused, fails the build."""
    cc = shutil.which("cc") or shutil.which("gcc")
    if cc is None:
        pytest.skip("no C compiler found")
    out = tmp_path_factory.mktemp("kernel") / (
        "_scankernel" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    subprocess.run(
        [cc, "-shared", "-fPIC", "-O2", "-Wall", "-Werror",
         "-I", sysconfig.get_paths()["include"], str(KERNEL_SOURCE), "-o", str(out)],
        check=True,
    )
    spec = importlib.util.spec_from_file_location("keyscan._scankernel", out)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def kernels(request):
    """The pure kernel, then the compiled one when it can be built.  Each
    kernel test runs on every kernel here and compares it with the
    paper's passes or the jdt oracles, never with the other kernel, so
    without a C compiler the pure kernel still meets every check."""
    try:
        return (_scan_py, request.getfixturevalue("compiled_kernel"))
    except pytest.skip.Exception:
        return (_scan_py,)


@pytest.fixture
def example_t() -> Tableau:
    return parse_tableau(EXAMPLE_T_TEXT)


@pytest.fixture
def example_key() -> Tableau:
    return parse_tableau(EXAMPLE_KEY_TEXT)


def random_skew(rng: random.Random, max_boxes=8, max_entry=6) -> SkewTableau:
    """A random legal skew tableau with at most max_boxes boxes."""
    while True:
        k = rng.randint(1, 4)
        lengths = sorted((rng.randint(1, 3) for _ in range(k)), reverse=True)
        if sum(lengths) > max_boxes:
            continue
        offsets = sorted((rng.randint(0, 2) for _ in range(k)), reverse=True)
        cols = []
        ok = True
        for c in range(k):
            col = []
            for i in range(lengths[c]):
                r = offsets[c] + i
                lo = col[-1] + 1 if col else 1
                if c and offsets[c - 1] <= r < offsets[c - 1] + lengths[c - 1]:
                    lo = max(lo, cols[c - 1][1][r - offsets[c - 1]])
                if lo > max_entry:
                    ok = False
                    break
                col.append(rng.randint(lo, max_entry))
            if not ok:
                break
            cols.append((offsets[c], tuple(col)))
        if ok:
            return SkewTableau(tuple(cols))
