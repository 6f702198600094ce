import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig

import pytest

from votelace import kernels

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pytest_report_header(config):
    return f"votelace kernel backend: {kernels.active_backend()}"


@pytest.fixture(scope="session")
def ckernels(tmp_path_factory):
    """The compiled kernels, or None when no C compiler is on PATH.

    They are built the way ``setup.py`` builds them, from the tracked
    ``src/votelace/_ckernels.c``, into a temporary directory, and loaded as a
    module named ``_ckernels``.  The module also registers itself as
    ``votelace._ckernels``; that entry is removed again, so the session's
    kernel backend stays the one ``votelace.kernels`` bound at import.
    """
    compiler = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    if shutil.which(compiler.split()[0]) is None:
        return None
    out = tmp_path_factory.mktemp("ckernels")
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-temp", str(out / "temp"), "--build-lib", str(out / "lib")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    built = sorted((out / "lib" / "votelace").glob("_ckernels*"))
    if build.returncode != 0 or not built:
        pytest.fail(f"building the compiled kernels failed:\n{build.stderr[-2000:]}")
    registered = "votelace._ckernels" in sys.modules
    spec = importlib.util.spec_from_file_location("_ckernels", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    if not registered:
        sys.modules.pop("votelace._ckernels", None)
    return module
