"""Finding, building and loading the votelace program under test.

The benchmark runs from the root of a source checkout.  The package is
imported from ``src/``; the compiled kernels are built from the tracked
``src/votelace/_ckernels.c`` with the system C compiler into
``.bench_build/`` (never under ``src/``), once per source digest.  That C is
generated by Cython from ``_ckernels.pyx``; when the ``.pyx`` no longer
matches the source lines the C quotes, the C is stale and the compiled
backend is reported unavailable rather than timing the old kernels.

This module imports only what every interpreter has already loaded, so a
fresh interpreter can time ``import votelace.cli`` through :func:`load`
without paying for the benchmark's own imports.
"""

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
C_SOURCE = os.path.join(SRC, "votelace", "_ckernels.c")
PYX_SOURCE = os.path.join(SRC, "votelace", "_ckernels.pyx")
CFLAGS = ("-O3", "-shared", "-fPIC")


def program_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "votelace", "__init__.py"))


def stale_lines(c_text: str, pyx_text: str) -> list:
    """Line numbers of the ``.pyx`` whose text differs from what the C quotes.

    Cython prefixes the code of each statement with a comment that quotes the
    statement's ``.pyx`` line, marked ``# <<<<<<<<<<<<<<``, between the
    lines around it.
    """
    pyx = pyx_text.splitlines()
    stale, block, number = [], None, 0
    for line in c_text.splitlines():
        stripped = line.strip()
        if stripped.startswith('/* "votelace/_ckernels.pyx":'):
            block, number = [], int(stripped.rsplit(":", 1)[1])
        elif block is not None and stripped == "*/":
            marked = next((i for i, q in enumerate(block) if q.endswith("# <<<<<<<<<<<<<<")), None)
            if marked is None:
                stale.append(number)
            for i, quoted in enumerate(block if marked is not None else ()):
                at = number + i - marked
                if i == marked:
                    quoted = quoted[: -len("# <<<<<<<<<<<<<<")]
                if not 1 <= at <= len(pyx) or pyx[at - 1].rstrip() != quoted.rstrip():
                    stale.append(at)
            block = None
        elif block is not None:
            block.append(line[3:] if line.startswith(" * ") else "")
    return sorted(set(stale))


def build_ckernels():
    """Compile the C kernels unless a build of this exact source exists.

    Returns ``(path, note)``; ``path`` is None when the compiled backend is
    unavailable and ``note`` then says why.
    """
    import hashlib
    import shutil
    import subprocess
    import sysconfig

    if not os.path.isfile(C_SOURCE):
        return None, "src/votelace/_ckernels.c is missing"
    if not os.path.isfile(PYX_SOURCE):
        return None, "src/votelace/_ckernels.pyx is missing, so _ckernels.c cannot be checked against it"
    with open(C_SOURCE, "rb") as fh:
        c_bytes = fh.read()
    with open(PYX_SOURCE, encoding="utf-8") as fh:
        stale = stale_lines(c_bytes.decode("utf-8"), fh.read())
    if stale:
        return None, f"_ckernels.c is stale: it quotes _ckernels.pyx lines {stale[:5]} differently"
    digest = hashlib.sha256(c_bytes)
    digest.update(" ".join((sys.version, *CFLAGS)).encode())
    target = os.path.join(BUILD, f"_ckernels-{digest.hexdigest()[:16]}{sysconfig.get_config_var('EXT_SUFFIX')}")
    if os.path.isfile(target):
        return target, "cached build"
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        return None, "no C compiler on PATH"
    os.makedirs(BUILD, exist_ok=True)
    partial = f"{target}.{os.getpid()}.tmp"
    include = sysconfig.get_paths()["include"]
    try:
        proc = subprocess.run(
            [compiler, *CFLAGS, f"-I{include}", C_SOURCE, "-o", partial],
            capture_output=True, text=True, timeout=600,
        )
    except subprocess.TimeoutExpired:
        proc = None
    if proc is None or proc.returncode != 0:
        if os.path.exists(partial):
            os.unlink(partial)
        reason = "timed out" if proc is None else proc.stderr.strip()[-400:]
        return None, f"{compiler} failed: {reason}"
    os.replace(partial, target)
    return target, "built"


def load(backend: str, ckernels=None):
    """Import ``votelace.cli`` from ``src/`` with ``backend`` ("python" or "c") active.

    The compiled module is registered as ``votelace._ckernels`` before the
    package is imported, so the package's own backend selection finds it.
    """
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if backend == "c":
        if ckernels is None:
            raise RuntimeError("the compiled backend was requested but is not built")
        spec = importlib.util.spec_from_file_location("votelace._ckernels", ckernels)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
    os.environ["VOTELACE_BACKEND"] = backend
    import votelace.cli
    from votelace import kernels

    if kernels.active_backend() != backend:
        raise RuntimeError(f"asked for kernel backend {backend!r}, got {kernels.active_backend()!r}")
    return votelace.cli


_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, {bench!r})
import program, reference
before = reference.reference()
start = time.perf_counter()
program.load({backend!r}, {ckernels!r})
elapsed = time.perf_counter() - start
print(elapsed, (before + reference.reference()) / 2)
"""


def import_seconds(backend: str, ckernels, samples: int) -> list:
    """Time ``import votelace.cli`` in ``samples`` fresh interpreters, one after another.

    Returns ``(seconds, reference seconds)`` per interpreter, the reference
    being the mean of :func:`reference.reference` run just before and just
    after the import.
    """
    import subprocess

    code = _IMPORT_PROBE.format(bench=os.path.dirname(os.path.abspath(__file__)), backend=backend, ckernels=ckernels)
    times = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, cwd=ROOT, check=True
        )
        elapsed, ref = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(elapsed), float(ref)))
    return times


def caches() -> dict:
    """Every functools cache in the loaded votelace modules, keyed by function name."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "votelace" and not name.startswith("votelace."):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and callable(getattr(value, "cache_info", None)):
                found[value.__name__] = value
    return found
