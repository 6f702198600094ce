"""Build script for the optional compiled containment kernels.

The extension is compiled from the tracked ``src/votelace/_ckernels.c``, so
building needs only a C compiler.  That file is generated from
``_ckernels.pyx`` and committed with it (see README).  The extension is a
pure speedup: without a C compiler the build degrades to the pure-Python
kernels and the package stays fully functional (``votelace.kernels`` picks
the backend at import time).
"""

import sys

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """build_ext that treats compiler failures as a soft skip."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any build failure is non-fatal
            print(f"warning: skipping compiled kernels ({exc})", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            print(f"warning: could not build {ext.name} ({exc})", file=sys.stderr)


CKERNELS = Extension("votelace._ckernels", ["src/votelace/_ckernels.c"], extra_compile_args=["-O3"])

setup(ext_modules=[CKERNELS], cmdclass={"build_ext": OptionalBuildExt})
