"""Build script: compiles the optional C search kernels (`seqext._ckernels`).

The package works without the extension (`backends` falls back to the
pure-Python twin at import time), so the extension is optional: when no C
compiler is available the build still succeeds and only speed is lost.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "seqext._ckernels",
            ["src/seqext/_ckernels.c"],
            extra_compile_args=["-O2"],
            optional=True,
        )
    ]
)
