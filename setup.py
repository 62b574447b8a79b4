"""Builds the compiled trajectory kernel; the package works without it
(the pure-Python twin is selected at import time), so ``optional=True``
makes an extension build failure non-fatal.  Needs only a C compiler.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("pwlienard._kernel_c",
                             ["src/pwlienard/_kernel_c.c"], optional=True)])
