"""scipy's compiled kernels, loaded from their extension files.

Each module comes from its own file, so the __init__ of its package never
runs, and the stages that never call a kernel (extract, features) never load
scipy at all. On a 2-core x86-64 VM, scipy/signal/__init__.py would load
scipy.stats (through _peak_finding), scipy.spatial and scipy.ndimage, 0.6-0.8
s of every backtest process; scipy/optimize/__init__.py loads _linprog,
_shgo, scipy.linalg and scipy.fft, about 0.3 s more; and
scipy/special/__init__.py runs _support_alternative_backends, which loads
scipy._lib.array_api_compat and numpy.f2py, 0.15-0.3 s of every analyze and
backtest process.
"""

from __future__ import annotations

import functools
import os
import sys

# the modules that the init of scipy.special._ufuncs imports through the
# import system (scipy 1.17); one of them missing from sys.modules would run
# scipy/special/__init__.py, which fails importing from the half-made _ufuncs
_UFUNCS_IMPORTS = ("_ufuncs_cxx", "_ellip_harm_2", "_special_ufuncs", "_gufuncs")


def scipy_extension(package: str, name: str):
    """The extension module scipy.<package>.<name>, loaded from its file
    unless sys.modules holds it.

    The module goes into sys.modules under its own name, so a later import
    of its package uses it.
    """
    full_name = f"scipy.{package}.{name}"
    if full_name not in sys.modules:
        # imported here, so that importing this module loads nothing more
        import importlib.machinery
        import importlib.util

        import scipy

        path = os.path.join(os.path.dirname(scipy.__file__), package,
                            name + importlib.machinery.EXTENSION_SUFFIXES[0])
        spec = importlib.util.spec_from_file_location(full_name, path)
        # an ImportError naming path when the file is missing
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[full_name] = module
    return sys.modules[full_name]


@functools.cache
def special():
    """scipy.special._ufuncs, whose ufuncs are the objects that scipy.special
    exports under the same names.

    Each module that its init imports and that sys.modules lacks is loaded
    first and dropped from sys.modules again once _ufuncs is made: a later
    import of scipy.special binds a module as an attribute of the package
    only when it loads that module itself, and special.errstate reads them
    there.
    """
    added = [name for name in _UFUNCS_IMPORTS if f"scipy.special.{name}" not in sys.modules]
    try:
        for name in added:
            scipy_extension("special", name)
        return scipy_extension("special", "_ufuncs")
    finally:
        for name in added:
            sys.modules.pop(f"scipy.special.{name}", None)
