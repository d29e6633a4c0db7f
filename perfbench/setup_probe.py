"""One workload's set-up in a fresh interpreter: import the package, build the models.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
       python3 perfbench/setup_probe.py --reference

Prints the seconds from just before ``import countbridge`` to the end of the
build, so interpreter start-up and exit are not counted.  ``--reference``
instead times the import of REFERENCE_IMPORTS, a fixed set of modules the
package has no say over; run.py times it beside each set-up to gauge how
fast the machine imports at that moment.
"""

import importlib
import pathlib
import sys
import time

REFERENCE_IMPORTS = ("numpy", "asyncio", "decimal", "ctypes", "sqlite3", "tarfile",
                     "unittest.mock", "email.mime.multipart", "http.server",
                     "xml.dom.minidom", "multiprocessing.pool", "logging.handlers",
                     "urllib.request", "doctest", "pydoc")

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

t0 = time.perf_counter()
if sys.argv[1] == "--reference":
    for name in REFERENCE_IMPORTS:
        importlib.import_module(name)
else:
    import countbridge  # noqa: F401
    import workloads

    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).build()
print(time.perf_counter() - t0)
