"""Every annotation in the package names something that exists.

The modules use postponed annotations, which nothing evaluates at run time,
so a name an annotation uses but its module never imports goes unnoticed
until ``typing.get_type_hints`` or a documentation tool reads it.
"""

import subprocess
import sys

# Resolves, in a fresh process, the hints of every function, class and
# method defined in each qkoopman module, with TYPE_CHECKING set as a type
# checker sets it, so the names a module imports for its annotations alone
# are there; prints one line per hint that does not resolve.
RESOLVE = """
import importlib, inspect, pkgutil, typing
import numpy

typing.TYPE_CHECKING = True
import qkoopman

for info in pkgutil.iter_modules(qkoopman.__path__):
    module = importlib.import_module("qkoopman." + info.name)
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            members = [obj] + [m for m in vars(obj).values() if inspect.isfunction(m)]
        elif inspect.isfunction(obj):
            members = [obj]
        else:
            continue
        for member in members:
            try:
                typing.get_type_hints(member)
            except Exception as err:
                print(module.__name__, member.__qualname__, type(err).__name__, err)
print("checked")
"""


def test_every_hint_resolves():
    proc = subprocess.run([sys.executable, "-c", RESOLVE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "checked\n"
