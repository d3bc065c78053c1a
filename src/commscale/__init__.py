"""Scaling analysis of functional communities.

Four coordinated pieces: a closed-form mean-field model of community
scaling (meanfield), a promise-graph calculus for the microscopic
picture (promisegraph, graphio), a one-dimensional scalability and
queueing kit (uslkit), and deterministic synthetic ensembles with
power-law fitting (ensemble). The cli module exposes all of it on the
command line.

The root serves the public names of those modules and of errors, but
`import commscale` loads no submodule until a name is used: a submodule's
own name imports that submodule alone (`commscale.uslkit`, `from commscale
import cli`), and any other name imports the modules whose __all__ is
searched for it. So each command loads only the modules it runs.
"""

import sys

__version__ = "0.1.0"

_MODULES = ("ensemble", "errors", "graphio", "meanfield", "promisegraph", "uslkit")


def __getattr__(name: str):
    if name == "__all__":
        return [public for module in map(__getattr__, _MODULES) for public in module.__all__]
    if name.isidentifier() and not name.startswith("__"):
        # A submodule's name imports that submodule alone: `from . import uslkit` inside the package asks here first.
        # __import__, not importlib.import_module, which -X importtime does not see.
        try:
            __import__(f"{__name__}.{name}")
            return sys.modules[f"{__name__}.{name}"]
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                # Bound here, a name is looked up once: each search tries a failed import first.
                globals()[name] = value = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
