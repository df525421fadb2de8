import importlib
import inspect
import pkgutil
import typing

import gw24


def defined_functions(module):
    """Yield (qualified name, function) for each function and method that
    ``module`` defines; methods that a class factory generates, such as a
    NamedTuple's ``__new__``, belong to no module of the package."""
    def own(obj):
        return getattr(obj, "__module__", None) == module.__name__

    for name, obj in vars(module).items():
        if inspect.isfunction(obj) and own(obj):
            yield name, obj
        elif inspect.isclass(obj) and own(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (staticmethod, classmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                if inspect.isfunction(member) and own(member):
                    yield f"{name}.{attr}", member


def test_every_annotation_resolves():
    # with postponed annotations a name that is neither defined nor
    # imported fails only when the hints are read
    failures = {}
    for info in pkgutil.iter_modules(gw24.__path__):
        module = importlib.import_module(f"gw24.{info.name}")
        for name, fn in defined_functions(module):
            try:
                typing.get_type_hints(fn)
            except Exception as exc:
                failures[f"{info.name}.{name}"] = repr(exc)
    assert failures == {}
