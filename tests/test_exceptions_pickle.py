"""Every exception class under ``repro.*`` survives a pickle round trip.

A sharded run raises a cell's exception in the parent process after
pickling it in the worker; a class that cannot be rebuilt from its
pickled form turns a precise error into an opaque one.  The walk covers
every module of the package, so a new error class is checked the moment
it exists.
"""

import importlib
import pickle
import pkgutil

import pytest

import repro
from repro.flash.errors import (
    DieFailedError,
    PowerCutError,
    ProgramFaultError,
    StaleReservationError,
    TransientReadError,
)

#: constructor arguments of the classes whose ``__init__`` takes more than
#: a message; every other class is built from one message string
CUSTOM_ARGS = {
    TransientReadError: (1, 2, 3),
    ProgramFaultError: (4, 5, 6),
    DieFailedError: (7, "program"),
    PowerCutError: (42,),
    StaleReservationError: ("die 0", 10.5, 20_000.0),
}


def _repro_exceptions() -> list[type[BaseException]]:
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found: dict[type[BaseException], None] = {}
    todo = [BaseException]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro."):
                found[sub] = None
    return sorted(found, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


def _has_custom_init(cls: type[BaseException]) -> bool:
    return any("__init__" in vars(base) for base in cls.__mro__ if base.__module__.startswith("repro."))


EXCEPTIONS = _repro_exceptions()


def test_every_custom_constructor_has_arguments_here():
    assert {cls for cls in EXCEPTIONS if _has_custom_init(cls)} == set(CUSTOM_ARGS)


@pytest.mark.parametrize("cls", EXCEPTIONS, ids=lambda cls: f"{cls.__module__}.{cls.__qualname__}")
def test_round_trip_keeps_type_message_and_attributes(cls):
    original = cls(*CUSTOM_ARGS.get(cls, ("something went wrong",)))
    copy = pickle.loads(pickle.dumps(original))
    assert type(copy) is cls
    assert str(copy) == str(original)
    assert vars(copy) == vars(original)
