"""Every ringlab error crosses a process boundary intact: pickling keeps its
type, message and attributes, whatever arguments its constructor takes."""

import inspect
import pickle

import pytest

from ringlab.errors import RinglabError


def _error_classes(cls=RinglabError):
    yield cls
    for sub in cls.__subclasses__():
        yield from _error_classes(sub)


def _instance(cls):
    """An instance built from distinct values, one per constructor parameter
    (a message for the classes that keep Exception's constructor)."""
    if cls.__init__ is Exception.__init__:
        return cls("a message")
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    return cls(*([f"{name}-{i}", i] for i, name in enumerate(params)))


@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
@pytest.mark.parametrize("cls", list(_error_classes()), ids=lambda c: c.__name__)
def test_error_round_trips_through_pickle(cls, protocol):
    err = _instance(cls)
    copy = pickle.loads(pickle.dumps(err, protocol=protocol))
    assert type(copy) is cls
    assert str(copy) == str(err) and copy.args == err.args
    assert vars(copy) == vars(err)


@pytest.mark.parametrize("name", ["is_simple", "enumerate_ideals", "center"])
def test_a_built_construction_is_not_taken_for_a_ring(name):
    # a built crossed product carries its ring as .ring: the ring functions
    # name the type they got and point there, with a typed error rather
    # than an AttributeError from deep inside
    import ringlab
    from ringlab.corpus import build_rotation_dynamics
    from ringlab.errors import NotARing
    built = build_rotation_dynamics()
    with pytest.raises(NotARing, match=r"^expected a ring, got a DynamicsRing; pass its \.ring$"):
        getattr(ringlab, name)(built)
    getattr(ringlab, name)(built.ring)
