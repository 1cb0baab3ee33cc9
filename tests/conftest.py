import functools

import pytest


@pytest.fixture
def computed(monkeypatch):
    """computed(cls, name) wraps the cached property `name` of `cls` (a
    `Multigraph` or a `Poset`) and returns the list of instances it is
    computed for, one entry per computation."""

    def wrap(cls: type, name: str) -> list:
        compute = getattr(cls, name).func
        instances: list = []

        def counted(instance):
            instances.append(instance)
            return compute(instance)

        counting = functools.cached_property(counted)
        counting.__set_name__(cls, name)
        monkeypatch.setattr(cls, name, counting)
        return instances

    return wrap
