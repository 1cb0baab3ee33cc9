import functools

import pytest

from polybinom.graphs import Multigraph


@pytest.fixture
def computed(monkeypatch):
    """computed(name) wraps the cached property `name` of `Multigraph` and
    returns the list of graphs it is computed for, one entry per computation."""

    def wrap(name: str) -> list[Multigraph]:
        compute = getattr(Multigraph, name).func
        graphs: list[Multigraph] = []

        def counted(g: Multigraph):
            graphs.append(g)
            return compute(g)

        counting = functools.cached_property(counted)
        counting.__set_name__(Multigraph, name)
        monkeypatch.setattr(Multigraph, name, counting)
        return graphs

    return wrap
