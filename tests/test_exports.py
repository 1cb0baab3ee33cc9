"""Every name a module exports resolves, so a deletion leaves no stale export,
and the README names the current value of every public cap."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import polybinom
from polybinom.chromatic import ACYCLIC_ORIENTATION_CAP, CHROMATIC_VERTEX_CAP
from polybinom.flows import FLOW_XI_CAP
from polybinom.graphs import ORIENTATION_EDGE_CAP
from polybinom.posets import DESCENT_ELEMENT_CAP, LATTICE_POINT_ELEMENT_CAP, ORDER_POLY_ELEMENT_CAP
from polybinom.survey import POSET_SURVEY_CAP

MODULES = ["polybinom"] + [
    f"polybinom.{info.name}" for info in pkgutil.iter_modules(polybinom.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_readme_names_every_cap():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = readme.split("\n- Caps:", 1)[1].split("\n\n", 1)[0].split("\n- ", 1)[0]
    bullet = " ".join(bullet.split())
    named = {
        "totally cyclic orientation enumeration `m <= {}`": ORIENTATION_EDGE_CAP,
        "acyclic orientations `|chi(-1)| <= {}`": ACYCLIC_ORIENTATION_CAP,
        "chromatic polynomials `d <= {}`": CHROMATIC_VERTEX_CAP,
        "order stars `d <= {}`": ORDER_POLY_ELEMENT_CAP,
        "the lattice-point oracle `d <= {}`": LATTICE_POINT_ELEMENT_CAP,
        "(so `order` takes at most {} elements)": LATTICE_POINT_ELEMENT_CAP,
        "the descent route `d <= {}`": DESCENT_ELEMENT_CAP,
        "flows `xi <= {}`": FLOW_XI_CAP,
        "the exhaustive poset survey `d <= {}`": POSET_SURVEY_CAP,
    }
    assert [p.format(v) for p, v in named.items() if p.format(v) not in bullet] == []
