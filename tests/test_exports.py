"""Every name a module exports resolves, so a deletion leaves no stale export;
the README names the current value of every cap a user can hit, and the caps
keep the relations the code relies on; only `polynomials` imports `fractions`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import polybinom
from polybinom import caps

MODULES = ["polybinom"] + [
    f"polybinom.{info.name}" for info in pkgutil.iter_modules(polybinom.__path__)
]

# caps no CLI command or survey can reach on its own, so the README does not name them
INTERNAL_CAPS = {
    "FLOW_CANDIDATE_BUDGET": "FLOW_XI_CAP is checked first and keeps every flow count inside it",
    "POINT_ENUMERATION_BUDGET": "the checking routes walk a value box of at most 8^7 maps",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []


def test_caps_are_declared_only_in_caps():
    for name in MODULES:
        module = importlib.import_module(name)
        if module is not caps:
            assert [attr for attr in caps.__all__ if hasattr(module, attr)] == [], name


def test_readme_names_every_cap():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    bullet = readme.split("\n- Caps:", 1)[1].split("\n\n", 1)[0].split("\n- ", 1)[0]
    bullet = " ".join(bullet.split())
    named = {
        "ORIENTATION_EDGE_CAP": ["totally cyclic orientation enumeration `m <= {}`"],
        "ACYCLIC_ORIENTATION_CAP": ["acyclic orientations `|chi(-1)| <= {}`"],
        "CHROMATIC_VERTEX_CAP": ["chromatic polynomials `d <= {}`"],
        "ORDER_POLY_ELEMENT_CAP": ["order stars `d <= {}`"],
        "LATTICE_POINT_ELEMENT_CAP": [
            "the lattice-point oracle `d <= {}`",
            "(so `order` takes at most {} elements)",
        ],
        "FLOW_XI_CAP": ["flows `xi <= {}`"],
        "FLOW_VERTEX_CAP": ["`flow` takes graphs on `d <= {}` vertices"],
        "POSET_SURVEY_CAP": ["the exhaustive poset survey `d <= {}`"],
        "GRAPH_SURVEY_CAP": ["the exhaustive graph and flow surveys `d <= {}`"],
        "FLOW_XI_SURVEY_CAP": ["the flow survey `xi <= {}`"],
    }
    declared = sorted(name for name in vars(caps) if name.isupper())
    assert declared == sorted(caps.__all__) == sorted([*named, *INTERNAL_CAPS])
    phrases = [p.format(getattr(caps, name)) for name, ps in named.items() for p in ps]
    assert [p for p in phrases if p not in bullet] == []
    assert "`polybinom.caps`" in bullet


def test_cap_relations():
    # the order-star cross-route of `chromatic` takes every graph it accepts
    assert caps.CHROMATIC_VERTEX_CAP <= caps.ORDER_POLY_ELEMENT_CAP
    # `poset_checks` hits the lattice-point cap before the order-star cap
    assert caps.LATTICE_POINT_ELEMENT_CAP <= caps.ORDER_POLY_ELEMENT_CAP
    assert caps.POSET_SURVEY_CAP <= caps.LATTICE_POINT_ELEMENT_CAP
    # `graph_checks` takes every graph of the exhaustive graph survey
    assert caps.GRAPH_SURVEY_CAP <= caps.CHROMATIC_VERTEX_CAP
    assert caps.FLOW_XI_SURVEY_CAP <= caps.FLOW_XI_CAP
    # the flow survey checks every graph class it lists
    assert caps.GRAPH_SURVEY_CAP <= caps.FLOW_VERTEX_CAP


def test_only_polynomials_imports_fractions():
    # every route counts in integers; `Polynomial`, built from a star vector
    # only where it is shown, is the one place for rational coefficients
    importers = []
    for path in sorted(Path(polybinom.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "fractions" for name in names):
                importers.append(path.name)
    assert importers == ["polynomials.py"]
