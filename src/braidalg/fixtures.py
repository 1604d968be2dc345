"""Fixture files: JSON documents carrying an exchange/braiding matrix, a
representation, or a relation set, with all entries in the scalar grammar.
Payloads are validated against their kind's schema before any computation.
"""

from __future__ import annotations

import json
from pathlib import Path

from .linalg import BraidedSpace, SymMatrix, flip_matrix
from .ncalg import NCPoly, RelationSet
from .scalar import ZERO, Scalar, ScalarParseError, parse_scalar
from .uqg import CartanData, Gen, Representation, presentation_from_cartan

KINDS = ("rmatrix", "representation", "relations")


class FixtureError(ValueError):
    """Schema violation in a fixture document."""


def load_fixture(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise FixtureError("fixture must be a JSON object")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise FixtureError(f"fixture kind must be one of {KINDS}, got {kind!r}")
    return doc


def _parse_entry(text, where: str) -> Scalar:
    if not isinstance(text, str):
        raise FixtureError(f"{where}: entries must be scalar-grammar strings")
    try:
        return parse_scalar(text)
    except ScalarParseError as exc:
        raise FixtureError(f"{where}: {exc}") from exc


def _parse_matrix(entries, rows: int, cols: int, where: str) -> SymMatrix:
    if (not isinstance(entries, list) or len(entries) != rows
            or any(not isinstance(r, list) or len(r) != cols for r in entries)):
        raise FixtureError(f"{where}: expected a {rows}x{cols} grid")
    return SymMatrix([[_parse_entry(entries[i][j], f"{where}[{i}][{j}]")
                       for j in range(cols)] for i in range(rows)])


def braiding_from_fixture(doc: dict) -> SymMatrix:
    """The braiding candidate described by an rmatrix fixture.  Fixtures may
    carry the operator directly (form 'braiding', the default) or in
    exchange form (form 'rtt'), which is composed with the flip."""
    if doc.get("kind") != "rmatrix":
        raise FixtureError("expected an rmatrix fixture")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise FixtureError("rmatrix fixture needs a positive integer 'dim'")
    form = doc.get("form", "braiding")
    if form not in ("braiding", "rtt"):
        raise FixtureError("rmatrix 'form' must be 'braiding' or 'rtt'")
    size = dim * dim
    matrix = _parse_matrix(doc.get("entries"), size, size, "entries")
    if form == "rtt":
        return matrix * flip_matrix(dim)
    return matrix


def space_from_fixture(doc: dict) -> BraidedSpace:
    return BraidedSpace.from_braiding(braiding_from_fixture(doc))


def representation_from_fixture(doc: dict):
    """Build (Representation, BraidedSpace | None) from a representation
    fixture.  The optional 'rmatrix' block (inline fixture or
    {'builtin': 'sl:n'}) supplies the braided space."""
    if doc.get("kind") != "representation":
        raise FixtureError("expected a representation fixture")
    cartan_doc = doc.get("cartan")
    if not isinstance(cartan_doc, dict) or "matrix" not in cartan_doc:
        raise FixtureError("representation fixture needs cartan.matrix")
    try:
        cartan = CartanData.from_matrix(cartan_doc["matrix"],
                                        cartan_doc.get("d"))
    except (TypeError, ValueError) as exc:
        raise FixtureError(f"invalid Cartan data: {exc}") from exc
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 1:
        raise FixtureError("representation fixture needs a positive 'dim'")
    gens_doc = doc.get("generators")
    if not isinstance(gens_doc, dict):
        raise FixtureError("representation fixture needs a 'generators' map")
    presentation = presentation_from_cartan(cartan)
    assign = {}
    for name, entries in sorted(gens_doc.items()):
        try:
            gen = Gen.parse(name)
        except (ValueError, IndexError) as exc:
            raise FixtureError(f"bad generator name {name!r}") from exc
        assign[gen] = _parse_matrix(entries, dim, dim, f"generators[{name}]")
    try:
        rep = Representation(presentation, assign,
                             name=doc.get("name", "fixture representation"))
    except ValueError as exc:
        raise FixtureError(str(exc)) from exc
    space = None
    rdoc = doc.get("rmatrix")
    if rdoc is not None:
        if isinstance(rdoc, dict) and "builtin" in rdoc:
            from .builtin import resolve_builtin
            _, space = resolve_builtin(rdoc["builtin"])
        else:
            rdoc = dict(rdoc)
            rdoc.setdefault("kind", "rmatrix")
            space = space_from_fixture(rdoc)
    return rep, space


def relations_from_fixture(doc: dict) -> RelationSet:
    """Relation-set fixture: words use 1-based generator indices."""
    if doc.get("kind") != "relations":
        raise FixtureError("expected a relations fixture")
    alphabet = doc.get("alphabet")
    if not isinstance(alphabet, int) or alphabet < 1:
        raise FixtureError("relations fixture needs a positive 'alphabet'")
    rel_docs = doc.get("relations")
    if not isinstance(rel_docs, list):
        raise FixtureError("relations fixture needs a 'relations' list")
    polys = []
    for ridx, terms in enumerate(rel_docs):
        if not isinstance(terms, list):
            raise FixtureError(f"relation {ridx}: expected a list of terms")
        coeffs = {}
        for term in terms:
            if not isinstance(term, dict) or "word" not in term or "coeff" not in term:
                raise FixtureError(
                    f"relation {ridx}: terms need 'word' and 'coeff'")
            word = term["word"]
            if (not isinstance(word, list)
                    or any(not isinstance(i, int) or not 1 <= i <= alphabet
                           for i in word)):
                raise FixtureError(
                    f"relation {ridx}: words are lists of 1-based indices")
            key = tuple(i - 1 for i in word)
            c = _parse_entry(term["coeff"], f"relation {ridx}")
            coeffs[key] = coeffs.get(key, ZERO) + c
        polys.append(NCPoly(coeffs))
    names = doc.get("names")
    if names is not None and (
            not isinstance(names, list) or len(names) != alphabet
            or any(not isinstance(name, str) for name in names)):
        raise FixtureError(
            f"relations fixture 'names' must be a list of {alphabet} strings")
    try:
        return RelationSet(alphabet, polys, names=names)
    except ValueError as exc:
        raise FixtureError(str(exc)) from exc


def matrix_entries(m: SymMatrix) -> list:
    return [[str(e) for e in row] for row in m.entries]


def representation_fixture(rep: Representation, space=None, name=None) -> dict:
    """Serialize a representation (and optionally its space) as a fixture."""
    doc = {
        "kind": "representation",
        "name": name or rep.name,
        "cartan": {"matrix": [list(r) for r in rep.presentation.cartan.matrix],
                   "d": list(rep.presentation.cartan.d)},
        "dim": rep.dim,
        "generators": {str(g): matrix_entries(rep.matrix(g))
                       for g in rep.presentation.generators},
    }
    if space is not None:
        doc["rmatrix"] = {"kind": "rmatrix", "dim": space.dim,
                          "form": "braiding",
                          "entries": matrix_entries(space.braiding)}
    return doc


def write_fixture(doc: dict, path):
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")
