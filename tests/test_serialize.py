"""File formats: byte-stable round trips of ogposet/1 and ssset/1, and the
dcomplex/1 writer against an isomorphism-search oracle."""
import pytest

from dcx import OgPoset, import_ssset, oriental, replay, serialize, validate
from dcx.dcomplex import SemiSimplicialSet
from dcx.errors import DcxError, IdentityViolationError
from conftest import oracle_isomorphisms


def test_ogposet_round_trip_is_byte_stable(corpus, sphere_boundary):
    posets = [m.poset for m in corpus] + [oriental(n).poset for n in range(6)]
    posets += [sphere_boundary, validate([3]), OgPoset((), [])]
    for P in posets:
        text = serialize.dumps_ogposet(P)
        again = serialize.loads_ogposet(text)
        assert again.counts == P.counts and again.faces == P.faces
        assert serialize.dumps_ogposet(again) == text


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_ssset_round_trip_is_byte_stable(n):
    text = serialize.dumps_ssset(SemiSimplicialSet.standard_simplex(n))
    again = serialize.loads_ssset(text)
    assert again.dim == n
    assert serialize.dumps_ssset(again) == text


def test_ssset_round_trip_of_a_circle():
    # one vertex and one loop: not a simplicial complex, still an ssset
    text = serialize.dumps_ssset(SemiSimplicialSet([1, [[0, 0]]]))
    assert serialize.dumps_ssset(serialize.loads_ssset(text)) == text


def test_bad_documents_rejected():
    with pytest.raises(DcxError):
        serialize.loads_ssset('{"format": "ogposet/1", "faces": [1]}')
    with pytest.raises(IdentityViolationError):
        serialize.loads_ssset('{"format": "ssset/1", "faces": [2, [[0, 1]], [[0, 0, 0]]]}')


def dcomplex_oracle_data(X):
    """The dcomplex/1 data of X, each attachment map read through the
    isomorphism search between the cell's shape and a fresh replay of its
    certificate: the joint search of the pair in ``conftest``, which finds
    exactly one, as a molecule has no other automorphism."""
    cells = []
    for level in X.cells:
        row = []
        for cell in level:
            (iso,) = oracle_isomorphisms(cell.shape.poset, replay(cell.shape.cert).poset, limit=2)
            attach = {
                serialize._el_name(iso[el]): serialize._el_name(cid)
                for el, cid in sorted(cell.attach.items())
            }
            row.append({"shape": cell.shape.cert, "attach": attach})
        cells.append(row)
    return {"format": "dcomplex/1", "cells": cells}


def test_dcomplex_writer_matches_the_isomorphism_search():
    complexes = [import_ssset(SemiSimplicialSet.standard_simplex(n)) for n in range(6)]
    complexes.append(serialize.loads_dcomplex(serialize.dumps_dcomplex(complexes[4])))
    for X in complexes:
        assert serialize.dcomplex_to_data(X) == dcomplex_oracle_data(X)


def test_dcomplex_writer_replays_each_certificate_once(monkeypatch):
    calls = []

    def counted(cert):
        calls.append(cert)
        return replay(cert)

    monkeypatch.setattr(serialize, "replay", counted)
    serialize.dumps_dcomplex(import_ssset(SemiSimplicialSet.standard_simplex(4)))
    assert len(calls) == len(set(calls)) == 5
