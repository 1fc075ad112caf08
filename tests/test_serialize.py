"""File formats: byte-stable round trips of ogposet/1 and ssset/1."""
import pytest

from dcx import OgPoset, oriental, serialize, validate
from dcx.dcomplex import SemiSimplicialSet
from dcx.errors import DcxError, IdentityViolationError


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
