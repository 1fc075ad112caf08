"""Every construction of the library builds a valid, regular face table.

``OgPoset`` builds without checking, and the constructions rely on
arguments in their docstrings instead of a check.  Here each output is
written as an ogposet/1 document and read back through ``validate``, the
one reader of raw face tables, which must give the same faces; the output
must also be regular: every element of positive dimension has nonempty
input and output sides.
"""
import itertools

from dcx import (
    arrow,
    enumerate_sd,
    globe,
    join,
    oriental,
    path,
    point,
    replay,
    suspension,
    theta_from_tree,
)
from dcx.ogposet import MINUS, PLUS
from dcx.serialize import ogposet_from_data, ogposet_to_data
from conftest import assert_regular, differential_inputs

TREES = ("()", "((),())", "(((),()),())", "(((),),())", "((()),(),(()))", "((((),()),()),())")


def assert_valid_and_regular(P):
    Q = ogposet_from_data(ogposet_to_data(P))
    assert (Q.counts, Q.faces) == (P.counts, P.faces)
    assert_regular(Q)


def test_shapes_built_from_numbers_and_trees():
    shapes = [point(), arrow()]
    shapes += [globe(k) for k in range(6)]
    shapes += [path(k) for k in range(7)]
    shapes += [oriental(n) for n in range(7)]
    shapes += [theta_from_tree(tree) for tree in TREES]
    for mol in shapes:
        assert_valid_and_regular(mol.poset)


def test_corpus_pastings_atoms_and_replays(corpus):
    # the corpus is built from the point by pasting and by forming atoms
    for mol in corpus:
        assert_valid_and_regular(mol.poset)
        assert_valid_and_regular(replay(mol.cert).poset)


def test_suspensions_and_joins(corpus):
    small = [mol for mol in corpus if mol.size() <= 7][:8]
    for mol in small:
        assert_valid_and_regular(suspension(mol).poset)
        assert_valid_and_regular(suspension(suspension(mol)).poset)
    for a, b in itertools.product(small, repeat=2):
        assert_valid_and_regular(join(a, b).poset)


def test_boundary_and_closure_extracts(corpus):
    for mol in corpus:
        P = mol.poset
        for k, alpha in itertools.product(range(P.dim), (MINUS, PLUS)):
            assert_valid_and_regular(P.extract(P.boundary_masks(P.full_masks(), k, alpha))[0])
        for cl in P.cl_el:
            assert_valid_and_regular(P.extract(cl)[0])


def test_sd_thetas(corpus, horiz, vert):
    for mol, S in differential_inputs(corpus, horiz, vert):
        for sub in enumerate_sd(mol, S).elements:
            assert_valid_and_regular(sub.theta)
