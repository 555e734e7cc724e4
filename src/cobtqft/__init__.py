"""Exact rational engine for 2-cobordisms and their field theories.

The package evaluates any 2-cobordism, given in normal form or as a
generator word, to an exact rational matrix under a commutative
Frobenius algebra, and certifies by exhaustive scan that the
15-dimensional tensor algebra built from the cyclic group of order 5
and the center of the symmetric group of degree 3 assigns distinct
matrices to distinct cobordisms.
"""

from .exact import RationalMatrix, kron, mat_mul
from .surface import (Cobordism, Component, component, compose, e_block,
                      permutation, tensor)
from .diagram import (Term, TermArityError, TermError, TermSyntaxError,
                      elaborate, format_cobordism, parse, print_term)
from .frobenius import (FiniteGroup, FrobeniusAlgebra,
                        center_of_group_algebra, faithful_algebra,
                        group_algebra, qz5, tensor_algebra,
                        verify_frobenius, zqs3)
from .tqft import (ALGEBRAS, Evaluation, closed_invariant, evaluate,
                   iterated_comul, iterated_mul, load_algebra,
                   zqs3_handle_power)
from .faithfulness import (ExceptionalTriple, GenusMultiset, ScanBounds,
                           ScanCertificate, enumerate_cobordisms,
                           faithfulness_scan, genus_multiset,
                           lemma4_injectivity, multiset_invariant,
                           separating_closure, zsigmondy_witness)

__version__ = "0.1.0"
