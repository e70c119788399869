"""Exact counting of one-face and two-face rooted hypermaps.

Three mutually cross-validating constructions of the generating polynomials
that count rooted hypermaps by darts, edges and vertices: factorial-time
permutation enumeration (the ground truth), a polynomial-time closed-form
sum, and a three-term recurrence with a verifiable telescoping certificate.
Includes the Stirling-number and quantum mean-trace-power specializations.
All arithmetic is exact: big integers, exact rationals, sparse integer
polynomials.

The package re-exports nothing; import the submodules (polynomial,
enumeration, closed_form, recursion, two_face, cli) directly.
"""

__version__ = "0.1.0"
