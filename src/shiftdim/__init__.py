"""Exact finite-resolution workbench for dimension certificates of
low-complexity one-sided subshifts.

The chain: language and complexity analysis -> left special words ->
finite cover graphs -> tower covers -> tower pairs -> window-equivariant
maps into the integer simplex -> groupoid-window cover certificates, with
an independent verifier for every construction and closed-form bound
calculators.  All arithmetic is exact (integers and rationals).

The package re-exports nothing: import each name from the module that
defines it, such as ``shiftdim.words`` or ``shiftdim.cover``.
"""

__version__ = "0.1.0"
