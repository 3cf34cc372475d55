"""The presentations the workloads use, and the ones each workload builds
during set-up.

This module imports nothing, so that the set-up probe (``startup.py``)
measures shiftdim's start-up and not the benchmark's own imports.
"""

FIBONACCI = "variant = substitution\nalphabet = 0 1\nrule.0 = 0 1\nrule.1 = 0\n"
THUE_MORSE = "variant = substitution\nalphabet = 0 1\nrule.0 = 0 1\nrule.1 = 1 0\n"
TRIBONACCI = "variant = substitution\nalphabet = 0 1 2\nrule.0 = 0 1\nrule.1 = 0 2\nrule.2 = 0\n"

SETUP = {
    "fib-skew-dad": (FIBONACCI,),
    "tm-trib-front": (THUE_MORSE, TRIBONACCI),
}
