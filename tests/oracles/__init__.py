"""Reference oracles for the equivalence suites.

Each oracle is the straightforward, slower formulation of something that
``src/`` implements on a fast path; tests assert the two agree within a
stated tolerance.  They live here, next to their users, so production code
keeps exactly one path per concern.
"""
