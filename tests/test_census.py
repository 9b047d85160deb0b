"""Byte pin over census(6): every certificate ``recognize`` gives on every
instance of ``census.census(6)``, with no oracle.

The pinned bytes include the 8 wrong NOs of ROADMAP item 1, on the
one-sided shapes (0,2,2,2) and (2,2,0,2). A change that moves a verdict or
a route re-records the digest and the tally here under the ROADMAP's rule
for changes to a verdict or a route; any other change keeps them as they
are. CI pins census(7) the same way.
"""

from collections import Counter

from census import census_record
from squaregeo.pipeline import NO, UNDECIDED, YES

CENSUS6_SHA256 = "465ac1d71e15d250557de88e5fea77a7da7be02ac1b7d1e9b8587068926ccd0a"


def test_census6_certificates_are_byte_pinned():
    digest, count, routes, unverified = census_record(6)
    assert count == 6912
    assert routes == Counter({(YES, "sufficient"): 760, (NO, "necessary"): 30,
                              (UNDECIDED, "assumption"): 6122})
    assert unverified == 0
    assert digest == CENSUS6_SHA256

