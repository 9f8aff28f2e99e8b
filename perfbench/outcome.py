"""Outcomes of one benchmark operation.

``OK``: the output passed its check, or the input was rejected with the
error it expects.  ``FAIL``: anything else.  ``DEFECT``: a failure of the
one documented kind the benchmark feeds on purpose, a non-finite
coefficient that the CLI accepts with exit 0 (ROADMAP aim 3).  Both FAIL
and DEFECT count as failed operations; only FAIL makes a run incorrect.
"""

OK = "ok"
FAIL = "fail"
DEFECT = "defect"
