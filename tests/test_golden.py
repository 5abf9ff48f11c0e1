"""The solver's outputs against the golden record of ``make_golden.py``."""

import numpy as np

import make_golden


def test_outputs_match_the_golden_record():
    # Bitwise in the environment the record was made in.  Elsewhere the
    # last bits of J0/Y0, log and BLAS may differ, so the hashes of S and
    # of the dense operators are not compared and the other outputs are
    # held to 1e-9 of their peak.
    with np.load(make_golden.GOLDEN) as record:
        expect = dict(record)
    env = make_golden.environment()
    bitwise = {name: str(expect.pop(name)) for name in env} == env
    got = make_golden.outputs()
    assert sorted(got) == sorted(expect)
    for name, value in got.items():
        want = expect[name]
        assert value.shape == want.shape and value.dtype == want.dtype, name
        if bitwise:
            assert value.tobytes() == want.tobytes(), name
        elif name.endswith(".iterations"):
            assert value == want, name
        elif not name.endswith("_sha256"):
            assert np.max(np.abs(value - want)) <= 1e-9 * np.max(np.abs(want)), name
