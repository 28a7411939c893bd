"""Built-in test functions resolved from their command-line names."""

import numpy as np
import pytest

from subquad.errors import FileFormatError
from subquad.functions import make_function, random_function


@pytest.mark.parametrize("spec,want", [
    ("quad:3", ("quadratic", 3)),
    ("cubic:5", ("cubic", 5)),
    ("trig:7", ("trig", 7)),
    ("sphere:1", "takes no seed"),
    ("cone:1", "unknown function"),
    ("quad:x", "bad function seed"),
])
def test_make_function(spec, want):
    """``quad``, ``cubic`` and ``trig`` with a seed are the seeded draw of
    their class; a seeded ``sphere``, an unknown name and a seed that is
    not an integer raise ``FileFormatError``."""
    if isinstance(want, str):
        with pytest.raises(FileFormatError, match=want):
            make_function(spec, 4)
        return
    kind, seed = want
    got = make_function(spec, 4)
    expected = random_function(kind, 4, np.random.default_rng(seed))
    assert type(got) is type(expected)
    for x in np.random.default_rng(0).standard_normal((3, 4)):
        assert got(x) == expected(x)
