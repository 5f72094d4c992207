import numpy as np
import pytest

from lassodist.errors import InputError
from lassodist.rng import philox_uniforms

# the first five lattice-shift uniforms of three (entropy, spawn_key) streams:
# lassodist's own reproducibility contract, whatever numpy is installed
PINNED = {
    (0, ()): [0.014067035665647709, 0.2577672456246177, 0.47156538101528966,
              0.0914196711073687, 0.9791345000654033],
    (7, (0, 1)): [0.16513473575633453, 0.7344528030279328, 0.6252302695736801,
                  0.2851527881276681, 0.22617684257541915],
    (2**40 + 3, (5,)): [0.699175891255237, 0.4789742171421021, 0.08963518575436324,
                        0.8053958447118001, 0.986223066093267],
}


@pytest.mark.parametrize("seed", PINNED, ids=str)
def test_lattice_shifts_are_pinned(seed):
    assert philox_uniforms(*seed, 5) == PINNED[seed]
    # a shorter stream is a prefix of a longer one
    assert philox_uniforms(*seed, 2) == PINNED[seed][:2]


def test_philox_uniforms_match_numpy():
    # entropy of one to four 32-bit words, spawn keys of zero to three entries
    # (some of two words), and counts on and off the four-word Philox block
    entropies = [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**64, 2**64 + 1,
                 2**100 + 7, *(int(e) for e in np.random.default_rng(3).integers(0, 2**62, 3))]
    keys = [(), (0,), (1,), (0, 1), (5,), (2**32,), (2**40, 3), (1, 2, 3), (2**33 + 1, 0, 7)]
    counts = (1, 3, 5, 16, 17, 40)
    cases = 0
    for entropy in entropies:
        for key in keys:
            for count in counts:
                seq = np.random.SeedSequence(entropy, spawn_key=key)
                want = np.random.Generator(np.random.Philox(seq)).random(count)
                got = np.array(philox_uniforms(entropy, key, count))
                assert got.tobytes() == want.tobytes(), (entropy, key, count)
                cases += 1
    assert cases >= 500


def test_philox_uniforms_reject_negative_seeds():
    for entropy, key in ((-1, ()), (-(2**64), (0,)), (3, (-1,)), (3, (0, -2))):
        with pytest.raises(InputError, match="nonnegative"):
            philox_uniforms(entropy, key, 4)
