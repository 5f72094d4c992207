import random

import pytest

from lassodist.distribution import _lattice_shifts

# the first five lattice-shift uniforms of three (entropy, spawn_key) streams:
# lassodist's own reproducibility contract, whatever numpy is installed
PINNED = {
    (0, ()): [0.3616904771377427, 0.9067071769868569, 0.36288511911559707,
              0.9467936684657978, 0.098939924480417],
    (7, (0, 1)): [0.07212698204794732, 0.6378015851968872, 0.9553728023558142,
                  0.7922016472260069, 0.15938793640800808],
    (2**40 + 3, (5,)): [0.40005006862661263, 0.5180601930756646, 0.8661414384703238,
                        0.8088243650923539, 0.7583506964201223],
}


@pytest.mark.parametrize("seed", PINNED, ids=str)
def test_lattice_shifts_are_pinned(seed):
    assert _lattice_shifts(seed, 1, 5).ravel().tolist() == PINNED[seed]
    # shifts are filled row by row, and a shorter stream is a prefix of a longer one
    assert _lattice_shifts(seed, 5, 1).ravel().tolist() == PINNED[seed]
    assert _lattice_shifts(seed, 1, 2).ravel().tolist() == PINNED[seed][:2]


def test_lattice_shift_streams_are_distinct_and_leave_the_global_state():
    # keys that a looser encoding would merge: entropy and key entries swapped,
    # a key entry of 0 against none, and the digits of two entries run together
    seeds = [(0, ()), (0, (0,)), (0, (0, 0)), (1, (2,)), (2, (1,)), (1, (23,)), (12, (3,)),
             (7, (0, 1)), (7, (1, 0)), (7, (1,)), (2**40 + 3, (5,))]
    state = random.getstate()
    streams = {tuple(_lattice_shifts(seed, 2, 3).ravel()) for seed in seeds}
    assert len(streams) == len(seeds)
    assert random.getstate() == state
